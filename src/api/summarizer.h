#ifndef FREQ_API_SUMMARIZER_H
#define FREQ_API_SUMMARIZER_H

/// \file summarizer.h
/// The runtime-configurable façade over the template layer: a `summarizer`
/// is a type-erased handle to any summary instantiation — key type, weight
/// type, lifetime policy, storage backend and optional engine sharding are
/// all *runtime* choices made by `freq::builder` (api/builder.h) — behind a
/// small-vtable interface a service can hold in config-driven code. One
/// class template, detail::facade_summary<Sketch, Sharded> (api/builder.h),
/// implements that interface for every instantiation.
///
/// The contract mirrors the template layer one-to-one, so nothing is lost
/// behind the erasure:
///   * update()/tick() ingest and age exactly like the underlying summary;
///     weights cross the boundary as double (u64 counts are exact to 2^53).
///   * frequent_items(error_mode, threshold) answers threshold-mode queries
///     under either §1.2 guarantee and returns a `result_set` carrying the
///     N / error-envelope metadata needed to interpret the rows.
///   * save() emits the unified serde envelope (api/summary_bytes.h);
///     restore_summary (api/builder.h) materializes the right instantiation
///     from bytes alone.
///   * make_feeder() hands out concurrent ingestion handles: one feeder per
///     thread, backed by real engine producers when the summarizer is
///     sharded (and by the summary itself, for single-threaded use, when
///     not).
///
/// Zero-overhead users keep the template layer (see freq.h for the
/// boundary): the façade costs one virtual dispatch per call. A feeder's
/// u64 push validates inline and touches no telemetry instrument; a
/// standalone feeder stages it into a 256-update run that reaches the
/// summary in one virtual call, a sharded one hands it to its engine
/// producer in one (see feeder). The batched update(span) path amortizes
/// the dispatch like a staged run.

#include <array>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "api/result_set.h"
#include "api/summary_bytes.h"
#include "common/contracts.h"
#include "obs/pipeline_metrics.h"
#include "obs/registry.h"
#include "stream/update.h"

namespace freq {

namespace detail {

[[noreturn]] inline void wrong_key_kind(const char* have, const char* got) {
    throw std::invalid_argument(std::string("libfreq: this summarizer has ") + have +
                                " keys; " + got + "-keyed call rejected");
}

/// The façade's weight predicate, shared by feeder pushes and every other
/// entry point (facade_weight, api/builder.h): finite and non-negative, and
/// for counts summaries also integral and below 2^64.
inline void require_weight(double w, bool counts) {
    FREQ_REQUIRE(std::isfinite(w) && w >= 0.0, "weights must be finite and non-negative");
    if (counts) {
        FREQ_REQUIRE(w < 18446744073709551616.0, "weight exceeds the counts range");
        FREQ_REQUIRE(w == std::floor(w), "counts summaries take integer weights");
    }
}

/// Updates counted toward telemetry's facade_updates but not yet added to
/// it: summarizers and feeders add them every 4096 updates, on flush and
/// on destruction, never per update.
struct update_tally {
    std::uint64_t pending = 0;

    void count(std::size_t n) {
        if ((pending += n) >= 4096) {
            flush();
        }
    }
    void flush() noexcept {
        if (pending > 0) {
            obs::pipeline().facade_updates.add(pending);
            pending = 0;
        }
    }
};

/// The erased ingestion handle behind summarizer::feeder. The handle
/// validates u64 pushes and stages them in `run`; push_run() receives each
/// full run (or the partial one at flush). The staging state lives here, on
/// the heap with the impl, so moving a feeder moves one pointer.
/// summarizer::make_feeder() fills in the run length and the key/weight
/// kind.
struct feeder_impl {
    static constexpr std::size_t run_capacity = 256;

    virtual ~feeder_impl() = default;
    /// Ingests one run of validated u64 updates, in push order.
    virtual void push_run(std::span<const update64d> run) = 0;
    virtual void push(std::string_view item, double weight) = 0;
    virtual void flush() = 0;

    std::array<update64d, run_capacity> run;
    std::size_t staged = 0;                 ///< run[0, staged) awaits dispatch
    std::size_t run_length = run_capacity;  ///< dispatch once this many are staged
    update_tally tally;
    bool text_keys = false;
    bool counts = true;
};

/// The erased summary behind summarizer. The builder and restore_summary
/// materialize every (algorithm × key kind × weight kind × lifetime ×
/// storage × engine) instantiation as one class template,
/// detail::facade_summary<Sketch, Sharded> (api/builder.h).
struct summarizer_impl {
    virtual ~summarizer_impl() = default;

    virtual const summary_descriptor& descriptor() const noexcept = 0;
    virtual bool sharded() const noexcept = 0;

    // --- ingestion (single-threaded; feeders for concurrency) ---------------
    virtual void update(std::uint64_t id, double weight) = 0;
    virtual void update(std::string_view item, double weight) = 0;
    virtual void update(std::span<const update64> batch) = 0;
    /// A standalone feeder's run. The handle has validated every element;
    /// the default applies them one by one through update().
    virtual void apply_run(std::span<const update64d> run) {
        for (const update64d& u : run) {
            update(u.id, u.weight);
        }
    }
    virtual std::unique_ptr<feeder_impl> make_feeder() = 0;
    virtual void flush() = 0;

    // --- lifetime -----------------------------------------------------------
    virtual void tick(std::uint64_t epochs) = 0;
    virtual std::uint64_t now() const = 0;

    // --- cached read path (engine-backed summarizers only) -------------------
    // Default: standalone summaries answer queries directly from their own
    // state — there are no shards to copy — so enabling is rejected and the
    // service reads as off.
    virtual void enable_snapshot_service(std::chrono::microseconds) {
        FREQ_REQUIRE(false,
                     "the snapshot service caches the sharded engine's view; this "
                     "summarizer is standalone — build it with .sharded(...)");
    }
    virtual void disable_snapshot_service() {}
    virtual bool snapshot_service_enabled() const noexcept { return false; }
    virtual std::uint64_t snapshot_epoch() const { return 0; }

    // --- point queries ------------------------------------------------------
    virtual double estimate(std::uint64_t id) const = 0;
    virtual double estimate(std::string_view item) const = 0;
    virtual double lower_bound(std::uint64_t id) const = 0;
    virtual double lower_bound(std::string_view item) const = 0;
    virtual double upper_bound(std::uint64_t id) const = 0;
    virtual double upper_bound(std::string_view item) const = 0;
    virtual double total_weight() const = 0;
    virtual double maximum_error() const = 0;
    virtual std::uint32_t num_counters() const = 0;
    virtual std::uint32_t capacity() const = 0;
    virtual std::size_t memory_bytes() const = 0;

    // --- set queries --------------------------------------------------------
    virtual result_set frequent_items(error_mode mode, double threshold) const = 0;
    virtual result_set top_items(std::size_t m) const = 0;

    // --- serde / merge / snapshot -------------------------------------------
    // save() is non-const: an engine-backed summary drains its staged
    // updates first so the bytes are stream-complete.
    virtual summary_bytes save() = 0;
    virtual void merge_from(const summarizer_impl& other) = 0;
    virtual std::unique_ptr<summarizer_impl> snapshot() const = 0;

    virtual std::string to_string() const = 0;
};

}  // namespace detail

/// A movable, type-erased frequent-items summary. Construct one with
/// freq::builder (api/builder.h) or freq::restore_summary; a
/// default-constructed summarizer is empty and only valid() / assignment
/// may be called on it.
class summarizer {
public:
    /// A single-threaded ingestion handle; distinct feeders may run on
    /// distinct threads concurrently. For a sharded summarizer each feeder
    /// wraps a real engine producer (wait-free SPSC hand-off); for a
    /// standalone one it applies to the summary and concurrency must be
    /// external.
    ///
    /// A u64 push is checked on the spot: a wrong-kind key or an invalid
    /// weight throws from that push() and leaves the updates pushed before
    /// it staged. A standalone feeder then stages the update in a
    /// 256-update run that reaches the summary in one call when it fills;
    /// a sharded one hands it straight to its producer, which stages per
    /// shard. Either way, pushes are guaranteed visible to queries only
    /// after flush(), and summarizer::tick() does not flush feeders: flush
    /// them first, or their staged updates age under the next epoch.
    /// Text pushes are not staged by the handle.
    ///
    /// Destruction, and move-assigning over a feeder, apply its staged run.
    /// Feeders must not outlive their summarizer.
    class feeder {
    public:
        explicit feeder(std::unique_ptr<detail::feeder_impl> impl)
            : impl_(std::move(impl)) {}

        feeder(feeder&&) noexcept = default;
        feeder& operator=(feeder&& other) noexcept {
            if (this != &other) {
                drain();
                impl_ = std::move(other.impl_);
            }
            return *this;
        }
        feeder(const feeder&) = delete;
        feeder& operator=(const feeder&) = delete;
        ~feeder() { drain(); }

        void push(std::uint64_t id, double weight = 1.0) {
            detail::feeder_impl& f = *impl_;
            if (f.text_keys) {
                detail::wrong_key_kind("text", "u64");
            }
            detail::require_weight(weight, f.counts);
            f.run[f.staged] = update64d{id, weight};
            if (++f.staged == f.run_length) {
                dispatch();
            }
        }
        void push(std::string_view item, double weight = 1.0) {
            impl_->push(item, weight);
            impl_->tally.count(1);
        }

        /// Makes everything pushed so far visible to queries (for a sharded
        /// summarizer: published to the shard rings; pair with
        /// summarizer::flush() for an applied-barrier).
        void flush() {
            dispatch();
            impl_->tally.flush();
            impl_->flush();
        }

    private:
        /// Hands the staged run to the impl. `staged` is cleared first, so
        /// an exception from the impl cannot replay the run.
        void dispatch() {
            detail::feeder_impl& f = *impl_;
            if (const std::size_t n = f.staged; n > 0) {
                f.staged = 0;
                f.push_run(std::span<const update64d>(f.run.data(), n));
                f.tally.count(n);
            }
        }

        void drain() {
            if (impl_ != nullptr) {
                dispatch();
                impl_->tally.flush();
            }
        }

        std::unique_ptr<detail::feeder_impl> impl_;
    };

    summarizer() = default;
    explicit summarizer(std::unique_ptr<detail::summarizer_impl> impl)
        : impl_(std::move(impl)) {}

    summarizer(summarizer&& other) noexcept
        : impl_(std::move(other.impl_)), tally_(std::exchange(other.tally_, {})) {}
    summarizer& operator=(summarizer&& other) noexcept {
        if (this != &other) {
            tally_.flush();
            impl_ = std::move(other.impl_);
            tally_ = std::exchange(other.tally_, {});
        }
        return *this;
    }
    summarizer(const summarizer&) = delete;
    summarizer& operator=(const summarizer&) = delete;
    ~summarizer() { tally_.flush(); }

    bool valid() const noexcept { return impl_ != nullptr; }

    /// The runtime type tags + config this summarizer was built with.
    const summary_descriptor& descriptor() const { return checked().descriptor(); }

    /// Whether ingestion runs through the sharded concurrent engine.
    bool sharded() const { return checked().sharded(); }

    // --- ingestion -----------------------------------------------------------

    /// Processes one weighted update. Single-threaded (use feeders for
    /// concurrent ingestion). Throws when the key kind does not match the
    /// summary (u64 update on a text summary and vice versa).
    void update(std::uint64_t id, double weight = 1.0) {
        checked().update(id, weight);
        tally_.count(1);
    }
    void update(std::string_view item, double weight = 1.0) {
        checked().update(item, weight);
        tally_.count(1);
    }

    /// Batched fast path — forwards whole runs to the template layer's
    /// span ingest, amortizing the virtual dispatch to one call per batch.
    void update(std::span<const update64> batch) {
        checked().update(batch);
        tally_.count(batch.size());
    }

    /// Concurrent ingestion handle (see feeder). Standalone feeders stage
    /// full runs; sharded ones stage nothing (run length 1), since their
    /// producer already stages per shard.
    feeder make_feeder() {
        detail::summarizer_impl& s = checked();
        std::unique_ptr<detail::feeder_impl> f = s.make_feeder();
        f->run_length = s.sharded() ? 1 : detail::feeder_impl::run_capacity;
        f->text_keys = s.descriptor().keys == key_kind::text;
        f->counts = s.descriptor().weights == weight_kind::counts;
        return feeder(std::move(f));
    }

    /// Barrier: everything already pushed (and flushed) by feeders is
    /// applied before this returns. No-op for standalone summaries, apart
    /// from adding the update tally to telemetry (see detail::update_tally).
    void flush() {
        tally_.flush();
        checked().flush();
    }

    // --- lifetime ------------------------------------------------------------

    /// Advances the lifetime policy's logical clock (decay step for fading,
    /// window rotation for windowed, no-op for plain).
    void tick(std::uint64_t epochs = 1) { checked().tick(epochs); }

    /// Current logical clock (0 for plain summaries).
    std::uint64_t now() const { return checked().now(); }

    // --- cached read path ----------------------------------------------------

    /// Opt-in for sharded summarizers: starts the engine's background
    /// snapshot publisher (engine/snapshot_service.h) so point and set
    /// queries answer from a cached double-buffered view — a pointer
    /// acquire instead of copying every shard per call — at a staleness
    /// bounded by \p interval. flush() and tick() republish synchronously, so the
    /// flush-then-query discipline still observes everything flushed.
    /// Throws for standalone summarizers (their reads are already direct).
    void enable_snapshot_service(std::chrono::microseconds interval) {
        checked().enable_snapshot_service(interval);
    }

    /// Returns reads to per-call shard copies. No-op when the service is
    /// off or the summarizer is standalone.
    void disable_snapshot_service() { checked().disable_snapshot_service(); }

    /// Whether queries are currently served from the cached view.
    bool snapshot_service_enabled() const { return checked().snapshot_service_enabled(); }

    /// Publish sequence number of the cached view (0 when the service is
    /// off): strictly increases with every publish, so two reads with equal
    /// epochs observed the same consistent view.
    std::uint64_t snapshot_epoch() const { return checked().snapshot_epoch(); }

    // --- point queries -------------------------------------------------------

    double estimate(std::uint64_t id) const {
        obs::scoped_timer t(obs::pipeline().facade_estimate_latency_ns);
        return checked().estimate(id);
    }
    double estimate(std::string_view item) const {
        obs::scoped_timer t(obs::pipeline().facade_estimate_latency_ns);
        return checked().estimate(item);
    }
    double lower_bound(std::uint64_t id) const { return checked().lower_bound(id); }
    double lower_bound(std::string_view item) const { return checked().lower_bound(item); }
    double upper_bound(std::uint64_t id) const { return checked().upper_bound(id); }
    double upper_bound(std::string_view item) const { return checked().upper_bound(item); }

    /// N — total (policy-aged) weight summarized so far.
    double total_weight() const { return checked().total_weight(); }

    /// The a-posteriori error envelope: every estimate is within this of
    /// the truth, and threshold queries are exact outside a band this wide.
    /// Sharded, each key is answered by its own shard, so this is the
    /// largest shard's bound (snapshot()'s merged bound is their sum).
    double maximum_error() const { return checked().maximum_error(); }

    /// Live counters. A sharded summarizer sums them over its shards, while
    /// capacity() stays the per-shard k, so num_counters() may exceed it.
    std::uint32_t num_counters() const { return checked().num_counters(); }
    std::uint32_t capacity() const { return checked().capacity(); }
    std::size_t memory_bytes() const { return checked().memory_bytes(); }

    // --- threshold-mode set queries ------------------------------------------

    /// All items whose chosen bound strictly exceeds \p threshold, sorted by
    /// descending estimate, with the metadata needed to interpret them (see
    /// result_set). With mode = no_false_negatives and threshold = φ·N this
    /// returns every (φ, ε)-heavy hitter.
    result_set frequent_items(error_mode mode, double threshold) const {
        obs::scoped_timer t(obs::pipeline().facade_frequent_items_latency_ns);
        return checked().frequent_items(mode, threshold);
    }

    /// Threshold-free overload using maximum_error() — the tightest
    /// threshold for which the chosen guarantee is meaningful.
    result_set frequent_items(error_mode mode) const {
        obs::scoped_timer t(obs::pipeline().facade_frequent_items_latency_ns);
        return checked().frequent_items(mode, checked().maximum_error());
    }

    /// The (up to) m largest estimates in descending order. No threshold
    /// guarantee: ranks within maximum_error() of each other may swap.
    result_set top_items(std::size_t m) const {
        obs::scoped_timer t(obs::pipeline().facade_top_items_latency_ns);
        return checked().top_items(m);
    }

    // --- serde / merge / snapshot --------------------------------------------

    /// Serializes the current state into the unified envelope. For a
    /// sharded summarizer this flushes and snapshots first, so the bytes
    /// are a stream-complete standalone summary.
    summary_bytes save() const { return checked().save(); }

    /// Algorithm 5 across the façade: folds \p other into this summary.
    /// Both must be standalone with equal descriptors (a sharded summarizer
    /// merges by snapshotting — see snapshot()).
    void merge(const summarizer& other) {
        FREQ_REQUIRE(other.valid(), "cannot merge an empty summarizer");
        checked().merge_from(*other.impl_);
    }

    /// A consistent point-in-time standalone copy: for a sharded summarizer
    /// the engine's merged snapshot, otherwise a plain copy. The result is
    /// always mergeable and saveable.
    summarizer snapshot() const { return summarizer(checked().snapshot()); }

    std::string to_string() const {
        return valid() ? impl_->to_string() : std::string("summarizer(empty)");
    }

    // --- telemetry -----------------------------------------------------------

    /// Point-in-time copy of the process-wide telemetry registry
    /// (obs/registry.h): every instrument family the pipeline exports —
    /// ring, shard, sketch-maintenance, spelling, snapshot-service and
    /// façade layers — renderable as Prometheus text exposition
    /// (.to_prometheus()) or JSON (.to_json()). Instruments are
    /// process-lifetime totals shared by every summarizer; callable on an
    /// empty summarizer too. Empty when built with -DFREQ_OBS_OFF.
    static obs::registry_snapshot telemetry() { return obs::registry::global().collect(); }

private:
    detail::summarizer_impl& checked() const {
        FREQ_REQUIRE(impl_ != nullptr, "operation on an empty summarizer");
        return *impl_;
    }

    std::unique_ptr<detail::summarizer_impl> impl_;
    detail::update_tally tally_;
};

}  // namespace freq

#endif  // FREQ_API_SUMMARIZER_H
