#ifndef FREQ_API_BUILDER_H
#define FREQ_API_BUILDER_H

/// \file builder.h
/// The fluent runtime configurator of the façade: `freq::builder` picks the
/// algorithm (the paper's sketch or one of the §1.3 baselines), key type,
/// weight type, k / sketch knobs, lifetime policy (with its decay or window
/// parameters), counter storage and optional engine sharding *at runtime* —
/// from config, flags or a wire descriptor — and materializes the matching
/// template instantiation behind a `freq::summarizer` handle:
///
///   auto s = freq::builder()
///                .text_keys()
///                .max_counters(4096)
///                .fading(0.97)
///                .build();
///   s.update("alice", 3.0);
///   s.tick();
///   for (const auto& row : s.frequent_items(
///            freq::error_mode::no_false_negatives, 0.01 * s.total_weight()))
///       ...
///
/// `restore_summary` is the inverse of summarizer::save(): it reads the
/// envelope's descriptor (api/summary_bytes.h) and rebuilds the right
/// instantiation from bytes alone — the receiving service needs no
/// compile-time knowledge of what the sender ran.
///
/// The algorithm axis selects *what is computed*, the storage axis *how the
/// paper sketch stores counters*:
///
///   auto cm = freq::builder()
///                 .algorithm(freq::algo::count_min)
///                 .max_counters(1024)
///                 .build();
///
/// runs a Count-Min sketch (baselines/backend_summaries.h) behind the same
/// handle — same update()/frequent_items()/save() surface, same sharded
/// engine, same envelope wire format (with an algorithm tag). The baselines
/// count u64 keys in table storage; count_min and space_saving also accept
/// fading(), count_sketch is plain/counts only.
///
/// Unsupported combinations are rejected at build() with a precise message:
/// fading requires real weights, and the map storage has no sliding window
/// and no sharding. Text keys shard like integer ones: the engine rings
/// carry (fingerprint, weight) records with each key's bytes on a byte
/// lane beside them, in stream order, and each shard owns the spelling
/// dictionary slice for the keys routed to it (engine/stream_engine.h), so
/// `.text_keys().sharded(4)` materializes a concurrent text summarizer
/// whose reports carry full spellings and, fed through one producer,
/// whose saved bytes depend only on its input.
///
/// Every instantiation sits behind one class template,
/// detail::facade_summary<Sketch, Sharded>, and one type table,
/// detail::facade_sketches, maps descriptors to sketch types for build()
/// and restore_summary alike.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/result_set.h"
#include "api/summarizer.h"
#include "api/summary_bytes.h"
#include "baselines/backend_summaries.h"
#include "common/contracts.h"
#include "common/mem.h"
#include "core/basic_frequent_items.h"
#include "core/generic_frequent_items.h"
#include "core/lifetime_policy.h"
#include "core/sketch_config.h"
#include "core/string_frequent_items.h"
#include "engine/stream_engine.h"
#include "hashing/hash.h"
#include "stream/update.h"

namespace freq {

namespace detail {

// --- shared conversions ------------------------------------------------------

template <typename W>
W facade_weight(double w) {
    require_weight(w, !std::is_floating_point_v<W>);
    return static_cast<W>(w);
}

template <typename W>
W facade_threshold(double t) {
    FREQ_REQUIRE(std::isfinite(t) && t >= 0.0,
                 "thresholds must be finite and non-negative");
    if constexpr (std::is_floating_point_v<W>) {
        return static_cast<W>(t);
    } else {
        // bound > t  ⟺  bound > floor(t) for integer bounds, so flooring
        // preserves the strict-threshold semantics exactly.
        if (t >= 18446744073709551615.0) {
            return ~std::uint64_t{0};
        }
        return static_cast<W>(t);
    }
}

/// Core rows -> façade rows. Spelled rows (fingerprint-counted text cores)
/// carry the 64-bit fingerprint the core actually counted (correct even
/// for a row whose spelling is "<unknown>") and the human-readable key.
/// Id-keyed rows — the table cores call the key `id`, the map core calls
/// it `item` — spell the id in decimal.
template <typename Rows>
std::vector<result_row> facade_rows(const Rows& in) {
    std::vector<result_row> out;
    out.reserve(in.size());
    for (const auto& r : in) {
        result_row row{0, {}, static_cast<double>(r.estimate),
                       static_cast<double>(r.lower_bound),
                       static_cast<double>(r.upper_bound)};
        if constexpr (requires { r.fingerprint; }) {
            row.id = r.fingerprint;
            row.item = r.item;
        } else {
            if constexpr (requires { r.id; }) {
                row.id = static_cast<std::uint64_t>(r.id);
            } else {
                row.id = static_cast<std::uint64_t>(r.item);
            }
            row.item = std::to_string(row.id);
        }
        out.push_back(std::move(row));
    }
    return out;
}

/// The error envelope a result_set reports: at least the summary's own
/// a-posteriori bound, widened to cover every returned row — a windowed
/// summary answers set queries through an epoch fold (Algorithm 5 per
/// epoch) whose decrements can stretch row envelopes past the point-query
/// bound.
inline double result_error(double summary_error, const std::vector<result_row>& rows) {
    for (const auto& r : rows) {
        summary_error = std::max(summary_error, r.upper_bound - r.lower_bound);
    }
    return summary_error;
}

/// A feeder over a standalone (unsharded) summary: forwards each run to the
/// impl's apply_run() and each text push to its update(). Single-threaded
/// like the summary itself.
class standalone_feeder final : public feeder_impl {
public:
    explicit standalone_feeder(summarizer_impl* owner) : owner_(owner) {}
    void push_run(std::span<const update64d> run) override { owner_->apply_run(run); }
    void push(std::string_view item, double weight) override {
        owner_->update(item, weight);
    }
    void flush() override {}

private:
    summarizer_impl* owner_;
};

/// Two summaries may merge when their tags agree and the policy parameters
/// the template layer insists on (equal decay / equal window) match; seeds
/// and capacities may differ — §3.2 even recommends distinct hash seeds.
inline void require_merge_compatible(const summary_descriptor& a,
                                     const summary_descriptor& b) {
    FREQ_REQUIRE(a.algorithm == b.algorithm && a.keys == b.keys &&
                     a.weights == b.weights && a.lifetime == b.lifetime &&
                     a.backend == b.backend,
                 "merging summarizers requires identical "
                 "algorithm/key/weight/lifetime/storage");
    if (a.lifetime == lifetime_kind::fading) {
        FREQ_REQUIRE(a.sketch.decay == b.sketch.decay,
                     "merging fading summarizers requires equal decay factors");
    }
    if (a.lifetime == lifetime_kind::windowed) {
        FREQ_REQUIRE(a.sketch.window_epochs == b.sketch.window_epochs,
                     "merging windowed summarizers requires equal window sizes");
    }
}

// --- the façade summary ------------------------------------------------------

/// The one erased summary: any core summary \p Sketch (u64- or text-keyed,
/// as summary_traits<Sketch>::keys says), standalone or engine-sharded.
///
/// Standalone, it owns the sketch: updates go straight to sketch.update().
/// Sharded, it owns a stream_engine over per-shard copies of \p Sketch:
/// updates route through a lazily created internal producer (feeders get
/// producers of their own). Either way every read answers from a
/// partitioned view (see with_view), so each read method is written once.
/// A sharded text summary's producers fingerprint keys onto the rings,
/// with the key bytes beside each record, and each shard owns its
/// spelling-dictionary slice, so estimate("alice") asks the key's shard
/// and top_items() reports each shard's spellings.
template <typename Sketch, bool Sharded>
class facade_summary final : public summarizer_impl {
public:
    using W = typename Sketch::weight_type;
    using engine_type = stream_engine<std::uint64_t, W, Sketch>;

    facade_summary(summary_descriptor desc, Sketch sketch)
        requires(!Sharded)
        : desc_(std::move(desc)), state_(std::move(sketch)) {}

    facade_summary(summary_descriptor desc, const engine_config& cfg)
        requires Sharded
        : desc_(std::move(desc)), state_(cfg) {}

    const summary_descriptor& descriptor() const noexcept override { return desc_; }
    bool sharded() const noexcept override { return Sharded; }

    // --- ingestion -----------------------------------------------------------
    // A sharded summary's queries see what has been applied — call flush()
    // for a stream-complete view, exactly like the raw engine API.

    void update(std::uint64_t id, double weight) override { update_key(id, weight); }
    void update(std::string_view item, double weight) override { update_key(item, weight); }
    void update(std::span<const update64> batch) override {
        keyed<void>(batch, [&](auto b) {
            if constexpr (std::is_same_v<W, std::uint64_t> && !map_backed) {
                ingest(b);  // the template layer's span path / the producer's run push
            } else {
                for (const auto& u : b) {
                    ingest(u.id, facade_weight<W>(static_cast<double>(u.weight)));
                }
            }
        });
    }
    /// The per-item body of update(id, w), minus the checks the feeder
    /// handle already made, so a staged run lands bit-identically.
    void apply_run(std::span<const update64d> run) override {
        keyed<void>(run, [&](auto r) {
            for (const update64d& u : r) {
                ingest(u.id, static_cast<W>(u.weight));
            }
        });
    }
    std::unique_ptr<feeder_impl> make_feeder() override {
        if constexpr (Sharded) {
            return std::make_unique<engine_feeder>(state_.engine.make_producer());
        } else {
            return std::make_unique<standalone_feeder>(this);
        }
    }
    void flush() override {
        if constexpr (Sharded) {
            if (state_.main.has_value()) {
                state_.main->flush();
            }
            state_.engine.flush();
        }
    }

    // --- lifetime ------------------------------------------------------------
    // Sharded, a tick is an exact epoch boundary for everything this
    // summarizer staged and every feeder already flushed: drain first, then
    // tick — otherwise staged updates would age under the wrong epoch.
    // (Feeders still holding staged runs on other threads follow the raw
    // engine's discipline: their updates belong to the epoch of their flush.)

    void tick(std::uint64_t epochs) override {
        if constexpr (Sharded) {
            flush();
            state_.engine.advance_epoch(epochs);
            state_.now += epochs;
        } else {
            state_.tick(epochs);
        }
    }
    std::uint64_t now() const override {
        if constexpr (Sharded) {
            return state_.now;
        } else {
            return with_view([](const auto& v) { return v.now(); });
        }
    }

    // --- cached read path (sharded only; a standalone summary keeps the
    // base's rejection and reads as off) ---------------------------------------

    void enable_snapshot_service(std::chrono::microseconds interval) override {
        if constexpr (Sharded) {
            state_.engine.enable_snapshot_service(interval);
        } else {
            summarizer_impl::enable_snapshot_service(interval);
        }
    }
    void disable_snapshot_service() override {
        if constexpr (Sharded) {
            state_.engine.disable_snapshot_service();
        }
    }
    bool snapshot_service_enabled() const noexcept override {
        if constexpr (Sharded) {
            return state_.engine.snapshot_service_enabled();
        } else {
            return false;
        }
    }
    std::uint64_t snapshot_epoch() const override {
        if constexpr (Sharded) {
            return state_.engine.snapshot_epoch();
        } else {
            return 0;
        }
    }

    // --- point queries -------------------------------------------------------

    double estimate(std::uint64_t id) const override { return point(id, estimate_of); }
    double estimate(std::string_view item) const override { return point(item, estimate_of); }
    double lower_bound(std::uint64_t id) const override { return point(id, lower_of); }
    double lower_bound(std::string_view item) const override { return point(item, lower_of); }
    double upper_bound(std::uint64_t id) const override { return point(id, upper_of); }
    double upper_bound(std::string_view item) const override { return point(item, upper_of); }

    double total_weight() const override {
        return with_view([](const auto& v) { return static_cast<double>(v.total_weight()); });
    }
    double maximum_error() const override {
        return with_view([](const auto& v) { return static_cast<double>(v.maximum_error()); });
    }
    /// Summed over shards when sharded (capacity() stays per shard).
    std::uint32_t num_counters() const override {
        return with_view([](const auto& v) { return v.num_counters(); });
    }
    /// A sharded summary reports its per-shard k without copying a view.
    std::uint32_t capacity() const override {
        if constexpr (Sharded) {
            return desc_.sketch.max_counters;
        } else {
            return state_.capacity();
        }
    }
    std::size_t memory_bytes() const override {
        return with_view([](const auto& v) { return v.memory_bytes(); });
    }

    // --- set queries ---------------------------------------------------------

    result_set frequent_items(error_mode mode, double threshold) const override {
        return with_view([&](const auto& v) {
            return result_of(v, mode, threshold,
                             v.frequent_items(mode, facade_threshold<W>(threshold)));
        });
    }
    result_set top_items(std::size_t m) const override {
        return with_view([&](const auto& v) {
            return result_of(v, error_mode::no_false_negatives, 0.0, top_rows(v, m));
        });
    }

    // --- serde / merge / snapshot --------------------------------------------

    // The documented save() contract is a *stream-complete* standalone
    // summary: a sharded one drains its internal producer and the rings
    // first, then folds the shards from scratch (stream_engine::snapshot),
    // so the bytes depend only on the shards' states. Text images are
    // canonical (one unioned dictionary segment), byte-identical to what
    // the restored standalone summary re-saves.
    summary_bytes save() override {
        if constexpr (Sharded) {
            flush();
            return envelope_save(state_.engine.snapshot());
        } else {
            return envelope_save(state_);
        }
    }

    void merge_from([[maybe_unused]] const summarizer_impl& other) override {
        if constexpr (Sharded) {
            FREQ_REQUIRE(false,
                         "sharded summarizers ingest through feeders; merge their "
                         "snapshot() instead");
        } else {
            const auto* peer = dynamic_cast<const facade_summary*>(&other);
            FREQ_REQUIRE(peer != nullptr && peer != this,
                         "merge requires a distinct standalone summarizer of the same "
                         "instantiation (snapshot() a sharded one first)");
            require_merge_compatible(desc_, peer->desc_);
            state_.merge(peer->state_);
        }
    }

    std::unique_ptr<summarizer_impl> snapshot() const override {
        if constexpr (Sharded) {
            return std::make_unique<facade_summary<Sketch, false>>(desc_,
                                                                   state_.engine.snapshot());
        } else {
            return std::make_unique<facade_summary>(desc_, state_);
        }
    }

    std::string to_string() const override {
        if constexpr (Sharded) {
            const auto st = state_.engine.stats();
            std::string out = "sharded_summarizer(shards=";
            out += std::to_string(state_.engine.num_shards());
            out += ", k=" + std::to_string(desc_.sketch.max_counters);
            out += ", applied=" + std::to_string(st.updates_applied);
            if constexpr (text_keys) {
                out += ", spellings=" + std::to_string(st.spellings_applied);
            }
            out += ", stalls=" + std::to_string(st.ring_full_stalls) + ")";
            return out;
        } else {
            return state_.to_string();
        }
    }

private:
    static constexpr bool text_keys = summary_traits<Sketch>::keys == key_kind::text;
    static constexpr bool map_backed = summary_traits<Sketch>::backend == backend_kind::map;

    static constexpr auto estimate_of = [](const auto& v, auto key) { return v.estimate(key); };
    static constexpr auto lower_of = [](const auto& v, auto key) { return v.lower_bound(key); };
    static constexpr auto upper_of = [](const auto& v, auto key) { return v.upper_bound(key); };

    /// Runs \p f on \p key when its type fits this summary's key kind —
    /// string views for text summaries, ids and update spans for u64 ones —
    /// and rejects the call otherwise, for updates, point queries, text
    /// feeder pushes and feeder runs alike. (The feeder handle rejects a
    /// wrong-kind u64 push itself, before staging it.)
    template <typename R, typename Key, typename F>
    static R keyed([[maybe_unused]] Key key, [[maybe_unused]] F&& f) {
        if constexpr (std::is_same_v<Key, std::string_view> == text_keys) {
            return f(key);
        } else {
            wrong_key_kind(text_keys ? "text" : "u64", text_keys ? "u64" : "text");
        }
    }

    /// A feeder over one engine producer (sharded summaries only).
    class engine_feeder final : public feeder_impl {
    public:
        explicit engine_feeder(typename engine_type::producer p) : producer_(std::move(p)) {}
        void push_run(std::span<const update64d> run) override {
            keyed<void>(run, [&](auto r) {
                for (const auto& u : r) {  // dependent: text engines take no u64 push
                    producer_.push(u.id, static_cast<W>(u.weight));
                }
            });
        }
        void push(std::string_view item, double weight) override {
            keyed<void>(item, [&](auto k) { producer_.push(k, facade_weight<W>(weight)); });
        }
        void flush() override { producer_.flush(); }

    private:
        typename engine_type::producer producer_;
    };

    /// A sharded summary's state: the engine, the lazily created producer
    /// behind update() and the façade's epoch clock.
    struct engine_state {
        explicit engine_state(const engine_config& cfg) : engine(cfg) {}

        engine_type engine;
        std::optional<typename engine_type::producer> main;
        std::uint64_t now = 0;
    };

    template <typename Key>
    void update_key(Key key, double weight) {
        keyed<void>(key, [&](auto k) { ingest(k, facade_weight<W>(weight)); });
    }

    /// One ingest step: the sketch itself when standalone, the internal
    /// producer when sharded.
    template <typename... Args>
    void ingest(const Args&... args) {
        if constexpr (Sharded) {
            if (!state_.main.has_value()) {
                state_.main.emplace(state_.engine.make_producer());
            }
            state_.main->push(args...);
        } else {
            state_.update(args...);
        }
    }

    template <typename Key, typename Read>
    double point(Key key, Read read) const {
        return keyed<double>(key, [&](auto k) {
            return with_view([&](const auto& v) { return static_cast<double>(read(v, k)); });
        });
    }

    /// Runs \p f over a partitioned view (engine/partitioned_view.h) of
    /// the freshest consistent state. Standalone, a one-part view that
    /// borrows the sketch. Sharded, the published view when the snapshot
    /// service is on (pinned for the duration of the call), otherwise one
    /// built on this thread by copying every shard (no merge) — hold a
    /// snapshot() when querying many ids without the service.
    template <typename F>
    auto with_view(F&& f) const {
        if constexpr (Sharded) {
            if (state_.engine.snapshot_service_enabled()) {
                const auto view = state_.engine.acquire_snapshot();
                return f(*view);
            }
            return f(state_.engine.view());
        } else {
            return f(partitioned_view<Sketch, std::span<const Sketch>>({&state_, 1}, {}));
        }
    }

    template <typename View>
    static auto top_rows(const View& v, std::size_t m) {
        if constexpr (map_backed) {
            // The map core has no top_items(); every tracked item clears an
            // upper-bound threshold of 0, and rows arrive estimate-sorted.
            auto rows = v.parts()[0].frequent_items(error_mode::no_false_negatives, W{0});
            if (rows.size() > m) {
                rows.resize(m);
            }
            return rows;
        } else {
            return v.top_items(m);
        }
    }

    template <typename View, typename Rows>
    static result_set result_of(const View& v, error_mode mode, double threshold,
                                const Rows& core_rows) {
        auto rows = facade_rows(core_rows);
        const double err = result_error(static_cast<double>(v.maximum_error()), rows);
        return result_set(mode, threshold, static_cast<double>(v.total_weight()), err,
                          std::move(rows));
    }

    summary_descriptor desc_;
    std::conditional_t<Sharded, engine_state, Sketch> state_;
};

// --- the instantiation table -------------------------------------------------

template <typename... Sketches>
struct sketch_list {};

template <typename W, typename L>
using map_frequent_items = generic_frequent_items<std::uint64_t, W, std::hash<std::uint64_t>,
                                                  std::equal_to<std::uint64_t>, L>;

/// Every summary instantiation the façade materializes, each named by its
/// summary_traits tags: the one descriptor -> type table behind
/// builder::build() (standalone and sharded) and restore_summary.
using facade_sketches = sketch_list<
    // The paper sketch, table storage: u64 and text keys, every lifetime.
    basic_frequent_items<std::uint64_t, std::uint64_t, plain_lifetime>,
    basic_frequent_items<std::uint64_t, double, plain_lifetime>,
    basic_frequent_items<std::uint64_t, double, exponential_fading>,
    basic_frequent_items<std::uint64_t, std::uint64_t, epoch_window>,
    basic_frequent_items<std::uint64_t, double, epoch_window>,
    string_frequent_items<std::uint64_t, plain_lifetime>,
    string_frequent_items<double, plain_lifetime>,
    string_frequent_items<double, exponential_fading>,
    string_frequent_items<std::uint64_t, epoch_window>,
    string_frequent_items<double, epoch_window>,
    // The paper sketch, map storage: u64 keys, no window.
    map_frequent_items<std::uint64_t, plain_lifetime>,
    map_frequent_items<double, plain_lifetime>,
    map_frequent_items<double, exponential_fading>,
    // The baselines: u64 keys, table storage, no window.
    count_min_summary<std::uint64_t, plain_lifetime>,
    count_min_summary<double, plain_lifetime>,
    count_min_summary<double, exponential_fading>,
    count_sketch_summary,
    space_saving_summary<std::uint64_t, plain_lifetime>,
    space_saving_summary<double, plain_lifetime>,
    space_saving_summary<double, exponential_fading>>;

/// Calls \p f with std::type_identity<Sketch> for the facade_sketches entry
/// whose tags \p d names and returns the summary it makes. Throws for a
/// descriptor no entry serves.
template <typename F>
std::unique_ptr<summarizer_impl> with_sketch_type(const summary_descriptor& d, F&& f) {
    return [&]<typename... S>(sketch_list<S...>) {
        std::unique_ptr<summarizer_impl> out;
        const auto visit = [&]<typename T>(std::type_identity<T> tag) {
            if (descriptor_names<T>(d)) {
                out = f(tag);
            }
        };
        (visit(std::type_identity<S>{}), ...);
        FREQ_REQUIRE(out != nullptr, "no summary instantiation serves this descriptor");
        return out;
    }(facade_sketches{});
}

}  // namespace detail

// --- the fluent builder ------------------------------------------------------

class builder {
public:
    // --- key / weight kinds --------------------------------------------------

    builder& keys(key_kind k) {
        keys_ = k;
        return *this;
    }
    builder& u64_keys() { return keys(key_kind::u64); }
    builder& text_keys() { return keys(key_kind::text); }

    /// Weight kind; when unset, counts — promoted to real automatically by
    /// fading(), whose decayed counts are fractional.
    builder& weights(weight_kind w) {
        weights_ = w;
        return *this;
    }
    builder& counts() { return weights(weight_kind::counts); }
    builder& real_weights() { return weights(weight_kind::real); }

    // --- sketch knobs --------------------------------------------------------

    builder& max_counters(std::uint32_t k) {
        sketch_.max_counters = k;
        return *this;
    }
    builder& sample_size(std::uint32_t l) {
        sketch_.sample_size = l;
        return *this;
    }
    builder& decrement_quantile(double q) {
        sketch_.decrement_quantile = q;
        return *this;
    }
    builder& seed(std::uint64_t s) {
        sketch_.seed = s;
        return *this;
    }
    /// Replaces every sketch knob at once (lifetime parameters included;
    /// the lifetime *choice* still comes from plain()/fading()/…).
    builder& config(const sketch_config& cfg) {
        sketch_ = cfg;
        return *this;
    }

    // --- lifetime policy -----------------------------------------------------

    builder& plain() {
        lifetime_ = lifetime_kind::plain;
        return *this;
    }
    /// FDCMSS-style time-fading counts: after t ticks an update counts
    /// weight·ρ^t. Implies real weights unless counts were forced.
    builder& fading(double decay) {
        lifetime_ = lifetime_kind::fading;
        sketch_.decay = decay;
        return *this;
    }
    /// Sliding window of the last \p epochs ticks, evicted exactly.
    builder& sliding_window(std::uint32_t epochs) {
        lifetime_ = lifetime_kind::windowed;
        sketch_.window_epochs = epochs;
        return *this;
    }

    // --- algorithm -----------------------------------------------------------

    /// Which sketch algorithm the summarizer runs (default: the paper's).
    /// The baselines (baselines/backend_summaries.h) count u64 keys in
    /// table storage; count_min and space_saving also support fading(),
    /// count_sketch is plain/counts only. See the file comment.
    builder& algorithm(algo a) {
        algo_ = a;
        return *this;
    }

    // --- counter storage -----------------------------------------------------

    /// How the paper sketch stores counters: `storage::table` (the default
    /// open-addressed array) or `storage::map` (node-map with exact-median
    /// decrements: slower, but carries the deterministic Theorem 2 bound —
    /// u64 keys, no window, no sharding).
    builder& storage(freq::storage s) {
        backend_ = s;
        return *this;
    }

    // --- engine sharding -----------------------------------------------------

    /// Routes ingestion through the sharded concurrent engine: \p shards
    /// worker-owned sketches fed over SPSC rings by up to \p producers
    /// concurrent feeders. u64 and text keys (text ships fingerprint
    /// records with the key bytes beside them; each shard keeps the
    /// spelling dictionary of its keys).
    builder& sharded(std::uint32_t shards, std::uint32_t producers = 1) {
        sharded_ = true;
        engine_.num_shards = shards;
        engine_.num_producers = producers;
        return *this;
    }
    /// Engine tuning knobs wholesale (ring capacity, batch sizes); implies
    /// sharded(). The engine's sketch config is taken from this builder.
    builder& engine(const engine_config& cfg) {
        sharded_ = true;
        engine_ = cfg;
        return *this;
    }

    /// Starts the built summarizer with the async snapshot service on:
    /// queries answer from a cached double-buffered view republished every
    /// \p interval instead of folding per call (see
    /// summarizer::enable_snapshot_service). Requires sharded ingestion.
    builder& snapshot_every(std::chrono::microseconds interval) {
        snapshot_interval_ = interval;
        return *this;
    }

    // --- memory placement ----------------------------------------------------

    /// NUMA shard placement for sharded ingestion (engine_config::numa):
    /// `numa_policy::interleave` pins each shard's worker round-robin
    /// across the host's nodes and constructs the shard's memory there
    /// (first-touch locality). Results never change — only page placement
    /// and worker affinity. No-op for standalone summaries, single-node
    /// hosts and FREQ_NUMA=OFF builds.
    builder& numa(freq::numa_policy p) {
        engine_.numa = p;
        return *this;
    }

    /// Advise transparent huge pages on the summary's large backing
    /// buffers — counter-table arrays, engine rings, spelling arenas.
    /// Applies to sharded and standalone summaries alike; hosts without
    /// THP silently ignore the advice (freq_mem_hugepage_regions_total
    /// counts the regions actually advised).
    builder& hugepages(bool on = true) {
        hugepages_ = on;
        return *this;
    }

    // --- materialization -----------------------------------------------------

    summarizer build() const {
        summary_descriptor d;
        d.algorithm = algo_;
        d.keys = keys_;
        d.lifetime = lifetime_;
        d.backend = backend_;
        d.sketch = sketch_;
        d.weights = weights_.has_value()
                        ? *weights_
                        : (lifetime_ == lifetime_kind::fading ? weight_kind::real
                                                              : weight_kind::counts);
        FREQ_REQUIRE(d.lifetime != lifetime_kind::fading || d.weights == weight_kind::real,
                     "fading summaries need real weights (decayed counts are "
                     "fractional); drop counts() or use real_weights()");
        FREQ_REQUIRE(d.backend != backend_kind::map || d.keys == key_kind::u64,
                     "the map storage takes u64 keys (text keys are table-stored)");
        FREQ_REQUIRE(d.backend != backend_kind::map || d.lifetime != lifetime_kind::windowed,
                     "the map storage has no sliding-window policy; use the table "
                     "storage for windows");
        FREQ_REQUIRE(!sharded_ || d.backend == backend_kind::table,
                     "sharded ingestion requires the table storage");
        if (d.algorithm != algo::paper) {
            FREQ_REQUIRE(d.keys == key_kind::u64,
                         "the baseline algorithms count u64 keys; text keys need "
                         "algorithm(algo::paper)");
            FREQ_REQUIRE(d.backend == backend_kind::table,
                         "the storage axis tunes the paper sketch; the baseline "
                         "algorithms bring their own structures (use storage::table)");
            FREQ_REQUIRE(d.lifetime != lifetime_kind::windowed,
                         "the sliding-window policy is paper-only; count_min and "
                         "space_saving support fading(), count_sketch is plain");
        }
        if (d.algorithm == algo::count_sketch) {
            FREQ_REQUIRE(d.weights == weight_kind::counts &&
                             d.lifetime == lifetime_kind::plain,
                         "count_sketch keeps signed integer cells: counts weights "
                         "and the plain lifetime only");
        }
        FREQ_REQUIRE(!snapshot_interval_.has_value() || sharded_,
                     "snapshot_every() caches the sharded engine's view; add "
                     ".sharded(...) or drop it for direct standalone reads");
        if (sharded_) {
            engine_config ecfg = engine_;
            ecfg.sketch = d.sketch;
            ecfg.hugepages = ecfg.hugepages || hugepages_;
            // One slot beyond the user's producer budget is reserved for
            // the summarizer's internal scalar-update producer, so calling
            // update() never consumes a feeder slot.
            ecfg.num_producers += 1;
            summarizer s(detail::with_sketch_type(d, [&](auto tag) {
                using S = typename decltype(tag)::type;
                if constexpr (summary_traits<S>::backend == backend_kind::table) {
                    return std::make_unique<detail::facade_summary<S, true>>(d, ecfg);
                } else {
                    return nullptr;  // the map storage never shards (rejected above)
                }
            }));
            if (snapshot_interval_.has_value()) {
                s.enable_snapshot_service(*snapshot_interval_);
            }
            return s;
        }
        // Standalone summaries get the hugepage half of the hints; NUMA
        // locality is moot (the sketch lives wherever the caller's thread
        // first-touches it).
        const mem::placement place{hugepages_, -1};
        return summarizer(detail::with_sketch_type(d, [&](auto tag) {
            using S = typename decltype(tag)::type;
            return std::make_unique<detail::facade_summary<S, false>>(
                d, construct_sketch<S>(d.sketch, place));
        }));
    }

private:
    /// Constructs a sketch, forwarding placement hints to backends that
    /// accept them (the paper-sketch family); config-only backends skip
    /// the hugepage advice.
    template <typename Sketch>
    static Sketch construct_sketch(const sketch_config& cfg, const mem::placement& place) {
        if constexpr (std::is_constructible_v<Sketch, const sketch_config&,
                                              const mem::placement&>) {
            return Sketch(cfg, place);
        } else {
            (void)place;
            return Sketch(cfg);
        }
    }

    sketch_config sketch_{};
    engine_config engine_{};
    algo algo_ = algo::paper;
    key_kind keys_ = key_kind::u64;
    std::optional<weight_kind> weights_;
    lifetime_kind lifetime_ = lifetime_kind::plain;
    backend_kind backend_ = backend_kind::table;
    bool sharded_ = false;
    bool hugepages_ = false;
    std::optional<std::chrono::microseconds> snapshot_interval_;
};

// --- envelope -> summarizer --------------------------------------------------

/// Materializes a standalone summarizer from envelope bytes — the inverse
/// of summarizer::save(). The instantiation is chosen by the envelope's
/// descriptor at runtime; \p max_accepted_counters bounds allocations for
/// untrusted bytes (see envelope_load).
inline summarizer restore_summary(const summary_bytes& b,
                                  std::uint32_t max_accepted_counters = 1u << 28) {
    const summary_descriptor& d = b.descriptor();
    return summarizer(detail::with_sketch_type(d, [&](auto tag) {
        using S = typename decltype(tag)::type;
        return std::make_unique<detail::facade_summary<S, false>>(
            d, envelope_load<S>(b, max_accepted_counters));
    }));
}

/// Convenience overload for raw bytes fresh off the wire.
inline summarizer restore_summary(std::vector<std::uint8_t> bytes,
                                  std::uint32_t max_accepted_counters = 1u << 28) {
    return restore_summary(summary_bytes::wrap(std::move(bytes)), max_accepted_counters);
}

}  // namespace freq

#endif  // FREQ_API_BUILDER_H
