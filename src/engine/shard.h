#ifndef FREQ_ENGINE_SHARD_H
#define FREQ_ENGINE_SHARD_H

/// \file shard.h
/// One shard of the sharded ingestion engine: a set of inbound SPSC rings
/// (one per registered producer), a sketch covering the shard's key
/// sub-space, and the worker-side drain loop that moves updates from the
/// rings into the sketch in batches.
///
/// The shard is templated on the sketch type, so the same
/// ring/batched-drain machinery serves every lifetime policy: plain
/// frequent_items_sketch (the default), basic_frequent_items with
/// exponential_fading, or the epoch_window ring — anything constructible
/// from a sketch_config with update(span), merge, tick and copy.
///
/// Spelling-keeping sketches (core/fingerprint_frequent_items.h — text and
/// generic keys) get a second ring per producer, a byte lane: the record
/// rings still carry fixed-size (fingerprint, weight) records, and each
/// record's key bytes (lane_codec) travel on its producer's byte lane,
/// published before the record. The worker takes a ring's records, then
/// its lane's bytes, and applies each record through the sketch's keyed
/// update(fp, key, w) in stream order, so the shard equals a standalone
/// sketch fed the same sub-stream and owns the dictionary slice for
/// exactly the fingerprints the engine routes to it.
///
/// Threading contract:
///  * ring(p).try_push(...), lane(p).try_push(...) — producer p only.
///  * drain()                — the shard's single worker thread only.
///  * clone_sketch(), tick() — any thread; take the sketch mutex.
///  * fail()                 — the worker, once, when drain() throws.
///  * park()                 — the worker, when its lanes run dry.
///  * wake()                 — any thread, after making work visible.
///
/// The sketch mutex is held only while a drained batch is applied, while
/// the sketch is being cloned for a snapshot, or while the lifetime clock
/// ticks — never while waiting on a ring — so queries clone O(k) state and
/// ingestion resumes immediately; readers never traverse live sketch state.

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/contracts.h"
#include "common/mem.h"
#include "core/frequent_items_sketch.h"
#include "core/sketch_config.h"
#include "engine/spsc_ring.h"
#include "obs/pipeline_metrics.h"
#include "stream/update.h"

namespace freq {

/// A sketch that separates counting from identification: a static
/// fingerprint() the engine routes by, and a keyed update that takes the
/// fingerprint precomputed, through which a shard applies each record.
template <typename Sketch>
concept spelling_sketch = requires(Sketch& s, std::uint64_t fp,
                                   typename Sketch::item_view view,
                                   typename Sketch::weight_type w) {
    { Sketch::fingerprint(view) } -> std::same_as<std::uint64_t>;
    s.update(fp, view, w);
};

namespace detail {

/// How a keyed push's key rides a byte lane: a trivially copyable key as
/// its object bytes, a string as its length's object bytes and its chars.
template <typename Item>
struct lane_codec {
    static_assert(std::is_trivially_copyable_v<Item>,
                  "byte lanes carry std::string keys or trivially copyable ones");

    static void put(std::string& out, const Item& key) {
        out.append(reinterpret_cast<const char*>(&key), sizeof(Item));
    }
    static Item take(const char*& p) {
        std::array<char, sizeof(Item)> raw{};
        std::memcpy(raw.data(), p, sizeof(Item));
        p += sizeof(Item);
        return std::bit_cast<Item>(raw);
    }
};

template <>
struct lane_codec<std::string> {
    static void put(std::string& out, std::string_view key) {
        lane_codec<std::size_t>::put(out, key.size());
        out.append(key);
    }
    static std::string_view take(const char*& p) {
        const std::size_t n = lane_codec<std::size_t>::take(p);
        p += n;
        return {p - n, n};
    }
};

/// The seq_cst fence park() and wake() pair on. g++ warns that TSan does
/// not model fences (-Wtsan); nothing here relies on TSan seeing it, since
/// every access the fence orders is atomic, so the warning is silenced.
inline void park_fence() noexcept {
#if defined(__SANITIZE_THREAD__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wtsan"
#endif
    std::atomic_thread_fence(std::memory_order_seq_cst);
#if defined(__SANITIZE_THREAD__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
}

}  // namespace detail

template <typename K = std::uint64_t, typename W = std::uint64_t,
          typename Sketch = frequent_items_sketch<K, W>>
class engine_shard {
public:
    using update_type = update<K, W>;
    using sketch_type = Sketch;

    /// Whether records carry key bytes on per-producer byte lanes.
    static constexpr bool keyed = spelling_sketch<Sketch>;

    /// \param cfg           per-shard sketch configuration (already seeded
    ///                      distinctly per shard by the engine — §3.2).
    /// \param num_producers how many inbound SPSC rings to create.
    /// \param ring_capacity slots per ring (rounded up to a power of two);
    ///                      a byte lane holds as many bytes as its record
    ///                      ring's slots take.
    /// \param batch_size    maximum updates applied per sketch lock.
    /// \param place         memory hints (common/mem.h): huge-page advice
    ///                      lands on the sketch tables, ring buffers and
    ///                      spelling arena; NUMA locality comes from
    ///                      *constructing this shard on the pinned worker
    ///                      thread* (first-touch), which is what
    ///                      stream_engine does.
    engine_shard(const sketch_config& cfg, std::size_t num_producers,
                 std::size_t ring_capacity, std::size_t batch_size,
                 const mem::placement& place = {})
        : sketch_(make_sketch(cfg, place)), batch_size_(batch_size) {
        FREQ_REQUIRE(num_producers >= 1, "shard needs at least one producer ring");
        FREQ_REQUIRE(batch_size >= 1, "shard batch size must be positive");
        rings_.reserve(num_producers);
        for (std::size_t p = 0; p < num_producers; ++p) {
            rings_.push_back(std::make_unique<spsc_ring<update_type>>(ring_capacity));
            mem::apply_placement(rings_.back()->storage(),
                                 rings_.back()->storage_bytes(), place);
            if constexpr (keyed) {
                lanes_.push_back(std::make_unique<spsc_ring<char>>(
                    std::min(rings_.back()->storage_bytes(), std::size_t{1} << 30)));
                mem::apply_placement(lanes_.back()->storage(),
                                     lanes_.back()->storage_bytes(), place);
            }
        }
        if constexpr (keyed) {
            inboxes_.resize(num_producers);
            chunk_.resize(4096);
        }
        batch_buf_.resize(batch_size);
    }

    /// Inbound ring for producer \p p.
    spsc_ring<update_type>& ring(std::size_t p) noexcept { return *rings_[p]; }
    std::size_t num_rings() const noexcept { return rings_.size(); }

    /// Inbound byte lane for producer \p p (keyed shards only): the key
    /// bytes of each record, published before the record.
    spsc_ring<char>& lane(std::size_t p) noexcept { return *lanes_[p]; }

    // --- worker side ---------------------------------------------------------

    /// Drains up to one batch from the inbound rings (round-robin across
    /// producers for fairness) and applies it to the sketch under the lock.
    /// Returns the number of updates applied (for keyed shards, plus the
    /// key bytes taken off the lanes); 0 means every lane was empty.
    std::size_t drain() {
        if constexpr (keyed) {
            return drain_keyed();
        } else {
            std::size_t n = 0;
            const std::size_t r = rings_.size();
            for (std::size_t i = 0; i < r && n < batch_size_; ++i) {
                const std::size_t p = (next_ring_ + i) % r;
                n += rings_[p]->try_pop(batch_buf_.data() + n, batch_size_ - n);
            }
            next_ring_ = (next_ring_ + 1) % r;
            if (n > 0) {
                {
                    std::lock_guard<std::mutex> lock(mutex_);
                    sketch_.update(std::span<const update_type>(batch_buf_.data(), n));
                }
                applied_.fetch_add(n, std::memory_order_release);
                batches_.fetch_add(1, std::memory_order_relaxed);
                auto& m = obs::pipeline();
                m.engine_updates_applied.add(n);
                m.engine_batches_applied.add(1);
                m.shard_drain_batch_size.record(n);
            }
            return n;
        }
    }

    // --- snapshot / flush / lifetime support ---------------------------------

    /// O(k) copy of the shard sketch (its dictionary slice included), taken
    /// under the sketch mutex so a snapshot never observes a half-applied
    /// batch.
    Sketch clone_sketch() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return sketch_;
    }

    /// Copy-assigning clone for callers that keep a reusable target: the
    /// target's backing arrays (counter table vectors, dictionary arena)
    /// are reused when capacities match, so a steady-state publish
    /// (partitioned_view::copy_dirty) performs no heap allocation. Same
    /// consistency contract as clone_sketch().
    void clone_sketch_into(Sketch& out) const {
        std::lock_guard<std::mutex> lock(mutex_);
        out = sketch_;
    }

    /// Advances the sketch's lifetime clock (fading decay step / window
    /// epoch rotation; no-op for the plain policy) under the sketch mutex,
    /// so a tick never lands inside a half-applied batch.
    void tick(std::uint64_t epochs = 1) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            sketch_.tick(epochs);
        }
        ticks_.fetch_add(epochs, std::memory_order_release);
        obs::pipeline().shard_ticks.add(epochs);
    }

    /// Monotonic dirty generation: advances whenever the shard sketch
    /// mutates — a ring batch applied or a lifetime tick. Composed from the
    /// cursors those paths already maintain, so the drain hot path pays
    /// nothing extra. Publishes compare generations to
    /// skip re-copying idle shards (partitioned_view::copy_dirty); a reader
    /// that loads the generation *before* cloning observes a value no newer
    /// than the clone, so a mutation racing the clone can only make the
    /// next publish copy again, never serve stale state.
    std::uint64_t generation() const noexcept {
        return applied() + ticks_.load(std::memory_order_acquire);
    }

    /// Total updates ever enqueued into this shard's rings (sum of producer
    /// cursors) vs. total applied to the sketch. The engine's flush barrier
    /// waits until applied() catches up with enqueued(); a record's key
    /// bytes precede it, so that covers them too.
    std::uint64_t enqueued() const noexcept {
        std::uint64_t total = 0;
        for (const auto& r : rings_) {
            total += r->pushed();
        }
        return total;
    }
    std::uint64_t applied() const noexcept { return applied_.load(std::memory_order_acquire); }
    std::uint64_t batches_applied() const noexcept {
        return batches_.load(std::memory_order_relaxed);
    }

    /// Spellings stored into the shard's dictionary (keyed shards only).
    std::uint64_t spellings_applied() const noexcept {
        return spellings_applied_.load(std::memory_order_relaxed);
    }

    /// Records the exception that stopped this shard's worker; the shard
    /// drains no further, and rethrow_failure() reports it.
    void fail(std::exception_ptr e) noexcept {
        failure_ = std::move(e);
        failed_.store(true, std::memory_order_release);
    }
    bool failed() const noexcept { return failed_.load(std::memory_order_acquire); }
    void rethrow_failure() const {
        if (failed()) {
            std::rethrow_exception(failure_);
        }
    }

    /// Whether any published update has not reached the sketch yet, or a
    /// byte lane holds bytes the worker has not taken (a producer may be
    /// waiting for room for a long key) — the park / worker-shutdown
    /// predicate.
    bool has_pending() const noexcept {
        if (applied() < enqueued()) {
            return true;
        }
        return std::any_of(lanes_.begin(), lanes_.end(),
                           [](const auto& lane) { return !lane->empty(); });
    }

    // --- idle parking ----------------------------------------------------------

    /// Worker side: blocks until the next wake() unless work is pending or
    /// \p stopping is set; returns whether it blocked. No wakeup is lost:
    /// the worker raises parked_ and then re-checks its lanes, a waker makes
    /// its work visible and then reads parked_, and a seq_cst fence on each
    /// side orders the two, so at least one of them sees the other. A
    /// wake() that lands between the re-check and the wait has already
    /// moved wake_seq_, so the wait returns at once.
    bool park(const std::atomic<bool>& stopping) {
        const std::uint32_t seq = wake_seq_.load(std::memory_order_acquire);
        parked_.store(true, std::memory_order_relaxed);
        detail::park_fence();
        const bool block = !has_pending() && !stopping.load(std::memory_order_relaxed);
        if (block) {
            parks_.fetch_add(1, std::memory_order_relaxed);
            obs::pipeline().engine_worker_parks.add(1);
            wake_seq_.wait(seq, std::memory_order_acquire);
        }
        parked_.store(false, std::memory_order_relaxed);
        return block;
    }

    /// Releases a parked worker. Call after publishing into a ring, or
    /// after setting the engine's stop flag. Costs a fence and one load
    /// while the worker is awake; a futex wake only when it is parked.
    void wake() noexcept {
        detail::park_fence();
        if (parked_.load(std::memory_order_relaxed)) {
            wake_seq_.fetch_add(1, std::memory_order_release);
            wake_seq_.notify_one();
        }
    }

    /// Blocking parks so far (an idle worker parks once per idle spell).
    std::uint64_t parks() const noexcept { return parks_.load(std::memory_order_relaxed); }

private:
    /// Constructs the shard sketch, forwarding placement hints to backends
    /// that accept them (the paper-sketch family does); backends with a
    /// config-only constructor — some façade alternatives — still work,
    /// they just skip the hugepage advice.
    static Sketch make_sketch(const sketch_config& cfg, const mem::placement& place) {
        if constexpr (std::is_constructible_v<Sketch, const sketch_config&,
                                              const mem::placement&>) {
            return Sketch(cfg, place);
        } else {
            (void)place;
            return Sketch(cfg);
        }
    }

    /// drain() for keyed shards. Per ring: take its records, then every
    /// byte its lane holds — the records' bytes were published before
    /// them, and a producer waiting on a long key gets room — and apply
    /// the records in order through the sketch's keyed update.
    std::size_t drain_keyed() {
        using codec = detail::lane_codec<typename Sketch::item_type>;
        using outcome = typename Sketch::spelling_outcome;
        std::size_t n = 0;
        std::size_t moved = 0;
        std::uint64_t stored = 0;
        std::uint64_t known = 0;
        const std::size_t r = rings_.size();
        {
            std::unique_lock<std::mutex> lock(mutex_, std::defer_lock);
            for (std::size_t i = 0; i < r; ++i) {
                const std::size_t p = (next_ring_ + i) % r;
                const std::size_t got =
                    n < batch_size_ ? rings_[p]->try_pop(batch_buf_.data(), batch_size_ - n) : 0;
                std::string& bytes = inboxes_[p];
                for (std::size_t b; (b = lanes_[p]->try_pop(chunk_.data(), chunk_.size())) > 0;
                     moved += b) {
                    bytes.append(chunk_.data(), b);
                }
                if (got == 0) {
                    continue;
                }
                if (!lock.owns_lock()) {
                    lock.lock();
                }
                const char* c = bytes.data();
                for (std::size_t j = 0; j < got; ++j) {
                    const update_type& u = batch_buf_[j];
                    const outcome o = sketch_.update(u.id, codec::take(c), u.weight);
                    stored += o == outcome::stored;
                    known += o == outcome::known;
                }
                bytes.erase(0, static_cast<std::size_t>(c - bytes.data()));
                n += got;
            }
        }
        next_ring_ = (next_ring_ + 1) % r;
        if (n > 0) {
            applied_.fetch_add(n, std::memory_order_release);
            batches_.fetch_add(1, std::memory_order_relaxed);
            spellings_applied_.fetch_add(stored, std::memory_order_relaxed);
            auto& m = obs::pipeline();
            m.engine_updates_applied.add(n);
            m.engine_batches_applied.add(1);
            m.shard_drain_batch_size.record(n);
            m.spelling_applied.add(stored);
            m.spelling_dedupe_hits.add(known);
        }
        return n + moved;
    }

    Sketch sketch_;
    mutable std::mutex mutex_;  ///< guards sketch_ (drain vs. clone_sketch/tick)

    std::vector<std::unique_ptr<spsc_ring<update_type>>> rings_;
    std::vector<std::unique_ptr<spsc_ring<char>>> lanes_;  ///< key bytes (keyed only)
    /// Worker-side bytes taken off each lane that no record has consumed
    /// yet: a key longer than its lane gathers here in pieces.
    std::vector<std::string> inboxes_;
    std::vector<char> chunk_;             ///< worker-local lane pop scratch (keyed only)
    std::vector<update_type> batch_buf_;  ///< worker-local drain scratch
    std::size_t batch_size_;
    std::size_t next_ring_ = 0;  ///< round-robin fairness cursor

    std::atomic<std::uint64_t> applied_{0};
    std::atomic<std::uint64_t> batches_{0};
    std::atomic<std::uint64_t> spellings_applied_{0};
    std::atomic<std::uint64_t> ticks_{0};  ///< lifetime-clock component of generation()
    std::exception_ptr failure_;           ///< written once, before failed_
    std::atomic<bool> failed_{false};

    // Read by every producer publish, written only when the worker parks:
    // kept off the lines the drain loop writes per batch.
    alignas(64) std::atomic<bool> parked_{false};
    std::atomic<std::uint32_t> wake_seq_{0};  ///< bumped by wake(); park() waits on it
    std::atomic<std::uint64_t> parks_{0};
};

}  // namespace freq

#endif  // FREQ_ENGINE_SHARD_H
