#ifndef FREQ_ENGINE_STREAM_ENGINE_H
#define FREQ_ENGINE_STREAM_ENGINE_H

/// \file stream_engine.h
/// The sharded concurrent ingestion engine — the §3 partition-then-merge
/// architecture as a running system instead of a batch utility.
///
/// Topology:
///
///   producer 0 ──┐ staging ┌─ ring[0][s] ─┐
///   producer 1 ──┤ buffers ├─ ring[1][s] ─┼─► worker s ─► sketch s ──┐
///      ...       │  (key-  │     ...      │   (batched drain)        ├─► view(): copies
///   producer P ──┘ routed) └─ ring[P][s] ─┘                          │   snapshot(): fold
///                                             ... one per shard ...──┘     (Algorithm 5)
///
///  * Keys are routed to shards by an independent hash (shard_router), so
///    each shard's sketch summarizes a fixed sub-space of keys and
///    Theorem 4 applies per shard.
///  * Producer → shard hand-off uses bounded SPSC rings (spsc_ring.h): one
///    ring per (producer, shard) pair keeps every ring single-producer /
///    single-consumer and therefore wait-free. A full ring pushes back on
///    its producer (bounded memory); producers stage small per-shard runs
///    so ring synchronization is amortized over whole batches.
///  * Each shard worker drains its rings in batches and applies each batch
///    with one span update() under the shard lock. Readers never traverse
///    live sketch state: they copy it under that lock, O(k) per shard.
///  * Workers are event-driven: a worker whose lanes run dry yields a few
///    times, then parks until a producer publishes its next run (or flush()
///    or stop() wakes it), so flush() waits for the backlog, not for a
///    backoff timer, and an idle engine costs no CPU.
///
/// Reads: view() — and the snapshot service's published view — is a
/// partitioned_view, one copy per shard and no merge: a point query asks
/// the key's shard, and its bounds carry that shard's offset only.
/// snapshot() is the standalone sketch save(), merges and envelopes need: a
/// Theorem 5 fold of the shard copies, whose error bound is the *sum* of
/// the shard offsets. See README "Engine" for sizing S against k.
///
/// Lifetime policies: the engine is templated on the per-shard sketch type
/// (plain, fading_frequent_items, windowed_frequent_items — see
/// core/lifetime_policy.h); the ingestion API is identical for each.
/// advance_epoch() ticks every shard's clock while no view is being copied,
/// so a view's shards always share one clock; snapshot() folds with the
/// policy-aware merge.
///
/// Text / generic keys: with a spelling-keeping sketch
/// (core/fingerprint_frequent_items.h) producers take keyed pushes only —
/// push("alice", 3.0). The producer fingerprints the key and stages the
/// fixed-size (fingerprint, weight) record for the ring and the key's bytes
/// for the (producer, shard) byte lane; a run's bytes are published before
/// its records, so everything a shard sees arrives in stream order and the
/// shard applies each record like a standalone keyed update. With one
/// producer each shard therefore equals a standalone sketch with seed + s
/// fed its routed sub-stream, dictionary included: a view answers with
/// each shard's spellings, snapshot() unions the slices, and every tracked
/// key is spelled. The counts keep the paper's exact NFP/NFN guarantees in
/// fingerprint space.
///
/// Failures surface: a worker whose drain() throws records the exception
/// and stops; flush() and snapshot() rethrow it. Pushes published after
/// stop() — or to a failed shard — are dropped and counted
/// (engine_stats::updates_dropped, freq_engine_dropped_total).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/contracts.h"
#include "common/mem.h"
#include "core/counter_maintenance.h"
#include "core/frequent_items_sketch.h"
#include "core/sketch_config.h"
#include "engine/partitioned_view.h"
#include "engine/shard.h"
#include "engine/snapshot_service.h"
#include "engine/spsc_ring.h"
#include "obs/pipeline_metrics.h"
#include "hashing/hash.h"
#include "stream/update.h"

namespace freq {

/// How the engine places shards relative to the host's NUMA topology
/// (common/mem.h). Placement never changes results — only where the
/// shards' pages live and which CPUs their workers run on.
enum class numa_policy : std::uint8_t {
    /// No pinning, no placement: workers float, memory lands wherever the
    /// scheduler ran the constructing thread. The pre-placement behavior.
    none,
    /// Round-robin shards across the detected NUMA nodes: shard s's worker
    /// is pinned to node (s mod nodes) and constructs the shard's memory
    /// itself, so first-touch puts the counter tables, rings and spelling
    /// arenas on the worker's node. Degrades to `none` on single-node
    /// hosts, FREQ_NUMA=OFF builds and non-Linux platforms.
    interleave,
};

/// Tuning knobs of stream_engine.
struct engine_config {
    /// S — number of shards, i.e. worker threads and per-shard sketches.
    std::uint32_t num_shards = 4;

    /// P — number of producer handles the engine hands out; one SPSC ring
    /// exists per (producer, shard) pair.
    std::uint32_t num_producers = 1;

    /// Slots per ring, rounded up to a power of two. Bounded memory:
    /// total queued updates never exceed P * S * ring_capacity. Text and
    /// generic keys get a byte lane per ring of the ring's size in bytes;
    /// a longer key still ingests, in pieces.
    std::size_t ring_capacity = 4096;

    /// Maximum updates a worker applies to its sketch per lock acquisition.
    std::size_t drain_batch = 512;

    /// Updates a producer stages per shard before pushing the run into the
    /// shard's ring (amortizes ring synchronization).
    std::size_t producer_batch = 128;

    /// Per-shard sketch configuration. Shard s runs with seed + s so the
    /// shards' hash functions are independent (§3.2's merge note).
    sketch_config sketch{};

    /// NUMA shard placement (see numa_policy above). The default keeps
    /// behavior and thread affinity identical to a build without the
    /// memory subsystem.
    numa_policy numa = numa_policy::none;

    /// Advise transparent huge pages on each shard's large backing buffers
    /// (counter-table arrays, SPSC ring slots, spelling arena blocks).
    /// Advice only: hosts without THP, FREQ_NUMA=OFF builds and non-Linux
    /// platforms silently ignore it. freq_mem_hugepage_regions_total counts
    /// the regions actually advised.
    bool hugepages = false;
};

/// Aggregate engine statistics (monotonic; racy-but-consistent reads).
struct engine_stats {
    std::uint64_t updates_enqueued = 0;  ///< pushed into rings by producers
    std::uint64_t updates_applied = 0;   ///< applied to shard sketches
    std::uint64_t batches_applied = 0;   ///< sketch lock acquisitions by workers
    std::uint64_t ring_full_stalls = 0;  ///< producer yields due to full rings
    std::uint64_t spellings_applied = 0;   ///< stored into a shard dictionary
    std::uint64_t updates_dropped = 0;     ///< published after stop() or to a failed shard
    std::uint64_t worker_parks = 0;        ///< idle workers blocking until woken (per park, not per update)
    std::uint64_t snapshot_folds = 0;      ///< snapshot() calls
    std::uint64_t snapshot_shards_refolded = 0;  ///< shards merged by folds + copied by views
};

template <typename K = std::uint64_t, typename W = std::uint64_t,
          typename Sketch = frequent_items_sketch<K, W>>
class stream_engine {
public:
    using update_type = update<K, W>;
    using sketch_type = Sketch;
    using view_type = partitioned_view<Sketch>;

    /// A single-threaded ingestion handle. Each producer owns one SPSC ring
    /// per shard plus per-shard staging buffers; distinct producers may run
    /// on distinct threads concurrently, but one producer instance must not
    /// be shared across threads. Destruction flushes staged updates.
    /// Lifetime: a producer holds a pointer into its engine and must be
    /// destroyed before it; push/flush after stop() drop instead of block.
    class producer {
    public:
        producer(producer&& other) noexcept
            : engine_(other.engine_),
              slot_(other.slot_),
              stages_(std::move(other.stages_)),
              spelled_(std::move(other.spelled_)),
              stalls_(other.stalls_) {
            other.engine_ = nullptr;
        }
        producer(const producer&) = delete;
        producer& operator=(const producer&) = delete;
        producer& operator=(producer&&) = delete;

        ~producer() {
            if (engine_ != nullptr) {
                flush();
                engine_->release_producer_slot(slot_);
            }
        }

        /// Routes one weighted update to its shard's staging buffer.
        /// Weights are validated here, in the caller's thread, so a bad
        /// update surfaces as a catchable exception instead of unwinding a
        /// shard worker (which would terminate the process). Engines over
        /// text / generic keys take keyed pushes only.
        void push(K id, W weight)
            requires(!spelling_sketch<Sketch>)
        {
            if constexpr (std::is_signed_v<W> || std::is_floating_point_v<W>) {
                FREQ_REQUIRE(weight >= W{0}, "update weights must be non-negative");
            }
            const std::uint32_t s = engine_->shard_of(id);
            auto& stage = stages_[s];
            stage.push_back(update_type{id, weight});
            if (stage.size() >= engine_->cfg_.producer_batch) {
                publish(s);
            }
        }

        void push(const update_type& u)
            requires(!spelling_sketch<Sketch>)
        {
            push(u.id, u.weight);
        }

        /// Routes a whole batch (the bulk-load path).
        void push(std::span<const update_type> batch)
            requires(!spelling_sketch<Sketch>)
        {
            for (const auto& u : batch) {
                push(u.id, u.weight);
            }
        }

        /// Keyed push for spelling-keeping sketches (text / generic keys):
        /// fingerprints \p item here in the producer's thread and stages the
        /// (fingerprint, weight) record with the key's bytes beside it;
        /// publish() hands both to the shard, bytes first.
        template <typename S = Sketch>
            requires spelling_sketch<S>
        void push(typename S::item_view item, W weight = W{1}) {
            if constexpr (std::is_signed_v<W> || std::is_floating_point_v<W>) {
                FREQ_REQUIRE(weight >= W{0}, "update weights must be non-negative");
            }
            const std::uint64_t fp = S::fingerprint(item);
            const std::uint32_t s = engine_->shard_of(fp);
            detail::lane_codec<typename S::item_type>::put(spelled_[s], item);
            auto& stage = stages_[s];
            stage.push_back(update_type{fp, weight});
            if (stage.size() >= engine_->cfg_.producer_batch) {
                publish(s);
            }
        }

        /// Publishes every staged update into the shard rings. After flush()
        /// returns, all of this producer's updates are visible to the
        /// workers (though not necessarily applied yet — see engine flush()).
        void flush() {
            for (std::uint32_t s = 0; s < stages_.size(); ++s) {
                if (!stages_[s].empty()) {
                    publish(s);
                }
            }
        }

        /// Producer-observed backpressure events (full-ring yields).
        std::uint64_t ring_full_stalls() const noexcept { return stalls_; }

    private:
        friend class stream_engine;

        producer(stream_engine* engine, std::uint32_t slot) : engine_(engine), slot_(slot) {
            stages_.resize(engine_->cfg_.num_shards);
            for (auto& s : stages_) {
                s.reserve(engine_->cfg_.producer_batch);
            }
            if constexpr (spelling_sketch<Sketch>) {
                spelled_.resize(engine_->cfg_.num_shards);
            }
        }

        /// Hands shard \p s's staged run to the shard: its key bytes (keyed
        /// sketches) into the byte lane, then its records into the ring. If
        /// the engine has been stopped, or the shard's worker failed (a full
        /// ring would never drain), the rest of the run is dropped and its
        /// records counted rather than livelocking — pushing after stop() is
        /// a contract violation, but the destructor-flush must stay safe
        /// against it. A run whose bytes did not all go in is dropped whole.
        void publish(std::uint32_t s) {
            auto& shard = *engine_->shards_[s];
            auto& ring = shard.ring(slot_);
            const std::span<const update_type> run(stages_[s]);
            bool bytes_in = true;
            if constexpr (spelling_sketch<Sketch>) {
                const std::span<const char> bytes(spelled_[s]);
                bytes_in = hand_off(shard, shard.lane(slot_), bytes) == bytes.size();
                spelled_[s].clear();
            }
            const std::size_t pushed = bytes_in ? hand_off(shard, ring, run) : 0;
            if (const std::size_t dropped = run.size() - pushed; dropped > 0) {
                engine_->dropped_.fetch_add(dropped, std::memory_order_relaxed);
                obs::pipeline().engine_dropped.add(dropped);
            }
            // Telemetry once per publish (amortized over producer_batch
            // updates): totals plus a ring-occupancy sample right after
            // the push, which is what backpressure tuning wants to see.
            if (pushed > 0) {
                auto& m = obs::pipeline();
                m.engine_updates_enqueued.add(pushed);
                m.engine_publishes.add(1);
                m.engine_ring_occupancy.record(ring.size());
            }
            stages_[s].clear();
        }

        /// Pushes \p items into \p ring, yielding while it is full, and
        /// returns how many went in: all of them, unless the engine stopped
        /// or the shard failed first.
        template <typename T>
        std::size_t hand_off(engine_shard<K, W, Sketch>& shard, spsc_ring<T>& ring,
                             std::span<const T> items) {
            std::size_t done = 0;
            while (done < items.size()) {
                if (engine_->stopping_.load(std::memory_order_acquire) || shard.failed()) {
                    break;
                }
                const std::size_t n = ring.try_push(items.subspan(done));
                done += n;
                if (n > 0) {
                    shard.wake();  // before any full-ring wait: it needs the worker
                }
                if (done < items.size()) {
                    ++stalls_;
                    engine_->stalls_.fetch_add(1, std::memory_order_relaxed);
                    obs::pipeline().engine_ring_full.add(1);
                    std::this_thread::yield();
                }
            }
            return done;
        }

        stream_engine* engine_;
        std::uint32_t slot_;
        std::vector<std::vector<update_type>> stages_;  ///< one staging run per shard
        std::vector<std::string> spelled_;  ///< the staged runs' key bytes (keyed only)
        std::uint64_t stalls_ = 0;
    };

    explicit stream_engine(const engine_config& cfg) : cfg_(cfg) {
        FREQ_REQUIRE(cfg.num_shards >= 1, "engine needs at least one shard");
        FREQ_REQUIRE(cfg.num_shards <= 4096, "engine shard count limited to 4096");
        FREQ_REQUIRE(cfg.num_producers >= 1, "engine needs at least one producer slot");
        FREQ_REQUIRE(cfg.num_producers <= 4096, "engine producer count limited to 4096");
        router_ = shard_router(cfg.num_shards,
                               murmur_mix64(cfg.sketch.seed ^ 0x5368'6172'6445'6e67ULL));
        // Each worker pins itself (per cfg.numa) and then constructs its own
        // shard, so first-touch places the shard's memory — tables, rings,
        // spelling arena — on the worker's node. The constructor returns
        // only once every shard exists (producers may touch any shard the
        // moment make_producer() is reachable) or a construction failed.
        shards_.resize(cfg.num_shards);
        struct start_sync {
            std::mutex m;
            std::condition_variable cv;
            std::uint32_t ready = 0;
            std::exception_ptr failure;
        } start;
        workers_.reserve(cfg.num_shards);
        try {
            for (std::uint32_t s = 0; s < cfg.num_shards; ++s) {
                workers_.emplace_back([this, s, &start] {
                    bool ok = false;
                    try {
                        construct_shard(s);
                        ok = true;
                    } catch (...) {
                        std::lock_guard<std::mutex> lk(start.m);
                        if (start.failure == nullptr) {
                            start.failure = std::current_exception();
                        }
                    }
                    {
                        std::lock_guard<std::mutex> lk(start.m);
                        ++start.ready;
                        // Notify under the lock: the constructor's wait()
                        // cannot return — and `start` unwind — until this
                        // worker drops the mutex, so the signal always
                        // completes before the condition_variable dies.
                        start.cv.notify_one();
                    }
                    if (ok) {
                        worker_loop(s);
                    }
                });
            }
            std::unique_lock<std::mutex> lk(start.m);
            start.cv.wait(lk, [&] { return start.ready == cfg_.num_shards; });
            if (start.failure != nullptr) {
                std::rethrow_exception(start.failure);
            }
        } catch (...) {
            // Thread spawn or shard construction failed partway: stop and
            // join the workers that did start, so unwinding never destroys
            // a joinable thread or leaves a worker draining a dead engine.
            // Every started worker reports in first, so each shard pointer
            // is final before wake_workers() reads it, and a worker that
            // parked before the stop flag was set is woken.
            stopping_.store(true, std::memory_order_seq_cst);
            {
                std::unique_lock<std::mutex> lk(start.m);
                start.cv.wait(lk, [&] { return start.ready == workers_.size(); });
            }
            wake_workers();
            for (auto& w : workers_) {
                if (w.joinable()) {
                    w.join();
                }
            }
            throw;
        }
    }

    stream_engine(const stream_engine&) = delete;
    stream_engine& operator=(const stream_engine&) = delete;

    ~stream_engine() { stop(); }

    const engine_config& config() const noexcept { return cfg_; }
    std::uint32_t num_shards() const noexcept { return cfg_.num_shards; }

    /// Which shard serves \p id. Routing hash is independent of every
    /// shard's table hash (different mixer family and salt), so shard
    /// membership does not correlate with slot placement.
    std::uint32_t shard_of(K id) const noexcept {
        return router_(static_cast<std::uint64_t>(id));
    }

    /// Hands out a producer slot. At most num_producers producers may be
    /// alive at once; destroying a producer returns its slot (after a
    /// flush), so short-lived ingestion handles — the façade's feeders
    /// (api/summarizer.h) — can come and go for the engine's whole lifetime.
    /// A recycled slot reuses the original slot's rings, which stay SPSC
    /// because the old producer flushed before the new one can exist.
    producer make_producer() {
        std::lock_guard<std::mutex> lock(slot_mutex_);
        std::uint32_t slot;
        if (!free_slots_.empty()) {
            slot = free_slots_.back();
            free_slots_.pop_back();
        } else {
            FREQ_REQUIRE(next_producer_ < cfg_.num_producers,
                         "more live producers than cfg.num_producers");
            slot = next_producer_++;
        }
        return producer(this, slot);
    }

    /// Barrier: returns once every update already published to the rings
    /// (i.e. after the producers' flush()) has been applied to a shard
    /// sketch. Callers that need stream-complete reads flush producers,
    /// then the engine, then read. With the snapshot service attached,
    /// flush() also republishes, so cached reads keep the same "everything
    /// flushed is visible" meaning as unpublished reads. Rethrows the
    /// exception of a failed shard worker instead of waiting on it.
    void flush() {
        FREQ_REQUIRE(!stopping_.load(std::memory_order_acquire),
                     "flush() on a stopped engine");
        wake_workers();
        for (const auto& shard : shards_) {
            const std::uint64_t target = shard->enqueued();
            while (shard->applied() < target) {
                shard->rethrow_failure();  // a failed shard never catches up
                std::this_thread::yield();
            }
        }
        if (snapshots_ != nullptr) {
            snapshots_->publish_now();
        }
    }

    /// Advances every shard's lifetime clock by \p epochs ticks (decay step
    /// for exponential_fading, epoch rotation for epoch_window, no-op for
    /// plain). Each shard ticks under its sketch mutex, so a tick never
    /// splits a drained batch, and the tick loop excludes view copies, so
    /// no view mixes pre-tick and post-tick shards. Callers that need an
    /// exact epoch boundary flush producers and the engine first (same
    /// discipline as a stream-complete read).
    void advance_epoch(std::uint64_t epochs = 1) {
        {
            std::lock_guard<std::mutex> lock(clock_mutex_);
            for (const auto& shard : shards_) {
                shard->tick(epochs);
            }
        }
        // Republish synchronously (outside the clock lock: the publish
        // takes it) so a cached view reflects the new logical clock as soon
        // as the tick returns.
        if (snapshots_ != nullptr) {
            snapshots_->publish_now();
        }
    }

    /// A partitioned view of everything applied so far: one O(k) copy per
    /// shard, each under that shard's lock, and no merge. Every shard is
    /// copied at the same lifetime clock.
    view_type view() const {
        std::vector<sketch_type> parts;
        std::vector<std::uint64_t> gens;
        parts.reserve(shards_.size());
        gens.reserve(shards_.size());
        std::lock_guard<std::mutex> lock(clock_mutex_);
        for (const auto& shard : shards_) {
            gens.push_back(shard->generation());  // before the copy: see copy_dirty
            parts.push_back(shard->clone_sketch());
        }
        count_refolds(shards_.size());
        return view_type(std::move(parts), router_, std::move(gens));
    }

    /// A consistent standalone summary of everything applied so far: an
    /// empty sketch of the engine's config merged (Algorithm 5) with a copy
    /// of each shard in shard order — a valid summary of the union by
    /// Theorem 5, whose bytes depend only on the shards' states. This is
    /// the form save(), merges and envelopes need; reads use view().
    /// Rethrows the exception of a failed shard worker.
    sketch_type snapshot() const {
        for (const auto& shard : shards_) {
            shard->rethrow_failure();
        }
        snapshot_folds_.fetch_add(1, std::memory_order_relaxed);
        count_refolds(shards_.size());
        sketch_type out(cfg_.sketch);
        for (const auto& shard : shards_) {
            out.merge(shard->clone_sketch());
        }
        return out;
    }

    // --- async snapshot service ---------------------------------------------

    /// Opt-in: starts the background publisher (snapshot_service.h), which
    /// refreshes a pooled partitioned view every \p interval — re-copying
    /// only the shards whose generation moved, allocation-free in steady
    /// state — and publishes it into the double-buffered slot
    /// acquire_snapshot() reads from. Queries served from the cached view
    /// cost a pointer acquire instead of S copies, at a staleness bounded
    /// by \p interval (flush() and advance_epoch() republish
    /// synchronously). Idempotent re-enable replaces the interval by
    /// restarting the service. Control-plane calls (enable/disable/stop)
    /// are owner-thread operations: they must not race
    /// acquire_snapshot()/flush()/advance_epoch() on other threads.
    void enable_snapshot_service(std::chrono::microseconds interval) {
        FREQ_REQUIRE(!stopping_.load(std::memory_order_acquire),
                     "enable_snapshot_service() on a stopped engine");
        retire_snapshot_service();  // stop any previous publisher first
        snapshots_ = std::make_unique<snapshot_service<view_type>>(
            [this] { return view(); }, interval, [this](view_type& v) {
                std::lock_guard<std::mutex> lock(clock_mutex_);
                count_refolds(v.copy_dirty(shards_));
            });
    }

    /// Stops the publisher and returns reads to unpublished views. Outstanding
    /// views stay valid (they pin their buffer storage).
    void disable_snapshot_service() { retire_snapshot_service(); }

    bool snapshot_service_enabled() const noexcept { return snapshots_ != nullptr; }

    /// Pins and returns the currently published cached view (wait-free in
    /// steady state; see published_snapshot). Requires the service enabled.
    published_snapshot<view_type> acquire_snapshot() const {
        FREQ_REQUIRE(snapshots_ != nullptr,
                     "acquire_snapshot() requires enable_snapshot_service()");
        return snapshots_->acquire();
    }

    /// Synchronous republish (requires the service enabled); returns the
    /// published epoch.
    std::uint64_t publish_snapshot_now() {
        FREQ_REQUIRE(snapshots_ != nullptr,
                     "publish_snapshot_now() requires enable_snapshot_service()");
        return snapshots_->publish_now();
    }

    /// Epoch of the published cached view — one atomic load, no buffer
    /// pin (poll this freely). 0 when the service is off.
    std::uint64_t snapshot_epoch() const noexcept {
        return snapshots_ != nullptr ? snapshots_->epoch() : 0;
    }

    /// Publisher counters. Monotonic for the life of the *engine*, not just
    /// of one service instance: totals of every retired service (each
    /// enable/disable cycle) are accumulated into a base that the live
    /// service's counters are added on top of, so re-enabling the service
    /// never makes any counter go backwards. Zeros only if the service was
    /// never enabled.
    snapshot_service_stats snapshot_stats() const noexcept {
        snapshot_service_stats st = snapshot_stats_base_;
        if (snapshots_ != nullptr) {
            st += snapshots_->stats();
        }
        return st;
    }

    /// Drains every ring, stops the workers and joins them. Idempotent;
    /// called by the destructor. Producers must not push after stop().
    void stop() {
        bool expected = false;
        if (!stopping_.compare_exchange_strong(expected, true, std::memory_order_acq_rel)) {
            return;
        }
        // Stop the publisher before the workers so no publish copies a
        // half-stopped engine.
        retire_snapshot_service();
        wake_workers();  // a parked worker sees the stop flag only once woken
        for (auto& w : workers_) {
            if (w.joinable()) {
                w.join();
            }
        }
    }

    engine_stats stats() const noexcept {
        engine_stats st;
        for (const auto& shard : shards_) {
            st.updates_enqueued += shard->enqueued();
            st.updates_applied += shard->applied();
            st.batches_applied += shard->batches_applied();
            st.spellings_applied += shard->spellings_applied();
            st.worker_parks += shard->parks();
        }
        st.ring_full_stalls = stalls_.load(std::memory_order_relaxed);
        st.updates_dropped = dropped_.load(std::memory_order_relaxed);
        st.snapshot_folds = snapshot_folds_.load(std::memory_order_relaxed);
        st.snapshot_shards_refolded = snapshot_refolds_.load(std::memory_order_relaxed);
        return st;
    }

private:
    /// Shards copied by views or merged by folds.
    void count_refolds(std::size_t n) const {
        snapshot_refolds_.fetch_add(n, std::memory_order_relaxed);
        obs::pipeline().snapshot_shards_refolded.add(n);
    }

    /// Runs on worker thread s, before its drain loop: applies the NUMA
    /// policy (pin first, construct after), so every allocation the shard
    /// makes first-touches pages on the worker's node.
    void construct_shard(std::uint32_t s) {
        int node = -1;
        if (cfg_.numa == numa_policy::interleave) {
            const mem::topology& topo = mem::host_topology();
            node = topo.node_for_worker(s);  // -1 on single-node hosts
            if (node >= 0) {
                if (mem::pin_thread_to_node(topo, node)) {
                    obs::pipeline().mem_node_local_shards.add(1);
                } else {
                    // Pin failed (cpuset restrictions, degraded build): the
                    // shard still works, its memory just isn't node-bound.
                    node = -1;
                    obs::pipeline().mem_remote_shards.add(1);
                }
            }
        }
        sketch_config local = cfg_.sketch;
        // Per-shard seed perturbation decorrelates the counter cores'
        // decrement sampling — but linear-sketch backends (count_min /
        // count_sketch) opt out via merge_requires_equal_seeds: their
        // cellwise merge composes across shards only under identical
        // hash functions, which is sound because shards partition the
        // key space (equal seeds never double-count an item).
        if constexpr (!detail::merge_requires_equal_seeds_v<Sketch>) {
            local.seed = cfg_.sketch.seed + s;
        }
        shards_[s] = std::make_unique<engine_shard<K, W, Sketch>>(
            local, cfg_.num_producers, cfg_.ring_capacity, cfg_.drain_batch,
            mem::placement{cfg_.hugepages, node});
    }

    /// Wakes every constructed shard's worker (flush(), stop(), failed
    /// construction).
    void wake_workers() noexcept {
        for (const auto& shard : shards_) {
            if (shard != nullptr) {
                shard->wake();
            }
        }
    }

    /// Drains shard s until stop() and its lanes run dry. An idle worker
    /// yields 64 times (cheap when work is about to land), then parks until
    /// the next wake(): producers wake it per published run, flush() and
    /// stop() wake every shard.
    void worker_loop(std::uint32_t s) {
        engine_shard<K, W, Sketch>& shard = *shards_[s];
        std::uint32_t idle_streak = 0;
        for (;;) {
            std::size_t n = 0;
            try {
                n = shard.drain();
            } catch (...) {
                // The shard's sketch is now suspect: stop draining it, and
                // let flush() and snapshot() report why.
                shard.fail(std::current_exception());
                return;
            }
            if (n > 0) {
                idle_streak = 0;
                continue;
            }
            if (stopping_.load(std::memory_order_acquire)) {
                // Stop only once the lanes stay empty: drain() returned 0
                // after the stop flag was visible, and producers are done.
                if (!shard.has_pending()) {
                    return;
                }
                continue;
            }
            if (++idle_streak < 64) {
                std::this_thread::yield();
            } else {
                shard.park(stopping_);
            }
        }
    }

    void release_producer_slot(std::uint32_t slot) {
        std::lock_guard<std::mutex> lock(slot_mutex_);
        free_slots_.push_back(slot);
    }

    /// Stops and destroys the current snapshot service (if any), folding
    /// its counters into the accumulated base first so snapshot_stats()
    /// stays monotonic across enable/disable cycles. Owner-thread only
    /// (same contract as enable/disable).
    void retire_snapshot_service() {
        if (snapshots_ != nullptr) {
            snapshot_stats_base_ += snapshots_->stats();
            snapshots_.reset();
        }
    }

    engine_config cfg_;
    shard_router router_;
    std::vector<std::unique_ptr<engine_shard<K, W, Sketch>>> shards_;
    std::vector<std::thread> workers_;
    std::mutex slot_mutex_;                  ///< guards the slot allocator below
    std::uint32_t next_producer_ = 0;        ///< next never-used slot
    std::vector<std::uint32_t> free_slots_;  ///< slots of destroyed producers
    std::atomic<bool> stopping_{false};
    std::atomic<std::uint64_t> stalls_{0};
    std::atomic<std::uint64_t> dropped_{0};
    /// Excludes advance_epoch()'s tick loop from view copies, so every view
    /// holds its shards at one lifetime clock.
    mutable std::mutex clock_mutex_;
    mutable std::atomic<std::uint64_t> snapshot_folds_{0};
    mutable std::atomic<std::uint64_t> snapshot_refolds_{0};
    std::unique_ptr<snapshot_service<view_type>> snapshots_;  ///< null = unpublished views
    /// Accumulated totals of retired snapshot services (see snapshot_stats()).
    snapshot_service_stats snapshot_stats_base_{};
};

}  // namespace freq

#endif  // FREQ_ENGINE_STREAM_ENGINE_H
