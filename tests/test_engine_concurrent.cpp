/// Concurrency tests for the sharded ingestion engine: multi-producer
/// ingestion must reproduce the sequential sketch's guarantees (Theorem 4's
/// error envelope, exact totals, bracketing bounds), snapshots must be safe
/// and valid while ingestion is running, and the whole pipeline must be
/// deterministic for a fixed producer order. Idle workers park on a wake
/// signal: a producer's flush alone must wake them, and stop() and a failed
/// construction must not hang on them.

#include "engine/stream_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <future>
#include <random>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "api/summary_bytes.h"
#include "core/basic_frequent_items.h"
#include "core/frequent_items_sketch.h"
#include "obs/pipeline_metrics.h"
#include "stream/exact_counter.h"
#include "stream/generators.h"

namespace freq {
namespace {

using sketch_u64 = frequent_items_sketch<std::uint64_t, std::uint64_t>;

update_stream<std::uint64_t, std::uint64_t> zipf11_stream(std::uint64_t n,
                                                          std::uint64_t seed) {
    zipf_stream_generator gen({.num_updates = n,
                               .num_distinct = n / 10,
                               .alpha = 1.1,
                               .min_weight = 1,
                               .max_weight = 100,
                               .seed = seed});
    return gen.generate();
}

TEST(StreamEngine, ConfigValidation) {
    engine_config cfg;
    cfg.num_shards = 0;
    EXPECT_THROW({ stream_engine<> e(cfg); }, std::invalid_argument);
    cfg.num_shards = 1;
    cfg.num_producers = 0;
    EXPECT_THROW({ stream_engine<> e(cfg); }, std::invalid_argument);
}

TEST(StreamEngine, MakeProducerOverAllocationThrows) {
    engine_config cfg;
    cfg.num_shards = 2;
    cfg.num_producers = 1;
    stream_engine<> engine(cfg);
    auto p = engine.make_producer();
    EXPECT_THROW(engine.make_producer(), std::invalid_argument);
}

TEST(StreamEngine, ProducerSlotsRecycleAfterDestruction) {
    // num_producers bounds *live* producers, not total ever created: a
    // destroyed producer's slot (and its rings) serves the next one — the
    // façade's short-lived feeders (api/summarizer.h) rely on this.
    engine_config cfg;
    cfg.num_shards = 2;
    cfg.num_producers = 1;
    stream_engine<> engine(cfg);
    for (int round = 0; round < 4; ++round) {
        auto p = engine.make_producer();
        p.push(7, 1);
        p.flush();
    }
    engine.flush();
    EXPECT_EQ(engine.snapshot().estimate(7), 4u);
}

TEST(StreamEngine, EmptyEngineSnapshots) {
    engine_config cfg;
    cfg.num_shards = 4;
    stream_engine<> engine(cfg);
    const auto snap = engine.snapshot();
    EXPECT_TRUE(snap.empty());
    EXPECT_EQ(snap.total_weight(), 0u);
}

TEST(StreamEngine, ShardRoutingIsTotalAndStable) {
    engine_config cfg;
    cfg.num_shards = 5;  // deliberately not a power of two
    stream_engine<> engine(cfg);
    for (std::uint64_t id = 0; id < 1000; ++id) {
        const auto s = engine.shard_of(id);
        EXPECT_LT(s, 5u);
        EXPECT_EQ(s, engine.shard_of(id));  // stable
    }
}

// Invalid weights must be rejected in the *caller's* thread at push() —
// were they validated worker-side, the exception would unwind a shard
// worker and terminate the process.
TEST(StreamEngine, NegativeWeightRejectedAtPush) {
    engine_config cfg;
    cfg.num_shards = 2;
    stream_engine<std::uint64_t, double> engine(cfg);
    auto producer = engine.make_producer();
    producer.push(1, 2.5);
    EXPECT_THROW(producer.push(2, -1.0), std::invalid_argument);
    producer.flush();
    engine.flush();
    const auto snap = engine.snapshot();
    EXPECT_EQ(snap.total_weight(), 2.5);
}

// The tentpole acceptance test: P producer threads push a Zipf(1.1) stream
// through a 4-shard engine; the merged snapshot must match a sequential
// frequent_items_sketch over the same stream within the Theorem 4 error
// envelope, and totals must be exact.
TEST(StreamEngineConcurrent, SnapshotMatchesSequentialWithinTheorem4Bound) {
    constexpr std::uint32_t k = 512;
    constexpr std::uint64_t n = 400'000;
    constexpr unsigned producers = 4;
    const auto stream = zipf11_stream(n, 77);

    exact_counter<std::uint64_t, std::uint64_t> exact;
    exact.consume(stream);
    sketch_u64 sequential(sketch_config{.max_counters = k, .seed = 1});
    sequential.consume(stream);

    engine_config cfg;
    cfg.num_shards = 4;
    cfg.num_producers = producers;
    cfg.sketch = sketch_config{.max_counters = k, .seed = 1};
    stream_engine<> engine(cfg);
    {
        std::vector<stream_engine<>::producer> handles;
        handles.reserve(producers);
        for (unsigned p = 0; p < producers; ++p) {
            handles.push_back(engine.make_producer());
        }
        std::vector<std::thread> threads;
        for (unsigned p = 0; p < producers; ++p) {
            threads.emplace_back([&, p] {
                const std::size_t begin = stream.size() * p / producers;
                const std::size_t end = stream.size() * (p + 1) / producers;
                handles[p].push(std::span<const update64>(stream.data() + begin, end - begin));
                handles[p].flush();
            });
        }
        for (auto& t : threads) {
            t.join();
        }
    }
    engine.flush();
    const auto snap = engine.snapshot();

    // Totals are exact (no update lost or duplicated across rings/shards).
    EXPECT_EQ(snap.total_weight(), exact.total_weight());

    // Bounds bracket the truth for every key, exactly as for the
    // sequential sketch (Theorems 4 + 5).
    for (const auto& [id, f] : exact.counts()) {
        ASSERT_LE(snap.lower_bound(id), f) << id;
        ASSERT_GE(snap.upper_bound(id), f) << id;
    }

    // Theorem 4 envelope with j = 0 (N^res(0) = N), which survives merging
    // because per-shard stream weights sum to N: offset_merged <=
    // sum_s N_s / (0.33 k) = N / (0.33 k).
    const double bound =
        static_cast<double>(exact.total_weight()) / (0.33 * static_cast<double>(k));
    EXPECT_LE(static_cast<double>(snap.maximum_error()), bound);
    EXPECT_LE(static_cast<double>(sequential.maximum_error()), bound);

    // Engine and sequential estimates agree within their combined error.
    const auto tolerance = snap.maximum_error() + sequential.maximum_error();
    for (const auto& r : sequential.top_items(50)) {
        const auto engine_est = snap.estimate(r.id);
        const auto hi = r.estimate + tolerance;
        const auto lo = r.estimate > tolerance ? r.estimate - tolerance : 0;
        ASSERT_GE(engine_est, lo) << r.id;
        ASSERT_LE(engine_est, hi) << r.id;
    }

    const auto st = engine.stats();
    EXPECT_EQ(st.updates_enqueued, n);
    EXPECT_EQ(st.updates_applied, n);
    EXPECT_GE(st.batches_applied, 1u);
}

// Snapshots taken *while* producers are pushing must always be internally
// consistent summaries (monotone totals, bounds coherent with the final
// exact counts), and must never deadlock or tear.
TEST(StreamEngineConcurrent, LiveSnapshotsAreConsistent) {
    constexpr std::uint32_t k = 256;
    constexpr std::uint64_t n = 300'000;
    const auto stream = zipf11_stream(n, 31);
    exact_counter<std::uint64_t, std::uint64_t> exact;
    exact.consume(stream);

    engine_config cfg;
    cfg.num_shards = 3;
    cfg.num_producers = 1;
    cfg.sketch = sketch_config{.max_counters = k, .seed = 5};
    stream_engine<> engine(cfg);

    std::atomic<bool> done{false};
    std::vector<sketch_u64> snaps;
    std::thread reader([&] {
        while (!done.load(std::memory_order_acquire)) {
            snaps.push_back(engine.snapshot());
            std::this_thread::yield();
        }
    });

    auto producer = engine.make_producer();
    producer.push(std::span<const update64>(stream.data(), stream.size()));
    producer.flush();
    engine.flush();
    done.store(true, std::memory_order_release);
    reader.join();
    snaps.push_back(engine.snapshot());

    ASSERT_FALSE(snaps.empty());
    std::uint64_t prev_total = 0;
    for (const auto& snap : snaps) {
        // Totals only grow (per-shard totals are monotone and merging sums
        // them; the reader clones shards one by one, so a snapshot's total
        // is bounded by what had been applied when its last shard was
        // cloned — always <= the final total).
        EXPECT_LE(snap.total_weight(), exact.total_weight());
        EXPECT_LE(snap.maximum_error(),
                  static_cast<std::uint64_t>(static_cast<double>(exact.total_weight()) /
                                             (0.33 * static_cast<double>(k))));
        // A mid-stream snapshot is a valid summary of a *prefix union*: its
        // lower bounds can never exceed the final true frequency.
        snap.for_each([&](std::uint64_t id, std::uint64_t c) {
            EXPECT_LE(c, exact.frequency(id)) << id;
        });
        prev_total = std::max(prev_total, snap.total_weight());
    }
    // The final snapshot covers the full stream.
    EXPECT_EQ(snaps.back().total_weight(), exact.total_weight());
}

// Total-weight conservation under ingest: while P producer threads are
// mid-flight, a reader folds snapshots continuously. Sequential snapshots
// must observe monotonically non-decreasing totals (per-shard totals only
// grow and clones are taken shard-after-shard), no snapshot may exceed the
// weight actually fed, and once producers finish and the engine drains, the
// merged N must equal the items fed exactly — nothing lost in rings,
// staging buffers or shard hand-off, and nothing double-counted by the
// clone-then-merge fold.
TEST(StreamEngineConcurrent, TotalWeightConservedWhileProducersMidFlight) {
    constexpr unsigned producers = 3;
    constexpr std::uint64_t per_producer = 60'000;
    constexpr std::uint64_t weight = 3;
    constexpr std::uint64_t total_fed = producers * per_producer * weight;

    engine_config cfg;
    cfg.num_shards = 4;
    cfg.num_producers = producers;
    cfg.ring_capacity = 512;  // small rings: snapshots race live backpressure
    cfg.sketch = sketch_config{.max_counters = 256, .seed = 9};
    stream_engine<> engine(cfg);

    std::atomic<bool> done{false};
    std::vector<std::uint64_t> observed;
    std::thread reader([&] {
        while (!done.load(std::memory_order_acquire)) {
            observed.push_back(engine.snapshot().total_weight());
        }
    });

    {
        std::vector<stream_engine<>::producer> handles;
        handles.reserve(producers);
        for (unsigned p = 0; p < producers; ++p) {
            handles.push_back(engine.make_producer());
        }
        std::vector<std::thread> threads;
        for (unsigned p = 0; p < producers; ++p) {
            threads.emplace_back([&, p] {
                xoshiro256ss rng(100 + p);
                for (std::uint64_t i = 0; i < per_producer; ++i) {
                    handles[p].push(rng() % 50'000, weight);
                }
                handles[p].flush();
            });
        }
        for (auto& t : threads) {
            t.join();
        }
    }
    engine.flush();
    done.store(true, std::memory_order_release);
    reader.join();

    std::uint64_t prev = 0;
    for (const std::uint64_t n : observed) {
        EXPECT_GE(n, prev) << "snapshot totals must be monotone";
        EXPECT_LE(n, total_fed) << "snapshot saw weight that was never fed";
        prev = n;
    }
    // Conservation: merged N equals items fed, to the unit.
    EXPECT_EQ(engine.snapshot().total_weight(), total_fed);
    const auto st = engine.stats();
    EXPECT_EQ(st.updates_enqueued, producers * per_producer);
    EXPECT_EQ(st.updates_applied, producers * per_producer);
}

// For a fixed producer order the engine is deterministic: batching
// boundaries and worker timing must not leak into the result. (Batched
// update is semantically identical to element-wise update, rings are FIFO,
// and keys are partitioned per shard.)
TEST(StreamEngineConcurrent, DeterministicForFixedProducerOrder) {
    const auto stream = zipf11_stream(100'000, 13);
    auto run = [&] {
        engine_config cfg;
        cfg.num_shards = 4;
        cfg.sketch = sketch_config{.max_counters = 128, .seed = 3};
        cfg.ring_capacity = 256;  // small ring: exercise backpressure too
        stream_engine<> engine(cfg);
        auto producer = engine.make_producer();
        producer.push(std::span<const update64>(stream.data(), stream.size()));
        producer.flush();
        engine.flush();
        return engine.snapshot();
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.total_weight(), b.total_weight());
    EXPECT_EQ(a.maximum_error(), b.maximum_error());
    EXPECT_EQ(a.num_counters(), b.num_counters());
    a.for_each([&](std::uint64_t id, std::uint64_t c) {
        EXPECT_EQ(b.lower_bound(id), c) << id;
    });
}

// Weighted heavy hitters survive sharding: the dominant key lands in one
// shard and must dominate the merged snapshot.
TEST(StreamEngineConcurrent, HeavyHitterSurvivesSharding) {
    engine_config cfg;
    cfg.num_shards = 8;
    cfg.num_producers = 2;
    cfg.sketch = sketch_config{.max_counters = 64, .seed = 2};
    stream_engine<> engine(cfg);
    {
        auto p0 = engine.make_producer();
        auto p1 = engine.make_producer();
        std::thread t([&] {
            xoshiro256ss rng(5);
            for (int i = 0; i < 50'000; ++i) {
                p1.push(rng() | (1ULL << 50), 30);
            }
            p1.flush();
        });
        for (int i = 0; i < 25'000; ++i) {
            p0.push(42, 100);
        }
        p0.flush();
        t.join();
    }
    engine.flush();
    const auto snap = engine.snapshot();
    const auto rows =
        snap.frequent_items(error_type::no_false_negatives, snap.total_weight() / 10);
    ASSERT_FALSE(rows.empty());
    EXPECT_EQ(rows[0].id, 42u);
}

// Feeds \p stream to one sketch in irregular spans (empty and size-1 spans
// included) and to another item by item, ticking both at the same stream
// positions, then checks that they hold the same state: decrement count,
// envelope bytes, and the (id, counter) sequence in slot order.
template <typename Sketch, typename W>
void expect_spans_match_elementwise(const sketch_config& cfg,
                                    const std::vector<update<std::uint64_t, W>>& stream) {
    Sketch batched(cfg);
    Sketch elementwise(cfg);
    std::size_t i = 0;
    std::size_t burst = 1;
    for (std::size_t spans = 1; i < stream.size(); ++spans) {
        const std::size_t take = std::min(burst, stream.size() - i);
        batched.update(std::span<const update<std::uint64_t, W>>(stream.data() + i, take));
        for (std::size_t j = i; j < i + take; ++j) {
            elementwise.update(stream[j].id, stream[j].weight);
        }
        i += take;
        burst = (burst * 7 + 3) % 1000;
        if (spans % 16 == 0) {
            batched.tick();
            elementwise.tick();
        }
    }
    EXPECT_EQ(batched.total_weight(), elementwise.total_weight());
    EXPECT_EQ(batched.num_decrements(), elementwise.num_decrements());
    EXPECT_GT(batched.num_decrements(), 0u);  // decrement rounds inside spans
    EXPECT_EQ(envelope_save(batched).bytes(), envelope_save(elementwise).bytes());
    using entry = std::pair<std::uint64_t, W>;
    std::vector<entry> a;
    std::vector<entry> b;
    batched.for_each([&](std::uint64_t id, W c) { a.emplace_back(id, c); });
    elementwise.for_each([&](std::uint64_t id, W c) { b.emplace_back(id, c); });
    EXPECT_EQ(a, b);
    // Zero weights are skipped in spans exactly as element-wise.
    const update<std::uint64_t, W> zeros[] = {{1, W{0}}, {2, W{0}}};
    const auto before = envelope_save(batched).bytes();
    batched.update(std::span<const update<std::uint64_t, W>>(zeros, 2));
    EXPECT_EQ(envelope_save(batched).bytes(), before);
}

// The span update must be byte-for-byte equivalent to element-wise updates
// (same rng consumption, same table layout) under every lifetime policy —
// the engine and the sequential API must never diverge on the same ordered
// stream.
TEST(BatchedUpdate, EquivalentToElementwiseUpdates) {
    const auto stream = zipf11_stream(80'000, 99);
    {
        SCOPED_TRACE("plain u64");
        expect_spans_match_elementwise<sketch_u64>(
            sketch_config{.max_counters = 128, .seed = 11}, stream);
    }
    {
        SCOPED_TRACE("fading double");
        std::vector<update64d> weighted;
        for (const auto& u : stream) {
            weighted.push_back({u.id, static_cast<double>(u.weight) * 0.37});
        }
        expect_spans_match_elementwise<fading_frequent_items<std::uint64_t, double>>(
            sketch_config{.max_counters = 128, .seed = 12, .decay = 0.9}, weighted);
    }
    {
        SCOPED_TRACE("windowed u64");
        expect_spans_match_elementwise<windowed_frequent_items<>>(
            sketch_config{.max_counters = 128, .seed = 13, .window_epochs = 3}, stream);
    }
}

// A 1-shard engine drains every update through the span path in ring order,
// so it must reproduce the sequential sketch exactly.
TEST(StreamEngine, SingleWorkerEqualsSequentialSketch) {
    zipf_stream_generator gen({.num_updates = 30'000, .num_distinct = 2'000, .seed = 9});
    const auto stream = gen.generate();
    engine_config cfg;
    cfg.num_shards = 1;
    cfg.sketch = sketch_config{.max_counters = 128, .seed = 3};
    stream_engine<> engine(cfg);
    {
        auto producer = engine.make_producer();
        producer.push(std::span<const update64>(stream.data(), stream.size()));
        producer.flush();
    }
    engine.flush();
    const auto sharded = engine.snapshot();
    sketch_u64 sequential(cfg.sketch);
    sequential.consume(stream);
    EXPECT_EQ(sharded.total_weight(), sequential.total_weight());
    EXPECT_EQ(sharded.maximum_error(), sequential.maximum_error());
    EXPECT_EQ(sharded.num_counters(), sequential.num_counters());
    sequential.for_each([&](std::uint64_t id, std::uint64_t c) {
        EXPECT_EQ(sharded.lower_bound(id), c) << id;
    });
}

// A batch containing an invalid (negative) weight must be rejected before
// any element is applied — no half-ingested batch may leave counters
// unaccounted in total_weight().
TEST(BatchedUpdate, RejectsNegativeWeightsAtomically) {
    frequent_items_sketch<std::uint64_t, double> sketch(
        sketch_config{.max_counters = 16, .seed = 1});
    const update<std::uint64_t, double> bad[] = {{1, 5.0}, {2, -1.0}, {3, 7.0}};
    EXPECT_THROW(sketch.update(std::span<const update<std::uint64_t, double>>(bad, 3)),
                 std::invalid_argument);
    EXPECT_TRUE(sketch.empty());
    EXPECT_EQ(sketch.total_weight(), 0.0);
    EXPECT_EQ(sketch.lower_bound(1), 0.0);
}

// --- idle parking ------------------------------------------------------------

using namespace std::chrono_literals;

/// Runs \p f on its own thread and returns what it threw (null if nothing).
/// A call still running after \p limit aborts the binary: the hung thread
/// could not be joined, so the test could not end any other way.
std::exception_ptr run_with_deadline(std::chrono::seconds limit,
                                     const std::function<void()>& f) {
    std::promise<std::exception_ptr> done;
    auto result = done.get_future();
    std::thread t([&] {
        std::exception_ptr e;
        try {
            f();
        } catch (...) {
            e = std::current_exception();
        }
        done.set_value(e);
    });
    if (result.wait_for(limit) != std::future_status::ready) {
        std::fprintf(stderr, "call still running after %lld s\n",
                     static_cast<long long>(limit.count()));
        std::abort();
    }
    t.join();
    return result.get();
}

template <typename Pred>
bool eventually(std::chrono::steady_clock::duration limit, Pred pred) {
    const auto deadline = std::chrono::steady_clock::now() + limit;
    while (!pred()) {
        if (std::chrono::steady_clock::now() > deadline) {
            return false;
        }
        std::this_thread::yield();
    }
    return true;
}

// Lost-wakeup check: each cycle idles for a random 0-300 us (spanning the
// worker's yield phase and its park), then publishes with producer::flush()
// alone. No engine flush() wakes the workers, so a publish whose wakeup is
// lost leaves its run unapplied and the deadline fails.
TEST(StreamEngineParking, ProducerFlushAloneWakesParkedWorkers) {
    engine_config cfg;
    cfg.num_shards = 2;
    stream_engine<> engine(cfg);
    auto producer = engine.make_producer();
    std::mt19937_64 rng(2024);
    std::uniform_int_distribution<int> gap_us(0, 300);
    std::uint64_t pushed = 0;
    for (int cycle = 0; cycle < 1000; ++cycle) {
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::microseconds(gap_us(rng));
        while (std::chrono::steady_clock::now() < until) {
        }
        const int n = 1 + cycle % 3;
        for (int i = 0; i < n; ++i) {
            producer.push(rng(), 1);
        }
        pushed += static_cast<std::uint64_t>(n);
        producer.flush();
        ASSERT_TRUE(eventually(2s, [&] { return engine.stats().updates_applied == pushed; }))
            << "cycle " << cycle << ": applied " << engine.stats().updates_applied << " of "
            << pushed;
    }
    EXPECT_GT(engine.stats().worker_parks, 0u);
}

// park() re-checks the lanes and the stop flag after raising its parked
// flag: a run that landed before the flag (so its wake() saw no parked
// worker) must keep the worker from blocking, and so must a stop.
TEST(StreamEngineParking, ParkRechecksLanesAndStopFlagBeforeBlocking) {
    engine_shard<> shard(sketch_config{.max_counters = 64, .seed = 1}, 1, 64, 16);
    ASSERT_TRUE(shard.ring(0).try_push(update64{1, 1}));  // no wake()
    std::atomic<bool> stopping{false};
    bool blocked = true;
    EXPECT_EQ(run_with_deadline(10s, [&] { blocked = shard.park(stopping); }), nullptr);
    EXPECT_FALSE(blocked);
    EXPECT_EQ(shard.drain(), 1u);
    stopping.store(true);
    EXPECT_EQ(run_with_deadline(10s, [&] { blocked = shard.park(stopping); }), nullptr);
    EXPECT_FALSE(blocked);
    EXPECT_EQ(shard.parks(), 0u);
}

// Parked workers stay parked while nothing is published, and stop() wakes
// them to exit.
TEST(StreamEngineParking, StopReturnsWithParkedWorkers) {
    engine_config cfg;
    cfg.num_shards = 4;
    stream_engine<> engine(cfg);
    {
        auto producer = engine.make_producer();
        for (std::uint64_t i = 0; i < 1000; ++i) {
            producer.push(i, 1);
        }
    }
    engine.flush();
    // Every worker parks, and a parked worker is never woken while nothing
    // is published: the count settles (each wakeup would park again).
    std::uint64_t parks = engine.stats().worker_parks;
    ASSERT_TRUE(eventually(10s, [&] {
        std::this_thread::sleep_for(50ms);
        const std::uint64_t now = engine.stats().worker_parks;
        return std::exchange(parks, now) == now && now >= 4;
    })) << "parks: " << engine.stats().worker_parks;

    EXPECT_EQ(run_with_deadline(10s, [&] { engine.stop(); }), nullptr);
    EXPECT_EQ(engine.stats().updates_applied, 1000u);
}

/// A shard sketch whose constructor fails for one seed, once the other
/// three shards' workers have parked.
struct seed_bomb_sketch : basic_frequent_items<> {
    static constexpr std::uint64_t bad_seed = 1003;
    static inline std::uint64_t parks_before = 0;  ///< process-wide count at the start

    explicit seed_bomb_sketch(const sketch_config& cfg) : basic_frequent_items(checked(cfg)) {}

    static const sketch_config& checked(const sketch_config& cfg) {
        if (cfg.seed == bad_seed) {
#ifndef FREQ_OBS_OFF
            (void)eventually(10s, [] {
                return obs::pipeline().engine_worker_parks.value() >= parks_before + 3;
            });
#else
            std::this_thread::sleep_for(100ms);
#endif
            throw std::runtime_error("shard construction failed");
        }
        return cfg;
    }
};

TEST(StreamEngineParking, FailedShardConstructionRethrowsWithParkedWorkers) {
    engine_config cfg;
    cfg.num_shards = 4;  // shard s runs seed 1000 + s: shard 3 fails
    cfg.sketch = sketch_config{.max_counters = 64, .seed = 1000};
#ifndef FREQ_OBS_OFF
    seed_bomb_sketch::parks_before = obs::pipeline().engine_worker_parks.value();
#endif
    const std::exception_ptr e = run_with_deadline(10s, [&] {
        stream_engine<std::uint64_t, std::uint64_t, seed_bomb_sketch> engine(cfg);
    });
    ASSERT_NE(e, nullptr);
    EXPECT_THROW(std::rethrow_exception(e), std::runtime_error);
#ifndef FREQ_OBS_OFF
    EXPECT_GE(obs::pipeline().engine_worker_parks.value() - seed_bomb_sketch::parks_before,
              3u)
        << "the healthy shards never parked, so the unwinding was not exercised";
#endif
}

}  // namespace
}  // namespace freq
