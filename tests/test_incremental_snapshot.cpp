/// Incremental snapshot folds: engine_shard::generation() must advance on
/// every mutation path (ring drain, lifetime tick), stream_engine::snapshot()
/// must re-clone and re-merge only the shards whose generation moved —
/// observable through engine_stats.snapshot_* — and the incremental fold
/// must return results identical to the fold-from-scratch path for every
/// lifetime policy.

#include "engine/stream_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/basic_frequent_items.h"
#include "core/frequent_items_sketch.h"
#include "core/lifetime_policy.h"
#include "random/xoshiro.h"
#include "stream/update.h"

namespace freq {
namespace {

using sketch_u64 = frequent_items_sketch<std::uint64_t, std::uint64_t>;
using fading_engine =
    stream_engine<std::uint64_t, double, fading_frequent_items<std::uint64_t, double>>;
using windowed_engine =
    stream_engine<std::uint64_t, std::uint64_t,
                  windowed_frequent_items<std::uint64_t, std::uint64_t>>;

TEST(ShardGeneration, AdvancesOnDrainAndTick) {
    sketch_config cfg;
    cfg.max_counters = 64;
    engine_shard<std::uint64_t, std::uint64_t, sketch_u64> shard(cfg, 1, 64, 32);
    EXPECT_EQ(shard.generation(), 0u);

    // Nothing pending: drain is a no-op and the generation must not move.
    EXPECT_EQ(shard.drain(), 0u);
    EXPECT_EQ(shard.generation(), 0u);

    const update<std::uint64_t, std::uint64_t> u{42, 3};
    ASSERT_TRUE(shard.ring(0).try_push(u));
    ASSERT_TRUE(shard.ring(0).try_push(u));
    EXPECT_EQ(shard.generation(), 0u);  // enqueued-but-unapplied is not dirty
    EXPECT_EQ(shard.drain(), 2u);
    const std::uint64_t after_drain = shard.generation();
    EXPECT_GT(after_drain, 0u);

    shard.tick();
    EXPECT_EQ(shard.generation(), after_drain + 1);
    shard.tick(5);
    EXPECT_EQ(shard.generation(), after_drain + 6);

    // Clone is a pure read — must not dirty the shard.
    (void)shard.clone_sketch();
    EXPECT_EQ(shard.generation(), after_drain + 6);
}

/// Finds a key routed to the given shard (the engine's routing hash is
/// public via shard_of, so tests can target one shard deterministically).
template <typename Engine>
std::uint64_t key_on_shard(const Engine& engine, std::uint32_t shard,
                           std::uint64_t start = 0) {
    std::uint64_t id = start;
    while (engine.shard_of(id) != shard) {
        ++id;
    }
    return id;
}

TEST(IncrementalSnapshot, RefoldsOnlyDirtyShards) {
    constexpr std::uint32_t S = 4;
    engine_config cfg;
    cfg.num_shards = S;
    cfg.num_producers = 1;
    cfg.sketch = sketch_config{.max_counters = 512, .seed = 7};
    ASSERT_TRUE(cfg.incremental_snapshots);  // the default
    stream_engine<> engine(cfg);

    std::unordered_map<std::uint64_t, std::uint64_t> oracle;
    {
        auto p = engine.make_producer();
        xoshiro256ss rng(99);
        for (int i = 0; i < 2'000; ++i) {
            const std::uint64_t id = rng.below(200);
            const std::uint64_t w = rng.between(1, 9);
            p.push(id, w);
            oracle[id] += w;
        }
        p.flush();
    }
    engine.flush();

    // Fold #1: cold cache — every shard cloned and merged.
    const auto snap1 = engine.snapshot();
    auto st = engine.stats();
    EXPECT_EQ(st.snapshot_folds, 1u);
    EXPECT_EQ(st.snapshot_shards_refolded, S);
    EXPECT_EQ(st.snapshot_fold_reuses, 0u);
    for (const auto& [id, w] : oracle) {  // k >= distinct keys => exact
        EXPECT_EQ(snap1.estimate(id), w) << "key " << id;
    }

    // Fold #2: nothing moved — served as a copy of fold #1, zero refolds.
    const auto snap2 = engine.snapshot();
    st = engine.stats();
    EXPECT_EQ(st.snapshot_folds, 2u);
    EXPECT_EQ(st.snapshot_shards_refolded, S);  // unchanged
    EXPECT_EQ(st.snapshot_fold_reuses, 1u);
    EXPECT_EQ(snap2.total_weight(), snap1.total_weight());
    for (const auto& [id, w] : oracle) {
        EXPECT_EQ(snap2.estimate(id), w);
    }

    // Dirty exactly one shard. Fold #3 re-merges that shard, and the clean
    // set (empty until now — fold #1 saw every shard dirty) gains three
    // members, so its one-time rebuild brings this fold's work to S merges.
    const std::uint32_t target = 2;
    const std::uint64_t hot = key_on_shard(engine, target, 1'000'000);
    {
        auto p = engine.make_producer();
        p.push(hot, 5);
        p.flush();
    }
    engine.flush();
    oracle[hot] += 5;

    const auto snap3 = engine.snapshot();
    st = engine.stats();
    EXPECT_EQ(st.snapshot_folds, 3u);
    EXPECT_EQ(st.snapshot_shards_refolded, 2 * S);
    EXPECT_EQ(st.snapshot_fold_reuses, 1u);
    for (const auto& [id, w] : oracle) {
        EXPECT_EQ(snap3.estimate(id), w);
    }

    // Dirty the SAME shard again: clean membership is unchanged, so fold #4
    // is the steady state — exactly one shard re-merged.
    {
        auto p = engine.make_producer();
        p.push(hot, 2);
        p.flush();
    }
    engine.flush();
    oracle[hot] += 2;

    const auto snap4 = engine.snapshot();
    st = engine.stats();
    EXPECT_EQ(st.snapshot_folds, 4u);
    EXPECT_EQ(st.snapshot_shards_refolded, 2 * S + 1);
    for (const auto& [id, w] : oracle) {
        EXPECT_EQ(snap4.estimate(id), w);
    }
    EXPECT_EQ(snap4.estimate(hot), 7u);
}

TEST(IncrementalSnapshot, DisabledFlagFoldsEveryShardEveryTime) {
    engine_config cfg;
    cfg.num_shards = 3;
    cfg.incremental_snapshots = false;
    stream_engine<> engine(cfg);
    (void)engine.snapshot();
    (void)engine.snapshot();
    const auto st = engine.stats();
    EXPECT_EQ(st.snapshot_folds, 2u);
    EXPECT_EQ(st.snapshot_shards_refolded, 6u);
    EXPECT_EQ(st.snapshot_fold_reuses, 0u);
}

/// advance_epoch() ticks every shard, so the fold after it must treat all
/// shards as dirty — this is what keeps windowed/fading clones aligned on
/// one logical clock even when only some shards saw traffic.
TEST(IncrementalSnapshot, EpochTickDirtiesEveryShard) {
    constexpr std::uint32_t S = 4;
    engine_config cfg;
    cfg.num_shards = S;
    cfg.sketch = sketch_config{.max_counters = 128, .seed = 3, .window_epochs = 3};
    windowed_engine engine(cfg);
    {
        auto p = engine.make_producer();
        p.push(1, 10);
        p.flush();
    }
    engine.flush();
    (void)engine.snapshot();
    const auto before = engine.stats().snapshot_shards_refolded;

    engine.advance_epoch();
    (void)engine.snapshot();
    const auto after = engine.stats().snapshot_shards_refolded;
    EXPECT_EQ(after - before, S);
}

/// The incremental fold must be *observationally identical* to folding every
/// shard from scratch: same estimates, same totals, across traffic and
/// lifetime ticks. Runs one engine per mode over the identical stream.
template <typename Engine, typename W>
void incremental_matches_scratch(const sketch_config& sk, bool tick_between) {
    engine_config inc_cfg;
    inc_cfg.num_shards = 4;
    inc_cfg.sketch = sk;
    engine_config scratch_cfg = inc_cfg;
    scratch_cfg.incremental_snapshots = false;

    Engine inc(inc_cfg);
    Engine scratch(scratch_cfg);

    xoshiro256ss rng(555);
    std::vector<std::uint64_t> keys;
    for (int round = 0; round < 6; ++round) {
        auto pi = inc.make_producer();
        auto ps = scratch.make_producer();
        for (int i = 0; i < 400; ++i) {
            const std::uint64_t id = rng.below(300);
            const W w = static_cast<W>(rng.between(1, 9));
            pi.push(id, w);
            ps.push(id, w);
            keys.push_back(id);
        }
        pi.flush();
        ps.flush();
        inc.flush();
        scratch.flush();
        if (tick_between) {
            inc.advance_epoch();
            scratch.advance_epoch();
        }
        const auto a = inc.snapshot();
        const auto b = scratch.snapshot();
        if constexpr (std::is_floating_point_v<W>) {
            EXPECT_DOUBLE_EQ(a.total_weight(), b.total_weight()) << "round " << round;
            for (const auto id : keys) {
                EXPECT_DOUBLE_EQ(a.estimate(id), b.estimate(id))
                    << "round " << round << " key " << id;
            }
        } else {
            EXPECT_EQ(a.total_weight(), b.total_weight()) << "round " << round;
            for (const auto id : keys) {
                EXPECT_EQ(a.estimate(id), b.estimate(id))
                    << "round " << round << " key " << id;
            }
        }
    }
}

TEST(IncrementalSnapshot, MatchesScratchFoldPlain) {
    incremental_matches_scratch<stream_engine<>, std::uint64_t>(
        sketch_config{.max_counters = 1024, .seed = 11}, false);
}

TEST(IncrementalSnapshot, MatchesScratchFoldFading) {
    incremental_matches_scratch<fading_engine, double>(
        sketch_config{.max_counters = 1024, .seed = 12, .decay = 0.5}, true);
}

TEST(IncrementalSnapshot, MatchesScratchFoldWindowed) {
    incremental_matches_scratch<windowed_engine, std::uint64_t>(
        sketch_config{.max_counters = 1024, .seed = 13, .window_epochs = 3}, true);
}

/// TSan coverage: snapshots folding incrementally while producers ingest and
/// the lifetime clock ticks. The final flushed snapshot must be exact.
TEST(IncrementalSnapshot, ConcurrentSnapshotsDuringIngest) {
    engine_config cfg;
    cfg.num_shards = 4;
    cfg.num_producers = 2;
    cfg.sketch = sketch_config{.max_counters = 2048, .seed = 17};
    stream_engine<> engine(cfg);

    constexpr std::uint64_t per_producer = 50'000;
    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> reads{0};
    std::vector<std::thread> producers;
    for (unsigned t = 0; t < 2; ++t) {
        producers.emplace_back([&engine, &reads, t] {
            auto p = engine.make_producer();
            xoshiro256ss rng(t + 1);
            for (std::uint64_t i = 0; i < per_producer; ++i) {
                // Hold the second half back until the reader has folded at
                // least once, so a snapshot always lands mid-ingest however
                // the threads are scheduled.
                while (i == per_producer / 2 && reads.load(std::memory_order_acquire) == 0) {
                    std::this_thread::yield();
                }
                p.push(rng.below(500), 1);
            }
            p.flush();
        });
    }
    std::thread reader([&engine, &done, &reads] {
        std::uint64_t last = 0;
        while (!done.load(std::memory_order_acquire)) {
            const auto snap = engine.snapshot();
            reads.fetch_add(1, std::memory_order_release);
            const auto total = snap.total_weight();
            EXPECT_GE(total, last);  // totals only grow while ingesting
            last = total;
            std::this_thread::yield();
        }
    });
    for (auto& t : producers) {
        t.join();
    }
    done.store(true, std::memory_order_release);
    reader.join();

    engine.flush();
    const auto snap = engine.snapshot();
    EXPECT_EQ(snap.total_weight(), 2 * per_producer);
    const auto st = engine.stats();
    EXPECT_GE(st.snapshot_folds, 2u);
}

}  // namespace
}  // namespace freq
