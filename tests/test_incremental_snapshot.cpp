/// Incremental publishes: engine_shard::generation() must advance on every
/// mutation path (ring drain, lifetime tick), a publish must re-copy only
/// the shards whose generation moved since its buffer's copy — observable
/// through engine_stats::snapshot_shards_refolded — and snapshots taken
/// during ingest must stay consistent.

#include "engine/stream_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/frequent_items_sketch.h"
#include "random/xoshiro.h"
#include "stream/update.h"

namespace freq {
namespace {

using sketch_u64 = frequent_items_sketch<std::uint64_t, std::uint64_t>;

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

/// The service keeps two buffers, so a shard changed once is copied by the
/// next two publishes (one per buffer) and by none after that.
TEST(IncrementalSnapshot, PublishRecopiesOnlyDirtyShards) {
    constexpr std::uint32_t S = 4;
    engine_config cfg;
    cfg.num_shards = S;
    cfg.num_producers = 1;
    cfg.sketch = sketch_config{.max_counters = 512, .seed = 7};
    stream_engine<> engine(cfg);
    engine.enable_snapshot_service(std::chrono::hours(1));  // manual publishes only
    const auto copies = [&] { return engine.stats().snapshot_shards_refolded; };
    EXPECT_EQ(copies(), S);  // epoch 1: every shard copied once

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
    engine.flush();  // republishes into the spare buffer: every shard moved
    EXPECT_EQ(copies(), 2 * S);
    engine.publish_snapshot_now();  // the epoch-1 buffer is behind on every shard
    EXPECT_EQ(copies(), 3 * S);
    engine.publish_snapshot_now();  // both buffers current: nothing to copy
    EXPECT_EQ(copies(), 3 * S);
    for (const auto& [id, w] : oracle) {  // k >= distinct keys => exact
        EXPECT_EQ(engine.acquire_snapshot()->estimate(id), w) << "key " << id;
    }

    // Dirty exactly one shard: each buffer re-copies it once.
    const std::uint64_t hot = key_on_shard(engine, 2, 1'000'000);
    {
        auto p = engine.make_producer();
        p.push(hot, 5);
        p.flush();
    }
    engine.flush();
    EXPECT_EQ(copies(), 3 * S + 1);
    engine.publish_snapshot_now();
    EXPECT_EQ(copies(), 3 * S + 2);
    engine.publish_snapshot_now();
    EXPECT_EQ(copies(), 3 * S + 2);
    EXPECT_EQ(engine.acquire_snapshot()->estimate(hot), 5u);

    // A tick moves every shard's clock, so the next publish copies them all.
    engine.advance_epoch();
    EXPECT_EQ(copies(), 4 * S + 2);
}

/// TSan coverage: snapshots folding while producers ingest. The final
/// flushed snapshot must be exact.
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
