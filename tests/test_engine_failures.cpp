/// Engine failures surface as errors: a shard worker whose drain() throws
/// records the exception, flush() and snapshot() rethrow it instead of
/// waiting forever or terminating the process, and pushes that can no
/// longer reach a worker — after stop(), or to a failed shard — are dropped
/// and counted rather than blocking the producer.

#include "engine/stream_engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <stdexcept>

#include "core/basic_frequent_items.h"
#include "obs/pipeline_metrics.h"
#include "stream/update.h"

namespace freq {
namespace {

/// A shard sketch whose batch update throws when it meets the sentinel id.
struct poisoned_sketch : basic_frequent_items<> {
    static constexpr std::uint64_t sentinel = 0xdead'beef;

    using basic_frequent_items::basic_frequent_items;
    using basic_frequent_items::update;

    void update(std::span<const update64> batch) {
        for (const update64& u : batch) {
            if (u.id == sentinel) {
                throw std::runtime_error("poisoned update");
            }
        }
        basic_frequent_items::update(batch);
    }
};

using poisoned_engine = stream_engine<std::uint64_t, std::uint64_t, poisoned_sketch>;

std::uint64_t key_on_shard(const poisoned_engine& engine, std::uint32_t shard) {
    std::uint64_t id = 1;
    while (engine.shard_of(id) != shard) {
        ++id;
    }
    return id;
}

TEST(EngineFailures, ThrowingDrainSurfacesFromFlushAndSnapshot) {
    engine_config cfg;
    cfg.num_shards = 2;
    cfg.ring_capacity = 64;
    stream_engine<std::uint64_t, std::uint64_t, poisoned_sketch> engine(cfg);
    const std::uint32_t bad = engine.shard_of(poisoned_sketch::sentinel);
    auto p = engine.make_producer();
    p.push(1, 1);
    p.push(poisoned_sketch::sentinel, 1);
    p.flush();
    EXPECT_THROW(engine.flush(), std::runtime_error);
    EXPECT_THROW((void)engine.snapshot(), std::runtime_error);
    EXPECT_THROW(engine.flush(), std::runtime_error);  // stays failed

    // The failed shard never drains again: its pushes are dropped and
    // counted, even far past the ring's capacity, instead of blocking.
    const std::uint64_t before = engine.stats().updates_dropped;
    const std::uint64_t id = key_on_shard(engine, bad);
    for (int i = 0; i < 1'000; ++i) {
        p.push(id, 1);
    }
    p.flush();
    EXPECT_EQ(engine.stats().updates_dropped - before, 1'000u);
}

TEST(EngineFailures, PushesAfterStopAreCounted) {
    engine_config cfg;
    cfg.num_shards = 2;
    stream_engine<> engine(cfg);
    auto p = engine.make_producer();
    p.push(1, 1);
    p.flush();
    engine.flush();
#ifndef FREQ_OBS_OFF
    const std::uint64_t counted = obs::pipeline().engine_dropped.value();
#endif
    engine.stop();
    for (std::uint64_t i = 0; i < 500; ++i) {
        p.push(i, 1);
    }
    p.flush();
    EXPECT_EQ(engine.stats().updates_dropped, 500u);
    EXPECT_EQ(engine.stats().updates_applied, 1u);
#ifndef FREQ_OBS_OFF
    EXPECT_EQ(obs::pipeline().engine_dropped.value() - counted, 500u);
#endif
}

}  // namespace
}  // namespace freq
