/// Engine oracle: with one producer, the sharded engine is a pure function
/// of its input. Shard s must hold exactly the state of a standalone
/// summary with seed + s fed the sub-stream shard_of routes to it — same
/// counters, same offsets, same RNG draws and, for text keys, the same
/// spelling dictionary — whatever the ring sizes, staging and drain
/// batches, worker parking or thread timing. snapshot() must equal an
/// empty seed-cfg.seed summary merged with those standalone summaries in
/// shard order. Both are compared as envelope bytes, so any change to
/// state shows, not only one that breaks a bound.
///
/// Every (key kind × lifetime × feeder) combination runs with randomly
/// drawn S, ring_capacity, producer_batch and drain_batch. Aging lifetimes
/// tick only at flush boundaries (producer flush, engine flush, then the
/// tick), the discipline under which an epoch boundary is exact.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/builder.h"
#include "api/summarizer.h"
#include "api/summary_bytes.h"
#include "core/basic_frequent_items.h"
#include "core/frequent_items_sketch.h"
#include "core/string_frequent_items.h"
#include "engine/stream_engine.h"
#include "random/xoshiro.h"
#include "random/zipf.h"

namespace freq {
namespace {

/// One drawn engine configuration.
struct draw {
    std::uint32_t shards;
    std::size_t ring_capacity;
    std::size_t producer_batch;
    std::size_t drain_batch;
    std::uint64_t seed;
};

draw draw_config(xoshiro256ss& rng) {
    static constexpr std::size_t rings[] = {64, 4096};
    static constexpr std::size_t stages[] = {1, 7, 128};
    static constexpr std::size_t drains[] = {1, 5, 64, 512};
    return draw{.shards = 1 + static_cast<std::uint32_t>(rng.below(4)),
                .ring_capacity = rings[rng.below(2)],
                .producer_batch = stages[rng.below(3)],
                .drain_batch = drains[rng.below(4)],
                .seed = 1'000 + rng.below(1'000'000)};
}

constexpr std::size_t stream_length = 12'000;
constexpr std::size_t tick_every = 3'000;

sketch_config sketch_cfg(const draw& d) {
    return sketch_config{.max_counters = 48, .seed = d.seed, .decay = 0.75,
                         .window_epochs = 3};
}

engine_config engine_cfg(const draw& d) {
    engine_config cfg;
    cfg.num_shards = d.shards;
    cfg.num_producers = 1;
    cfg.ring_capacity = d.ring_capacity;
    cfg.producer_batch = d.producer_batch;
    cfg.drain_batch = d.drain_batch;
    cfg.sketch = sketch_cfg(d);
    return cfg;
}

/// A Zipf stream over 2,000 keys, weights 1–100; text keys spell the id.
struct keyed_update {
    std::uint64_t id;
    std::string word;
    std::uint64_t weight;
};

std::vector<keyed_update> make_stream(std::uint64_t seed) {
    xoshiro256ss rng(seed);
    zipf_distribution zipf(2'000, 1.1);
    std::vector<keyed_update> out;
    out.reserve(stream_length);
    for (std::size_t i = 0; i < stream_length; ++i) {
        const std::uint64_t id = zipf(rng);
        std::string word = "k";  // +=: gcc 12 -Wrestrict FP (PR105329)
        word += std::to_string(id);
        out.push_back({id, std::move(word), 1 + rng.below(100)});
    }
    return out;
}

std::string describe(const draw& d) {
    return "S=" + std::to_string(d.shards) + " ring=" + std::to_string(d.ring_capacity) +
           " producer_batch=" + std::to_string(d.producer_batch) +
           " drain_batch=" + std::to_string(d.drain_batch) + " seed=" + std::to_string(d.seed);
}

// --- raw producer ------------------------------------------------------------

/// Feeds the stream through a raw engine producer and holds each shard,
/// and the snapshot, to their standalone references.
template <typename Sketch, bool Text, bool Ticks>
void check_raw(const draw& d) {
    using W = typename Sketch::weight_type;
    const engine_config cfg = engine_cfg(d);
    stream_engine<std::uint64_t, W, Sketch> engine(cfg);
    std::vector<Sketch> refs;
    for (std::uint32_t s = 0; s < d.shards; ++s) {
        sketch_config local = cfg.sketch;
        local.seed += s;
        refs.emplace_back(local);
    }
    {
        auto producer = engine.make_producer();
        std::size_t n = 0;
        for (const keyed_update& u : make_stream(d.seed)) {
            const W w = static_cast<W>(u.weight);
            if constexpr (Text) {
                producer.push(std::string_view(u.word), w);
                refs[engine.shard_of(Sketch::fingerprint(u.word))].update(u.word, w);
            } else {
                producer.push(u.id, w);
                refs[engine.shard_of(u.id)].update(u.id, w);
            }
            if (Ticks && ++n % tick_every == 0) {
                producer.flush();
                engine.flush();
                engine.advance_epoch();
                for (Sketch& r : refs) {
                    r.tick();
                }
            }
        }
    }
    engine.flush();

    const auto view = engine.view();
    ASSERT_EQ(view.parts().size(), refs.size());
    for (std::uint32_t s = 0; s < d.shards; ++s) {
        EXPECT_TRUE(envelope_save(view.parts()[s]) == envelope_save(refs[s]))
            << "shard " << s << " differs from its standalone sub-stream summary";
    }
    Sketch fold(cfg.sketch);
    for (const Sketch& r : refs) {
        fold.merge(r);
    }
    EXPECT_TRUE(envelope_save(engine.snapshot()) == envelope_save(fold))
        << "snapshot differs from the fold of the standalone summaries";
}

// --- façade feeder -----------------------------------------------------------

builder facade_builder(const draw& d, bool text, lifetime_kind lifetime, std::uint64_t seed) {
    builder b;
    if (text) {
        b.text_keys();
    }
    b.config(sketch_cfg(d)).seed(seed);
    switch (lifetime) {
        case lifetime_kind::fading: b.fading(sketch_cfg(d).decay); break;
        case lifetime_kind::windowed: b.sliding_window(sketch_cfg(d).window_epochs); break;
        default: b.plain(); break;
    }
    return b;
}

/// Feeds the stream through a façade feeder of a sharded summarizer; its
/// saved envelope must equal the fold of standalone summarizers, one per
/// shard, each fed the keys a raw engine of the same config routes there.
void check_facade(const draw& d, bool text, lifetime_kind lifetime) {
    const engine_config cfg = engine_cfg(d);
    summarizer sharded = facade_builder(d, text, lifetime, d.seed).engine(cfg).build();
    // Routing depends only on the shard count and the seed.
    const stream_engine<> router(cfg);
    std::vector<summarizer> refs;
    for (std::uint32_t s = 0; s < d.shards; ++s) {
        refs.push_back(facade_builder(d, text, lifetime, d.seed + s).build());
    }
    const bool ticks = lifetime != lifetime_kind::plain;
    {
        auto feeder = sharded.make_feeder();
        std::size_t n = 0;
        for (const keyed_update& u : make_stream(d.seed)) {
            const double w = static_cast<double>(u.weight);
            if (text) {
                feeder.push(std::string_view(u.word), w);
                refs[router.shard_of(string_frequent_items<>::fingerprint(u.word))].update(
                    std::string_view(u.word), w);
            } else {
                feeder.push(u.id, w);
                refs[router.shard_of(u.id)].update(u.id, w);
            }
            if (ticks && ++n % tick_every == 0) {
                feeder.flush();
                sharded.tick();  // flushes the engine, then ticks every shard
                for (summarizer& r : refs) {
                    r.tick();
                }
            }
        }
    }
    summarizer fold = facade_builder(d, text, lifetime, d.seed).build();
    for (const summarizer& r : refs) {
        fold.merge(r);
    }
    EXPECT_TRUE(sharded.save() == fold.save())
        << "sharded save() differs from the fold of the standalone summaries";
}

// --- the grid ------------------------------------------------------------------

constexpr int draws_per_combination = 6;

template <typename Sketch, bool Text, bool Ticks>
void run_raw(std::uint64_t salt) {
    xoshiro256ss rng(salt);
    for (int i = 0; i < draws_per_combination; ++i) {
        const draw d = draw_config(rng);
        SCOPED_TRACE(describe(d));
        check_raw<Sketch, Text, Ticks>(d);
    }
}

void run_facade(bool text, lifetime_kind lifetime, std::uint64_t salt) {
    xoshiro256ss rng(salt);
    for (int i = 0; i < draws_per_combination; ++i) {
        const draw d = draw_config(rng);
        SCOPED_TRACE(describe(d));
        check_facade(d, text, lifetime);
    }
}

TEST(EngineOracle, RawU64Plain) {
    run_raw<frequent_items_sketch<std::uint64_t, std::uint64_t>, false, false>(1);
}
TEST(EngineOracle, RawU64Windowed) {
    run_raw<windowed_frequent_items<std::uint64_t, std::uint64_t>, false, true>(2);
}
TEST(EngineOracle, RawU64Fading) {
    run_raw<fading_frequent_items<std::uint64_t, double>, false, true>(3);
}
TEST(EngineOracle, RawTextPlain) {
    run_raw<string_frequent_items<std::uint64_t, plain_lifetime>, true, false>(4);
}
TEST(EngineOracle, RawTextWindowed) {
    run_raw<string_frequent_items<std::uint64_t, epoch_window>, true, true>(5);
}
TEST(EngineOracle, RawTextFading) {
    run_raw<string_frequent_items<double, exponential_fading>, true, true>(6);
}

TEST(EngineOracle, FacadeU64Plain) { run_facade(false, lifetime_kind::plain, 7); }
TEST(EngineOracle, FacadeU64Windowed) { run_facade(false, lifetime_kind::windowed, 8); }
TEST(EngineOracle, FacadeU64Fading) { run_facade(false, lifetime_kind::fading, 9); }
TEST(EngineOracle, FacadeTextPlain) { run_facade(true, lifetime_kind::plain, 10); }
TEST(EngineOracle, FacadeTextWindowed) { run_facade(true, lifetime_kind::windowed, 11); }
TEST(EngineOracle, FacadeTextFading) { run_facade(true, lifetime_kind::fading, 12); }

}  // namespace
}  // namespace freq
