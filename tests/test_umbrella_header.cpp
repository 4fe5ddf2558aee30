/// Compile-and-use check for the umbrella header: a downstream user who
/// writes `#include "freq.h"` must get every public type in working order.
/// Each block below exercises one subsystem end to end, briefly.

#include "freq.h"

#include <gtest/gtest.h>

namespace freq {
namespace {

TEST(UmbrellaHeader, CoreSketch) {
    frequent_items_sketch<std::uint64_t, std::uint64_t> s(64);
    s.update(1, 10);
    EXPECT_EQ(s.estimate(1), 10u);
}

TEST(UmbrellaHeader, MedExact) {
    med_exact_sketch<std::uint64_t, std::uint64_t> s(16);
    s.update(2, 5);
    EXPECT_EQ(s.lower_bound(2), 5u);
}

TEST(UmbrellaHeader, GenericAndStringAndSigned) {
    generic_frequent_items<std::string> g(8);
    g.update("x", 3);
    EXPECT_EQ(g.estimate("x"), 3u);

    string_frequent_items<double> str(8);
    str.update("y", 1.5);
    EXPECT_DOUBLE_EQ(str.estimate("y"), 1.5);

    signed_frequent_items<std::uint64_t, std::int64_t> sg(8);
    sg.update(3, 7);
    sg.update(3, -2);
    EXPECT_EQ(sg.estimate(3), 5);
}

TEST(UmbrellaHeader, StreamEngine) {
    engine_config cfg;
    cfg.num_shards = 2;
    cfg.sketch = sketch_config{.max_counters = 8};
    stream_engine<> engine(cfg);
    {
        auto producer = engine.make_producer();
        producer.push(1, 2);
        producer.push(2, 3);
        producer.push(1, 4);
        producer.flush();
    }
    engine.flush();
    EXPECT_EQ(engine.snapshot().total_weight(), 9u);
}

TEST(UmbrellaHeader, Applications) {
    hhh::hierarchical_heavy_hitters h({.levels = {24}, .counters_per_level = 8});
    h.update(0x0a000001, 100);
    EXPECT_EQ(h.total_weight(), 100u);

    entropy_estimator e(16);
    e.update(1, 4);
    EXPECT_GE(e.estimate().upper, 0.0);
}

TEST(UmbrellaHeader, StreamsAndMetrics) {
    zipf_stream_generator gen({.num_updates = 100, .num_distinct = 10, .seed = 1});
    exact_counter<std::uint64_t, std::uint64_t> exact;
    frequent_items_sketch<std::uint64_t, std::uint64_t> s(32);
    for (const auto& u : gen.generate()) {
        exact.update(u.id, u.weight);
        s.update(u.id, u.weight);
    }
    const auto report = evaluate_errors(s, exact);
    EXPECT_EQ(report.max_error, 0.0);  // 10 distinct items, 32 counters: exact
    EXPECT_GT(max_counters_within(1 << 20, decltype(s)::bytes_for), 0u);
}

}  // namespace
}  // namespace freq
