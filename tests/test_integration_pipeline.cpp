/// End-to-end integration across modules: generate a packet trace, persist
/// it through the binary trace format, summarize it with worker threads,
/// ship the summary as bytes, merge with a second shard's summary, and
/// extract heavy hitters — validated against exact ground truth at every
/// stage. This is the full §3 deployment story in one test.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <unordered_set>

#include "core/frequent_items_sketch.h"
#include "engine/stream_engine.h"
#include "metrics/error.h"
#include "stream/exact_counter.h"
#include "stream/generators.h"
#include "stream/trace_io.h"

namespace freq {
namespace {

using sketch_u64 = frequent_items_sketch<std::uint64_t, std::uint64_t>;

class IntegrationPipeline : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = std::filesystem::temp_directory_path() /
               ("freq_integration_" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string path(const std::string& name) const { return (dir_ / name).string(); }
    std::filesystem::path dir_;
};

TEST_F(IntegrationPipeline, TraceToMergedHeavyHitters) {
    constexpr std::uint32_t k = 1024;
    exact_counter<std::uint64_t, std::uint64_t> exact;

    // Stage 1: two collection sites each generate + persist a packet trace.
    for (int site = 0; site < 2; ++site) {
        caida_like_generator gen({.num_updates = 400'000,
                                  .num_flows = 50'000,
                                  .alpha = 1.1,
                                  .seed = 100 + static_cast<std::uint64_t>(site)});
        const auto stream = gen.generate();
        write_trace(path("site" + std::to_string(site) + ".fqtr"), stream);
        for (const auto& u : stream) {
            exact.update(u.id, u.weight);
        }
    }

    // Stage 2: each site reads its trace back and summarizes it with 4
    // worker threads, then serializes the summary ("ships it").
    std::vector<std::vector<std::uint8_t>> images;
    for (int site = 0; site < 2; ++site) {
        const auto stream = read_trace(path("site" + std::to_string(site) + ".fqtr"));
        ASSERT_EQ(stream.size(), 400'000u);
        engine_config cfg;
        cfg.num_shards = 4;
        cfg.sketch = sketch_config{.max_counters = k,
                                   .seed = 7 + static_cast<std::uint64_t>(site)};
        stream_engine<> engine(cfg);
        {
            auto producer = engine.make_producer();
            producer.push(std::span<const update64>(stream.data(), stream.size()));
            producer.flush();
        }
        engine.flush();
        images.push_back(engine.snapshot().serialize());
    }

    // Stage 3: the aggregator restores and merges.
    auto global = sketch_u64::deserialize(images[0]);
    const auto other = sketch_u64::deserialize(images[1]);
    global.merge(other);

    // Validation: totals exact, bounds bracket the truth everywhere.
    ASSERT_EQ(global.total_weight(), exact.total_weight());
    for (const auto& [id, f] : exact.counts()) {
        ASSERT_LE(global.lower_bound(id), f) << id;
        ASSERT_GE(global.upper_bound(id), f) << id;
    }

    // Stage 4: heavy hitters at phi = 0.2% with the (phi, eps) contract.
    const double phi = 0.002;
    const auto threshold =
        static_cast<std::uint64_t>(phi * static_cast<double>(global.total_weight()));
    const auto generous = global.frequent_items(error_type::no_false_negatives, threshold);
    std::unordered_set<std::uint64_t> returned;
    for (const auto& r : generous) {
        returned.insert(r.id);
    }
    for (const auto id : exact.heavy_hitters(threshold)) {
        EXPECT_TRUE(returned.count(id)) << "missed heavy hitter " << id;
    }
    for (const auto& r : global.frequent_items(error_type::no_false_positives, threshold)) {
        EXPECT_GE(exact.frequency(r.id), threshold) << "false positive " << r.id;
    }

    // The sketch error must respect Theorem 4/5's envelope.
    const auto report = evaluate_errors(global, exact);
    const double bound = static_cast<double>(global.total_weight()) / (0.33 * k);
    EXPECT_LE(report.max_error, bound);

    // Top items agree with the truth's heavy tail on the first entry.
    const auto top = global.top_items(5);
    ASSERT_EQ(top.size(), 5u);
    const auto truly_top = exact.top_frequencies(1).front();
    EXPECT_GE(top[0].upper_bound, truly_top);
}

TEST_F(IntegrationPipeline, SketchFileRoundTripViaDisk) {
    // The freq_cli workflow: sketch bytes written to and read from disk.
    sketch_u64 s(sketch_config{.max_counters = 128, .seed = 3});
    zipf_stream_generator gen({.num_updates = 50'000, .num_distinct = 5'000, .seed = 4});
    s.consume(gen.generate());
    const auto bytes = s.serialize();

    const auto file = path("summary.sk");
    {
        std::FILE* f = std::fopen(file.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
        std::fclose(f);
    }
    std::vector<std::uint8_t> loaded(std::filesystem::file_size(file));
    {
        std::FILE* f = std::fopen(file.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fread(loaded.data(), 1, loaded.size(), f), loaded.size());
        std::fclose(f);
    }
    const auto restored = sketch_u64::deserialize(loaded);
    EXPECT_EQ(restored.total_weight(), s.total_weight());
    EXPECT_EQ(restored.num_counters(), s.num_counters());
}

}  // namespace
}  // namespace freq
