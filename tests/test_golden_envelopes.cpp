/// Golden envelope corpus: each case rebuilds one summary from a fixed,
/// seeded, duplicate-heavy CAIDA-like stream and byte-compares its saved
/// envelope with the checked-in image under tests/golden/. At k = 256 the
/// stream drives hundreds of decrement rounds, so the images pin the whole
/// decrement path — sampling, c* selection and the table sweep's slot
/// layout — not just the wire format. A change that is meant to leave
/// results alone must leave every image byte-identical.
///
/// On a mismatch (or a missing image) the test writes the bytes it built to
/// `<case>.sk.actual` in its working directory; an intended format or
/// algorithm change regenerates the corpus by copying those files over
/// tests/golden/<case>.sk.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "api/builder.h"
#include "api/summarizer.h"
#include "core/string_frequent_items.h"
#include "engine/stream_engine.h"
#include "stream/generators.h"

#ifndef FREQ_GOLDEN_DIR
#error "FREQ_GOLDEN_DIR must name the tests/golden directory"
#endif

namespace freq {
namespace {

constexpr std::uint32_t golden_k = 256;
constexpr std::uint64_t golden_updates = 100'000;
constexpr std::uint64_t tick_every = 25'000;

update_stream<std::uint64_t, std::uint64_t> golden_stream() {
    caida_like_generator gen({.num_updates = golden_updates,
                              .num_flows = 50'000,
                              .alpha = 1.1,
                              .seed = 2017});
    return gen.generate();
}

std::vector<std::uint8_t> read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Saves \p s and compares the envelope with tests/golden/<name>.sk.
void expect_golden_bytes(const std::string& name, summarizer& s) {
    // The stream must have forced decrement rounds, or the image would not
    // pin the decrement path.
    ASSERT_GT(s.maximum_error(), 0.0) << name;

    const std::vector<std::uint8_t> built = s.save().bytes();
    const std::vector<std::uint8_t> golden = read_file(FREQ_GOLDEN_DIR "/" + name + ".sk");
    if (built != golden) {
        std::ofstream(name + ".sk.actual", std::ios::binary)
            .write(reinterpret_cast<const char*>(built.data()),
                   static_cast<std::streamsize>(built.size()));
        FAIL() << name << ": envelope differs from tests/golden/" << name << ".sk ("
               << built.size() << " vs " << golden.size() << " bytes); wrote " << name
               << ".sk.actual";
    }
}

/// Feeds the golden stream (ticking aging policies every tick_every
/// updates), then compares its envelope with tests/golden/<name>.sk.
void expect_golden(const std::string& name, summarizer s) {
    const bool text = s.descriptor().keys == key_kind::text;
    const bool ticks = s.descriptor().lifetime != lifetime_kind::plain;
    std::uint64_t n = 0;
    for (const auto& u : golden_stream()) {
        if (text) {
            s.update("ip" + std::to_string(u.id), static_cast<double>(u.weight));
        } else {
            s.update(u.id, static_cast<double>(u.weight));
        }
        if (ticks && ++n % tick_every == 0) {
            s.tick();
        }
    }
    s.flush();
    expect_golden_bytes(name, s);
}

TEST(GoldenEnvelopes, Plain) {
    expect_golden("plain", builder().max_counters(golden_k).seed(11).build());
}

TEST(GoldenEnvelopes, Fading) {
    expect_golden("fading", builder().max_counters(golden_k).seed(12).fading(0.8).build());
}

TEST(GoldenEnvelopes, Windowed) {
    expect_golden("windowed",
                  builder().max_counters(golden_k).seed(13).sliding_window(3).build());
}

TEST(GoldenEnvelopes, TextKeys) {
    expect_golden("text", builder().text_keys().max_counters(golden_k).seed(14).build());
}

TEST(GoldenEnvelopes, MapStorage) {
    expect_golden("map",
                  builder().storage(freq::storage::map).max_counters(golden_k).seed(15).build());
}

TEST(GoldenEnvelopes, ShardedTwo) {
    expect_golden("sharded2", builder().max_counters(golden_k).seed(16).sharded(2).build());
}

/// Text keys through a two-shard engine. Each shard equals a standalone
/// summary (seed + s) of the keys routed to it, so the image must also be
/// the fold of those two partition summaries into an empty seed-17 one —
/// which anchors it to the engine oracle (tests/test_engine_oracle.cpp),
/// not only to its own bytes.
TEST(GoldenEnvelopes, ShardedText2) {
    constexpr std::uint64_t seed = 17;
    const auto text_summary = [](std::uint64_t s) {
        return builder().text_keys().max_counters(golden_k).seed(s);
    };
    expect_golden("sharded_text2", text_summary(seed).sharded(2).build());

    engine_config cfg;
    cfg.num_shards = 2;
    cfg.sketch.seed = seed;
    const stream_engine<> router(cfg);  // routing depends only on S and the seed
    std::vector<summarizer> parts;
    parts.push_back(text_summary(seed).build());
    parts.push_back(text_summary(seed + 1).build());
    for (const auto& u : golden_stream()) {
        const std::string word = "ip" + std::to_string(u.id);
        parts[router.shard_of(string_frequent_items<>::fingerprint(word))].update(
            word, static_cast<double>(u.weight));
    }
    summarizer fold = text_summary(seed).build();
    for (const summarizer& part : parts) {
        fold.merge(part);
    }
    expect_golden_bytes("sharded_text2", fold);
}

/// Algorithm 5 over restored envelopes: the golden stream is cut into
/// fleet_parts consecutive slices, each summarized (seeds 21–28), saved,
/// restored and merged into a fresh aggregate (seed 20). The image pins the
/// restored tables' slot layout, each merge's random start slot and the
/// decrement rounds the merges trigger.
TEST(GoldenEnvelopes, MergedFleet) {
    constexpr std::size_t fleet_parts = 8;
    const auto stream = golden_stream();
    summarizer agg = builder().max_counters(golden_k).seed(20).build();
    const std::size_t slice = stream.size() / fleet_parts;
    for (std::size_t p = 0; p < fleet_parts; ++p) {
        summarizer part = builder().max_counters(golden_k).seed(21 + p).build();
        const std::size_t end = p + 1 == fleet_parts ? stream.size() : (p + 1) * slice;
        for (std::size_t i = p * slice; i < end; ++i) {
            part.update(stream[i].id, static_cast<double>(stream[i].weight));
        }
        part.flush();
        agg.merge(restore_summary(part.save()));
    }
    expect_golden_bytes("merged", agg);
}

}  // namespace
}  // namespace freq
