/// The sharded text/generic key path: any key kind must ingest through
/// stream_engine at full ring speed — fingerprints on the hot path, a
/// per-shard spelling-dictionary slice on the side lane — and still honor
/// the paper's NFP/NFN guarantees against exact ground truth, report full
/// spellings, and round-trip bit-exactly through the unified envelope.
/// Covers the template layer (stream_engine over string_frequent_items and
/// over a custom generic key type) and the façade
/// (builder().text_keys().sharded(...)) across all three lifetime policies.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "api/builder.h"
#include "api/summarizer.h"
#include "api/summary_bytes.h"
#include "core/fingerprint_frequent_items.h"
#include "core/string_frequent_items.h"
#include "engine/stream_engine.h"
#include "obs/pipeline_metrics.h"
#include "random/xoshiro.h"
#include "random/zipf.h"

namespace freq {
namespace {

/// Skewed word stream: heavy words recur thousands of times, so their
/// spellings are re-sent well past any dictionary sweep (see
/// engine/spelling_channel.h on the re-send discipline).
std::vector<std::pair<std::string, std::uint64_t>> word_stream(std::uint64_t n,
                                                               std::uint32_t distinct,
                                                               std::uint64_t seed) {
    std::vector<std::pair<std::string, std::uint64_t>> out;
    out.reserve(n);
    xoshiro256ss rng(seed);
    zipf_distribution zipf(distinct, 1.25);
    for (std::uint64_t i = 0; i < n; ++i) {
        out.emplace_back("word" + std::to_string(zipf(rng)), 1 + rng.below(9));
    }
    return out;
}

// --- template layer: stream_engine over the string sketch --------------------

TEST(EngineText, ShardedCountsMatchStandaloneGuarantees) {
    const auto stream = word_stream(120'000, 5'000, 42);

    engine_config cfg;
    cfg.num_shards = 3;
    cfg.num_producers = 1;
    cfg.sketch = sketch_config{.max_counters = 512, .seed = 7};
    stream_engine<std::uint64_t, std::uint64_t, string_frequent_items<std::uint64_t>>
        engine(cfg);
    {
        auto producer = engine.make_producer();
        for (const auto& [word, w] : stream) {
            producer.push(std::string_view(word), w);
        }
        producer.flush();
    }
    engine.flush();

    std::unordered_map<std::string, std::uint64_t> truth;
    for (const auto& [word, w] : stream) {
        truth[word] += w;
    }

    const auto snap = engine.snapshot();
    std::uint64_t total = 0;
    for (const auto& [word, f] : truth) {
        EXPECT_LE(snap.lower_bound(word), f) << word;
        EXPECT_GE(snap.upper_bound(word), f) << word;
        total += f;
    }
    EXPECT_EQ(snap.total_weight(), total);

    // The flush barrier covers the spelling lane: every accepted spelling
    // reached a shard dictionary.
    const auto st = engine.stats();
    EXPECT_EQ(st.updates_applied, stream.size());
    EXPECT_EQ(st.spellings_applied, st.spellings_enqueued);
    EXPECT_GT(st.spellings_applied, 0u);
}

#ifndef FREQ_OBS_OFF
TEST(EngineText, SpellingTelemetryAccountsForEveryKeyedPush) {
    // Every keyed push ends in exactly one of three spelling outcomes —
    // enqueued, rejected by a full channel, or suppressed by the dedupe
    // filter — and after flush() the telemetry has counted each once. The
    // dedupe hits are tallied in the producer and added per publish.
    const auto stream = word_stream(50'000, 3'000, 17);

    engine_config cfg;
    cfg.num_shards = 2;
    cfg.num_producers = 1;
    cfg.spelling_channel_capacity = 64;  // small enough to reject some
    cfg.sketch = sketch_config{.max_counters = 256, .seed = 5};
    stream_engine<std::uint64_t, std::uint64_t, string_frequent_items<std::uint64_t>>
        engine(cfg);
    auto& m = obs::pipeline();
    const std::uint64_t hits0 = m.spelling_dedupe_hits.value();
    const std::uint64_t enqueued0 = m.spelling_enqueued.value();
    const std::uint64_t rejects0 = m.spelling_rejects.value();
    {
        auto producer = engine.make_producer();
        for (const auto& [word, w] : stream) {
            producer.push(std::string_view(word), w);
        }
        producer.flush();
        const std::uint64_t hits = m.spelling_dedupe_hits.value() - hits0;
        const std::uint64_t enqueued = m.spelling_enqueued.value() - enqueued0;
        const std::uint64_t rejects = m.spelling_rejects.value() - rejects0;
        EXPECT_GT(hits, 0u);
        EXPECT_EQ(hits + enqueued + rejects, stream.size());
    }
    engine.flush();
}
#endif

TEST(EngineText, SnapshotUnionsShardDictionarySlices) {
    const auto stream = word_stream(80'000, 2'000, 9);
    engine_config cfg;
    cfg.num_shards = 4;
    cfg.sketch = sketch_config{.max_counters = 256, .seed = 3};
    stream_engine<std::uint64_t, std::uint64_t, string_frequent_items<std::uint64_t>>
        engine(cfg);
    {
        auto producer = engine.make_producer();
        for (const auto& [word, w] : stream) {
            producer.push(std::string_view(word), w);
        }
    }
    engine.flush();

    std::unordered_map<std::string, std::uint64_t> truth;
    for (const auto& [word, w] : stream) {
        truth[word] += w;
    }
    const auto snap = engine.snapshot();
    const std::uint64_t threshold = snap.total_weight() / 100;

    // NFP rows are true heavy hitters *with spellings*: the merged snapshot
    // must have unioned the per-shard dictionary slices (words hash across
    // all 4 shards).
    const auto rows = snap.frequent_items(error_type::no_false_positives, threshold);
    ASSERT_GT(rows.size(), 5u);
    for (const auto& r : rows) {
        ASSERT_NE(r.item, "<unknown>") << "fingerprint " << r.fingerprint;
        ASSERT_TRUE(truth.contains(r.item)) << r.item;
        EXPECT_GT(truth.at(r.item), threshold) << r.item;
    }
    // NFN: every true heavy hitter is reported.
    std::unordered_set<std::string> reported;
    for (const auto& r : snap.frequent_items(error_type::no_false_negatives, threshold)) {
        reported.insert(r.item);
    }
    for (const auto& [word, f] : truth) {
        if (f > threshold) {
            EXPECT_TRUE(reported.contains(word)) << "false negative: " << word;
        }
    }
}

TEST(EngineText, ConcurrentTextProducersSumWeights) {
    engine_config cfg;
    cfg.num_shards = 2;
    cfg.num_producers = 3;
    cfg.sketch = sketch_config{.max_counters = 128, .seed = 1};
    stream_engine<std::uint64_t, double, string_frequent_items<double>> engine(cfg);

    constexpr int per_thread = 20'000;
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t) {
        threads.emplace_back([&engine, t] {
            auto producer = engine.make_producer();
            xoshiro256ss rng(100 + static_cast<std::uint64_t>(t));
            for (int i = 0; i < per_thread; ++i) {
                std::string word = "w";  // +=: gcc 12 -Wrestrict FP (PR105329)
                word += std::to_string(rng.below(500));
                producer.push(std::string_view(word), 1.0);
            }
        });
    }
    for (auto& t : threads) {
        t.join();
    }
    engine.flush();
    const auto snap = engine.snapshot();
    EXPECT_DOUBLE_EQ(snap.total_weight(), 3.0 * per_thread);
    // Heavy words (500 distinct, 60k updates) must surface spelled out.
    const auto top = snap.top_items(10);
    ASSERT_EQ(top.size(), 10u);
    for (const auto& r : top) {
        EXPECT_NE(r.item, "<unknown>");
    }
}

TEST(EngineText, SweptSpellingHealsViaRollingFilterRefresh) {
    // Adversarial identification sequence: producer 1 sends a key's
    // spelling while the key cannot hold a counter, producer 2's
    // dictionary churn overflows the shard's budget and sweeps it, and the
    // key then becomes a heavy hitter pushed ONLY by producer 1 with no
    // other keys in flight — so nothing ever collides the key out of
    // producer 1's recently-sent filter. The rolling refresh (one slot
    // cleared per 16 keyed pushes) must force the re-send within one full
    // filter sweep regardless; without it the heavy hitter would report
    // "<unknown>" forever.
    engine_config cfg;
    cfg.num_shards = 1;
    cfg.num_producers = 2;
    cfg.spelling_filter_slots = 8;  // full sweep every 16 x 8 = 128 pushes
    cfg.sketch = sketch_config{.max_counters = 16, .seed = 3};
    stream_engine<std::uint64_t, std::uint64_t, string_frequent_items<std::uint64_t>>
        engine(cfg);
    {
        auto p1 = engine.make_producer();
        auto p2 = engine.make_producer();
        // p1: heavy fillers occupy all 16 counters, then one sighting of
        // the future heavy hitter — its spelling is sent and marked in
        // p1's filter, and nothing p1 pushes later can overwrite that slot.
        for (int round = 0; round < 50; ++round) {
            for (int f = 0; f < 16; ++f) {
                std::string word = "filler";  // +=: gcc 12 -Wrestrict FP (PR105329)
                word += std::to_string(f);
                p1.push(std::string_view(word), 100);
            }
        }
        p1.push(std::string_view("phoenix"), 1);
        p1.flush();
        engine.flush();
        // p2: distinct-key churn past the dictionary budget (4 x 16 = 64)
        // evicts "phoenix" from the table and sweeps its spelling — while
        // leaving p1's filter untouched.
        for (int i = 0; i < 400; ++i) {
            std::string word = "churn";
            word += std::to_string(i);
            p2.push(std::string_view(word), 1);
        }
        p2.flush();
        engine.flush();
        // p1 again: ONLY the heavy hitter — no collisions, just refresh.
        for (int i = 0; i < 2'000; ++i) {
            p1.push(std::string_view("phoenix"), 1'000);
        }
        p1.flush();
    }
    engine.flush();

    const auto snap = engine.snapshot();
    const auto top = snap.top_items(1);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].item, "phoenix") << "swept spelling never healed";
    EXPECT_GE(snap.estimate("phoenix"), 1'000'000u);
}

// --- generic (non-string) keys through the engine ----------------------------

/// A flow 5-tuple stand-in: the "generic key" the fingerprint core routes
/// through the engine without the map-backed core's single-thread limits.
struct flow_key {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint16_t port = 0;

    friend bool operator==(const flow_key&, const flow_key&) = default;
};

struct flow_key_traits {
    using view_type = const flow_key&;
    static std::uint64_t fingerprint(const flow_key& f) noexcept {
        return murmur_mix64((std::uint64_t{f.src} << 32) ^ (std::uint64_t{f.dst} << 16) ^
                            f.port);
    }
    static flow_key materialize(const flow_key& f) { return f; }
};

using flow_sketch =
    fingerprint_frequent_items<flow_key, std::uint64_t, plain_lifetime, flow_key_traits>;

TEST(EngineGenericKeys, FlowTuplesIngestThroughTheEngine) {
    engine_config cfg;
    cfg.num_shards = 2;
    cfg.sketch = sketch_config{.max_counters = 64, .seed = 5};
    stream_engine<std::uint64_t, std::uint64_t, flow_sketch> engine(cfg);

    std::unordered_map<std::uint64_t, std::uint64_t> truth;  // by fingerprint
    {
        auto producer = engine.make_producer();
        xoshiro256ss rng(77);
        zipf_distribution zipf(300, 1.4);
        for (int i = 0; i < 50'000; ++i) {
            const auto id = static_cast<std::uint32_t>(zipf(rng));
            const flow_key key{id, id ^ 0xdead, static_cast<std::uint16_t>(id % 9)};
            producer.push(key, 2);
            truth[flow_key_traits::fingerprint(key)] += 2;
        }
    }
    engine.flush();

    const auto snap = engine.snapshot();
    const auto top = snap.top_items(5);
    ASSERT_EQ(top.size(), 5u);
    for (const auto& r : top) {
        // Spellings are real flow keys (not the default-constructed
        // placeholder): their fingerprint re-derives the row's.
        EXPECT_EQ(flow_key_traits::fingerprint(r.item), r.fingerprint);
        EXPECT_LE(r.lower_bound, truth.at(r.fingerprint));
        EXPECT_GE(r.upper_bound, truth.at(r.fingerprint));
    }
}

// --- façade: builder().text_keys().sharded(...) ------------------------------

summarizer build_text(lifetime_kind lifetime, std::uint32_t shards,
                      std::uint32_t producers = 1) {
    builder b;
    b.text_keys().max_counters(512).seed(11).sharded(shards, producers);
    switch (lifetime) {
        case lifetime_kind::fading: b.fading(0.5); break;
        case lifetime_kind::windowed: b.sliding_window(3); break;
        default: b.plain(); break;
    }
    return b.build();
}

TEST(FacadeShardedText, PlainAgainstExactCounter) {
    auto s = build_text(lifetime_kind::plain, 2);
    ASSERT_TRUE(s.sharded());
    EXPECT_EQ(s.descriptor().keys, key_kind::text);

    const auto stream = word_stream(100'000, 3'000, 21);
    std::unordered_map<std::string, double> truth;
    {
        auto feeder = s.make_feeder();
        for (const auto& [word, w] : stream) {
            feeder.push(std::string_view(word), static_cast<double>(w));
            truth[word] += static_cast<double>(w);
        }
        feeder.flush();
    }
    s.flush();

    double total = 0;
    for (const auto& [word, f] : truth) {
        total += f;
    }
    EXPECT_DOUBLE_EQ(s.total_weight(), total);

    const double threshold = 0.005 * total;
    const auto nfp = s.frequent_items(error_mode::no_false_positives, threshold);
    ASSERT_FALSE(nfp.empty());
    for (const auto& r : nfp) {
        ASSERT_TRUE(truth.contains(r.item)) << r.item;
        EXPECT_GT(truth.at(r.item), threshold) << "false positive: " << r.item;
    }
    const auto nfn = s.frequent_items(error_mode::no_false_negatives, threshold);
    std::unordered_set<std::string> got;
    for (const auto& r : nfn) {
        got.insert(r.item);
    }
    for (const auto& [word, f] : truth) {
        if (f > threshold) {
            EXPECT_TRUE(got.contains(word)) << "false negative: " << word;
        }
    }
}

TEST(FacadeShardedText, FadingAgainstExactDecayedCounts) {
    constexpr double rho = 0.5;
    auto s = build_text(lifetime_kind::fading, 2);

    std::unordered_map<std::string, double> truth;
    for (int epoch = 0; epoch < 3; ++epoch) {
        // Backward-decay the reference before the new epoch's arrivals.
        if (epoch > 0) {
            for (auto& [word, f] : truth) {
                f *= rho;
            }
            s.tick();
        }
        for (const auto& [word, w] : word_stream(30'000, 1'000,
                                                 100 + static_cast<std::uint64_t>(epoch))) {
            s.update(std::string_view(word), static_cast<double>(w));
            truth[word] += static_cast<double>(w);
        }
    }
    s.flush();

    double total = 0;
    for (const auto& [word, f] : truth) {
        total += f;
    }
    EXPECT_NEAR(s.total_weight(), total, 1e-6 * total);

    const double threshold = 0.01 * total;
    const double slack = 1e-9 * threshold;  // forward- vs backward-decay rounding
    for (const auto& r : s.frequent_items(error_mode::no_false_positives, threshold)) {
        ASSERT_TRUE(truth.contains(r.item)) << r.item;
        EXPECT_GT(truth.at(r.item) + slack, threshold) << "false positive: " << r.item;
    }
    const auto nfn = s.frequent_items(error_mode::no_false_negatives, threshold);
    std::unordered_set<std::string> got;
    for (const auto& r : nfn) {
        got.insert(r.item);
    }
    for (const auto& [word, f] : truth) {
        if (f > threshold + slack) {
            EXPECT_TRUE(got.contains(word)) << "false negative: " << word;
        }
    }
}

TEST(FacadeShardedText, WindowedAgainstLastEpochsOnly) {
    auto s = build_text(lifetime_kind::windowed, 2);  // window = 3 epochs

    std::unordered_map<std::string, double> in_window;
    for (int epoch = 0; epoch < 5; ++epoch) {
        if (epoch > 0) {
            s.tick();
        }
        if (epoch == 2) {
            in_window.clear();  // epochs 0-1 slide out of a 3-epoch window by epoch 4
        }
        for (const auto& [word, w] : word_stream(20'000, 800,
                                                 200 + static_cast<std::uint64_t>(epoch))) {
            s.update(std::string_view(word), static_cast<double>(w));
            if (epoch >= 2) {
                in_window[word] += static_cast<double>(w);
            }
        }
    }
    s.flush();

    double total = 0;
    for (const auto& [word, f] : in_window) {
        total += f;
    }
    EXPECT_DOUBLE_EQ(s.total_weight(), total);

    const double threshold = 0.01 * total;
    for (const auto& r : s.frequent_items(error_mode::no_false_positives, threshold)) {
        ASSERT_TRUE(in_window.contains(r.item)) << "evicted or never-seen: " << r.item;
        EXPECT_GT(in_window.at(r.item), threshold) << "false positive: " << r.item;
    }
    const auto nfn = s.frequent_items(error_mode::no_false_negatives, threshold);
    std::unordered_set<std::string> got;
    for (const auto& r : nfn) {
        got.insert(r.item);
    }
    for (const auto& [word, f] : in_window) {
        if (f > threshold) {
            EXPECT_TRUE(got.contains(word)) << "false negative: " << word;
        }
    }
}

TEST(FacadeShardedText, RoundTripsBitExactlyThroughTheEnvelope) {
    for (const lifetime_kind lifetime :
         {lifetime_kind::plain, lifetime_kind::fading, lifetime_kind::windowed}) {
        SCOPED_TRACE(to_string(lifetime));
        auto s = build_text(lifetime, 2);
        for (const auto& [word, w] : word_stream(40'000, 1'500, 31)) {
            s.update(std::string_view(word), static_cast<double>(w));
        }
        if (lifetime != lifetime_kind::plain) {
            s.tick();
        }
        s.flush();

        const auto first = s.save();
        // Writers emit the lowest minor whose layout they need: text
        // dictionaries were introduced in minor 1, and the paper algorithm
        // needs nothing newer.
        EXPECT_EQ(first.minor_version(), summary_bytes::text_dictionary_minor);
        auto restored = restore_summary(first);
        const auto second = restored.save();
        EXPECT_TRUE(first == second) << "save -> restore -> save not byte-identical";

        // The restored standalone answers like the engine's own snapshot.
        const auto snap = s.snapshot();
        for (const auto& r : snap.top_items(20)) {
            EXPECT_DOUBLE_EQ(restored.estimate(r.item), snap.estimate(r.item)) << r.item;
        }
        EXPECT_DOUBLE_EQ(restored.total_weight(), snap.total_weight());
    }
}

TEST(FacadeShardedText, CachedSnapshotViewAnswersWithSpellings) {
    auto s = builder()
                 .text_keys()
                 .max_counters(256)
                 .seed(2)
                 .sharded(2)
                 .snapshot_every(std::chrono::milliseconds(1))
                 .build();
    ASSERT_TRUE(s.snapshot_service_enabled());

    const auto stream = word_stream(60'000, 1'200, 55);
    std::unordered_map<std::string, double> truth;
    for (const auto& [word, w] : stream) {
        s.update(std::string_view(word), static_cast<double>(w));
        truth[word] += static_cast<double>(w);
    }
    s.flush();  // republishes synchronously: the cached view is stream-complete

    double total = 0;
    for (const auto& [word, f] : truth) {
        total += f;
    }
    EXPECT_DOUBLE_EQ(s.total_weight(), total);
    const auto top = s.top_items(10);
    ASSERT_EQ(top.size(), 10u);
    for (const auto& r : top) {
        ASSERT_NE(r.item, "<unknown>");
        EXPECT_LE(r.lower_bound, truth.at(r.item) + 1e-9);
        EXPECT_GE(r.upper_bound, truth.at(r.item) - 1e-9);
    }
    // Point reads off the cached view re-fingerprint the query key.
    EXPECT_GT(s.estimate(top[0].item), 0.0);
    s.disable_snapshot_service();
    EXPECT_DOUBLE_EQ(s.total_weight(), total);  // unpublished views agree
}

TEST(FacadeShardedText, DictionaryStaysBoundedUnderChurn) {
    // Millions of distinct one-shot words through a tiny sharded sketch:
    // per-shard dictionaries must stay O(k), not O(distinct).
    auto s = builder().text_keys().max_counters(64).seed(8).sharded(2).build();
    for (int i = 0; i < 200'000; ++i) {
        s.update("unique_" + std::to_string(i), 1.0);
    }
    s.flush();
    // 2 shards x (64-counter sketch + <=4x64-entry dictionary slice).
    EXPECT_LT(s.memory_bytes(), 512u * 1024u);
}

}  // namespace
}  // namespace freq
