/// The sharded text/generic key path: any key kind must ingest through
/// stream_engine — fingerprint records on the rings, their key bytes on a
/// byte lane beside each ring, a per-shard spelling-dictionary slice — and
/// still honor the paper's NFP/NFN guarantees against exact ground truth,
/// report full spellings, and round-trip bit-exactly through the unified
/// envelope.
/// Covers the template layer (stream_engine over string_frequent_items and
/// over a custom generic key type) and the façade
/// (builder().text_keys().sharded(...)) across all three lifetime policies.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <stdexcept>
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
/// spellings reach the shards well past any dictionary sweep.
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

    const auto st = engine.stats();
    EXPECT_EQ(st.updates_applied, stream.size());
    EXPECT_GT(st.spellings_applied, 0u);
}

#ifndef FREQ_OBS_OFF
TEST(EngineText, SpellingTelemetryAccountsForEveryKeyedPush) {
    // Every keyed record ends in one of three outcomes at its shard: the
    // dictionary already held its spelling (a dedupe hit), stored it, or
    // skipped it (key untracked). A standalone sketch per shard, fed the
    // routed sub-stream, tallies the outcomes the shard must have had;
    // after flush() the telemetry and engine_stats have counted each once.
    const auto stream = word_stream(50'000, 3'000, 17);
    using sketch = string_frequent_items<std::uint64_t>;

    engine_config cfg;
    cfg.num_shards = 2;
    cfg.num_producers = 1;
    cfg.sketch = sketch_config{.max_counters = 256, .seed = 5};
    stream_engine<std::uint64_t, std::uint64_t, sketch> engine(cfg);
    auto& m = obs::pipeline();
    const std::uint64_t hits0 = m.spelling_dedupe_hits.value();
    const std::uint64_t applied0 = m.spelling_applied.value();

    std::vector<sketch> ref;
    for (std::uint32_t s = 0; s < cfg.num_shards; ++s) {
        ref.emplace_back(sketch_config{.max_counters = 256, .seed = 5 + s});
    }
    std::uint64_t known = 0;
    std::uint64_t stored = 0;
    std::uint64_t untracked = 0;
    {
        auto producer = engine.make_producer();
        for (const auto& [word, w] : stream) {
            producer.push(std::string_view(word), w);
            const std::uint64_t fp = sketch::fingerprint(word);
            switch (ref[engine.shard_of(fp)].update(fp, word, w)) {
                case sketch::spelling_outcome::known: ++known; break;
                case sketch::spelling_outcome::stored: ++stored; break;
                case sketch::spelling_outcome::untracked: ++untracked; break;
            }
        }
    }
    engine.flush();
    EXPECT_GT(known, 0u);
    EXPECT_GT(untracked, 0u);
    EXPECT_EQ(known + stored + untracked, stream.size());
    EXPECT_EQ(m.spelling_dedupe_hits.value() - hits0, known);
    EXPECT_EQ(m.spelling_applied.value() - applied0, stored);
    EXPECT_EQ(engine.stats().spellings_applied, stored);
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

TEST(EngineText, SweptSpellingReturnsWithTheKeysNextTrackedPush) {
    // Adversarial identification sequence: producer 1 pushes a key once
    // while the key cannot hold a counter, producer 2's dictionary churn
    // overflows the shard's budget, and the key then becomes a heavy
    // hitter pushed ONLY by producer 1 with no other keys in flight. Every
    // record carries its key's bytes, so the push that gets the key
    // tracked again also spells it; the heavy hitter must never report
    // "<unknown>".
    engine_config cfg;
    cfg.num_shards = 1;
    cfg.num_producers = 2;
    cfg.sketch = sketch_config{.max_counters = 16, .seed = 3};
    stream_engine<std::uint64_t, std::uint64_t, string_frequent_items<std::uint64_t>>
        engine(cfg);
    {
        auto p1 = engine.make_producer();
        auto p2 = engine.make_producer();
        // p1: heavy fillers occupy all 16 counters, then one sighting of
        // the future heavy hitter, which cannot hold a counter yet.
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
        // sweeps every untracked spelling.
        for (int i = 0; i < 400; ++i) {
            std::string word = "churn";
            word += std::to_string(i);
            p2.push(std::string_view(word), 1);
        }
        p2.flush();
        engine.flush();
        // p1 again: ONLY the heavy hitter.
        for (int i = 0; i < 2'000; ++i) {
            p1.push(std::string_view("phoenix"), 1'000);
        }
        p1.flush();
    }
    engine.flush();

    const auto snap = engine.snapshot();
    const auto top = snap.top_items(1);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].item, "phoenix") << "swept spelling never returned";
    EXPECT_GE(snap.estimate("phoenix"), 1'000'000u);
}

// --- byte lanes: edge cases ---------------------------------------------------

using text_engine =
    stream_engine<std::uint64_t, std::uint64_t, string_frequent_items<std::uint64_t>>;

TEST(EngineTextLanes, EmptyKeyIsCountedAndSpelled) {
    engine_config cfg;
    cfg.num_shards = 2;
    cfg.sketch = sketch_config{.max_counters = 16, .seed = 4};
    text_engine engine(cfg);
    {
        auto producer = engine.make_producer();
        for (int i = 0; i < 300; ++i) {
            producer.push(std::string_view(), 5);
            producer.push(std::string_view("x"), 1);
        }
    }
    engine.flush();
    const auto snap = engine.snapshot();
    EXPECT_EQ(snap.estimate(std::string_view()), 1'500u);
    const auto top = snap.top_items(1);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].item, "");  // spelled: an unspelled row reads "<unknown>"
    EXPECT_EQ(top[0].fingerprint, string_frequent_items<std::uint64_t>::fingerprint(""));
}

TEST(EngineTextLanes, KeyLongerThanTheLaneStillIngests) {
    // ring_capacity 64 gives each byte lane 64 x 16 = 1,024 bytes; the
    // long key is 40x that, so it crosses the lane in pieces while the
    // worker gathers them.
    engine_config cfg;
    cfg.num_shards = 1;
    cfg.ring_capacity = 64;
    cfg.producer_batch = 7;
    cfg.sketch = sketch_config{.max_counters = 8, .seed = 6};
    text_engine engine(cfg);
    std::string long_key(40'000, 'a');
    for (std::size_t i = 0; i < long_key.size(); i += 97) {
        long_key[i] = static_cast<char>('b' + i % 23);
    }
    {
        auto producer = engine.make_producer();
        for (int i = 0; i < 50; ++i) {
            producer.push(std::string_view(long_key), 10);
            std::string word = "short";  // +=: gcc 12 -Wrestrict FP (PR105329)
            word += std::to_string(i);
            producer.push(std::string_view(word), 1);
        }
    }
    engine.flush();
    EXPECT_EQ(engine.stats().updates_applied, 100u);
    const auto snap = engine.snapshot();
    const auto top = snap.top_items(1);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].item, long_key);
    EXPECT_EQ(snap.estimate(long_key), 500u);
}

TEST(EngineTextLanes, PushesAfterStopDropBytesWithTheirRecords) {
    engine_config cfg;
    cfg.num_shards = 2;
    cfg.ring_capacity = 64;
    cfg.sketch = sketch_config{.max_counters = 16, .seed = 8};
    text_engine engine(cfg);
    auto producer = engine.make_producer();
    producer.push(std::string_view("kept"), 1);
    producer.flush();
    engine.flush();
    engine.stop();
    // Far more bytes than the lanes hold: nothing may block or leak.
    const std::string padding(3'000, 'p');
    for (int i = 0; i < 500; ++i) {
        std::string word = padding;
        word += std::to_string(i);
        producer.push(std::string_view(word), 1);
    }
    producer.flush();
    EXPECT_EQ(engine.stats().updates_dropped, 500u);
    EXPECT_EQ(engine.stats().updates_applied, 1u);
}

/// A text sketch whose keyed update throws on the sentinel key.
struct poisoned_text_sketch : string_frequent_items<std::uint64_t> {
    using base = string_frequent_items<std::uint64_t>;
    using base::base;

    auto update(std::uint64_t fp, std::string_view item, std::uint64_t w) {
        if (item == "poison") {
            throw std::runtime_error("poisoned update");
        }
        return base::update(fp, item, w);
    }
};

TEST(EngineTextLanes, RunsToAThrowingShardAreDroppedWhole) {
    engine_config cfg;
    cfg.num_shards = 2;
    cfg.ring_capacity = 64;
    cfg.sketch = sketch_config{.max_counters = 16, .seed = 9};
    stream_engine<std::uint64_t, std::uint64_t, poisoned_text_sketch> engine(cfg);
    const std::uint32_t bad = engine.shard_of(poisoned_text_sketch::fingerprint("poison"));
    auto producer = engine.make_producer();
    producer.push(std::string_view("poison"), 1);
    producer.flush();
    EXPECT_THROW(engine.flush(), std::runtime_error);

    // Long keys routed to the failed shard: bytes and records are dropped
    // together, far past what its lanes hold, without blocking.
    const std::uint64_t before = engine.stats().updates_dropped;
    std::uint64_t sent = 0;
    for (int i = 0; sent < 400; ++i) {
        std::string word(2'000, 'q');
        word += std::to_string(i);
        if (engine.shard_of(poisoned_text_sketch::fingerprint(word)) == bad) {
            producer.push(std::string_view(word), 1);
            ++sent;
        }
    }
    producer.flush();
    EXPECT_EQ(engine.stats().updates_dropped - before, sent);
}

TEST(EngineTextLanes, TwoProducersOnOneShardStayExactAndSpelled) {
    engine_config cfg;
    cfg.num_shards = 1;
    cfg.num_producers = 2;
    cfg.ring_capacity = 64;
    cfg.producer_batch = 7;
    cfg.drain_batch = 16;
    cfg.sketch = sketch_config{.max_counters = 64, .seed = 10};
    text_engine engine(cfg);

    constexpr int per_thread = 30'000;
    std::vector<std::unordered_map<std::string, std::uint64_t>> truth(2);
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
        threads.emplace_back([&engine, &truth, t] {
            auto producer = engine.make_producer();
            xoshiro256ss rng(300 + static_cast<std::uint64_t>(t));
            zipf_distribution zipf(400, 1.2);
            for (int i = 0; i < per_thread; ++i) {
                // Both producers share the word list; lengths vary so the
                // two lanes carry differently sized runs.
                std::string word(1 + rng.below(40), static_cast<char>('a' + t));
                word += std::to_string(zipf(rng));
                const std::uint64_t w = 1 + rng.below(3);
                producer.push(std::string_view(word), w);
                truth[static_cast<std::size_t>(t)][word] += w;
            }
        });
    }
    for (auto& t : threads) {
        t.join();
    }
    engine.flush();

    std::unordered_map<std::string, std::uint64_t> all = truth[0];
    std::uint64_t total = 0;
    for (const auto& [word, f] : truth[1]) {
        all[word] += f;
    }
    for (const auto& [word, f] : all) {
        total += f;
    }
    const auto snap = engine.snapshot();
    EXPECT_EQ(snap.total_weight(), total);
    const auto rows = snap.top_items(snap.num_counters());
    ASSERT_EQ(rows.size(), snap.num_counters());
    for (const auto& r : rows) {
        ASSERT_TRUE(all.contains(r.item)) << "unspelled or misspelled row: " << r.item;
        EXPECT_EQ(string_frequent_items<std::uint64_t>::fingerprint(r.item), r.fingerprint);
        EXPECT_LE(r.lower_bound, all.at(r.item));
        EXPECT_GE(r.upper_bound, all.at(r.item));
    }
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
