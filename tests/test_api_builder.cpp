/// The runtime façade: freq::builder must materialize every lifetime policy
/// × key kind at runtime, and the redesigned threshold-mode query surface
/// must honor its §1.2 guarantees against exact ground truth — zero false
/// positives under no_false_positives, zero false negatives under
/// no_false_negatives — for plain, fading and windowed summaries alike.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "api/builder.h"
#include "api/summarizer.h"
#include "obs/pipeline_metrics.h"
#include "random/xoshiro.h"
#include "stream/exact_counter.h"
#include "stream/generators.h"

namespace freq {
namespace {

constexpr std::uint32_t k = 512;

update_stream<std::uint64_t, std::uint64_t> test_stream(std::uint64_t seed,
                                                        std::uint64_t n = 100'000) {
    zipf_stream_generator gen({.num_updates = n,
                               .num_distinct = 10'000,
                               .alpha = 1.1,
                               .min_weight = 1,
                               .max_weight = 100,
                               .seed = seed});
    return gen.generate();
}

std::unordered_set<std::uint64_t> returned_ids(const result_set& rs) {
    std::unordered_set<std::uint64_t> out;
    for (const auto& r : rs) {
        out.insert(r.id);
    }
    return out;
}

/// NFP: every returned item truly exceeds the threshold. NFN: every item
/// truly above the threshold is returned. \p truth is exact (policy-aged)
/// frequencies; \p rel_tol absorbs floating-point divergence between the
/// sketch's forward-decay arithmetic and the reference's backward decay.
void check_threshold_modes(const summarizer& s,
                           const std::unordered_map<std::uint64_t, double>& truth,
                           double threshold, double rel_tol = 0.0) {
    const double slack = rel_tol * threshold;

    const auto nfp = s.frequent_items(error_mode::no_false_positives, threshold);
    EXPECT_EQ(nfp.mode(), error_mode::no_false_positives);
    EXPECT_DOUBLE_EQ(nfp.threshold(), threshold);
    for (const auto& r : nfp) {
        const auto it = truth.find(r.id);
        ASSERT_NE(it, truth.end()) << "NFP returned a never-seen id " << r.id;
        EXPECT_GT(it->second + slack, threshold)
            << "false positive: id " << r.id << " true=" << it->second;
    }

    const auto nfn = s.frequent_items(error_mode::no_false_negatives, threshold);
    const auto ids = returned_ids(nfn);
    for (const auto& [id, f] : truth) {
        if (f > threshold + slack) {
            EXPECT_TRUE(ids.contains(id))
                << "false negative: id " << id << " true=" << f;
        }
    }

    // Rows arrive sorted by descending estimate, bounds bracket estimates.
    for (std::size_t i = 1; i < nfn.size(); ++i) {
        EXPECT_GE(nfn[i - 1].estimate, nfn[i].estimate);
    }
    for (const auto& r : nfn) {
        EXPECT_LE(r.lower_bound, r.estimate);
        EXPECT_LE(r.estimate, r.upper_bound);
        EXPECT_LE(r.upper_bound - r.lower_bound, nfn.maximum_error() * (1 + 1e-9));
    }
}

// --- builder matrix ----------------------------------------------------------

TEST(ApiBuilder, ConstructsAllPoliciesAndKeyKindsAtRuntime) {
    struct spec {
        lifetime_kind lifetime;
        key_kind keys;
    };
    for (const auto& [lifetime, keys] :
         {spec{lifetime_kind::plain, key_kind::u64},
          spec{lifetime_kind::fading, key_kind::u64},
          spec{lifetime_kind::windowed, key_kind::u64},
          spec{lifetime_kind::plain, key_kind::text},
          spec{lifetime_kind::fading, key_kind::text},
          spec{lifetime_kind::windowed, key_kind::text}}) {
        builder b;
        b.keys(keys).max_counters(64).seed(3);
        switch (lifetime) {
            case lifetime_kind::plain: b.plain(); break;
            case lifetime_kind::fading: b.fading(0.5); break;
            default: b.sliding_window(3); break;
        }
        auto s = b.build();
        ASSERT_TRUE(s.valid());
        EXPECT_EQ(s.descriptor().lifetime, lifetime);
        EXPECT_EQ(s.descriptor().keys, keys);
        for (int i = 0; i < 100; ++i) {
            if (keys == key_kind::u64) {
                s.update(static_cast<std::uint64_t>(i % 7));
            } else {
                s.update("item" + std::to_string(i % 7));
            }
        }
        s.tick();  // no-op for plain, ages the others
        EXPECT_GT(s.total_weight(), 0.0);
        EXPECT_GT(s.num_counters(), 0u);
    }
}

TEST(ApiBuilder, MapBackendAndShardedVariantsConstruct) {
    auto m1 = builder().storage(storage::map).max_counters(32).build();
    auto m2 = builder().storage(storage::map).max_counters(32).fading(0.5).build();
    auto e1 = builder().max_counters(32).sharded(2).build();
    auto e2 = builder().max_counters(32).fading(0.5).sharded(2).build();
    auto e3 = builder().max_counters(32).sliding_window(3).sharded(2).build();
    for (summarizer* s : {&m1, &m2, &e1, &e2, &e3}) {
        s->update(std::uint64_t{7}, 3.0);
        s->flush();
        EXPECT_EQ(s->estimate(7), 3.0);
    }
    EXPECT_EQ(m1.descriptor().backend, backend_kind::map);
    EXPECT_FALSE(m1.sharded());
    EXPECT_TRUE(e1.sharded());
}

TEST(ApiBuilder, InvalidCombinationsThrowPrecisely) {
    EXPECT_THROW(builder().counts().fading(0.5).build(), std::invalid_argument);
    EXPECT_THROW(builder().storage(storage::map).sliding_window(3).build(), std::invalid_argument);
    EXPECT_THROW(builder().storage(storage::map).sharded(2).build(), std::invalid_argument);
    EXPECT_THROW(builder().text_keys().storage(storage::map).build(), std::invalid_argument);
    EXPECT_THROW(builder().max_counters(0).build(), std::invalid_argument);
    EXPECT_THROW(builder().fading(1.5).build(), std::invalid_argument);
}

TEST(ApiBuilder, KeyKindMismatchThrows) {
    // Every paired u64/text entry point rejects the other key kind, in each
    // façade shape: u64 or text keys, standalone or sharded.
    for (const bool text : {false, true}) {
        for (const bool shard : {false, true}) {
            SCOPED_TRACE(std::string(text ? "text" : "u64") +
                         (shard ? ", sharded" : ", standalone"));
            builder b;
            b.keys(text ? key_kind::text : key_kind::u64).max_counters(16);
            if (shard) {
                b.sharded(2);
            }
            auto s = b.build();
            auto feeder = s.make_feeder();
            const auto expect_rejected = [&](auto wrong_key) {
                EXPECT_THROW(s.update(wrong_key, 1.0), std::invalid_argument);
                EXPECT_THROW((void)s.estimate(wrong_key), std::invalid_argument);
                EXPECT_THROW((void)s.lower_bound(wrong_key), std::invalid_argument);
                EXPECT_THROW((void)s.upper_bound(wrong_key), std::invalid_argument);
                EXPECT_THROW(feeder.push(wrong_key, 1.0), std::invalid_argument);
            };
            const std::vector<update64> batch{update64{1, 2}};
            if (text) {
                expect_rejected(std::uint64_t{1});
                EXPECT_THROW(s.update(std::span<const update64>(batch)), std::invalid_argument);
                s.update("word", 2.0);
                feeder.push("word", 1.0);
            } else {
                expect_rejected(std::string_view("word"));
                s.update(std::span<const update64>(batch));
                feeder.push(std::uint64_t{1}, 1.0);
            }
            // The rejected calls left the summary untouched; matching ones count.
            feeder.flush();
            s.flush();
            EXPECT_DOUBLE_EQ(s.total_weight(), 3.0);
        }
    }
}

TEST(ApiBuilder, WeightValidationAtTheFacadeBoundary) {
    auto s = builder().max_counters(16).build();
    EXPECT_THROW(s.update(std::uint64_t{1}, -1.0), std::invalid_argument);
    EXPECT_THROW(s.update(std::uint64_t{1}, 1.5), std::invalid_argument);  // counts
    auto r = builder().max_counters(16).real_weights().build();
    r.update(std::uint64_t{1}, 1.5);  // real weights take fractions
    EXPECT_DOUBLE_EQ(r.estimate(1), 1.5);
}

// --- threshold-mode queries vs exact ground truth ----------------------------

TEST(ApiThresholdModes, PlainAgainstExactCounter) {
    const auto stream = test_stream(11);
    auto s = builder().max_counters(k).seed(1).build();
    exact_counter<std::uint64_t, std::uint64_t> exact;
    s.update(std::span<const update64>(stream.data(), stream.size()));
    exact.consume(stream);

    std::unordered_map<std::uint64_t, double> truth;
    for (const auto& [id, f] : exact.counts()) {
        truth[id] = static_cast<double>(f);
    }
    ASSERT_GT(s.maximum_error(), 0.0) << "stream too small to exercise eviction";
    for (const double phi : {0.002, 0.01}) {
        check_threshold_modes(s, truth, phi * s.total_weight());
    }
}

TEST(ApiThresholdModes, MapBackendAgainstExactCounter) {
    const auto stream = test_stream(12);
    auto s = builder().storage(storage::map).max_counters(k).build();
    exact_counter<std::uint64_t, std::uint64_t> exact;
    for (const auto& u : stream) {
        s.update(u.id, static_cast<double>(u.weight));
        exact.update(u.id, u.weight);
    }
    std::unordered_map<std::uint64_t, double> truth;
    for (const auto& [id, f] : exact.counts()) {
        truth[id] = static_cast<double>(f);
    }
    check_threshold_modes(s, truth, 0.005 * s.total_weight());
}

TEST(ApiThresholdModes, FadingAgainstExactDecayedCounts) {
    constexpr double rho = 0.5;
    auto s = builder().max_counters(k).seed(2).fading(rho).build();
    std::unordered_map<std::uint64_t, double> truth;
    for (int epoch = 0; epoch < 4; ++epoch) {
        const auto stream = test_stream(20 + static_cast<std::uint64_t>(epoch), 50'000);
        for (const auto& u : stream) {
            s.update(u.id, static_cast<double>(u.weight));
            truth[u.id] += static_cast<double>(u.weight);
        }
        if (epoch < 3) {
            s.tick();
            for (auto& [id, f] : truth) {
                f *= rho;  // reference decays backward; sketch decays forward
            }
        }
    }
    check_threshold_modes(s, truth, 0.005 * s.total_weight(), /*rel_tol=*/1e-9);
}

TEST(ApiThresholdModes, WindowedAgainstLastEpochsOnly) {
    constexpr std::uint32_t window = 3;
    auto s = builder().max_counters(k).seed(3).sliding_window(window).build();
    std::vector<std::unordered_map<std::uint64_t, double>> per_epoch;
    for (int epoch = 0; epoch < 6; ++epoch) {
        per_epoch.emplace_back();
        const auto stream = test_stream(40 + static_cast<std::uint64_t>(epoch), 50'000);
        for (const auto& u : stream) {
            s.update(u.id, static_cast<double>(u.weight));
            per_epoch.back()[u.id] += static_cast<double>(u.weight);
        }
        if (epoch < 5) {
            s.tick();
        }
    }
    // Ground truth: only the last `window` epochs are inside the window.
    std::unordered_map<std::uint64_t, double> truth;
    for (std::size_t e = per_epoch.size() - window; e < per_epoch.size(); ++e) {
        for (const auto& [id, f] : per_epoch[e]) {
            truth[id] += f;
        }
    }
    double n = 0;
    for (const auto& [id, f] : truth) {
        n += f;
    }
    EXPECT_DOUBLE_EQ(s.total_weight(), n) << "window must exclude evicted epochs";
    check_threshold_modes(s, truth, 0.005 * s.total_weight());
}

TEST(ApiThresholdModes, TextKeysAgainstExactCounts) {
    auto s = builder().text_keys().max_counters(256).build();
    std::unordered_map<std::string, double> truth;
    const auto stream = test_stream(50, 60'000);
    for (const auto& u : stream) {
        const std::string word = "w" + std::to_string(u.id % 3'000);
        s.update(word, static_cast<double>(u.weight));
        truth[word] += static_cast<double>(u.weight);
    }
    const double threshold = 0.005 * s.total_weight();

    const auto nfp = s.frequent_items(error_mode::no_false_positives, threshold);
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

TEST(ApiThresholdModes, ShardedEngineAgainstExactCounter) {
    const auto stream = test_stream(60, 200'000);
    auto s = builder().max_counters(k).seed(4).sharded(2, 1).build();
    s.update(std::span<const update64>(stream.data(), stream.size()));
    s.flush();
    exact_counter<std::uint64_t, std::uint64_t> exact;
    exact.consume(stream);
    std::unordered_map<std::uint64_t, double> truth;
    for (const auto& [id, f] : exact.counts()) {
        truth[id] = static_cast<double>(f);
    }
    EXPECT_DOUBLE_EQ(s.total_weight(), static_cast<double>(exact.total_weight()));
    check_threshold_modes(s, truth, 0.005 * s.total_weight());
}

// --- merge / snapshot / feeders ---------------------------------------------

TEST(ApiSummarizer, MergeAcrossSeedsFoldsStreams) {
    const auto s1 = test_stream(70);
    const auto s2 = test_stream(71);
    auto a = builder().max_counters(k).seed(1).build();
    auto b = builder().max_counters(k).seed(2).build();  // §3.2: distinct hashes
    a.update(std::span<const update64>(s1.data(), s1.size()));
    b.update(std::span<const update64>(s2.data(), s2.size()));
    const double n = a.total_weight() + b.total_weight();
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.total_weight(), n);

    exact_counter<std::uint64_t, std::uint64_t> exact;
    exact.consume(s1);
    exact.consume(s2);
    for (const auto& r : a.top_items(20)) {
        const double f = static_cast<double>(exact.frequency(r.id));
        EXPECT_LE(r.lower_bound, f);
        EXPECT_GE(r.upper_bound, f);
    }
}

TEST(ApiSummarizer, MergeRequiresCompatibleInstantiations) {
    auto plain = builder().max_counters(32).build();
    auto fading = builder().max_counters(32).fading(0.5).build();
    auto words = builder().text_keys().max_counters(32).build();
    EXPECT_THROW(plain.merge(fading), std::invalid_argument);
    EXPECT_THROW(plain.merge(words), std::invalid_argument);
    auto sharded = builder().max_counters(32).sharded(2).build();
    EXPECT_THROW(sharded.merge(plain), std::invalid_argument);
    // ... but a sharded snapshot is an ordinary standalone summary.
    auto snap = sharded.snapshot();
    plain.merge(snap);
}

TEST(ApiSummarizer, ShardedSnapshotMatchesFlushedStream) {
    const auto stream = test_stream(80, 50'000);
    auto s = builder().max_counters(k).sharded(2).build();
    s.update(std::span<const update64>(stream.data(), stream.size()));
    s.flush();
    auto snap = s.snapshot();
    EXPECT_FALSE(snap.sharded());
    EXPECT_DOUBLE_EQ(snap.total_weight(), s.total_weight());
    // The live summarizer answers from its shards, the snapshot from their
    // merge: both bracket the truth, each within its own error bound.
    exact_counter<std::uint64_t, std::uint64_t> exact;
    exact.consume(stream);
    for (const auto& r : snap.top_items(5)) {
        const double f = static_cast<double>(exact.frequency(r.id));
        for (const summarizer* q : {&s, &snap}) {
            EXPECT_LE(q->lower_bound(r.id), f);
            EXPECT_GE(q->upper_bound(r.id), f);
            EXPECT_LE(std::fabs(q->estimate(r.id) - f), q->maximum_error());
        }
    }
}

TEST(ApiSummarizer, ConcurrentFeedersSumWeights) {
    constexpr int feeders = 3;
    constexpr std::uint64_t per_feeder = 20'000;
    auto s = builder().max_counters(k).sharded(2, feeders).build();
    std::vector<std::thread> threads;
    for (int t = 0; t < feeders; ++t) {
        threads.emplace_back([&s, t] {
            auto f = s.make_feeder();
            xoshiro256ss rng(static_cast<std::uint64_t>(t) + 1);
            for (std::uint64_t i = 0; i < per_feeder; ++i) {
                f.push(rng.below(1'000), 1.0);
            }
            f.flush();
        });
    }
    for (auto& t : threads) {
        t.join();
    }
    s.flush();
    EXPECT_DOUBLE_EQ(s.total_weight(), static_cast<double>(feeders * per_feeder));
}

TEST(ApiSummarizer, FeederSlotsRecycle) {
    // One producer slot serves a sequence of short-lived feeders (the
    // engine recycles slots on feeder destruction).
    auto s = builder().max_counters(32).sharded(2, 1).build();
    for (int round = 0; round < 5; ++round) {
        auto f = s.make_feeder();
        f.push(std::uint64_t{9}, 1.0);
        f.flush();
    }
    s.flush();
    EXPECT_DOUBLE_EQ(s.estimate(9), 5.0);
}

TEST(ApiSummarizer, ShardedTickAgesStagedUpdates) {
    // tick() must drain the internal producer and the rings first — an
    // update staged before the tick belongs to the pre-tick epoch.
    auto fading = builder().max_counters(32).fading(0.5).sharded(2).build();
    fading.update(std::uint64_t{1}, 100.0);
    fading.tick();
    fading.flush();
    EXPECT_DOUBLE_EQ(fading.estimate(1), 50.0);

    auto windowed = builder().max_counters(32).sliding_window(2).sharded(2).build();
    windowed.update(std::uint64_t{1}, 100.0);  // epoch 0
    windowed.tick();                           // -> epoch 1 (0 still in window)
    windowed.tick();                           // -> epoch 2 (0 evicted)
    windowed.flush();
    EXPECT_DOUBLE_EQ(windowed.estimate(1), 0.0);
}

TEST(ApiSummarizer, ShardedSaveIsStreamComplete) {
    // save() promises stream-complete bytes: staged and ring-resident
    // updates must be drained before the snapshot is folded.
    auto s = builder().max_counters(32).sharded(2).build();
    s.update(std::uint64_t{7}, 5.0);
    const auto restored = restore_summary(s.save());
    EXPECT_DOUBLE_EQ(restored.total_weight(), 5.0);
    EXPECT_DOUBLE_EQ(restored.estimate(7), 5.0);
}

TEST(ApiSummarizer, UpdateDoesNotConsumeFeederSlots) {
    // The internal scalar-update producer lives on a reserved slot: with
    // the default one-producer budget, update() then make_feeder() works.
    auto s = builder().max_counters(32).sharded(2).build();
    s.update(std::uint64_t{1}, 1.0);
    auto f = s.make_feeder();
    f.push(std::uint64_t{1}, 2.0);
    f.flush();
    s.flush();
    EXPECT_DOUBLE_EQ(s.estimate(1), 3.0);
}

// --- standalone feeder staging ------------------------------------------------

/// 1000 pushes: three full 256-update runs and a partial one.
constexpr std::uint64_t staged_pushes = 1000;

TEST(ApiFeederStaging, StagedRunsSaveTheSameBytesAsPerItemUpdates) {
    struct spec {
        const char* name;
        builder b;
        bool real = false;              ///< fractional weights
        std::uint64_t tick_every = 0;   ///< flush-then-tick cadence (0: never)
    };
    std::vector<spec> specs;
    specs.push_back({"plain counts", builder().max_counters(64).seed(1)});
    specs.push_back({"fading real weights",
                     builder().max_counters(64).seed(2).fading(0.9), true, 300});
    specs.push_back({"windowed counts",
                     builder().max_counters(64).seed(3).sliding_window(2), false, 300});
    specs.push_back({"map backend", builder().max_counters(64).storage(storage::map)});
    specs.push_back({"space_saving",
                     builder().max_counters(64).algorithm(algo::space_saving)});
    const auto stream = test_stream(71, staged_pushes);
    for (auto& sp : specs) {
        SCOPED_TRACE(sp.name);
        auto per_item = sp.b.build();
        auto staged = sp.b.build();
        auto f = staged.make_feeder();
        for (std::uint64_t i = 0; i < stream.size(); ++i) {
            const double w = static_cast<double>(stream[i].weight) * (sp.real ? 0.37 : 1.0);
            per_item.update(stream[i].id, w);
            f.push(stream[i].id, w);
            if (sp.tick_every > 0 && (i + 1) % sp.tick_every == 0) {
                f.flush();
                staged.tick();
                per_item.tick();
            }
        }
        f.flush();
        ASSERT_GT(per_item.maximum_error(), 0.0) << "stream too small to decrement";
        EXPECT_TRUE(staged.save() == per_item.save());
    }
}

TEST(ApiFeederStaging, PushesBecomeVisibleAtFlushOrAFullRun) {
    auto s = builder().max_counters(64).build();
    auto f = s.make_feeder();
    f.push(std::uint64_t{1}, 2.0);
    EXPECT_DOUBLE_EQ(s.total_weight(), 0.0);  // staged, not yet applied
    f.flush();
    EXPECT_DOUBLE_EQ(s.total_weight(), 2.0);
    for (std::size_t i = 0; i < detail::feeder_impl::run_capacity; ++i) {
        f.push(std::uint64_t{2}, 1.0);  // the last one fills the run
    }
    EXPECT_DOUBLE_EQ(s.estimate(2), static_cast<double>(detail::feeder_impl::run_capacity));
}

TEST(ApiFeederStaging, DestroyingAnUnflushedFeederAppliesItsRun) {
    auto s = builder().max_counters(64).build();
    {
        auto f = s.make_feeder();
        for (std::uint64_t i = 0; i < 10; ++i) {
            f.push(i, 3.0);
        }
    }
    EXPECT_DOUBLE_EQ(s.total_weight(), 30.0);
}

TEST(ApiFeederStaging, MoveAssignmentKeepsTheTargetsStagedRun) {
    auto a = builder().max_counters(64).build();
    auto b = builder().max_counters(64).build();
    auto f = a.make_feeder();
    f.push(std::uint64_t{5}, 4.0);
    auto g = b.make_feeder();
    g.push(std::uint64_t{6}, 7.0);
    f = std::move(g);  // f's run lands in a before f takes over g's feeder
    EXPECT_DOUBLE_EQ(a.estimate(5), 4.0);
    f.push(std::uint64_t{6}, 1.0);
    f.flush();
    EXPECT_DOUBLE_EQ(b.estimate(6), 8.0);
    EXPECT_DOUBLE_EQ(a.total_weight(), 4.0);
}

TEST(ApiFeederStaging, BadPushesThrowAtThePushAndKeepEarlierOnes) {
    auto counts = builder().max_counters(64).build();
    auto real = builder().max_counters(64).real_weights().build();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    {
        auto f = counts.make_feeder();
        f.push(std::uint64_t{1}, 2.0);
        EXPECT_THROW(f.push(std::uint64_t{1}, 1.5), std::invalid_argument);
        f.push(std::uint64_t{1}, 3.0);
        EXPECT_THROW(f.push(std::uint64_t{2}, -1.0), std::invalid_argument);
        EXPECT_THROW(f.push(std::uint64_t{2}, nan), std::invalid_argument);
        EXPECT_THROW(f.push(std::string_view("text"), 1.0), std::invalid_argument);
        f.push(std::uint64_t{2}, 4.0);
        f.flush();
    }
    EXPECT_DOUBLE_EQ(counts.estimate(1), 5.0);
    EXPECT_DOUBLE_EQ(counts.estimate(2), 4.0);
    EXPECT_DOUBLE_EQ(counts.total_weight(), 9.0);
    {
        auto f = real.make_feeder();
        f.push(std::uint64_t{1}, 1.5);  // real weights take fractions
        EXPECT_THROW(f.push(std::uint64_t{1}, -1.0), std::invalid_argument);
        EXPECT_THROW(f.push(std::uint64_t{1}, nan), std::invalid_argument);
        f.flush();
    }
    EXPECT_DOUBLE_EQ(real.total_weight(), 1.5);
    auto text = builder().text_keys().max_counters(64).build();
    {
        auto f = text.make_feeder();
        f.push("word", 1.0);
        EXPECT_THROW(f.push(std::uint64_t{1}, 1.0), std::invalid_argument);
        f.flush();
    }
    EXPECT_DOUBLE_EQ(text.total_weight(), 1.0);
}

#ifndef FREQ_OBS_OFF
TEST(ApiFeederStaging, FacadeUpdatesCountEveryPushOnce) {
    for (const bool shard : {false, true}) {
        SCOPED_TRACE(shard ? "sharded" : "standalone");
        builder b;
        b.max_counters(64);
        if (shard) {
            b.sharded(2);
        }
        auto s = b.build();
        const std::uint64_t before = obs::pipeline().facade_updates.value();
        auto f = s.make_feeder();
        for (std::uint64_t i = 0; i < 3 * staged_pushes; ++i) {  // crosses 4096 once
            f.push(i % 97, 1.0);
        }
        f.flush();
        EXPECT_EQ(obs::pipeline().facade_updates.value() - before, 3 * staged_pushes);

        // Scalar updates are tallied the same way: added at the 4096th
        // update and on flush(), never per call.
        const std::uint64_t scalar_before = obs::pipeline().facade_updates.value();
        for (std::uint64_t i = 0; i < 5 * staged_pushes; ++i) {  // crosses 4096 once
            s.update(i % 97, 1.0);
        }
        EXPECT_EQ(obs::pipeline().facade_updates.value() - scalar_before, 4096u);
        s.flush();
        EXPECT_EQ(obs::pipeline().facade_updates.value() - scalar_before, 5 * staged_pushes);
    }
    // Text updates too, and destruction adds what is left of the tally,
    // after a move hands it to the new owner.
    const std::uint64_t before = obs::pipeline().facade_updates.value();
    {
        auto text = builder().text_keys().max_counters(64).build();
        for (std::uint64_t i = 0; i < 4100; ++i) {
            text.update(i % 2 == 0 ? "even" : "odd", 1.0);
        }
        EXPECT_EQ(obs::pipeline().facade_updates.value() - before, 4096u);
        summarizer moved = std::move(text);
        EXPECT_EQ(obs::pipeline().facade_updates.value() - before, 4096u);
    }
    EXPECT_EQ(obs::pipeline().facade_updates.value() - before, 4100u);
}
#endif

TEST(ApiSummarizer, EmptySummarizerThrowsNotCrashes) {
    summarizer empty;
    EXPECT_FALSE(empty.valid());
    EXPECT_THROW(empty.update(std::uint64_t{1}, 1.0), std::invalid_argument);
    EXPECT_THROW((void)empty.total_weight(), std::invalid_argument);
}

// --- the algorithm axis ------------------------------------------------------

TEST(ApiAlgorithms, EveryBackendConstructsStandaloneAndSharded) {
    for (const algo a : {algo::paper, algo::count_min, algo::count_sketch,
                         algo::space_saving}) {
        auto s = builder().algorithm(a).max_counters(128).seed(5).build();
        ASSERT_TRUE(s.valid());
        EXPECT_EQ(s.descriptor().algorithm, a);
        auto e = builder().algorithm(a).max_counters(128).seed(5).sharded(2).build();
        EXPECT_TRUE(e.sharded());
        EXPECT_EQ(e.descriptor().algorithm, a);
        for (std::uint64_t i = 0; i < 2'000; ++i) {
            s.update(i % 37);
            e.update(i % 37);
        }
        e.flush();
        EXPECT_DOUBLE_EQ(s.total_weight(), 2'000.0);
        EXPECT_DOUBLE_EQ(e.total_weight(), 2'000.0);
        // A sharded snapshot is a mergeable standalone summary of the same
        // algorithm — the engine + snapshot path works for every backend.
        auto snap = e.snapshot();
        EXPECT_EQ(snap.descriptor().algorithm, a);
        EXPECT_DOUBLE_EQ(snap.total_weight(), 2'000.0);
        snap.merge(s);
        EXPECT_DOUBLE_EQ(snap.total_weight(), 4'000.0);
    }
}

TEST(ApiAlgorithms, InvalidCombinationsThrowPrecisely) {
    EXPECT_THROW(builder().algorithm(algo::count_min).text_keys().build(),
                 std::invalid_argument);
    EXPECT_THROW(builder().algorithm(algo::space_saving).storage(storage::map).build(),
                 std::invalid_argument);
    EXPECT_THROW(builder().algorithm(algo::count_min).sliding_window(3).build(),
                 std::invalid_argument);
    EXPECT_THROW(builder().algorithm(algo::count_sketch).fading(0.5).build(),
                 std::invalid_argument);
    EXPECT_THROW(builder().algorithm(algo::count_sketch).real_weights().build(),
                 std::invalid_argument);
    // Fading is fine for count_min / space_saving...
    auto cm = builder().algorithm(algo::count_min).max_counters(32).fading(0.5).build();
    auto ss = builder().algorithm(algo::space_saving).max_counters(32).fading(0.5).build();
    cm.update(std::uint64_t{1}, 8.0);
    ss.update(std::uint64_t{1}, 8.0);
    cm.tick();
    ss.tick();
    EXPECT_DOUBLE_EQ(cm.estimate(1), 4.0);
    EXPECT_DOUBLE_EQ(ss.estimate(1), 4.0);
    // ... and merging across algorithms is a typed error, not a crash.
    auto paper = builder().max_counters(32).build();
    auto other = builder().algorithm(algo::space_saving).max_counters(32).build();
    EXPECT_THROW(paper.merge(other), std::invalid_argument);
}

TEST(ApiThresholdModes, SpaceSavingAgainstExactCounter) {
    const auto stream = test_stream(90);
    auto s = builder().algorithm(algo::space_saving).max_counters(k).build();
    exact_counter<std::uint64_t, std::uint64_t> exact;
    s.update(std::span<const update64>(stream.data(), stream.size()));
    exact.consume(stream);
    std::unordered_map<std::uint64_t, double> truth;
    for (const auto& [id, f] : exact.counts()) {
        truth[id] = static_cast<double>(f);
    }
    ASSERT_GT(s.maximum_error(), 0.0) << "stream too small to fill the heap";
    for (const double phi : {0.002, 0.01}) {
        check_threshold_modes(s, truth, phi * s.total_weight());
    }
}

TEST(ApiThresholdModes, CountMinNfnAgainstExactCounter) {
    const auto stream = test_stream(91);
    auto s = builder().algorithm(algo::count_min).max_counters(k).seed(7).build();
    exact_counter<std::uint64_t, std::uint64_t> exact;
    s.update(std::span<const update64>(stream.data(), stream.size()));
    exact.consume(stream);
    // Count-Min never undercounts: estimates upper-bound the truth, and the
    // NFN report covers everything whose true frequency clears the bar.
    const double threshold = 0.005 * s.total_weight();
    const auto nfn = s.frequent_items(error_mode::no_false_negatives, threshold);
    const auto ids = returned_ids(nfn);
    for (const auto& [id, f] : exact.counts()) {
        EXPECT_GE(s.estimate(id), static_cast<double>(f));
        if (static_cast<double>(f) > threshold) {
            EXPECT_TRUE(ids.contains(id)) << "false negative: id " << id;
        }
    }
    // One-sided bounds make no_false_positives vacuous — a typed error.
    EXPECT_THROW((void)s.frequent_items(error_mode::no_false_positives, threshold),
                 std::invalid_argument);
}

TEST(ApiThresholdModes, CountSketchEstimatesWithinItsErrorBound) {
    const auto stream = test_stream(92);
    auto s = builder().algorithm(algo::count_sketch).max_counters(k).seed(9).build();
    exact_counter<std::uint64_t, std::uint64_t> exact;
    s.update(std::span<const update64>(stream.data(), stream.size()));
    exact.consume(stream);
    ASSERT_GT(s.maximum_error(), 0.0);
    // Median-of-rows estimates land within the reported 3σ envelope for the
    // heavy ids (per-id failure odds ~(2/9)^⌈depth/2⌉; seeds are pinned).
    const auto top = s.top_items(20);
    ASSERT_FALSE(top.rows().empty());
    for (const auto& r : top) {
        const double f = static_cast<double>(exact.frequency(r.id));
        EXPECT_NEAR(r.estimate, f, s.maximum_error()) << "id " << r.id;
        EXPECT_LE(r.lower_bound, r.estimate);
        EXPECT_GE(r.upper_bound, r.estimate);
    }
    // Both threshold modes answer (two-sided bounds), rows sorted.
    const double threshold = 0.01 * s.total_weight();
    const auto nfp = s.frequent_items(error_mode::no_false_positives, threshold);
    const auto nfn = s.frequent_items(error_mode::no_false_negatives, threshold);
    EXPECT_GE(nfn.size(), nfp.size());
}

TEST(ApiAlgorithms, ShardedBaselinesMatchStandaloneTotals) {
    const auto stream = test_stream(93, 60'000);
    for (const algo a : {algo::count_min, algo::count_sketch, algo::space_saving}) {
        auto lone = builder().algorithm(a).max_counters(k).seed(3).build();
        auto shard = builder().algorithm(a).max_counters(k).seed(3).sharded(2).build();
        lone.update(std::span<const update64>(stream.data(), stream.size()));
        shard.update(std::span<const update64>(stream.data(), stream.size()));
        shard.flush();
        EXPECT_DOUBLE_EQ(shard.total_weight(), lone.total_weight());
        // Shards partition the key space, so heavy estimates agree with the
        // standalone run for the deterministic backends.
        if (a != algo::count_sketch) {
            for (const auto& r : lone.top_items(5)) {
                EXPECT_GT(shard.estimate(r.id), 0.0);
            }
        }
    }
}

}  // namespace
}  // namespace freq
