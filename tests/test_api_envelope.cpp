/// The unified serde envelope: any summary instantiation — every lifetime
/// policy, both key kinds, both backends, standalone or engine snapshot —
/// must round-trip bit-exactly (save → restore → save is byte-identical)
/// and answer queries identically after restoration. Also covers the
/// epoch-ring serde (windowed summaries keep evicting correctly after
/// crossing a machine boundary) and the envelope/template-layer interop.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "api/builder.h"
#include "api/summarizer.h"
#include "api/summary_bytes.h"
#include "core/frequent_items_sketch.h"
#include "stream/generators.h"

namespace freq {
namespace {

update_stream<std::uint64_t, std::uint64_t> small_stream(std::uint64_t seed) {
    zipf_stream_generator gen({.num_updates = 40'000,
                               .num_distinct = 5'000,
                               .alpha = 1.1,
                               .min_weight = 1,
                               .max_weight = 100,
                               .seed = seed});
    return gen.generate();
}

/// Ingests enough (with ticks for aging policies) to exercise decrements,
/// policy clocks and — for text keys — the spelling dictionary.
void feed(summarizer& s, std::uint64_t seed) {
    const bool text = s.descriptor().keys == key_kind::text;
    for (int epoch = 0; epoch < 3; ++epoch) {
        for (const auto& u : small_stream(seed + static_cast<std::uint64_t>(epoch))) {
            if (text) {
                s.update("item" + std::to_string(u.id % 2'000),
                         static_cast<double>(u.weight));
            } else {
                s.update(u.id, static_cast<double>(u.weight));
            }
        }
        if (s.descriptor().lifetime != lifetime_kind::plain && epoch < 2) {
            s.tick();
        }
    }
    s.flush();
}

/// Restored summaries must answer point queries identically — those are
/// layout-independent. (Set queries on *windowed* summaries run an epoch
/// fold whose tie-breaking depends on table slot layout, and the canonical
/// envelope legitimately rebuilds a different layout; their results agree
/// within the error envelope but not bit-for-bit, so they are not compared
/// row-by-row here.)
void expect_same_answers(const summarizer& a, const summarizer& b) {
    EXPECT_EQ(a.descriptor(), b.descriptor());
    EXPECT_DOUBLE_EQ(a.total_weight(), b.total_weight());
    EXPECT_DOUBLE_EQ(a.maximum_error(), b.maximum_error());
    EXPECT_EQ(a.num_counters(), b.num_counters());
    EXPECT_EQ(a.now(), b.now());
    const bool text = a.descriptor().keys == key_kind::text;
    for (const auto& r : a.top_items(32)) {
        if (text) {
            EXPECT_DOUBLE_EQ(a.estimate(r.item), b.estimate(r.item)) << r.item;
            EXPECT_DOUBLE_EQ(a.lower_bound(r.item), b.lower_bound(r.item)) << r.item;
            EXPECT_DOUBLE_EQ(a.upper_bound(r.item), b.upper_bound(r.item)) << r.item;
        } else {
            EXPECT_DOUBLE_EQ(a.estimate(r.id), b.estimate(r.id)) << r.id;
            EXPECT_DOUBLE_EQ(a.lower_bound(r.id), b.lower_bound(r.id)) << r.id;
            EXPECT_DOUBLE_EQ(a.upper_bound(r.id), b.upper_bound(r.id)) << r.id;
        }
    }
}

builder variant(int i) {
    builder b;
    b.max_counters(256).seed(11);
    switch (i) {
        case 0: b.plain(); break;
        case 1: b.fading(0.6); break;
        case 2: b.sliding_window(3); break;
        case 3: b.text_keys().plain(); break;
        case 4: b.text_keys().fading(0.6); break;
        case 5: b.text_keys().sliding_window(3); break;
        case 6: b.storage(storage::map).plain(); break;
        case 7: b.storage(storage::map).fading(0.6); break;
        case 8: b.plain().sharded(2); break;
        case 9: b.fading(0.6).sharded(2); break;
        case 10: b.sliding_window(3).sharded(2); break;
        case 11: b.text_keys().plain().sharded(2); break;
        case 12: b.text_keys().fading(0.6).sharded(2); break;
        case 13: b.text_keys().sliding_window(3).sharded(2); break;
        // The algorithm axis: every baseline instantiation the builder can
        // materialize, standalone and sharded.
        case 14: b.algorithm(algo::count_min).plain(); break;
        case 15: b.algorithm(algo::count_min).real_weights(); break;
        case 16: b.algorithm(algo::count_min).fading(0.6); break;
        case 17: b.algorithm(algo::count_sketch).plain(); break;
        case 18: b.algorithm(algo::space_saving).plain(); break;
        case 19: b.algorithm(algo::space_saving).fading(0.6); break;
        case 20: b.algorithm(algo::count_min).sharded(2); break;
        case 21: b.algorithm(algo::space_saving).sharded(2); break;
        // Real weights wherever the table offers them, standalone ...
        case 22: b.real_weights().plain(); break;
        case 23: b.real_weights().sliding_window(3); break;
        case 24: b.text_keys().real_weights().plain(); break;
        case 25: b.text_keys().real_weights().sliding_window(3); break;
        case 26: b.storage(storage::map).real_weights().plain(); break;
        case 27: b.algorithm(algo::space_saving).real_weights(); break;
        // ... and sharded, plus the remaining sharded baselines.
        case 28: b.real_weights().plain().sharded(2); break;
        case 29: b.real_weights().sliding_window(3).sharded(2); break;
        case 30: b.text_keys().real_weights().plain().sharded(2); break;
        case 31: b.text_keys().real_weights().sliding_window(3).sharded(2); break;
        case 32: b.algorithm(algo::count_min).real_weights().sharded(2); break;
        case 33: b.algorithm(algo::count_min).fading(0.6).sharded(2); break;
        case 34: b.algorithm(algo::count_sketch).sharded(2); break;
        case 35: b.algorithm(algo::space_saving).real_weights().sharded(2); break;
        default: b.algorithm(algo::space_saving).fading(0.6).sharded(2); break;
    }
    return b;
}

/// Every instantiation the builder materializes: 20 standalone sketch types
/// plus the 17 of them that shard (the map storage does not).
constexpr int num_variants = 37;

TEST(ApiEnvelope, BitExactRoundTripForEveryInstantiation) {
    std::set<std::string> covered;
    for (int i = 0; i < num_variants; ++i) {
        SCOPED_TRACE("variant " + std::to_string(i));
        auto s = variant(i).build();
        covered.insert(s.descriptor().to_string() + (s.sharded() ? " sharded" : ""));
        feed(s, 100 + static_cast<std::uint64_t>(i));
        const auto first = s.save();
        auto restored = restore_summary(first);
        EXPECT_EQ(restored.descriptor(), s.descriptor());
        const auto second = restored.save();
        EXPECT_TRUE(first == second) << "save -> restore -> save not byte-identical";
        if (s.sharded()) {
            expect_same_answers(s.snapshot(), restored);
        } else {
            expect_same_answers(s, restored);
        }
    }
    EXPECT_EQ(covered.size(), static_cast<std::size_t>(num_variants))
        << "two variants build the same instantiation";
}

TEST(ApiEnvelope, ShardedSnapshotsMergeIntoStandaloneSummaries) {
    for (const bool text : {false, true}) {
        SCOPED_TRACE(text ? "text" : "u64");
        builder b;
        b.keys(text ? key_kind::text : key_kind::u64).max_counters(256).seed(11);
        auto sharded = builder(b).sharded(2).build();
        feed(sharded, 1);
        auto built = b.build();
        feed(built, 2);
        auto restored = restore_summary(built.save());
        const auto snap = sharded.snapshot();
        for (summarizer* into : {&built, &restored}) {
            const double n = into->total_weight() + snap.total_weight();
            into->merge(snap);
            EXPECT_DOUBLE_EQ(into->total_weight(), n);
        }
        // A live sharded summarizer neither merges nor is merged: its
        // snapshot() is the mergeable form.
        EXPECT_THROW(sharded.merge(built), std::invalid_argument);
        EXPECT_THROW(built.merge(sharded), std::invalid_argument);
    }
}

TEST(ApiEnvelope, DescriptorSurvivesTheWire) {
    auto s = builder().text_keys().max_counters(128).seed(9).fading(0.75).build();
    s.update("hello", 2.0);
    const auto bytes = s.save();
    EXPECT_EQ(bytes.version(), summary_bytes::current_version);
    const auto& d = bytes.descriptor();
    EXPECT_EQ(d.keys, key_kind::text);
    EXPECT_EQ(d.weights, weight_kind::real);
    EXPECT_EQ(d.lifetime, lifetime_kind::fading);
    EXPECT_EQ(d.backend, backend_kind::table);
    EXPECT_EQ(d.sketch.max_counters, 128u);
    EXPECT_EQ(d.sketch.seed, 9u);
    EXPECT_DOUBLE_EQ(d.sketch.decay, 0.75);
}

TEST(ApiEnvelope, BaselineDescriptorCarriesTheAlgorithmTag) {
    auto s = builder().algorithm(algo::space_saving).max_counters(64).seed(4).build();
    s.update(std::uint64_t{1}, 3.0);
    const auto bytes = s.save();
    EXPECT_EQ(bytes.descriptor().algorithm, algo::space_saving);
    EXPECT_EQ(bytes.bytes()[10], static_cast<std::uint8_t>(algo::space_saving));
    auto restored = restore_summary(bytes);
    EXPECT_EQ(restored.descriptor().algorithm, algo::space_saving);
    EXPECT_DOUBLE_EQ(restored.estimate(1), 3.0);
}

TEST(ApiEnvelope, LegacyMinorImagesRestoreAsThePaperAlgorithm) {
    // Paper envelopes still write the pre-algorithm-tag minor versions (0
    // for u64, 1 for text) with a zero tag byte — byte-identical to what
    // older writers produced — and restore as algo::paper.
    auto u64s = builder().max_counters(32).seed(6).build();
    u64s.update(std::uint64_t{5}, 2.0);
    const auto u64b = u64s.save();
    EXPECT_EQ(u64b.bytes()[9], 0u) << "paper u64 images must stay minor 0";
    EXPECT_EQ(u64b.bytes()[10], 0u) << "legacy images carry a zero algorithm tag";
    EXPECT_EQ(restore_summary(u64b).descriptor().algorithm, algo::paper);

    auto texts = builder().text_keys().max_counters(32).seed(6).build();
    texts.update("word", 2.0);
    const auto textb = texts.save();
    EXPECT_EQ(textb.bytes()[9], 1u) << "paper text images must stay minor 1";
    EXPECT_EQ(textb.bytes()[10], 0u);
    EXPECT_EQ(restore_summary(textb).descriptor().algorithm, algo::paper);

    // A minor-<=1 image claiming a baseline algorithm is from the future of
    // that layout — rejected, not misread.
    auto bad = u64b.bytes();
    bad[10] = static_cast<std::uint8_t>(algo::count_min);
    EXPECT_THROW((void)restore_summary(std::move(bad)), std::invalid_argument);

    // Baseline envelopes need the tagged layout: minor 2.
    auto cms = builder().algorithm(algo::count_min).max_counters(32).build();
    cms.update(std::uint64_t{5}, 2.0);
    EXPECT_EQ(cms.save().bytes()[9], summary_bytes::current_minor_version);
}

TEST(ApiEnvelope, RestoredWindowedSummaryKeepsEvicting) {
    auto s = builder().max_counters(64).sliding_window(3).build();
    s.update(std::uint64_t{42}, 1'000.0);  // lands in epoch 0
    s.tick();
    s.update(std::uint64_t{7}, 10.0);  // epoch 1
    auto restored = restore_summary(s.save());
    EXPECT_EQ(restored.now(), 1u);
    EXPECT_DOUBLE_EQ(restored.estimate(42), 1'000.0);
    restored.tick();  // epoch 2: 42 still inside the 3-epoch window
    EXPECT_DOUBLE_EQ(restored.estimate(42), 1'000.0);
    restored.tick();  // epoch 3: epoch 0 slides out — 42 evicted exactly
    EXPECT_DOUBLE_EQ(restored.estimate(42), 0.0);
    EXPECT_DOUBLE_EQ(restored.estimate(7), 10.0);
}

TEST(ApiEnvelope, RestoredFadingSummaryKeepsDecaying) {
    auto s = builder().max_counters(64).fading(0.5).build();
    s.update(std::uint64_t{1}, 100.0);
    s.tick();
    s.update(std::uint64_t{2}, 100.0);
    auto restored = restore_summary(s.save());
    EXPECT_EQ(restored.now(), 1u);
    EXPECT_DOUBLE_EQ(restored.estimate(1), 50.0);
    EXPECT_DOUBLE_EQ(restored.estimate(2), 100.0);
    restored.tick();
    EXPECT_DOUBLE_EQ(restored.estimate(1), 25.0);
    EXPECT_DOUBLE_EQ(restored.estimate(2), 50.0);
}

TEST(ApiEnvelope, TemplateLayerInterop) {
    // A raw template-layer sketch saves into the same envelope the façade
    // reads, and a façade save loads back into the template layer.
    frequent_items_sketch<std::uint64_t, std::uint64_t> raw(
        sketch_config{.max_counters = 64, .seed = 5});
    raw.update(3, 30);
    raw.update(4, 40);
    auto via_facade = restore_summary(envelope_save(raw));
    EXPECT_DOUBLE_EQ(via_facade.estimate(4), 40.0);

    auto s = builder().max_counters(64).seed(5).build();
    s.update(std::uint64_t{8}, 80.0);
    const auto back = envelope_load<basic_frequent_items<std::uint64_t, std::uint64_t>>(
        s.save());
    EXPECT_EQ(back.estimate(8), 80u);
}

TEST(ApiEnvelope, EngineSnapshotShipsAsStandaloneSummary) {
    auto eng = builder().max_counters(128).seed(2).sharded(2).build();
    const auto stream = small_stream(7);
    eng.update(std::span<const update64>(stream.data(), stream.size()));
    eng.flush();
    auto restored = restore_summary(eng.save());
    EXPECT_FALSE(restored.sharded());
    EXPECT_DOUBLE_EQ(restored.total_weight(), eng.total_weight());
    // Restored snapshots are ordinary summaries: they merge.
    auto other = builder().max_counters(128).seed(3).build();
    other.update(std::uint64_t{1}, 5.0);
    const double n = restored.total_weight() + other.total_weight();
    restored.merge(other);
    EXPECT_DOUBLE_EQ(restored.total_weight(), n);
}

TEST(ApiEnvelope, WrongInstantiationLoadThrows) {
    auto s = builder().max_counters(32).fading(0.5).build();
    s.update(std::uint64_t{1}, 1.0);
    const auto bytes = s.save();
    using plain_u64 = basic_frequent_items<std::uint64_t, std::uint64_t>;
    using fading_text = string_frequent_items<double, exponential_fading>;
    EXPECT_THROW((void)envelope_load<plain_u64>(bytes), std::invalid_argument);
    EXPECT_THROW((void)envelope_load<fading_text>(bytes), std::invalid_argument);
}

TEST(ApiEnvelope, AcceptanceBoundRejectsOversizedCapacityBeforeAllocation) {
    auto big = builder().max_counters(1u << 12).build();
    big.update(std::uint64_t{1}, 5.0);
    const auto bytes = big.save();
    EXPECT_NO_THROW((void)restore_summary(bytes));
    EXPECT_THROW((void)restore_summary(bytes, /*max_accepted_counters=*/1u << 10),
                 std::invalid_argument);
}

TEST(ApiEnvelope, TrailingBytesRejected) {
    auto s = builder().max_counters(32).build();
    s.update(std::uint64_t{1}, 1.0);
    auto bytes = std::move(s.save()).take();
    bytes.push_back(0);
    EXPECT_THROW((void)restore_summary(std::move(bytes)), std::invalid_argument);
}

}  // namespace
}  // namespace freq
