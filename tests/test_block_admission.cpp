/// Bulk admission in basic_frequent_items: Algorithm 5 merges and span
/// updates gather their rows into a fixed stack block, each row with its
/// home slot in the destination table, then admit the block row by row.
///
/// The per-row merge loop and the per-item span loop that the block kernel
/// replaced are kept here as references (reference_items). For plain u64
/// and double counters, fading summaries (rows the clock alignment scales
/// to zero included), windowed epoch folds and engine snapshot folds, the
/// kernel's destination must match the reference slot by slot (key, value,
/// state), with the same offset, N, decrement count and next-round c*.
/// Sources hold 0, 1, B − 1, B, B + 1 and many blocks of B rows, into
/// destinations of 1 to 4096 counters that are full, so decrement rounds
/// fire in the middle of blocks.
///
/// A second group counts heap allocations (replacement operators at the
/// bottom of this file): a steady-state merge into a full aggregate and a
/// 4096-row span update make none — the paper's merge needs no scratch
/// space, and the stack block keeps it so.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "core/basic_frequent_items.h"
#include "core/counter_maintenance.h"
#include "core/lifetime_policy.h"
#include "engine/stream_engine.h"
#include "random/xoshiro.h"
#include "stream/update.h"
#include "table/counter_table.h"

namespace {
/// Heap allocations made by the current thread (see the replacement
/// operators at the bottom of this file).
thread_local std::uint64_t thread_allocations = 0;
}  // namespace

namespace freq {
namespace {

/// A summary that can also admit rows the way the code did before the
/// block kernel: one claim_or_reduce per row straight on the table, which
/// hashes the key in find() and again in upsert().
template <typename W, typename Policy = plain_lifetime>
class reference_items : public basic_frequent_items<std::uint64_t, W, Policy> {
    using base = basic_frequent_items<std::uint64_t, W, Policy>;

public:
    using base::base;
    explicit reference_items(const base& b) : base(b) {}

    const counter_table<std::uint64_t, W>& table() const { return this->table_; }
    W raw_offset() const { return this->offset_; }
    W raw_total() const { return this->total_weight_; }
    W decrement() { return this->decrement_counters(); }

    /// The per-item span loop.
    void update_per_item(std::span<const update<std::uint64_t, W>> batch) {
        for (const auto& u : batch) {
            if (u.weight == W{0}) {
                continue;
            }
            W weight = u.weight;
            if constexpr (Policy::decaying) {
                weight = static_cast<W>(weight * this->policy_.inflation());
            }
            this->total_weight_ += weight;
            ingest_row(u.id, weight);
        }
    }

    /// The per-row merge loop of Algorithm 5.
    void merge_per_row(const reference_items& other) {
        if constexpr (Policy::decaying) {
            if (other.policy_.now() > this->policy_.now()) {
                this->tick(other.policy_.now() - this->policy_.now());
            }
            const double f = this->policy_.align_factor(other.policy_);
            const W combined_weight =
                this->total_weight_ + static_cast<W>(other.total_weight_ * f);
            if (!other.table_.empty()) {
                const auto start =
                    static_cast<std::uint32_t>(this->rng_.below(other.table_.num_slots()));
                other.table_.for_each_from(start, [&](std::uint64_t id, W c) {
                    const W v = static_cast<W>(c * f);
                    if (v > W{0}) {
                        ingest_row(id, v);
                    }
                });
            }
            this->offset_ += static_cast<W>(other.offset_ * f);
            this->total_weight_ = combined_weight;
        } else {
            const W combined_weight = this->total_weight_ + other.total_weight_;
            if (!other.table_.empty()) {
                const auto start =
                    static_cast<std::uint32_t>(this->rng_.below(other.table_.num_slots()));
                other.table_.for_each_from(start,
                                           [&](std::uint64_t id, W c) { ingest_row(id, c); });
            }
            this->offset_ += other.offset_;
            this->total_weight_ = combined_weight;
        }
    }

private:
    void ingest_row(std::uint64_t id, W weight) {
        detail::claim_or_reduce(this->table_, id, weight,
                                [&] { return this->decrement_counters(); });
    }
};

/// Slot-by-slot equality of two summaries, then equality of the next
/// decrement round's c* (which also compares the RNG states). Takes copies:
/// the extra round mutates them.
template <typename W, typename Policy>
void expect_same(reference_items<W, Policy> got, reference_items<W, Policy> want,
                 const std::string& what) {
    SCOPED_TRACE(what);
    const auto& g = got.table();
    const auto& w = want.table();
    ASSERT_EQ(g.num_slots(), w.num_slots());
    ASSERT_EQ(g.size(), w.size());
    for (std::uint32_t s = 0; s < g.num_slots(); ++s) {
        ASSERT_EQ(g.slot_state(s), w.slot_state(s)) << "slot " << s;
        if (g.slot_occupied(s)) {
            ASSERT_EQ(g.slot_key(s), w.slot_key(s)) << "slot " << s;
            ASSERT_EQ(g.slot_value(s), w.slot_value(s)) << "slot " << s;
        }
    }
    EXPECT_EQ(got.raw_offset(), want.raw_offset());
    EXPECT_EQ(got.raw_total(), want.raw_total());
    EXPECT_EQ(got.num_decrements(), want.num_decrements());
    if (!g.empty()) {
        EXPECT_EQ(got.decrement(), want.decrement());
    }
}

constexpr std::uint32_t block = 64;  // basic_frequent_items' block of rows

/// Rows per source: none, one, a block less one, a block, a block plus
/// one, and many blocks with a partial last one.
const std::vector<std::uint32_t> source_rows = {0, 1, block - 1, block, block + 1,
                                                7 * block + 13};

/// A weight drawn from a wide range, so some rows survive a decrement
/// round and others do not.
template <typename W>
W draw_weight(xoshiro256ss& rng) {
    if constexpr (std::is_floating_point_v<W>) {
        return static_cast<W>(1 + rng.below(1000)) / W{7};
    } else {
        return static_cast<W>(1 + rng.below(rng.below(4) == 0 ? 100000 : 100));
    }
}

/// A full summary: \p updates skewed updates (with decrement rounds, and
/// so an offset, once they exceed the capacity), then fresh ids until
/// every counter is taken.
template <typename W, typename Policy = plain_lifetime>
reference_items<W, Policy> fed(const sketch_config& cfg, std::uint32_t updates,
                               std::uint64_t seed) {
    reference_items<W, Policy> s(cfg);
    xoshiro256ss rng(seed);
    for (std::uint32_t i = 0; i < updates; ++i) {
        s.update(rng.below(rng.below(2) == 0 ? 64 : 1u << 20), draw_weight<W>(rng));
    }
    while (!s.table().full()) {
        s.update(rng() | (std::uint64_t{1} << 63), draw_weight<W>(rng));
    }
    return s;
}

/// A source holding exactly \p rows counters (distinct ids, no decrement).
template <typename W, typename Policy = plain_lifetime>
reference_items<W, Policy> source_of(std::uint32_t rows, std::uint64_t seed,
                                     double decay = 1.0) {
    reference_items<W, Policy> s(
        sketch_config{.max_counters = std::max<std::uint32_t>(rows, 1), .seed = seed,
                      .decay = decay});
    xoshiro256ss rng(seed * 31 + rows);
    for (std::uint32_t i = 0; i < rows; ++i) {
        s.update(rng(), draw_weight<W>(rng));
    }
    EXPECT_EQ(s.num_counters(), rows);
    return s;
}

/// Merges each source into a copy of \p dest twice — by the kernel and by
/// the per-row reference — and compares after every merge, so later merges
/// land on a full aggregate.
template <typename W, typename Policy>
void merge_chain(reference_items<W, Policy> dest,
                 const std::vector<reference_items<W, Policy>>& sources,
                 const std::string& what) {
    reference_items<W, Policy> want = dest;
    for (std::size_t i = 0; i < sources.size(); ++i) {
        dest.merge(sources[i]);
        want.merge_per_row(sources[i]);
        ASSERT_NO_FATAL_FAILURE(expect_same(dest, want, what + " source " + std::to_string(i)));
    }
}

class BlockAdmission : public ::testing::TestWithParam<std::uint32_t> {};

template <typename W>
void plain_merges(std::uint32_t k) {
    const sketch_config cfg{.max_counters = k, .seed = 11 + k};
    for (const std::uint32_t rows : source_rows) {
        std::vector<reference_items<W>> sources;
        for (std::uint64_t s = 0; s < 6; ++s) {
            sources.push_back(source_of<W>(rows, 1000 * rows + s));
        }
        // Sources that went through decrement rounds carry an offset.
        sources.push_back(fed<W>(sketch_config{.max_counters = std::max(rows, 1u), .seed = 5},
                                 4 * rows + 3, rows));
        ASSERT_NO_FATAL_FAILURE(merge_chain(reference_items<W>(cfg), sources,
                                            "empty dest, rows " + std::to_string(rows)));
        ASSERT_NO_FATAL_FAILURE(merge_chain(fed<W>(cfg, 3 * k + 50, k), sources,
                                            "full dest, rows " + std::to_string(rows)));
    }
}

TEST_P(BlockAdmission, U64MergeMatchesPerRowLoop) { plain_merges<std::uint64_t>(GetParam()); }
TEST_P(BlockAdmission, DoubleMergeMatchesPerRowLoop) { plain_merges<double>(GetParam()); }

/// Fading merges both ways round: the source ahead of the destination (the
/// destination ticks first) and behind it (rows scale down). Sources mix
/// ordinary weights with denormal ones that the alignment factor scales to
/// exactly zero, which the gather must skip.
TEST_P(BlockAdmission, FadingMergeMatchesPerRowLoop) {
    using fading = reference_items<double, exponential_fading>;
    const std::uint32_t k = GetParam();
    const sketch_config cfg{.max_counters = k, .seed = 3 + k, .decay = 0.5};
    for (const std::uint32_t rows : source_rows) {
        std::vector<fading> sources;
        for (std::uint64_t s = 0; s < 4; ++s) {
            fading src(sketch_config{.max_counters = std::max(rows, 1u), .seed = 70 + s,
                                     .decay = 0.5});
            xoshiro256ss rng(rows * 7 + s);
            for (std::uint32_t i = 0; i < rows; ++i) {
                src.update(rng(), i % 3 == 0 ? 1e-320 : draw_weight<double>(rng));
            }
            src.tick(s % 2 == 0 ? 2 : 40);  // 2: ahead of dest; 40: behind it
            sources.push_back(src);
        }
        fading dest = fed<double, exponential_fading>(cfg, 3 * k + 50, k);
        dest.tick(20);
        ASSERT_NO_FATAL_FAILURE(
            merge_chain(dest, sources, "fading, rows " + std::to_string(rows)));
    }
}

/// update(span) against the per-item loop, with zero weights mixed in, on
/// an empty and on a full destination, in batches around the block size.
template <typename W, typename Policy = plain_lifetime>
void span_updates(std::uint32_t k) {
    const sketch_config cfg{.max_counters = k, .seed = 17 + k, .decay = 0.75};
    xoshiro256ss rng(k);
    for (const bool full : {false, true}) {
        reference_items<W, Policy> got =
            full ? fed<W, Policy>(cfg, 3 * k + 50, k) : reference_items<W, Policy>(cfg);
        reference_items<W, Policy> want = got;
        for (const std::uint32_t n : {0u, 1u, block - 1, block, block + 1, 4096u}) {
            std::vector<update<std::uint64_t, W>> batch(n);
            for (auto& u : batch) {
                u.id = rng.below(rng.below(2) == 0 ? 32 : 1u << 16);
                u.weight = rng.below(8) == 0 ? W{0} : draw_weight<W>(rng);
            }
            got.update(std::span<const update<std::uint64_t, W>>(batch));
            want.update_per_item(batch);
            ASSERT_NO_FATAL_FAILURE(expect_same(
                got, want, (full ? "full" : "empty") + std::string(", batch ") +
                               std::to_string(n)));
            if constexpr (Policy::decaying) {
                got.tick();
                want.tick();
            }
        }
    }
}

TEST_P(BlockAdmission, U64SpanMatchesPerItemLoop) { span_updates<std::uint64_t>(GetParam()); }
TEST_P(BlockAdmission, DoubleSpanMatchesPerItemLoop) { span_updates<double>(GetParam()); }
TEST_P(BlockAdmission, FadingSpanMatchesPerItemLoop) {
    span_updates<double, exponential_fading>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Capacities, BlockAdmission,
                         ::testing::Values(1, 2, 3, 5, 12, 48, 64, 65, 96, 192, 1024, 4096));

/// A windowed summary's set queries fold its live epochs into a fresh plain
/// summary (summarize()). The epochs are rebuilt here as reference
/// summaries with the window's per-epoch seeds, and folded by the per-row
/// loop in ring order.
TEST(BlockAdmissionFolds, WindowedFoldMatchesPerRowLoop) {
    constexpr std::uint32_t window = 3;
    for (const std::uint32_t k : {5u, 64u, 1024u}) {
        SCOPED_TRACE("k = " + std::to_string(k));
        const sketch_config cfg{.max_counters = k, .seed = 9, .window_epochs = window};
        windowed_frequent_items<> sketch(cfg);
        std::vector<reference_items<std::uint64_t>> epochs;
        xoshiro256ss rng(k);
        constexpr std::uint32_t ticks = 5;
        for (std::uint64_t e = 0; e <= ticks; ++e) {
            sketch_config ecfg = cfg;
            ecfg.seed = cfg.seed + 0x9e37'79b9'7f4a'7c15ULL * e;  // the window's epoch seeds
            epochs.emplace_back(ecfg);
            for (std::uint32_t i = 0; i < 2 * k + 100 * e; ++i) {
                const std::uint64_t id = rng.below(rng.below(2) == 0 ? 16 : 1u << 20);
                const std::uint64_t w = draw_weight<std::uint64_t>(rng);
                sketch.update(id, w);
                epochs.back().update(id, w);
            }
            ASSERT_NO_FATAL_FAILURE(expect_same(
                reference_items<std::uint64_t>(sketch.current_epoch()), epochs.back(),
                "epoch " + std::to_string(e)));
            if (e < ticks) {
                sketch.tick();
            }
        }
        sketch_config scratch = cfg;
        scratch.seed = cfg.seed ^ 0x5769'6e64'6f77'5371ULL;  // summarize()'s table seed
        reference_items<std::uint64_t> want(scratch);
        for (std::uint32_t slot = 0; slot < window; ++slot) {  // ring order
            const std::uint64_t epoch = ticks - (ticks - slot) % window;
            if (!epochs[epoch].empty()) {
                want.merge_per_row(epochs[epoch]);
            }
        }
        ASSERT_NO_FATAL_FAILURE(
            expect_same(reference_items<std::uint64_t>(sketch.summarize()), want, "fold"));
    }
}

/// stream_engine::snapshot() merges a copy of each shard, in shard order,
/// into an empty summary of the engine's config; the per-row loop over
/// the shard copies of a view() must build the same summary.
TEST(BlockAdmissionFolds, EngineSnapshotMatchesPerRowLoop) {
    for (const std::uint32_t k : {12u, 1024u}) {
        SCOPED_TRACE("k = " + std::to_string(k));
        engine_config cfg;
        cfg.num_shards = 3;
        cfg.sketch = sketch_config{.max_counters = k, .seed = 21};
        stream_engine<> engine(cfg);
        {
            auto p = engine.make_producer();
            xoshiro256ss rng(k);
            for (std::uint32_t i = 0; i < 8 * k + 500; ++i) {
                p.push(rng.below(rng.below(2) == 0 ? 64 : 1u << 20),
                       draw_weight<std::uint64_t>(rng));
            }
            p.flush();
        }
        engine.flush();
        const auto snapshot = engine.snapshot();
        const auto view = engine.view();
        reference_items<std::uint64_t> want(cfg.sketch);
        for (const auto& part : view.parts()) {
            want.merge_per_row(reference_items<std::uint64_t>(part));
        }
        ASSERT_NO_FATAL_FAILURE(
            expect_same(reference_items<std::uint64_t>(snapshot), want, "snapshot"));
        EXPECT_GT(want.num_decrements(), 0u) << "the fold never decremented";
    }
}

// --- allocation-free merges and span updates -----------------------------------

/// A steady-state Algorithm 5 merge into a full aggregate — decrement
/// rounds included — allocates nothing, for plain and fading summaries.
TEST(BlockAdmissionAllocations, MergeIntoFullAggregateAllocatesNothing) {
    constexpr std::uint32_t k = 4096;
    auto aggregate = fed<std::uint64_t>(sketch_config{.max_counters = k, .seed = 1}, 4 * k, 1);
    std::vector<reference_items<std::uint64_t>> sources;
    for (std::uint64_t s = 0; s < 4; ++s) {
        sources.push_back(fed<std::uint64_t>(sketch_config{.max_counters = k, .seed = 10 + s},
                                             3 * k, 10 + s));
    }
    ASSERT_TRUE(aggregate.table().full());
    aggregate.merge(sources[0]);  // warm-up: first use of the telemetry registry
    const std::uint64_t decrements = aggregate.num_decrements();
    const std::uint64_t before = thread_allocations;
    for (std::size_t s = 1; s < sources.size(); ++s) {
        aggregate.merge(sources[s]);
    }
    EXPECT_EQ(thread_allocations - before, 0u) << "merges allocated";
    EXPECT_GT(aggregate.num_decrements(), decrements) << "no decrement fired during the merges";

    using fading = reference_items<double, exponential_fading>;
    const sketch_config fcfg{.max_counters = k, .seed = 2, .decay = 0.9};
    auto faded = fed<double, exponential_fading>(fcfg, 4 * k, 2);
    auto late = fed<double, exponential_fading>(fcfg, 3 * k, 3);
    late.tick(3);
    fading early = fed<double, exponential_fading>(fcfg, 3 * k, 4);
    faded.merge(early);
    const std::uint64_t fading_before = thread_allocations;
    faded.merge(late);   // the aggregate ticks forward to the source's clock
    faded.merge(early);  // the source's rows scale down
    EXPECT_EQ(thread_allocations - fading_before, 0u) << "fading merges allocated";
}

/// A 4096-row update(span) into a full summary allocates nothing.
TEST(BlockAdmissionAllocations, SpanUpdateAllocatesNothing) {
    constexpr std::uint32_t k = 1024;
    auto sketch = fed<std::uint64_t>(sketch_config{.max_counters = k, .seed = 4}, 4 * k, 4);
    std::vector<update<std::uint64_t, std::uint64_t>> batch(4096);
    xoshiro256ss rng(4);
    for (auto& u : batch) {
        u = {rng.below(1u << 20), draw_weight<std::uint64_t>(rng)};
    }
    const std::span<const update<std::uint64_t, std::uint64_t>> rows(batch);
    sketch.update(rows);  // warm-up
    const std::uint64_t decrements = sketch.num_decrements();
    const std::uint64_t before = thread_allocations;
    sketch.update(rows);
    EXPECT_EQ(thread_allocations - before, 0u) << "span update allocated";
    EXPECT_GT(sketch.num_decrements(), decrements) << "no decrement fired during the update";
}

}  // namespace
}  // namespace freq

// Counting replacements of the scalar allocation functions. Both new and
// delete are replaced, so every pointer they hand out comes back to them;
// kept out of line so g++ never sees a malloc'd pointer reach an inlined
// operator delete (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
    ++thread_allocations;
    if (void* p = std::malloc(n != 0 ? n : 1)) {
        return p;
    }
    throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
    ++thread_allocations;
    return std::malloc(n != 0 ? n : 1);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
