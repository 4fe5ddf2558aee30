/// Partitioned views: the exact-reciprocal shard router must agree with `%`
/// everywhere; sharded reads routed over per-shard copies must honor the
/// paper's guarantees (brackets, |f - estimate| <= maximum_error(), NFN/NFP)
/// against exact ground truth for every lifetime and both key kinds, with
/// and without the snapshot service; a tick racing publishes must never
/// yield a view whose shards disagree on the clock; and a steady-state
/// publish must not allocate.

#include "engine/partitioned_view.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "api/builder.h"
#include "api/summarizer.h"
#include "core/basic_frequent_items.h"
#include "core/lifetime_policy.h"
#include "core/string_frequent_items.h"
#include "engine/stream_engine.h"
#include "hashing/hash.h"
#include "random/xoshiro.h"
#include "random/zipf.h"

namespace {
/// Heap allocations made by the current thread (see the replacement
/// operators at the bottom of this file).
thread_local std::uint64_t thread_allocations = 0;
}  // namespace

namespace freq {
namespace {

// --- routing -----------------------------------------------------------------

TEST(ShardRouter, ReciprocalModuloMatchesDivision) {
    std::vector<std::uint32_t> counts;
    for (std::uint32_t s = 1; s <= 64; ++s) {
        counts.push_back(s);
    }
    counts.push_back(4096);
    xoshiro256ss rng(2024);
    for (const std::uint32_t s : counts) {
        const shard_router r(s, 0);
        ASSERT_EQ(r.num_shards(), s);
        std::vector<std::uint64_t> edge = {0, ~std::uint64_t{0}, ~std::uint64_t{0} - 1};
        for (std::uint64_t m : {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{1} << 32,
                                ~std::uint64_t{0} / s}) {
            edge.push_back(m * s);
            edge.push_back(m * s - 1);
            edge.push_back(m * s + 1);
        }
        for (const std::uint64_t h : edge) {
            ASSERT_EQ(r.reduce(h), h % s) << "S=" << s << " h=" << h;
        }
        for (int i = 0; i < 1'000'000; ++i) {
            const std::uint64_t h = rng();
            ASSERT_EQ(r.reduce(h), h % s) << "S=" << s << " h=" << h;
        }
    }
}

TEST(ShardRouter, EngineRoutesLikeTheSaltedModulo) {
    engine_config cfg;
    cfg.num_shards = 3;
    cfg.sketch.seed = 11;
    stream_engine<> engine(cfg);
    const std::uint64_t salt = murmur_mix64(cfg.sketch.seed ^ 0x5368'6172'6445'6e67ULL);
    for (std::uint64_t id = 0; id < 10'000; ++id) {
        ASSERT_EQ(engine.shard_of(id), mix64(id ^ salt) % 3) << id;
    }
}

// --- partitioned reads against exact ground truth ----------------------------

enum class life { plain, fading, windowed };

constexpr double rho = 0.5;
constexpr std::uint32_t window = 3;
constexpr int epochs = 5;

/// Feeds \p s five epochs of a Zipf stream (a tick after each but the last)
/// and returns the exact frequencies the summary should report, keyed by
/// id (u64 keys) or by fingerprint (text keys "w<id>").
std::unordered_map<std::uint64_t, double> feed(summarizer& s, life l, bool text) {
    std::vector<std::unordered_map<std::uint64_t, double>> per_epoch;
    xoshiro256ss rng(7);
    zipf_distribution zipf(3'000, 1.1);
    for (int e = 0; e < epochs; ++e) {
        auto& epoch = per_epoch.emplace_back();
        for (int i = 0; i < 20'000; ++i) {
            const std::uint64_t id = zipf(rng);
            const double w = static_cast<double>(1 + rng.below(9));
            if (text) {
                const std::string word = "w" + std::to_string(id);
                s.update(std::string_view(word), w);
                epoch[string_frequent_items<>::fingerprint(word)] += w;
            } else {
                s.update(id, w);
                epoch[id] += w;
            }
        }
        if (e + 1 < epochs) {
            s.tick();
        }
    }
    s.flush();
    std::unordered_map<std::uint64_t, double> truth;
    for (int e = 0; e < epochs; ++e) {
        if (l == life::windowed && e + static_cast<int>(window) < epochs) {
            continue;  // slid out of the window
        }
        const double age = l == life::fading ? std::pow(rho, epochs - 1 - e) : 1.0;
        for (const auto& [key, f] : per_epoch[static_cast<std::size_t>(e)]) {
            truth[key] += f * age;
        }
    }
    return truth;
}

void check_guarantees(const summarizer& s, const std::unordered_map<std::uint64_t, double>& truth,
                      bool text) {
    double n = 0.0;
    for (const auto& [key, f] : truth) {
        n += f;
    }
    const double tol = 1e-9 * n;  // fading sums are exact up to rounding
    EXPECT_NEAR(s.total_weight(), n, tol);
    const double err = s.maximum_error();
    // Point queries route to the key's shard. Text keys are asked by
    // spelling, so map fingerprints back to the words that produced them.
    std::unordered_map<std::uint64_t, std::string> words;
    if (text) {
        for (std::uint64_t id = 1; id <= 3'000; ++id) {
            const std::string w = "w" + std::to_string(id);
            words.emplace(string_frequent_items<>::fingerprint(w), w);
        }
    }
    // Every heavy key and a sample of the rest: each unpublished point read
    // copies every shard.
    const double threshold = 0.001 * n;
    std::vector<std::uint64_t> probes;
    for (const auto& [key, f] : truth) {
        if (f > threshold / 2 || key % 16 == 0) {
            probes.push_back(key);
        }
    }
    for (const std::uint64_t key : probes) {
        const double f = truth.at(key);
        double lo = 0;
        double hi = 0;
        double est = 0;
        if (text) {
            const std::string_view w = words.at(key);
            lo = s.lower_bound(w);
            hi = s.upper_bound(w);
            est = s.estimate(w);
        } else {
            lo = s.lower_bound(key);
            hi = s.upper_bound(key);
            est = s.estimate(key);
        }
        ASSERT_LE(lo, f + tol) << key;
        ASSERT_GE(hi, f - tol) << key;
        ASSERT_LE(std::fabs(f - est), err + tol) << key;
    }
    std::unordered_set<std::uint64_t> reported;
    for (const auto& r : s.frequent_items(error_mode::no_false_negatives, threshold)) {
        reported.insert(r.id);
        const double f = truth.contains(r.id) ? truth.at(r.id) : 0.0;
        EXPECT_LE(r.lower_bound, f + tol) << r.id;
        EXPECT_GE(r.upper_bound, f - tol) << r.id;
    }
    for (const auto& [key, f] : truth) {
        if (f > threshold + tol) {
            EXPECT_TRUE(reported.contains(key)) << "false negative " << key << " f=" << f;
        }
    }
    for (const auto& r : s.frequent_items(error_mode::no_false_positives, threshold)) {
        ASSERT_TRUE(truth.contains(r.id)) << r.id;
        EXPECT_GT(truth.at(r.id) + tol, threshold) << "false positive " << r.id;
    }
}

TEST(PartitionedReads, HonorGuaranteesForEveryLifetimeAndKeyKind) {
    for (const life l : {life::plain, life::fading, life::windowed}) {
        for (const bool text : {false, true}) {
            for (const bool service : {false, true}) {
                SCOPED_TRACE(std::string(l == life::plain    ? "plain"
                                         : l == life::fading ? "fading"
                                                             : "windowed") +
                             (text ? " text" : " u64") + (service ? " service" : " direct"));
                builder b;
                b.max_counters(256).seed(5).sharded(3);
                if (text) {
                    b.text_keys();
                }
                if (l == life::fading) {
                    b.fading(rho);
                } else if (l == life::windowed) {
                    b.sliding_window(window);
                }
                if (service) {
                    b.snapshot_every(std::chrono::milliseconds(1));
                }
                auto s = b.build();
                const auto truth = feed(s, l, text);
                check_guarantees(s, truth, text);
                // Each key's bounds carry only its own shard's offset, never
                // more than the merged snapshot's summed offsets.
                EXPECT_LE(s.maximum_error(), s.snapshot().maximum_error());
                EXPECT_GT(s.num_counters(), s.capacity()) << "counters are summed over shards";
            }
        }
    }
}

TEST(PartitionedReads, PublishedAndUnpublishedViewsAgree) {
    engine_config cfg;
    cfg.num_shards = 3;
    cfg.sketch = sketch_config{.max_counters = 128, .seed = 3};
    stream_engine<> engine(cfg);
    engine.enable_snapshot_service(std::chrono::hours(1));
    {
        auto p = engine.make_producer();
        xoshiro256ss rng(4);
        for (int i = 0; i < 50'000; ++i) {
            p.push(rng.below(2'000), 1 + rng.below(5));
        }
    }
    engine.flush();
    const auto published = engine.acquire_snapshot();
    const auto direct = engine.view();
    EXPECT_EQ(published->total_weight(), direct.total_weight());
    EXPECT_EQ(published->maximum_error(), direct.maximum_error());
    EXPECT_EQ(published->num_counters(), direct.num_counters());
    for (std::uint64_t id = 0; id < 2'000; ++id) {
        ASSERT_EQ(published->estimate(id), direct.estimate(id)) << id;
    }
    const auto rows = direct.frequent_items(error_type::no_false_negatives, 100);
    EXPECT_EQ(published->frequent_items(error_type::no_false_negatives, 100), rows);
    for (std::size_t i = 1; i < rows.size(); ++i) {
        EXPECT_GE(rows[i - 1].estimate, rows[i].estimate) << "rows merged by estimate";
    }
    const auto top = direct.top_items(10);
    ASSERT_EQ(top.size(), 10u);
    EXPECT_EQ(top.front().estimate, rows.front().estimate);
    EXPECT_GE(top.back().estimate, rows[9].estimate);
}

// --- clock consistency --------------------------------------------------------

/// Every part of a view must sit at one lifetime clock: advance_epoch()'s
/// tick loop and the copy loops of publishes and unpublished views exclude
/// each other.
template <typename View>
void expect_one_clock(const View& v) {
    for (const auto& part : v.parts()) {
        ASSERT_EQ(part.now(), v.now());
    }
}

TEST(PartitionedReads, TicksRacingPublishesNeverMixClocks) {
    // One-epoch windows make every tick replace a whole k-sized table, so
    // the tick loop lasts long enough for an unguarded copy to land inside.
    engine_config cfg;
    cfg.num_shards = 4;
    cfg.sketch = sketch_config{.max_counters = 8192, .seed = 9, .window_epochs = 1};
    stream_engine<std::uint64_t, std::uint64_t, windowed_frequent_items<>> engine(cfg);
    engine.enable_snapshot_service(std::chrono::microseconds(50));
    constexpr std::uint64_t ticks = 200;
    std::atomic<bool> done{false};
    std::thread ticker([&] {
        auto p = engine.make_producer();
        for (std::uint64_t t = 0; t < ticks; ++t) {
            p.push(t, 1);
            p.flush();
            engine.advance_epoch();
        }
        done.store(true, std::memory_order_release);
    });
    std::uint64_t views = 0;
    while (!done.load(std::memory_order_acquire)) {
        expect_one_clock(*engine.acquire_snapshot());
        expect_one_clock(engine.view());
        ++views;
    }
    ticker.join();
    EXPECT_GT(views, 0u);
    EXPECT_EQ(engine.acquire_snapshot()->now(), ticks);  // the last tick republished
}

// --- allocation-free publishes --------------------------------------------------

TEST(PartitionedReads, SteadyStatePublishIsAllocationFree) {
    engine_config cfg;
    cfg.num_shards = 2;
    cfg.sketch = sketch_config{.max_counters = 1024, .seed = 1};
    stream_engine<> engine(cfg);
    engine.enable_snapshot_service(std::chrono::hours(1));  // publishes on demand only
    auto p = engine.make_producer();
    std::vector<update64> batch;
    xoshiro256ss rng(6);
    for (int i = 0; i < 4'096; ++i) {
        batch.push_back(update64{rng.below(500), 1 + rng.below(9)});
    }
    // Warm up: every shard copied into both pooled views at full size.
    for (int round = 0; round < 3; ++round) {
        p.push(std::span<const update64>(batch));
        p.flush();
        engine.flush();
    }
    engine.publish_snapshot_now();

    const std::uint64_t before_clean = thread_allocations;
    for (int i = 0; i < 16; ++i) {
        engine.publish_snapshot_now();
    }
    EXPECT_EQ(thread_allocations - before_clean, 0u) << "nothing-dirty publishes allocated";

    const std::uint64_t before_dirty = thread_allocations;
    for (int i = 0; i < 16; ++i) {
        p.push(std::span<const update64>(batch));  // ids already resident
        p.flush();
        engine.flush();  // applied barrier + publish of the dirty shards
    }
    EXPECT_EQ(thread_allocations - before_dirty, 0u) << "dirty-shard publishes allocated";
    EXPECT_EQ(engine.acquire_snapshot()->total_weight(), engine.view().total_weight());
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
