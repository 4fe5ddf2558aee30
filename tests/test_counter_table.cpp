#include "table/counter_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/simd.h"
#include "core/basic_frequent_items.h"
#include "core/lifetime_policy.h"
#include "random/xoshiro.h"

namespace freq {
namespace {

using table_u64 = counter_table<std::uint64_t, std::uint64_t>;

/// Structural invariant of §2.3.3: every occupied slot's state equals its
/// probe distance + 1, and the probe path from the key's preferred slot to
/// its current slot contains no empty cell (reachability).
template <typename K, typename W>
void check_invariants(const counter_table<K, W>& t) {
    std::uint32_t active = 0;
    for (std::uint32_t s = 0; s < t.num_slots(); ++s) {
        if (!t.slot_occupied(s)) {
            continue;
        }
        ++active;
        const std::uint32_t home = t.home_slot(t.slot_key(s));
        const std::uint32_t dist = (s - home) & (t.num_slots() - 1);
        ASSERT_EQ(t.slot_state(s), dist + 1) << "state mismatch at slot " << s;
        for (std::uint32_t d = 0; d < dist; ++d) {
            ASSERT_TRUE(t.slot_occupied((home + d) & (t.num_slots() - 1)))
                << "probe path broken for slot " << s;
        }
        ASSERT_GT(t.slot_value(s), W{0}) << "non-positive counter survived";
    }
    ASSERT_EQ(active, t.size());
}

TEST(CounterTable, RejectsBadCapacity) {
    EXPECT_THROW(table_u64(0), std::invalid_argument);
}

TEST(CounterTable, SlotCountFollowsPaperRule) {
    // L = ceil_pow2(4k/3): k=24576 -> 32768 slots -> 18*32768 bytes, the
    // paper's "24 * k bytes" (§2.3.3).
    table_u64 t(24576);
    EXPECT_EQ(t.num_slots(), 32768u);
    EXPECT_EQ(t.memory_bytes(), 18u * 32768u);
    EXPECT_EQ(t.memory_bytes(), 24u * 24576u);
    EXPECT_EQ(table_u64::bytes_for(24576), 24u * 24576u);
}

TEST(CounterTable, BytesForMatchesActualAllocation) {
    for (const std::uint32_t k : {1u, 2u, 3u, 7u, 100u, 1024u, 10'000u}) {
        EXPECT_EQ(table_u64(k).memory_bytes(), table_u64::bytes_for(k)) << "k=" << k;
    }
}

// The ISA name lands in benchmark records; it must never be empty.
TEST(CounterTable, BuildReportsAnIsa) { EXPECT_STRNE(simd::isa_name(), ""); }

TEST(CounterTable, InsertFindRoundTrip) {
    table_u64 t(16);
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.find(42), nullptr);
    EXPECT_TRUE(t.upsert(42, 7));
    ASSERT_NE(t.find(42), nullptr);
    EXPECT_EQ(*t.find(42), 7u);
    EXPECT_FALSE(t.upsert(42, 3));  // existing key accumulates
    EXPECT_EQ(*t.find(42), 10u);
    EXPECT_EQ(t.size(), 1u);
}

TEST(CounterTable, FillToCapacity) {
    table_u64 t(100);
    for (std::uint64_t i = 0; i < 100; ++i) {
        EXPECT_FALSE(t.full());
        t.upsert(i * 1000 + 1, i + 1);
    }
    EXPECT_TRUE(t.full());
    EXPECT_EQ(t.size(), 100u);
    for (std::uint64_t i = 0; i < 100; ++i) {
        ASSERT_NE(t.find(i * 1000 + 1), nullptr);
        EXPECT_EQ(*t.find(i * 1000 + 1), i + 1);
    }
    check_invariants(t);
}

TEST(CounterTable, DecrementAllRemovesNonPositive) {
    table_u64 t(8);
    t.upsert(1, 5);
    t.upsert(2, 10);
    t.upsert(3, 3);
    t.upsert(4, 3);
    const auto erased = t.decrement_all(3);
    EXPECT_EQ(erased, 2u);
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t.find(3), nullptr);
    EXPECT_EQ(t.find(4), nullptr);
    EXPECT_EQ(*t.find(1), 2u);
    EXPECT_EQ(*t.find(2), 7u);
    check_invariants(t);
}

TEST(CounterTable, DecrementAllOnEmptyTable) {
    table_u64 t(8);
    EXPECT_EQ(t.decrement_all(5), 0u);
}

TEST(CounterTable, DecrementEntireContents) {
    table_u64 t(32);
    for (std::uint64_t i = 1; i <= 32; ++i) {
        t.upsert(i, 4);
    }
    EXPECT_EQ(t.decrement_all(4), 32u);
    EXPECT_TRUE(t.empty());
    check_invariants(t);
    // The table must be fully reusable afterwards.
    for (std::uint64_t i = 100; i < 132; ++i) {
        t.upsert(i, 1);
    }
    EXPECT_EQ(t.size(), 32u);
    check_invariants(t);
}

TEST(CounterTable, EraseSingleKey) {
    table_u64 t(16);
    for (std::uint64_t i = 0; i < 16; ++i) {
        t.upsert(i, i + 1);
    }
    EXPECT_TRUE(t.erase(7));
    EXPECT_FALSE(t.erase(7));
    EXPECT_EQ(t.find(7), nullptr);
    EXPECT_EQ(t.size(), 15u);
    for (std::uint64_t i = 0; i < 16; ++i) {
        if (i != 7) {
            ASSERT_NE(t.find(i), nullptr) << i;
        }
    }
    check_invariants(t);
}

TEST(CounterTable, ForEachVisitsEverythingOnce) {
    table_u64 t(64);
    std::uint64_t expected_sum = 0;
    for (std::uint64_t i = 1; i <= 64; ++i) {
        t.upsert(i * 7919, i);
        expected_sum += i;
    }
    std::uint64_t sum = 0;
    std::uint32_t visits = 0;
    t.for_each([&](std::uint64_t, std::uint64_t c) {
        sum += c;
        ++visits;
    });
    EXPECT_EQ(sum, expected_sum);
    EXPECT_EQ(visits, 64u);
}

TEST(CounterTable, ForEachFromWrapsAround) {
    table_u64 t(16);
    for (std::uint64_t i = 1; i <= 16; ++i) {
        t.upsert(i, i);
    }
    for (std::uint32_t start = 0; start < t.num_slots(); start += 5) {
        std::uint32_t visits = 0;
        t.for_each_from(start, [&](std::uint64_t, std::uint64_t) { ++visits; });
        EXPECT_EQ(visits, 16u) << "start=" << start;
    }
}

/// for_each_from walks by 64-slot occupancy words; it must visit exactly
/// what the per-slot loop visits, in the same order, from every start slot.
/// Tables run from 2 to 8192 slots (below, at and across one word); each
/// has a cluster forced across the array's end and is checked full and
/// again after a decrement has punched holes into it.
TEST(CounterTable, ForEachFromMatchesSlotOrder) {
    for (std::uint32_t slots = 2; slots <= 8192; slots *= 2) {
        table_u64 t(std::max<std::uint32_t>(1, slots / 4 * 3), slots);
        ASSERT_EQ(t.num_slots(), slots);
        // Keys homed on the last slot: the second wraps to slot 0 (the
        // two-slot table holds only one counter).
        std::uint64_t key = 1;
        while (!t.full() && t.size() < 2) {
            if (t.home_slot(key) == slots - 1) {
                t.upsert(key, key % 100 + 1);
            }
            ++key;
        }
        ASSERT_EQ(t.slot_occupied(0), slots > 2);
        xoshiro256ss rng(slots);
        while (!t.full()) {
            t.upsert(rng() | 1, rng.between(1, 100));
        }
        for (const bool holes : {false, true}) {
            if (holes) {
                ASSERT_GT(t.decrement_all(50), 0u);
            }
            for (std::uint32_t start = 0; start < slots; ++start) {
                std::vector<std::pair<std::uint64_t, std::uint64_t>> want;
                for (std::uint32_t step = 0; step < slots; ++step) {
                    const std::uint32_t s = (start + step) % slots;
                    if (t.slot_occupied(s)) {
                        want.emplace_back(t.slot_key(s), t.slot_value(s));
                    }
                }
                std::vector<std::pair<std::uint64_t, std::uint64_t>> got;
                got.reserve(want.size());
                t.for_each_from(start, [&](std::uint64_t k, std::uint64_t c) {
                    got.emplace_back(k, c);
                });
                ASSERT_EQ(got, want) << "slots=" << slots << " start=" << start
                                     << " holes=" << holes;
            }
        }
    }
}

TEST(CounterTable, SeedChangesSlotAssignment) {
    counter_table<std::uint64_t, std::uint64_t> a(1024, /*hash_seed=*/1);
    counter_table<std::uint64_t, std::uint64_t> b(1024, /*hash_seed=*/2);
    int differing = 0;
    for (std::uint64_t k = 0; k < 1000; ++k) {
        differing += a.home_slot(k) != b.home_slot(k);
    }
    EXPECT_GT(differing, 950);
}

TEST(CounterTable, DoubleWeightsWork) {
    counter_table<std::uint64_t, double> t(8);
    t.upsert(1, 0.5);
    t.upsert(2, 1.25);
    t.decrement_all(0.5);
    EXPECT_EQ(t.find(1), nullptr);  // exactly zero is non-positive
    ASSERT_NE(t.find(2), nullptr);
    EXPECT_DOUBLE_EQ(*t.find(2), 0.75);
}

TEST(CounterTable, ClearEmptiesTable) {
    table_u64 t(8);
    t.upsert(1, 1);
    t.upsert(2, 2);
    t.clear();
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.find(1), nullptr);
    t.upsert(3, 3);
    EXPECT_EQ(t.size(), 1u);
}

// Regression for the decrement_all start-slot search: it used to scan
// unmasked from slot 0 every call, which on a table whose front is one long
// occupied cluster pays O(cluster) extra per decrement; the sweep now starts
// from the slot the previous decrement provably left empty. Churn a table at
// full capacity (load exactly 3/4, empty slots sparse and moving) through
// many decrement/refill cycles, so a stale or mistracked hint would either
// trip the scan bound or corrupt the compaction.
TEST(CounterTable, DecrementNearFullClusterChurn) {
    const std::uint32_t k = 768;  // L = 1024: capacity is exactly 3/4 load
    table_u64 t(k);
    std::unordered_map<std::uint64_t, std::uint64_t> oracle;
    xoshiro256ss rng(20260808);
    const auto refill = [&] {
        while (oracle.size() < k) {
            const std::uint64_t key = rng.below(4 * k);
            const std::uint64_t w = rng.between(1, 40);
            if (oracle.count(key) != 0 || oracle.size() < k) {
                t.upsert(key, w);
                oracle[key] += w;
            }
        }
    };
    refill();
    for (int round = 0; round < 60; ++round) {
        const std::uint64_t amount = rng.between(1, 12);
        const auto erased = t.decrement_all(amount);
        std::size_t oracle_erased = 0;
        for (auto it = oracle.begin(); it != oracle.end();) {
            if (it->second <= amount) {
                it = oracle.erase(it);
                ++oracle_erased;
            } else {
                it->second -= amount;
                ++it;
            }
        }
        ASSERT_EQ(erased, oracle_erased) << "round " << round;
        check_invariants(t);
        refill();
        ASSERT_EQ(t.size(), k) << "round " << round;
    }
    for (const auto& [key, w] : oracle) {
        const std::uint64_t* found = t.find(key);
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(*found, w);
    }
}

// scale_all's underflow cleanup is now a single decrement_all(0) compaction
// pass instead of a rescan plus per-key erase. Force genuine underflow with
// the minimum denormal (x * 0.25 rounds to zero) amid live neighbors and
// check the dead counters vanish while survivors scale and stay reachable.
TEST(CounterTable, ScaleAllUnderflowCompactsInOnePass) {
    counter_table<std::uint64_t, double> t(64);
    std::unordered_map<std::uint64_t, double> oracle;
    for (std::uint64_t i = 0; i < 48; ++i) {
        const double v = (i % 3 == 0) ? 4.9406564584124654e-324  // min denormal
                                      : static_cast<double>(i + 1);
        t.upsert(i, v);
        oracle[i] = v;
    }
    t.scale_all(0.25);
    std::size_t live = 0;
    for (auto& [key, v] : oracle) {
        v *= 0.25;
        const double* found = t.find(key);
        if (v > 0.0) {
            ++live;
            ASSERT_NE(found, nullptr) << key;
            EXPECT_EQ(*found, v) << key;
        } else {
            EXPECT_EQ(found, nullptr) << key;
        }
    }
    EXPECT_EQ(t.size(), live);
    EXPECT_LT(live, 48u);  // the denormals really did underflow
    check_invariants(t);
    // Table stays fully usable: refill over the compacted layout.
    for (std::uint64_t i = 100; i < 116; ++i) {
        t.upsert(i, 1.0);
    }
    check_invariants(t);
}

// Fuzz the full operation mix against a std::unordered_map oracle, checking
// structural invariants as we go. This is the key correctness argument for
// the in-place decrement-and-compact pass.
class CounterTableFuzz : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CounterTableFuzz, MatchesOracleUnderRandomOperations) {
    const std::uint32_t k = GetParam();
    table_u64 t(k);
    std::unordered_map<std::uint64_t, std::uint64_t> oracle;
    xoshiro256ss rng(k * 1234567 + 1);
    // Keys drawn from a small pool force collisions and long probe runs.
    const std::uint64_t key_pool = k * 2 + 3;

    for (int step = 0; step < 30'000; ++step) {
        const auto op = rng.below(100);
        if (op < 70) {  // upsert
            const std::uint64_t key = rng.below(key_pool);
            const std::uint64_t w = rng.between(1, 50);
            if (oracle.count(key) != 0 || oracle.size() < k) {
                t.upsert(key, w);
                oracle[key] += w;
            }
        } else if (op < 85) {  // decrement_all
            const std::uint64_t amount = rng.between(1, 30);
            const auto erased = t.decrement_all(amount);
            std::size_t oracle_erased = 0;
            for (auto it = oracle.begin(); it != oracle.end();) {
                if (it->second <= amount) {
                    it = oracle.erase(it);
                    ++oracle_erased;
                } else {
                    it->second -= amount;
                    ++it;
                }
            }
            ASSERT_EQ(erased, oracle_erased) << "step " << step;
        } else if (op < 95) {  // erase
            const std::uint64_t key = rng.below(key_pool);
            ASSERT_EQ(t.erase(key), oracle.erase(key) > 0) << "step " << step;
        } else {  // point lookups
            for (int probe = 0; probe < 5; ++probe) {
                const std::uint64_t key = rng.below(key_pool);
                const auto it = oracle.find(key);
                const std::uint64_t* found = t.find(key);
                if (it == oracle.end()) {
                    ASSERT_EQ(found, nullptr) << "step " << step;
                } else {
                    ASSERT_NE(found, nullptr) << "step " << step;
                    ASSERT_EQ(*found, it->second) << "step " << step;
                }
            }
        }
        if (step % 500 == 0) {
            check_invariants(t);
            ASSERT_EQ(t.size(), oracle.size());
        }
    }
    // Final full comparison.
    check_invariants(t);
    ASSERT_EQ(t.size(), oracle.size());
    for (const auto& [key, w] : oracle) {
        const std::uint64_t* found = t.find(key);
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(*found, w);
    }
}

INSTANTIATE_TEST_SUITE_P(Capacities, CounterTableFuzz,
                         ::testing::Values(1, 2, 3, 8, 31, 64, 257, 1024));

// --- reference sweep ---------------------------------------------------------

/// A table's slot arrays, copied out through the raw slot accessors.
template <typename W>
struct slot_image {
    std::vector<std::uint64_t> keys;
    std::vector<W> values;
    std::vector<std::uint16_t> states;
};

template <typename W>
slot_image<W> image_of(const counter_table<std::uint64_t, W>& t) {
    slot_image<W> img;
    for (std::uint32_t s = 0; s < t.num_slots(); ++s) {
        img.keys.push_back(t.slot_key(s));
        img.values.push_back(t.slot_value(s));
        img.states.push_back(t.slot_state(s));
    }
    return img;
}

/// Test-only reference for decrement_all: the single-pass sweep. It starts
/// just past an empty slot (scanning from the table's hint), walks once
/// around the array, vacates every counter and either drops it or
/// re-inserts it by probing from its preferred slot. Applied to \p img, a
/// copy of \p t's slots taken before t's own decrement_all; sets \p start
/// to the slot the next decrement scans from.
template <typename W>
std::uint32_t reference_decrement_all(const counter_table<std::uint64_t, W>& t,
                                      slot_image<W>& img, W amount, std::uint32_t& start) {
    const std::uint32_t n = t.num_slots();
    const std::uint32_t mask = n - 1;
    start = t.empty_hint();
    if (t.empty()) {
        return 0;
    }
    while (img.states[start] != 0) {
        start = (start + 1) & mask;
    }
    std::uint32_t erased = 0;
    for (std::uint32_t step = 1; step < n; ++step) {
        const std::uint32_t idx = (start + step) & mask;
        if (img.states[idx] == 0) {
            continue;
        }
        const std::uint64_t key = img.keys[idx];
        const W value = img.values[idx];
        img.states[idx] = 0;
        if (value <= amount) {
            ++erased;
            continue;
        }
        std::uint32_t target = t.home_slot(key);
        std::uint32_t dist = 0;
        while (img.states[target] != 0) {
            target = (target + 1) & mask;
            ++dist;
        }
        img.keys[target] = key;
        img.values[target] = value - amount;
        img.states[target] = static_cast<std::uint16_t>(dist + 1);
    }
    return erased;
}

/// Every slot's state, and key and value bits of every live slot, must
/// match. Empty slots' stale keys and values may legitimately differ.
template <typename W>
void expect_matches_image(const counter_table<std::uint64_t, W>& t,
                          const slot_image<W>& img, int step) {
    std::uint32_t live = 0;
    for (std::uint32_t s = 0; s < t.num_slots(); ++s) {
        ASSERT_EQ(t.slot_state(s), img.states[s]) << "step " << step << " slot " << s;
        if (img.states[s] != 0) {
            ++live;
            ASSERT_EQ(t.slot_key(s), img.keys[s]) << "step " << step << " slot " << s;
            const W v = t.slot_value(s);
            ASSERT_EQ(std::memcmp(&v, &img.values[s], sizeof(W)), 0)
                << "step " << step << " slot " << s;
        }
    }
    ASSERT_EQ(t.size(), live) << "step " << step;
}

/// Runs decrement_all on \p t and the reference sweep on a copy of its
/// slots, and compares the layouts, erase counts and next scan starts.
template <typename W>
void decrement_against_reference(counter_table<std::uint64_t, W>& t, W amount,
                                 int step) {
    slot_image<W> img = image_of(t);
    std::uint32_t start = 0;
    const std::uint32_t want = reference_decrement_all(t, img, amount, start);
    ASSERT_EQ(t.decrement_all(amount), want) << "step " << step;
    expect_matches_image(t, img, step);
    ASSERT_EQ(t.empty_hint(), start) << "step " << step;
}

/// A sketch-shaped history: upserts over a pool four times the capacity, a
/// decrement by a sampled live counter whenever a new key meets a full
/// table (as Algorithm 4 does), plus free-standing decrements, erases and,
/// for floating-point weights, scale_all (whose underflow cleanup is a
/// decrement_all(0)). Each decrement is checked against the reference.
template <typename W>
void reference_history(std::uint32_t k, std::uint64_t seed) {
    counter_table<std::uint64_t, W> t(k, seed);
    xoshiro256ss rng(seed * 31 + k);
    const auto weight = [&](std::uint64_t lo, std::uint64_t hi) {
        const auto w = static_cast<W>(rng.between(lo, hi));
        // Quarter steps keep floating-point ties (value == amount) common.
        return std::is_floating_point_v<W> ? static_cast<W>(w / 4) : w;
    };
    const std::uint64_t key_pool = 4 * static_cast<std::uint64_t>(k) + 3;
    const int steps = static_cast<int>(std::max<std::uint32_t>(4'000, 6 * k));
    bool reached_full = false;
    for (int step = 0; step < steps; ++step) {
        // Free-standing decrements and rescales are rare enough that large
        // tables still fill between them.
        const auto rare = rng.below(k + 16);
        const auto op = rng.below(100);
        if (rare == 0) {
            ASSERT_NO_FATAL_FAILURE(decrement_against_reference(t, weight(0, 60), step));
        } else if (op < 95) {
            const std::uint64_t key = rng.below(key_pool);
            if (t.find(key) == nullptr && t.full()) {
                reached_full = true;
                std::uint32_t s = 0;
                do {
                    s = static_cast<std::uint32_t>(rng.below(t.num_slots()));
                } while (!t.slot_occupied(s));
                ASSERT_NO_FATAL_FAILURE(decrement_against_reference(t, t.slot_value(s), step));
            }
            if (t.find(key) != nullptr || !t.full()) {
                t.upsert(key, weight(1, 50));
            }
        } else if (op < 98) {
            t.erase(rng.below(key_pool));
        }
        if constexpr (std::is_floating_point_v<W>) {
            if (rare == 1) {
                // Half the time a factor that underflows the smallest
                // counters to zero; the reference replays scale_all's
                // multiply exactly.
                const double tiny = std::is_same_v<W, float> ? 0x1p-150 : 0x1p-1074;
                const double factor = rng.below(2) == 0 ? tiny : 0.5;
                slot_image<W> img = image_of(t);
                bool underflow = false;
                for (std::uint32_t s = 0; s < t.num_slots(); ++s) {
                    if (img.states[s] != 0) {
                        img.values[s] = static_cast<W>(img.values[s] * factor);
                        underflow |= !(img.values[s] > W{0});
                    }
                }
                std::uint32_t start = t.empty_hint();
                if (underflow) {
                    reference_decrement_all(t, img, W{0}, start);
                }
                t.scale_all(factor);
                ASSERT_NO_FATAL_FAILURE(expect_matches_image(t, img, step));
                ASSERT_EQ(t.empty_hint(), start) << "step " << step;
            }
        }
    }
    EXPECT_TRUE(reached_full) << "history never filled the table";
}

// 1, 2 and 3 give two- and four-slot tables whose clusters wrap; 5, 12, 24,
// 48, 96 and 192 give 8 to 256 slots, below, at and across one 64-slot
// occupancy word of the hole-closing walk; 4096 runs a production-sized
// table through full-table decrement rounds.
class CounterTableReference : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CounterTableReference, U64MatchesSinglePassSweep) {
    reference_history<std::uint64_t>(GetParam(), 1);
}
TEST_P(CounterTableReference, U32MatchesSinglePassSweep) {
    reference_history<std::uint32_t>(GetParam(), 2);
}
TEST_P(CounterTableReference, I64MatchesSinglePassSweep) {
    reference_history<std::int64_t>(GetParam(), 3);
}
TEST_P(CounterTableReference, DoubleMatchesSinglePassSweep) {
    reference_history<double>(GetParam(), 4);
}
TEST_P(CounterTableReference, FloatMatchesSinglePassSweep) {
    reference_history<float>(GetParam(), 5);
}

/// u64 counters at and above 2^63, decremented by the amounts at the edges
/// of pass 1's borrow-bit compare: 0, 1, 2^63 − 1, 2^63 and 2^64 − 1, and
/// by live counters. Counters straddle 2^63 and sit near 2^64 − 1, so a
/// compare that gets the top bit wrong drops or keeps the wrong slots.
/// Each decrement is checked against the reference sweep.
void high_bit_history(std::uint32_t k, std::uint64_t seed) {
    constexpr std::uint64_t top = std::uint64_t{1} << 63;
    constexpr std::uint64_t amounts[] = {0, 1, top - 1, top, ~std::uint64_t{0}};
    counter_table<std::uint64_t, std::uint64_t> t(k, seed);
    xoshiro256ss rng(seed * 37 + k);
    const auto counter = [&]() -> std::uint64_t {
        switch (rng.below(4)) {
            case 0: return top - 16 + rng.below(32);         // straddles 2^63
            case 1: return ~std::uint64_t{0} - rng.below(8);  // near 2^64 − 1
            case 2: return 1 + rng.below(8);                   // small
            default: return top + (rng() >> 1);                // high half
        }
    };
    const int rounds = static_cast<int>(std::max<std::uint32_t>(60, k / 8));
    for (int round = 0; round < rounds; ++round) {
        while (!t.full()) {
            t.upsert(rng(), counter());
        }
        std::uint64_t amount = amounts[round % 5];
        if (round % 7 == 6) {  // a live counter, as Algorithm 4 picks c*
            std::uint32_t s = 0;
            do {
                s = static_cast<std::uint32_t>(rng.below(t.num_slots()));
            } while (!t.slot_occupied(s));
            amount = t.slot_value(s);
        }
        ASSERT_NO_FATAL_FAILURE(decrement_against_reference(t, amount, round));
    }
}

TEST_P(CounterTableReference, U64HighBitMatchesSinglePassSweep) {
    high_bit_history(GetParam(), 6);
}

INSTANTIATE_TEST_SUITE_P(Capacities, CounterTableReference,
                         ::testing::Values(1, 2, 3, 5, 12, 24, 48, 64, 96, 192, 4096));

// --- blocked set-query scan -----------------------------------------------------

/// A sketch that also answers frequent_items() with the per-slot loop the
/// blocked scan replaced: one branch on every slot's state, then the bound.
template <typename W, typename L>
struct scan_probe : basic_frequent_items<std::uint64_t, W, L> {
    using base = basic_frequent_items<std::uint64_t, W, L>;
    using typename base::row;
    using base::base;

    std::vector<row> reference_rows(error_type et, W threshold) const {
        std::vector<row> out;
        const auto& t = this->table_;
        for (std::uint32_t s = 0; s < t.num_slots(); ++s) {
            if (!t.slot_occupied(s)) {
                continue;
            }
            const W lb = this->present(t.slot_value(s));
            const W ub = this->present(t.slot_value(s) + this->offset_);
            if ((et == error_type::no_false_positives ? lb : ub) > threshold) {
                out.push_back(row{t.slot_key(s), ub, lb, ub});
            }
        }
        std::sort(out.begin(), out.end(),
                  [](const row& a, const row& b) { return a.estimate > b.estimate; });
        return out;
    }

    /// Whether some empty slot still holds a counter value — the stale
    /// input the blocked scan's bound sees and its state check discards.
    bool has_stale_empty_slot() const {
        for (std::uint32_t s = 0; s < this->table_.num_slots(); ++s) {
            if (!this->table_.slot_occupied(s) && this->table_.slot_value(s) != W{0}) {
                return true;
            }
        }
        return false;
    }
};

template <typename W, typename L>
void scan_matches_reference(std::uint32_t k, std::uint64_t seed) {
    sketch_config cfg{.max_counters = k, .seed = seed, .decay = 0.9};
    scan_probe<W, L> sk(cfg);
    xoshiro256ss rng(seed);
    const std::uint64_t pool = 4 * static_cast<std::uint64_t>(k) + 3;
    const std::uint64_t n = std::max<std::uint64_t>(3'000, 12 * static_cast<std::uint64_t>(k));
    for (std::uint64_t i = 0; i < n; ++i) {
        sk.update(rng.below(pool), static_cast<W>(rng.between(1, 40)));
        if constexpr (L::decaying) {
            if (i % 64 == 63) {
                sk.tick();
            }
        }
    }
    ASSERT_GT(sk.num_decrements(), 0u);
    ASSERT_TRUE(sk.has_stale_empty_slot()) << "no stale values to mask";
    const double n_w = static_cast<double>(sk.total_weight());
    for (const error_type et : {error_type::no_false_positives, error_type::no_false_negatives}) {
        for (const double frac : {0.0, 0.001, 0.01, 0.1, 0.5}) {
            const auto t = static_cast<W>(frac * n_w);
            ASSERT_EQ(sk.frequent_items(et, t), sk.reference_rows(et, t))
                << "k=" << k << " threshold=" << frac << "N";
        }
        ASSERT_EQ(sk.frequent_items(et), sk.reference_rows(et, sk.maximum_error()));
    }
}

class BlockedScan : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BlockedScan, U64PlainMatchesPerSlotLoop) {
    scan_matches_reference<std::uint64_t, plain_lifetime>(GetParam(), 11);
}
TEST_P(BlockedScan, U32PlainMatchesPerSlotLoop) {
    scan_matches_reference<std::uint32_t, plain_lifetime>(GetParam(), 12);
}
TEST_P(BlockedScan, I64PlainMatchesPerSlotLoop) {
    scan_matches_reference<std::int64_t, plain_lifetime>(GetParam(), 13);
}
TEST_P(BlockedScan, DoublePlainMatchesPerSlotLoop) {
    scan_matches_reference<double, plain_lifetime>(GetParam(), 14);
}
TEST_P(BlockedScan, FloatPlainMatchesPerSlotLoop) {
    scan_matches_reference<float, plain_lifetime>(GetParam(), 15);
}
TEST_P(BlockedScan, DoubleFadingMatchesPerSlotLoop) {
    scan_matches_reference<double, exponential_fading>(GetParam(), 16);
}
TEST_P(BlockedScan, FloatFadingMatchesPerSlotLoop) {
    scan_matches_reference<float, exponential_fading>(GetParam(), 17);
}

// k = 1, 2 and 5 give 2-, 4- and 8-slot tables: all-tail, all-tail and one
// exact block; 4096 runs full blocks of a production-sized table.
INSTANTIATE_TEST_SUITE_P(Capacities, BlockedScan, ::testing::Values(1, 2, 5, 4096));

}  // namespace
}  // namespace freq
