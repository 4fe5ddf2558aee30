/// SIMD/scalar parity: the group primitives in common/simd.h must agree
/// lane-for-lane with their always-compiled scalar references, and a
/// counter_table built on the group layout (UseSimd = true) must stay
/// BIT-IDENTICAL — same keys, same values, same states, slot by slot — to
/// the plain-probe-loop table (UseSimd = false) under arbitrary mixed
/// upsert / decrement_all / erase / scale_all sequences, for 8-byte and
/// 4-byte, integral and floating-point weights.
///
/// The suite runs in both CI legs: with an ISA compiled in it checks the
/// intrinsics against the scalar reference; under -DFREQ_SIMD_OFF it still
/// checks the group probe *control flow* (first-event logic, wrap handling)
/// against the plain loops, which is exactly the part a wrap/stale-key bug
/// would live in.

#include "common/simd.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "random/xoshiro.h"
#include "table/counter_table.h"

namespace freq {
namespace {

// --- primitive parity -------------------------------------------------------

TEST(SimdPrimitives, ReportsAnIsa) {
    // Informational: makes the active lane width visible in test logs.
    SUCCEED() << "simd isa: " << simd::isa_name();
    EXPECT_STRNE(simd::isa_name(), "");
}

TEST(SimdPrimitives, EmptyMaskMatchesScalar) {
    xoshiro256ss rng(11);
    std::uint16_t states[simd::group + 3];
    for (int iter = 0; iter < 50'000; ++iter) {
        for (auto& s : states) {
            // Bias heavily toward 0 so every empty/occupied pattern shows up.
            s = rng.below(3) == 0 ? 0 : static_cast<std::uint16_t>(rng.below(1u << 16));
        }
        for (std::size_t off = 0; off < 4; ++off) {  // unaligned starts too
            ASSERT_EQ(simd::empty_mask4(states + off),
                      simd::scalar::empty_mask4(states + off));
        }
    }
}

template <typename K>
void match_mask_parity(std::uint64_t seed) {
    xoshiro256ss rng(seed);
    K keys[simd::group + 3];
    for (int iter = 0; iter < 50'000; ++iter) {
        for (auto& k : keys) {
            // Small pool => frequent genuine matches (and multi-lane matches).
            k = static_cast<K>(rng.below(8) == 0 ? rng() : rng.below(6) - 3);
        }
        const K needle = static_cast<K>(rng.below(6) - 3);
        for (std::size_t off = 0; off < 4; ++off) {
            ASSERT_EQ(simd::match_mask4(keys + off, needle),
                      simd::scalar::match_mask4(keys + off, needle));
        }
    }
}

TEST(SimdPrimitives, MatchMaskMatchesScalarU64) { match_mask_parity<std::uint64_t>(21); }
TEST(SimdPrimitives, MatchMaskMatchesScalarI64) { match_mask_parity<std::int64_t>(22); }

// --- whole-table bit-identity ----------------------------------------------

template <typename W>
void expect_bit_identical(const counter_table<std::uint64_t, W, true>& simd_t,
                          const counter_table<std::uint64_t, W, false>& scalar_t) {
    ASSERT_EQ(simd_t.num_slots(), scalar_t.num_slots());
    ASSERT_EQ(simd_t.size(), scalar_t.size());
    for (std::uint32_t s = 0; s < simd_t.num_slots(); ++s) {
        ASSERT_EQ(simd_t.slot_state(s), scalar_t.slot_state(s)) << "slot " << s;
        if (simd_t.slot_occupied(s)) {
            ASSERT_EQ(simd_t.slot_key(s), scalar_t.slot_key(s)) << "slot " << s;
            const W a = simd_t.slot_value(s);
            const W b = scalar_t.slot_value(s);
            ASSERT_EQ(std::memcmp(&a, &b, sizeof(W)), 0) << "slot " << s;
        }
    }
}

template <typename W>
void mixed_sequence_bit_identity(std::uint32_t k, std::uint64_t seed) {
    counter_table<std::uint64_t, W, true> simd_t(k, seed);
    counter_table<std::uint64_t, W, false> scalar_t(k, seed);
    xoshiro256ss rng(seed * 977 + 5);
    const std::uint64_t key_pool = k * 2 + 3;
    for (int step = 0; step < 20'000; ++step) {
        const auto op = rng.below(100);
        if (op < 68) {
            const std::uint64_t key = rng.below(key_pool);
            const W w = static_cast<W>(rng.between(1, 50));
            if (simd_t.find(key) != nullptr || simd_t.size() < k) {
                ASSERT_EQ(simd_t.upsert(key, w), scalar_t.upsert(key, w));
            }
        } else if (op < 84) {
            const W amount = static_cast<W>(rng.between(1, 30));
            ASSERT_EQ(simd_t.decrement_all(amount), scalar_t.decrement_all(amount))
                << "step " << step;
        } else if (op < 94) {
            const std::uint64_t key = rng.below(key_pool);
            ASSERT_EQ(simd_t.erase(key), scalar_t.erase(key)) << "step " << step;
        } else if (op < 97) {
            if constexpr (std::is_floating_point_v<W>) {
                const double factor = 0.25 + 0.25 * static_cast<double>(rng.below(8));
                simd_t.scale_all(factor);
                scalar_t.scale_all(factor);
            }
        } else {
            const std::uint64_t key = rng.below(key_pool);
            const W* a = simd_t.find(key);
            const W* b = scalar_t.find(key);
            ASSERT_EQ(a == nullptr, b == nullptr) << "step " << step;
            if (a != nullptr) {
                ASSERT_EQ(std::memcmp(a, b, sizeof(W)), 0) << "step " << step;
            }
        }
        if (step % 1000 == 0) {
            expect_bit_identical(simd_t, scalar_t);
        }
    }
    expect_bit_identical(simd_t, scalar_t);
}

class SimdTableParity : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SimdTableParity, U64WeightsBitIdentical) {
    mixed_sequence_bit_identity<std::uint64_t>(GetParam(), 101);
}
TEST_P(SimdTableParity, I64WeightsBitIdentical) {
    mixed_sequence_bit_identity<std::int64_t>(GetParam(), 202);
}
TEST_P(SimdTableParity, DoubleWeightsBitIdentical) {
    mixed_sequence_bit_identity<double>(GetParam(), 303);
}
TEST_P(SimdTableParity, U32WeightsBitIdentical) {
    // 4-byte weights next to 8-byte keys.
    mixed_sequence_bit_identity<std::uint32_t>(GetParam(), 404);
}
TEST_P(SimdTableParity, FloatWeightsBitIdentical) {
    mixed_sequence_bit_identity<float>(GetParam(), 505);
}

// Tiny capacities force the < group fallback; mid sizes exercise wrap
// handling; 768 runs at exactly 3/4 load with long clusters.
INSTANTIATE_TEST_SUITE_P(Capacities, SimdTableParity,
                         ::testing::Values(1, 2, 3, 8, 64, 257, 768));

TEST(SimdTableParity, FindBatchAgreesWithFind) {
    counter_table<std::uint64_t, std::uint64_t, true> t(512, 9);
    xoshiro256ss rng(77);
    for (int i = 0; i < 400; ++i) {
        t.upsert(rng.below(1000), rng.between(1, 9));
    }
    std::uint64_t keys[33];
    std::uint64_t* results[33];
    for (int round = 0; round < 2'000; ++round) {
        const std::size_t n = 1 + rng.below(33);
        for (std::size_t i = 0; i < n; ++i) {
            keys[i] = rng.below(2000);  // ~half absent
        }
        t.find_batch(keys, n, results);
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(results[i], t.find(keys[i])) << "key " << keys[i];
        }
        if (results[0] != nullptr) {
            // probe_length_of must agree with the structural state.
            const auto state = t.probe_length_of(results[0]);
            ASSERT_GE(state, 1u);
        }
    }
}

}  // namespace
}  // namespace freq
