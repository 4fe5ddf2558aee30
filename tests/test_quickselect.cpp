#include "select/quickselect.h"
#include "select/radix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <utility>
#include <vector>

#include "random/xoshiro.h"

namespace freq {
namespace {

TEST(Quickselect, RejectsBadArguments) {
    std::vector<int> v{1, 2, 3};
    std::vector<int> empty;
    EXPECT_THROW(quickselect_smallest(std::span<int>(empty), 0), std::invalid_argument);
    EXPECT_THROW(quickselect_smallest(std::span<int>(v), 3), std::invalid_argument);
    EXPECT_THROW(quickselect_quantile(std::span<int>(v), -0.1), std::invalid_argument);
    EXPECT_THROW(quickselect_quantile(std::span<int>(v), 1.1), std::invalid_argument);
}

TEST(Quickselect, SingleElement) {
    std::vector<int> v{42};
    EXPECT_EQ(quickselect_smallest(std::span<int>(v), 0), 42);
    EXPECT_EQ(quickselect_largest(std::span<int>(v), 0), 42);
}

TEST(Quickselect, SmallKnownInput) {
    std::vector<int> v{5, 1, 4, 2, 3};
    EXPECT_EQ(quickselect_smallest(std::span<int>(v), 0), 1);
    v = {5, 1, 4, 2, 3};
    EXPECT_EQ(quickselect_smallest(std::span<int>(v), 2), 3);
    v = {5, 1, 4, 2, 3};
    EXPECT_EQ(quickselect_largest(std::span<int>(v), 0), 5);
    v = {5, 1, 4, 2, 3};
    EXPECT_EQ(quickselect_largest(std::span<int>(v), 1), 4);
}

TEST(Quickselect, AllEqualElements) {
    std::vector<std::uint64_t> v(1000, 7);
    for (const std::size_t r : {0ul, 499ul, 999ul}) {
        auto copy = v;
        EXPECT_EQ(quickselect_smallest(std::span<std::uint64_t>(copy), r), 7u);
    }
}

TEST(Quickselect, SortedAndReversedInputs) {
    std::vector<int> asc(2000);
    std::iota(asc.begin(), asc.end(), 0);
    auto desc = asc;
    std::reverse(desc.begin(), desc.end());
    for (const std::size_t r : {0ul, 1ul, 999ul, 1998ul, 1999ul}) {
        auto a = asc;
        auto d = desc;
        EXPECT_EQ(quickselect_smallest(std::span<int>(a), r), static_cast<int>(r));
        EXPECT_EQ(quickselect_smallest(std::span<int>(d), r), static_cast<int>(r));
    }
}

// Property sweep: on random buffers of many sizes, every rank agrees with
// the sorted order (the reference implementation).
class QuickselectProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QuickselectProperty, AgreesWithSortedOrder) {
    const std::size_t n = GetParam();
    xoshiro256ss rng(n * 7919 + 1);
    std::vector<std::uint64_t> v(n);
    for (auto& x : v) {
        x = rng.below(n / 2 + 2);  // force duplicates
    }
    auto sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t r = 0; r < n; r += std::max<std::size_t>(1, n / 17)) {
        auto copy = v;
        EXPECT_EQ(quickselect_smallest(std::span<std::uint64_t>(copy), r), sorted[r])
            << "n=" << n << " r=" << r;
    }
    // Largest is the mirror view.
    auto copy = v;
    EXPECT_EQ(quickselect_largest(std::span<std::uint64_t>(copy), 0), sorted.back());
}

INSTANTIATE_TEST_SUITE_P(Sizes, QuickselectProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 64, 257, 1024, 4096));

TEST(Quickselect, PartitionLeavesSelectedAtRank) {
    xoshiro256ss rng(5);
    std::vector<std::uint64_t> v(500);
    for (auto& x : v) {
        x = rng.below(1000);
    }
    const std::size_t r = 123;
    const auto val = quickselect_smallest(std::span<std::uint64_t>(v), r);
    EXPECT_EQ(v[r], val);
    for (std::size_t i = 0; i < r; ++i) {
        EXPECT_LE(v[i], val);
    }
    for (std::size_t i = r; i < v.size(); ++i) {
        EXPECT_GE(v[i], val);
    }
}

/// An element that counts the comparisons made on it, so a test can bound
/// the selection's work rather than time it.
struct counted {
    std::uint64_t v;
    static inline std::uint64_t comparisons = 0;
    friend bool operator<(const counted& a, const counted& b) {
        ++comparisons;
        return a.v < b.v;
    }
};

/// Linear time on duplicates: the decrement buffers the paper's algorithms
/// select from hold a few hundred distinct values with long runs of equal
/// ones. A two-way partition re-partitions every run of the pivot value and
/// goes quadratic (hundreds of comparisons per element on these inputs);
/// the three-way partition retires each run in one pass.
TEST(Quickselect, LinearComparisonsOnDuplicateHeavyInput) {
    constexpr std::size_t n = 1024;
    xoshiro256ss rng(17);
    std::vector<std::uint64_t> half_equal(n);
    std::vector<std::uint64_t> alphabet16(n);
    for (std::size_t i = 0; i < n; ++i) {
        half_equal[i] = rng.below(2) == 0 ? 500 : rng.below(1000);
        alphabet16[i] = rng.below(16);
    }
    const std::vector<std::uint64_t> all_equal(n, 7);
    const std::pair<const char*, const std::vector<std::uint64_t>*> inputs[] = {
        {"half equal", &half_equal}, {"16-value alphabet", &alphabet16},
        {"all equal", &all_equal}};
    for (const auto& [name, values] : inputs) {
        auto sorted = *values;
        std::sort(sorted.begin(), sorted.end());
        for (const double q : {0.0, 0.25, 0.5, 0.75, 0.999}) {
            std::vector<counted> v;
            for (const auto x : *values) {
                v.push_back({x});
            }
            counted::comparisons = 0;
            const counted got = quickselect_quantile(std::span<counted>(v), q);
            const auto rank = static_cast<std::size_t>(q * static_cast<double>(n));
            EXPECT_EQ(got.v, sorted[rank]) << name << " q=" << q;
            const double per_element =
                static_cast<double>(counted::comparisons) / static_cast<double>(n);
            EXPECT_LE(per_element, 8.0) << name << " q=" << q;
        }
    }
}

TEST(QuickselectQuantile, EndpointsAndMedian) {
    std::vector<int> v{9, 3, 7, 1, 5};
    auto c = v;
    EXPECT_EQ(quickselect_quantile(std::span<int>(c), 0.0), 1);  // minimum = SMIN
    c = v;
    EXPECT_EQ(quickselect_quantile(std::span<int>(c), 0.5), 5);  // median = SMED
    c = v;
    EXPECT_EQ(quickselect_quantile(std::span<int>(c), 0.999), 9);
}

TEST(QuickselectQuantile, MonotoneInQ) {
    xoshiro256ss rng(8);
    std::vector<std::uint64_t> v(1024);
    for (auto& x : v) {
        x = rng.below(1 << 20);
    }
    std::uint64_t prev = 0;
    for (double q = 0.0; q <= 1.0; q += 0.1) {
        auto copy = v;
        const auto val = quickselect_quantile(std::span<std::uint64_t>(copy), q);
        EXPECT_GE(val, prev) << "q=" << q;
        prev = val;
    }
}

// --- radix selection and sorting (select/radix.h) -------------------------

/// A non-negative value of T whose magnitude spans the type's range, as
/// heavy-tailed counters do: integers of a random bit length (the sign bit
/// cleared for signed types), or floating-point values whose exponents span
/// many octaves.
template <typename T>
T wide_value(xoshiro256ss& rng) {
    if constexpr (std::is_floating_point_v<T>) {
        const auto mantissa = static_cast<T>(rng.between(1, 1u << 20));
        return std::ldexp(mantissa, static_cast<int>(rng.below(61)) - 40);
    } else {
        constexpr unsigned bits = 8 * sizeof(T) - (std::is_signed_v<T> ? 1 : 0);
        return static_cast<T>((rng() >> (64 - bits)) >> rng.below(bits));
    }
}

/// The buffers c* is selected from, and their degenerate cases.
template <typename T>
std::vector<std::vector<T>> selection_buffers() {
    xoshiro256ss rng(sizeof(T) * 7 + std::is_floating_point_v<T>);
    std::vector<std::vector<T>> out;
    for (const std::size_t n : {1024u, 1000u, 7u}) {
        std::vector<T> random(n);
        for (auto& x : random) {
            x = wide_value<T>(rng);
        }
        out.push_back(random);
        // Duplicate-heavy: 12 distinct values, one of them on most slots,
        // some differing only in their low byte.
        std::vector<T> pool;
        for (int i = 0; i < 6; ++i) {
            const T v = wide_value<T>(rng);
            pool.push_back(v);
            if constexpr (std::is_floating_point_v<T>) {
                pool.push_back(std::nextafter(v, T{2} * v));
            } else {
                pool.push_back(static_cast<T>(v ^ 1));
            }
        }
        std::vector<T> dups(n);
        for (auto& x : dups) {
            x = rng.below(3) == 0 ? pool[rng.below(pool.size())] : pool[0];
        }
        out.push_back(dups);
        out.push_back(std::vector<T>(n, pool[3]));
    }
    out.push_back({wide_value<T>(rng)});
    out.push_back({T{0}, T{1}, T{0}, T{1}});  // zero is a valid image too
    return out;
}

template <typename T>
class RadixSelect : public ::testing::Test {};

using counter_types = ::testing::Types<std::uint64_t, std::uint32_t, std::int64_t, double, float>;
TYPED_TEST_SUITE(RadixSelect, counter_types);

TYPED_TEST(RadixSelect, ReturnsQuickselectQuantile) {
    using T = TypeParam;
    for (const auto& buffer : selection_buffers<T>()) {
        for (const double q : {0.0, 0.5, 0.999}) {
            auto a = buffer;
            auto b = buffer;
            const T want = quickselect_quantile(std::span<T>(a), q);
            const T got = radix_select_quantile(std::span<T>(b), q);
            EXPECT_EQ(std::memcmp(&got, &want, sizeof(T)), 0)
                << "n=" << buffer.size() << " q=" << q << " got " << got << " want " << want;
        }
    }
}

TEST(RadixSelect, RejectsBadArguments) {
    std::vector<std::uint64_t> v{1, 2, 3};
    std::vector<std::uint64_t> empty;
    EXPECT_THROW(radix_select_quantile(std::span<std::uint64_t>(empty), 0.5),
                 std::invalid_argument);
    EXPECT_THROW(radix_select_quantile(std::span<std::uint64_t>(v), 1.1),
                 std::invalid_argument);
    std::vector<double> negative{1.0, -2.0};
    EXPECT_THROW(radix_select_quantile(std::span<double>(negative), 0.5), std::logic_error);
}

TEST(RadixSortByKey, MatchesComparisonSort) {
    xoshiro256ss rng(5);
    for (const std::size_t n : {0u, 1u, 2u, 255u, 4096u}) {
        for (const std::uint64_t key_mask : {~std::uint64_t{0}, std::uint64_t{0xffff},
                                             std::uint64_t{0xff00'0000'00ff'0000}}) {
            std::vector<std::pair<std::uint64_t, std::uint32_t>> rows;
            for (std::size_t i = 0; i < n; ++i) {
                rows.emplace_back(rng() & key_mask, static_cast<std::uint32_t>(i));
            }
            auto want = rows;
            std::stable_sort(want.begin(), want.end(),
                             [](const auto& a, const auto& b) { return a.first < b.first; });
            std::vector<std::pair<std::uint64_t, std::uint32_t>> scratch;
            radix_sort_by_key(rows, scratch, [](const auto& r) { return r.first; });
            EXPECT_EQ(rows, want) << "n=" << n << " mask=" << key_mask;
        }
    }
}

}  // namespace
}  // namespace freq
