#ifndef FREQ_SELECT_QUICKSELECT_H
#define FREQ_SELECT_QUICKSELECT_H

/// \file quickselect.h
/// Hoare's Find [Hoa61]: selection of the r-th smallest / largest element of
/// a scratch buffer, in expected O(n) time, in place.
///
/// The paper relies on Hoare's selection for Algorithm 3 (MED), the exact
/// k*-th largest counter during a decrement, and for the "Hoa61" merge
/// baseline of §3.1/§4.5, the k-th largest counter of the combined table.
/// Those callers (med_exact_sketch, generic_frequent_items' map-backed core
/// and merge_baselines) still use it. Algorithm 4's sampled quantile (SMED)
/// moved to radix_select_quantile (select/radix.h), which returns the same
/// value with branch-free counting passes.
/// Each step partitions three ways (Dijkstra's `<` / `==` / `>` split) around
/// the median of three randomly drawn elements and stops as soon as the rank
/// lands in the block equal to the pivot. Counter buffers are full of
/// duplicates — a decrement's samples hold a few hundred distinct values
/// with a hundred copies of the median — and the equal block retires every
/// copy of the pivot in one pass, so runs of equal values cost linear time
/// instead of the quadratic blowup of a two-way split. Random pivots make
/// the expected O(n) bound independent of the input order. The generator is
/// seeded from the buffer length, so a given buffer always yields the same
/// rearrangement; the selected value never depends on it.

#include <cstddef>
#include <span>
#include <utility>

#include "common/contracts.h"
#include "random/xoshiro.h"

namespace freq {

namespace detail {

/// Dijkstra's three-way partition of \p v around \p pivot. Returns [lt, gt)
/// such that v[0, lt) < pivot, v[lt, gt) == pivot and v[gt, n) > pivot.
/// Only `operator<` is used.
template <typename T>
std::pair<std::size_t, std::size_t> partition_three_way(std::span<T> v, const T pivot) {
    std::size_t lt = 0;
    std::size_t i = 0;
    std::size_t gt = v.size();
    while (i < gt) {
        if (v[i] < pivot) {
            std::swap(v[lt++], v[i++]);
        } else if (pivot < v[i]) {
            std::swap(v[i], v[--gt]);
        } else {
            ++i;
        }
    }
    return {lt, gt};
}

/// Median of three random elements (one for short ranges, where the extra
/// draws cost more than a lopsided split).
template <typename T>
T random_pivot(std::span<const T> v, xoshiro256ss& rng) {
    const auto draw = [&] { return v[static_cast<std::size_t>(rng.below(v.size()))]; };
    if (v.size() < 8) {
        return draw();
    }
    T a = draw();
    T b = draw();
    const T c = draw();
    if (b < a) {
        std::swap(a, b);
    }
    if (c < b) {
        return c < a ? a : c;
    }
    return b;
}

/// Rank of quantile \p q of \p n elements: floor(q * n), clamped to n - 1.
inline std::size_t quantile_rank(std::size_t n, double q) noexcept {
    const auto rank = static_cast<std::size_t>(q * static_cast<double>(n));
    return rank < n ? rank : n - 1;
}

}  // namespace detail

/// Rearranges \p v so that the r-th smallest element (0-based) is at index r,
/// with no larger element before it and no smaller one after it, and returns
/// it. Expected O(n) comparisons whatever the duplicates; mutates the buffer.
template <typename T>
T quickselect_smallest(std::span<T> v, std::size_t r) {
    FREQ_REQUIRE(!v.empty(), "quickselect on empty range");
    FREQ_REQUIRE(r < v.size(), "quickselect rank out of range");
    xoshiro256ss rng(0x9e3779b97f4a7c15ULL ^ v.size());
    // Invariant: v[lo, hi) holds rank r, everything before lo is no larger
    // than v[lo, hi) and everything from hi on is no smaller.
    std::size_t lo = 0;
    std::size_t hi = v.size();
    while (hi - lo > 1) {
        const std::span<T> range = v.subspan(lo, hi - lo);
        const auto [lt, gt] = detail::partition_three_way(
            range, detail::random_pivot(std::span<const T>(range), rng));
        if (r < lo + lt) {
            hi = lo + lt;
        } else if (r >= lo + gt) {
            lo += gt;
        } else {
            break;  // r landed in the block equal to the pivot
        }
    }
    return v[r];
}

/// r-th largest (0-based: r = 0 is the maximum). Expected O(n); mutates \p v.
template <typename T>
T quickselect_largest(std::span<T> v, std::size_t r) {
    FREQ_REQUIRE(r < v.size(), "quickselect rank out of range");
    return quickselect_smallest(v, v.size() - 1 - r);
}

/// Quantile q in [0, 1] of the buffer: q = 0 is the minimum, q = 0.5 the
/// median, q -> 1 the maximum (the Fig. 3 decrement-quantile sweep: SMIN is
/// q = 0, SMED is q = 0.5). The reference radix_select_quantile is tested
/// against. Mutates \p v.
template <typename T>
T quickselect_quantile(std::span<T> v, double q) {
    FREQ_REQUIRE(!v.empty(), "quantile of empty range");
    FREQ_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
    return quickselect_smallest(v, detail::quantile_rank(v.size(), q));
}

}  // namespace freq

#endif  // FREQ_SELECT_QUICKSELECT_H
