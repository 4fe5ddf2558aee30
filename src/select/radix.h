#ifndef FREQ_SELECT_RADIX_H
#define FREQ_SELECT_RADIX_H

/// \file radix.h
/// Radix selection and sorting over the bit images of their keys, for the
/// two hot paths that used to compare elements one pair at a time:
///  * radix_select_quantile — Algorithm 4's c*, the quantile of the l
///    sampled counters. It returns exactly quickselect_quantile's value
///    (same rank rule, same r-th smallest element), but its passes are
///    counting loops with no data-dependent branch.
///  * radix_sort_by_key — the canonical row order of a saved envelope
///    (api/summary_bytes.h): rows ascending by their 64-bit key.
///
/// Selection works on the same-width unsigned image of each value. For
/// unsigned integers that image is the value; for non-negative signed
/// integers and non-negative IEEE floating-point values it orders exactly
/// like the value. Counters are always positive, so the counter buffers
/// selected here qualify; the selection checks the sign bits it reads.

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "common/contracts.h"
#include "select/quickselect.h"

namespace freq {

namespace detail {

/// The unsigned integer type as wide as \p T.
template <typename T>
using radix_image_t = std::conditional_t<
    sizeof(T) == 1, std::uint8_t,
    std::conditional_t<sizeof(T) == 2, std::uint16_t,
                       std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>>>;

}  // namespace detail

/// Quantile q in [0, 1] of \p v — the element quickselect_quantile returns,
/// found by an MSB-first radix select. Each round maps the remaining
/// candidates to 8-bit digits that never decrease as the value grows,
/// counts them, keeps the bucket that holds the rank and moves its elements
/// to the front of the buffer, until all candidates are equal.
///  * A digit is normally the 8 bits of the image that end at the highest
///    bit on which the candidates differ: bits above it are common to all.
///  * Counter samples are heavy-tailed — most of them sit far below the
///    largest — so for integers the first round buckets by magnitude
///    instead: the leading bit's position and the two bits after it. A
///    floating-point image already leads with its exponent.
/// Precondition: every element is >= 0 (positive zero for floating point).
/// Mutates \p v.
template <typename T>
T radix_select_quantile(std::span<T> v, double q) {
    static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool> && sizeof(T) <= 8,
                  "radix selection needs an integral or IEEE floating-point value");
    using U = detail::radix_image_t<T>;
    static_assert(sizeof(U) == sizeof(T));
    FREQ_REQUIRE(!v.empty(), "quantile of empty range");
    FREQ_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
    std::size_t rank = detail::quantile_rank(v.size(), q);
    const auto image = [](T x) { return std::bit_cast<U>(x); };

    U any = 0;        // OR of the candidates' images
    U every = ~U{0};  // AND of the candidates' images
    for (const T x : v) {
        any |= image(x);
        every &= image(x);
    }
    if constexpr (std::is_signed_v<T> || std::is_floating_point_v<T>) {
        FREQ_EXPECTS((any >> (8 * sizeof(T) - 1)) == 0);  // no negative value
    }
    std::size_t n = v.size();
    // One round: bucket the n candidates by digit(image), keep the rank's
    // bucket at the front of v (branch-free: every element is written to
    // the next kept position, which advances only on a match).
    const auto round = [&](auto digit) {
        std::array<std::uint32_t, 256> count{};
        for (std::size_t i = 0; i < n; ++i) {
            ++count[digit(image(v[i]))];
        }
        unsigned chosen = 0;
        while (rank >= count[chosen]) {
            rank -= count[chosen++];
        }
        any = 0;
        every = ~U{0};
        std::size_t kept = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const T x = v[i];
            const U bits = image(x);
            const U keep = static_cast<U>(U{0} - static_cast<U>(digit(bits) == chosen));
            v[kept] = x;
            kept += keep & 1u;
            any |= bits & keep;
            every &= bits | static_cast<U>(~keep);
        }
        n = kept;
    };
    if constexpr (std::is_integral_v<T>) {
        if (any != every) {
            round([](U bits) -> unsigned {
                if (bits < 4) {
                    return static_cast<unsigned>(bits);
                }
                const unsigned lead = floor_log2(bits);
                return (lead << 2) | static_cast<unsigned>((bits >> (lead - 2)) & 3u);
            });
        }
    }
    while (any != every) {  // some bit still tells candidates apart
        const unsigned top = floor_log2(static_cast<std::uint64_t>(any ^ every));
        const unsigned shift = top < 8 ? 0 : top - 7;
        round([shift](U bits) { return static_cast<unsigned>((bits >> shift) & 0xffu); });
    }
    return v[rank];
}

/// Sorts \p rows ascending by `key(row)`, a std::uint64_t, with an LSD byte
/// radix sort: one pass counts all eight bytes, then each byte on which the
/// keys differ scatters the rows stably through \p scratch. With distinct
/// keys the order is the one any comparison sort by key produces.
template <typename T, typename Key>
void radix_sort_by_key(std::vector<T>& rows, std::vector<T>& scratch, Key key) {
    const std::size_t n = rows.size();
    std::array<std::array<std::uint32_t, 256>, 8> count{};
    for (const T& row : rows) {
        const std::uint64_t k = key(row);
        for (unsigned b = 0; b < 8; ++b) {
            ++count[b][(k >> (8 * b)) & 0xff];
        }
    }
    scratch.resize(n);
    for (unsigned b = 0; b < 8; ++b) {
        if (n == 0 || count[b][(key(rows[0]) >> (8 * b)) & 0xff] == n) {
            continue;  // every key has the same byte here
        }
        std::uint32_t next = 0;
        for (std::uint32_t& c : count[b]) {
            next += std::exchange(c, next);
        }
        for (const T& row : rows) {
            scratch[count[b][(key(row) >> (8 * b)) & 0xff]++] = row;
        }
        rows.swap(scratch);
    }
}

}  // namespace freq

#endif  // FREQ_SELECT_RADIX_H
