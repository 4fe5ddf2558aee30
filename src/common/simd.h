#ifndef FREQ_COMMON_SIMD_H
#define FREQ_COMMON_SIMD_H

/// \file simd.h
/// The freq::simd capability layer: small fixed-width group primitives the
/// counter table's probe loops (table/counter_table.h) are written against,
/// with the best available implementation selected at *compile time*:
///
///   AVX2   (x86, -mavx2 / -march=native)  4 x 64-bit lanes per op
///   SSE2   (x86-64 baseline)              2 x 64-bit lanes, issued twice
///   NEON   (aarch64)                      2 x 64-bit lanes, issued twice
///   scalar (anything else, or -DFREQ_SIMD_OFF)
///
/// Every primitive operates on a GROUP of 4 consecutive lanes and reports
/// per-lane results as a bitmask (bit i <-> lane i), so the table's probe
/// loops are written once against the group API and are bit-identical
/// across implementations — a property tests/test_simd_parity.cpp checks by
/// running the scalar reference (always compiled, namespace simd::scalar)
/// against the dispatched implementation on the same inputs.
///
/// -DFREQ_SIMD_OFF (CMake option, CI matrix leg) removes every intrinsic
/// from the build: simd::compiled becomes false, the dispatched functions
/// collapse to the scalar reference, and counter_table's default template
/// argument disables the group-probe layout entirely — the configuration a
/// machine without any of the above ISAs builds.

#include <cstddef>
#include <cstdint>
#include <cstring>

#if !defined(FREQ_SIMD_OFF)
#if defined(__AVX2__)
#define FREQ_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64)
#define FREQ_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define FREQ_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif  // !FREQ_SIMD_OFF

namespace freq::simd {

/// Lanes per group op. The table's probe loops advance in strides of this.
inline constexpr std::size_t group = 4;

/// True when an ISA-specific implementation is compiled in. With this false
/// the dispatched functions below are the scalar reference — same results,
/// no intrinsics.
#if defined(FREQ_SIMD_AVX2) || defined(FREQ_SIMD_SSE2) || defined(FREQ_SIMD_NEON)
inline constexpr bool compiled = true;
#else
inline constexpr bool compiled = false;
#endif

/// Default for counter_table's UseSimd parameter: use the group layout
/// exactly when an ISA backs it (the group layout with scalar primitives is
/// correct but not faster than the plain probe loop).
inline constexpr bool enabled = compiled;

constexpr const char* isa_name() noexcept {
#if defined(FREQ_SIMD_AVX2)
    return "avx2";
#elif defined(FREQ_SIMD_SSE2)
    return "sse2";
#elif defined(FREQ_SIMD_NEON)
    return "neon";
#else
    return "scalar";
#endif
}

// --- scalar reference (always compiled; the parity oracle) -------------------

namespace scalar {

/// Bit i set iff states[i] == 0 (exact, all four lanes).
inline std::uint32_t empty_mask4(const std::uint16_t* states) noexcept {
    std::uint32_t m = 0;
    for (std::size_t i = 0; i < group; ++i) {
        m |= static_cast<std::uint32_t>(states[i] == 0) << i;
    }
    return m;
}

/// Bit i set iff keys[i] == needle. Comparison is bitwise over the 8-byte
/// representation, so it serves any 8-byte integral key type.
template <typename K>
inline std::uint32_t match_mask4(const K* keys, K needle) noexcept {
    std::uint32_t m = 0;
    for (std::size_t i = 0; i < group; ++i) {
        m |= static_cast<std::uint32_t>(keys[i] == needle) << i;
    }
    return m;
}

}  // namespace scalar

// --- dispatched implementations ----------------------------------------------

#if defined(FREQ_SIMD_AVX2)

inline std::uint32_t empty_mask4(const std::uint16_t* states) noexcept {
    // 4 x u16 fit one 64-bit lane; SSE compare-eq-16 then compress the
    // 2-bits-per-lane byte mask down to 1 bit per lane.
    const __m128i s = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(states));
    const __m128i eq = _mm_cmpeq_epi16(s, _mm_setzero_si128());
    const std::uint32_t bytes = static_cast<std::uint32_t>(_mm_movemask_epi8(eq));
    return ((bytes >> 0) & 1u) | ((bytes >> 1) & 2u) | ((bytes >> 2) & 4u) |
           ((bytes >> 3) & 8u);
}

template <typename K>
inline std::uint32_t match_mask4(const K* keys, K needle) noexcept {
    static_assert(sizeof(K) == 8, "group key compare is for 8-byte keys");
    std::uint64_t bits;
    std::memcpy(&bits, &needle, sizeof(bits));
    const __m256i k = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys));
    const __m256i eq = _mm256_cmpeq_epi64(k, _mm256_set1_epi64x(
                                                 static_cast<long long>(bits)));
    return static_cast<std::uint32_t>(_mm256_movemask_pd(_mm256_castsi256_pd(eq)));
}

#elif defined(FREQ_SIMD_SSE2)

inline std::uint32_t empty_mask4(const std::uint16_t* states) noexcept {
    const __m128i s = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(states));
    const __m128i eq = _mm_cmpeq_epi16(s, _mm_setzero_si128());
    const std::uint32_t bytes = static_cast<std::uint32_t>(_mm_movemask_epi8(eq));
    return ((bytes >> 0) & 1u) | ((bytes >> 1) & 2u) | ((bytes >> 2) & 4u) |
           ((bytes >> 3) & 8u);
}

namespace detail {
/// 2-lane 64-bit equality via paired 32-bit compares (SSE2 has no
/// cmpeq_epi64): a lane matches iff both halves match.
inline std::uint32_t match_mask2(const __m128i v, const __m128i needle) noexcept {
    const __m128i eq32 = _mm_cmpeq_epi32(v, needle);
    const __m128i eq64 =
        _mm_and_si128(eq32, _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1)));
    return static_cast<std::uint32_t>(_mm_movemask_pd(_mm_castsi128_pd(eq64)));
}
}  // namespace detail

template <typename K>
inline std::uint32_t match_mask4(const K* keys, K needle) noexcept {
    static_assert(sizeof(K) == 8, "group key compare is for 8-byte keys");
    std::uint64_t bits;
    std::memcpy(&bits, &needle, sizeof(bits));
    const __m128i n = _mm_set1_epi64x(static_cast<long long>(bits));
    const __m128i lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys));
    const __m128i hi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys + 2));
    return detail::match_mask2(lo, n) | (detail::match_mask2(hi, n) << 2);
}

#elif defined(FREQ_SIMD_NEON)

inline std::uint32_t empty_mask4(const std::uint16_t* states) noexcept {
    const uint16x4_t s = vld1_u16(states);
    const uint16x4_t eq = vceq_u16(s, vdup_n_u16(0));
    const std::uint64_t lanes = vget_lane_u64(vreinterpret_u64_u16(eq), 0);
    return static_cast<std::uint32_t>(((lanes >> 0) & 1u) | ((lanes >> 15) & 2u) |
                                      ((lanes >> 30) & 4u) | ((lanes >> 45) & 8u));
}

template <typename K>
inline std::uint32_t match_mask4(const K* keys, K needle) noexcept {
    static_assert(sizeof(K) == 8, "group key compare is for 8-byte keys");
    std::uint64_t bits;
    std::memcpy(&bits, &needle, sizeof(bits));
    const std::uint64_t* k = reinterpret_cast<const std::uint64_t*>(keys);
    const uint64x2_t n = vdupq_n_u64(bits);
    const uint64x2_t lo = vceqq_u64(vld1q_u64(k), n);
    const uint64x2_t hi = vceqq_u64(vld1q_u64(k + 2), n);
    return static_cast<std::uint32_t>(
        (vgetq_lane_u64(lo, 0) & 1u) | ((vgetq_lane_u64(lo, 1) & 1u) << 1) |
        ((vgetq_lane_u64(hi, 0) & 1u) << 2) | ((vgetq_lane_u64(hi, 1) & 1u) << 3));
}

#else  // scalar build: the dispatched names ARE the reference.

using scalar::empty_mask4;
using scalar::match_mask4;

#endif

}  // namespace freq::simd

#endif  // FREQ_COMMON_SIMD_H
