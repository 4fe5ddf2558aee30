#ifndef FREQ_COMMON_SIMD_H
#define FREQ_COMMON_SIMD_H

/// \file simd.h
/// Names the widest vector ISA the compiler targets, for benchmark and test
/// logs. No library code branches on it: the counter table probes with a
/// plain scalar loop, and the decrement sweep is left to the compiler's
/// auto-vectorizer (-DFREQ_SIMD_NATIVE=ON adds -march=native).

namespace freq::simd {

constexpr const char* isa_name() noexcept {
#if defined(__AVX2__)
    return "avx2";
#elif defined(__SSE2__) || defined(_M_X64)
    return "sse2";
#elif defined(__aarch64__) && defined(__ARM_NEON)
    return "neon";
#else
    return "scalar";
#endif
}

}  // namespace freq::simd

#endif  // FREQ_COMMON_SIMD_H
