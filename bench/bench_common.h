#ifndef FREQ_BENCH_BENCH_COMMON_H
#define FREQ_BENCH_BENCH_COMMON_H

/// \file bench_common.h
/// Shared plumbing for the figure-reproduction harnesses: workload
/// construction (the §4.1 CAIDA-substitute stream and the §4.5 Zipf merge
/// workload), wall-clock timing, environment-based scaling, and fixed-width
/// table printing so each binary emits the same rows/series as the paper's
/// figures.
///
/// Scaling: FREQ_BENCH_SCALE (default 1.0) multiplies stream lengths.
/// The paper used n = 126.2M updates; the default here is 8M, which is
/// enough for the speed ratios and error orderings to stabilize (see
/// EXPERIMENTS.md). Set FREQ_BENCH_SCALE=16 to approximate the paper's n.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "obs/instruments.h"
#include "stream/exact_counter.h"
#include "stream/generators.h"
#include "stream/update.h"

namespace freq::bench {

// --- heap-allocation counting ------------------------------------------------

namespace detail {
/// Process-wide allocation counters, fed by the replacement operator new
/// forms defined at the bottom of this header. Relaxed atomics: the
/// benches read deltas between phase boundaries on one thread; worker
/// threads' allocations land eventually (the phases join their workers
/// before reading).
inline std::atomic<std::uint64_t> alloc_count{0};
inline std::atomic<std::uint64_t> alloc_bytes{0};

inline void note_alloc(std::size_t n) noexcept {
    alloc_count.fetch_add(1, std::memory_order_relaxed);
    alloc_bytes.fetch_add(n, std::memory_order_relaxed);
}
}  // namespace detail

/// Heap allocations observed during one bench phase: construct at the
/// phase's start, read the deltas when it ends. Counts allocations, not
/// live bytes — frees are deliberately ignored, because the question the
/// benches ask is "how much allocator traffic does this phase generate",
/// and a phase that churns a million short-lived nodes should not report
/// zero.
class alloc_phase {
public:
    alloc_phase() { reset(); }

    void reset() {
        start_count_ = detail::alloc_count.load(std::memory_order_relaxed);
        start_bytes_ = detail::alloc_bytes.load(std::memory_order_relaxed);
    }

    std::uint64_t count() const {
        return detail::alloc_count.load(std::memory_order_relaxed) - start_count_;
    }
    std::uint64_t bytes() const {
        return detail::alloc_bytes.load(std::memory_order_relaxed) - start_bytes_;
    }

    /// Appends `"<prefix>alloc_count": ..., "<prefix>alloc_bytes": ..."`
    /// (no trailing comma) to an open JSON stream — same shape as
    /// latency_recorder::write_json_fields. bench_delta.py treats both
    /// fields as lower-is-better.
    void write_json_fields(std::FILE* json, const char* prefix) const {
        std::fprintf(json, "\"%salloc_count\": %llu, \"%salloc_bytes\": %llu", prefix,
                     static_cast<unsigned long long>(count()), prefix,
                     static_cast<unsigned long long>(bytes()));
    }

private:
    std::uint64_t start_count_ = 0;
    std::uint64_t start_bytes_ = 0;
};

inline double scale_factor() {
    const char* env = std::getenv("FREQ_BENCH_SCALE");
    if (env == nullptr) {
        return 1.0;
    }
    const double s = std::atof(env);
    return s > 0.0 ? s : 1.0;
}

inline std::uint64_t scaled(std::uint64_t base) {
    return static_cast<std::uint64_t>(static_cast<double>(base) * scale_factor());
}

/// The §4.1 evaluation stream (CAIDA substitute; see DESIGN.md §1):
/// ~8M packets over ~500k source IPs, weights = packet size in bits.
inline update_stream<std::uint64_t, std::uint64_t> caida_stream(std::uint64_t seed = 2016) {
    caida_like_generator gen({
        .num_updates = scaled(8'000'000),
        .num_flows = scaled(500'000),
        .alpha = 1.1,
        .seed = seed,
    });
    return gen.generate();
}

/// The §4.5 merge workload: Zipf(1.05) ids, uniform weights in [1, 10000].
inline update_stream<std::uint64_t, std::uint64_t> zipf_merge_stream(std::uint64_t n,
                                                                     std::uint64_t seed) {
    zipf_stream_generator gen({
        .num_updates = n,
        .num_distinct = std::max<std::uint64_t>(n / 4, 16),
        .alpha = 1.05,
        .min_weight = 1,
        .max_weight = 10'000,
        .seed = seed,
    });
    return gen.generate();
}

class stopwatch {
public:
    stopwatch() : start_(clock::now()) {}
    void reset() { start_ = clock::now(); }
    double seconds() const {
        return std::chrono::duration<double>(clock::now() - start_).count();
    }

private:
    using clock = std::chrono::steady_clock;
    clock::time_point start_;
};

/// Runs a full stream through an algorithm and returns wall seconds.
template <typename Algo>
double time_consume(Algo& algo, const update_stream<std::uint64_t, std::uint64_t>& stream) {
    stopwatch sw;
    for (const auto& u : stream) {
        algo.update(u.id, u.weight);
    }
    return sw.seconds();
}

/// Per-iteration latency series for the hand-rolled benches, built on
/// obs::basic_histogram — deliberately the *basic_* implementation, which
/// stays real even under -DFREQ_OBS_OFF, so BENCH_*.json tail statistics
/// never go dark with telemetry compiled out. Record seconds per iteration
/// (or per chunk), then emit mean/p50/p99/max so scripts/bench_delta.py can
/// warn on tail regressions, not just mean shifts (its lower-is-better
/// heuristic matches the *_s suffix).
class latency_recorder {
public:
    void record_seconds(double s) {
        hist_.record(s <= 0.0 ? 0
                               : static_cast<std::uint64_t>(s * 1e9));  // ns buckets
    }

    struct summary {
        std::uint64_t iterations = 0;
        double mean_s = 0.0;
        double p50_s = 0.0;
        double p99_s = 0.0;
        double max_s = 0.0;
    };

    summary summarize() const {
        const obs::histogram_snapshot s = hist_.snap();
        summary out;
        out.iterations = s.count;
        out.mean_s = s.mean() / 1e9;
        out.p50_s = s.quantile(0.50) / 1e9;
        out.p99_s = s.quantile(0.99) / 1e9;
        out.max_s = static_cast<double>(s.max) / 1e9;
        return out;
    }

    /// Appends `"<prefix>p50_s": ..., "<prefix>p99_s": ...` (no trailing
    /// comma) to an open JSON stream — the shape every BENCH_*.json uses.
    void write_json_fields(std::FILE* json, const char* prefix) const {
        const summary s = summarize();
        std::fprintf(json, "\"%sp50_s\": %.6g, \"%sp99_s\": %.6g", prefix, s.p50_s,
                     prefix, s.p99_s);
    }

private:
    obs::basic_histogram hist_;
};

/// Drives \p step over [0, n) in ~\p num_chunks contiguous chunks, timing
/// each chunk into \p rec. step(offset, take) must process exactly
/// [offset, offset + take). The per-chunk clock reads are two steady_clock
/// calls per chunk — noise next to any chunk worth measuring.
template <typename Step>
void record_chunks(std::size_t n, std::size_t num_chunks, latency_recorder& rec,
                   Step&& step) {
    const std::size_t chunk = std::max<std::size_t>(1, n / std::max<std::size_t>(1, num_chunks));
    std::size_t done = 0;
    while (done < n) {
        const std::size_t take = std::min(chunk, n - done);
        stopwatch sw;
        step(done, take);
        rec.record_seconds(sw.seconds());
        done += take;
    }
}

inline void print_header(const std::string& title, const std::string& columns) {
    std::printf("\n=== %s ===\n%s\n", title.c_str(), columns.c_str());
}

/// Qualitative reproduction check: prints PASS/FAIL with the claim text so
/// bench_output.txt doubles as the experiment record.
inline bool check(bool ok, const std::string& claim) {
    std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", claim.c_str());
    return ok;
}

/// Stream statistics banner (the §4.1 dataset-properties table).
inline void print_stream_stats(const update_stream<std::uint64_t, std::uint64_t>& stream,
                               const std::string& name) {
    exact_counter<std::uint64_t, std::uint64_t> exact;
    for (const auto& u : stream) {
        exact.update(u.id, u.weight);
    }
    std::printf("stream %-18s n=%llu  N=%.4g  distinct=%zu  mean_weight=%.1f\n",
                name.c_str(), static_cast<unsigned long long>(exact.num_updates()),
                static_cast<double>(exact.total_weight()), exact.num_distinct(),
                static_cast<double>(exact.total_weight()) /
                    static_cast<double>(std::max<std::uint64_t>(1, exact.num_updates())));
}

}  // namespace freq::bench

// --- replacement global allocation functions ---------------------------------
// Every bench binary is a single translation unit including this header
// exactly once, so defining the replaceable allocation functions here is
// ODR-safe and hooks *all* heap traffic of the process — libfreq's, the
// standard library's, the workload's — into the counters above. Disable
// with -DFREQ_BENCH_NO_ALLOC_HOOK (e.g. for a TU that links something with
// its own replacement).
//
// Only the operator new forms are replaced; the default operator delete
// releases with std::free, which matches malloc and posix_memalign. The
// forms that allocate are kept out of line: inlined into a caller, g++
// would see malloc'd memory reach operator delete and flag it with
// -Wmismatched-new-delete.
#ifndef FREQ_BENCH_NO_ALLOC_HOOK

[[gnu::noinline]] void* operator new(std::size_t n) {
    freq::bench::detail::note_alloc(n);
    if (void* p = std::malloc(n != 0 ? n : 1)) {
        return p;
    }
    throw std::bad_alloc();
}

void* operator new[](std::size_t n) { return ::operator new(n); }

[[gnu::noinline]] void* operator new(std::size_t n, std::align_val_t al) {
    freq::bench::detail::note_alloc(n);
    const std::size_t a = std::max(static_cast<std::size_t>(al), sizeof(void*));
    void* p = nullptr;
    // posix_memalign over std::aligned_alloc: no size-multiple-of-alignment
    // requirement, and glibc frees both with plain free().
    if (posix_memalign(&p, a, n != 0 ? n : 1) != 0) {
        throw std::bad_alloc();
    }
    return p;
}

void* operator new[](std::size_t n, std::align_val_t al) { return ::operator new(n, al); }

[[gnu::noinline]] void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
    freq::bench::detail::note_alloc(n);
    return std::malloc(n != 0 ? n : 1);
}

void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
    return ::operator new(n, t);
}

#endif  // FREQ_BENCH_NO_ALLOC_HOOK

#endif  // FREQ_BENCH_BENCH_COMMON_H
