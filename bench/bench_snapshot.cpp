/// Async snapshot service vs. fold-on-demand reads: the cost of a point
/// query against a loaded 8-shard engine, and the ingest-throughput
/// interference of a concurrent reader, measured three ways — no readers,
/// a reader folding a fresh snapshot per query (the pre-service read
/// path), and a reader acquiring the cached double-buffered view
/// (engine/snapshot_service.h).
///
/// Emits a table on stdout and machine-readable BENCH_snapshot.json in the
/// working directory (wired into CI). Acceptance target: cached-view point
/// queries >= 10x faster than fold-on-demand at 8 shards on a machine with
/// >= 4 hardware threads; smaller machines degrade the check to an explicit
/// [INFO] line, like the other engine benches. (Publish cost per dirty
/// shard is what perfbench's sharded_live flush and engine rows measure.)
///
///   build/bench_snapshot            # FREQ_BENCH_SCALE scales the stream

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <span>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "engine/stream_engine.h"
#include "random/xoshiro.h"
#include "stream/generators.h"

namespace {

using namespace freq;
using stream_t = update_stream<std::uint64_t, std::uint64_t>;

constexpr std::uint32_t k = 2048;
constexpr std::uint32_t shards = 8;

engine_config make_cfg() {
    engine_config cfg;
    cfg.num_shards = shards;
    cfg.num_producers = 1;
    cfg.sketch = sketch_config{.max_counters = k, .seed = 1};
    return cfg;
}

/// Ids to query: drawn from the stream so most queries hit live counters.
std::vector<std::uint64_t> query_ids(const stream_t& stream, std::size_t count) {
    std::vector<std::uint64_t> ids;
    ids.reserve(count);
    xoshiro256ss rng(99);
    for (std::size_t i = 0; i < count; ++i) {
        ids.push_back(stream[rng() % stream.size()].id);
    }
    return ids;
}

/// ns per fold-on-demand point query against a loaded engine. Each query is
/// also recorded individually into \p rec for the p50/p99 tail.
double time_fold_reads(const stream_engine<>& engine,
                       std::span<const std::uint64_t> ids,
                       bench::latency_recorder& rec, std::uint64_t& sink) {
    bench::stopwatch sw;
    for (const std::uint64_t id : ids) {
        bench::stopwatch qsw;
        sink += engine.snapshot().estimate(id);
        rec.record_seconds(qsw.seconds());
    }
    return sw.seconds() * 1e9 / static_cast<double>(ids.size());
}

/// ns per cached-view point query (one acquire per query, the worst case —
/// batch readers would amortize the acquire over many estimates).
double time_cached_reads(const stream_engine<>& engine,
                         std::span<const std::uint64_t> ids, std::size_t rounds,
                         bench::latency_recorder& rec, std::uint64_t& sink) {
    bench::stopwatch sw;
    for (std::size_t r = 0; r < rounds; ++r) {
        for (const std::uint64_t id : ids) {
            bench::stopwatch qsw;
            sink += engine.acquire_snapshot()->estimate(id);
            rec.record_seconds(qsw.seconds());
        }
    }
    return sw.seconds() * 1e9 / static_cast<double>(ids.size() * rounds);
}

enum class reader_mode { none, fold, cached };

struct ingest_run {
    double seconds;
    std::uint64_t reader_queries;
    std::uint64_t publishes;
};

/// Pushes the whole stream through a fresh engine while one reader thread
/// queries continuously in the requested mode; returns ingest wall time.
ingest_run time_ingest(const stream_t& stream, reader_mode mode,
                       std::span<const std::uint64_t> ids) {
    stream_engine<> engine(make_cfg());
    if (mode == reader_mode::cached) {
        engine.enable_snapshot_service(std::chrono::milliseconds(2));
    }
    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> queries{0};
    std::thread reader;
    if (mode != reader_mode::none) {
        reader = std::thread([&] {
            std::uint64_t sink = 0;
            std::size_t i = 0;
            while (!done.load(std::memory_order_acquire)) {
                const std::uint64_t id = ids[i++ % ids.size()];
                if (mode == reader_mode::fold) {
                    sink += engine.snapshot().estimate(id);
                } else {
                    sink += engine.acquire_snapshot()->estimate(id);
                }
                queries.fetch_add(1, std::memory_order_relaxed);
            }
            if (sink == 0xdeadbeef) {
                std::printf("impossible\n");
            }
        });
    }
    bench::stopwatch sw;
    {
        auto producer = engine.make_producer();
        producer.push(std::span<const update64>(stream.data(), stream.size()));
        producer.flush();
    }
    engine.flush();
    const double s = sw.seconds();
    done.store(true, std::memory_order_release);
    if (reader.joinable()) {
        reader.join();
    }
    const auto snap_stats = engine.snapshot_stats();
    engine.stop();
    return {s, queries.load(), snap_stats.publishes};
}

}  // namespace

int main() {
    bench::alloc_phase allocs;  // heap traffic of the whole run
    const std::uint64_t n = bench::scaled(2'000'000);
    zipf_stream_generator gen({.num_updates = n,
                               .num_distinct = n / 10,
                               .alpha = 1.1,
                               .min_weight = 1,
                               .max_weight = 100,
                               .seed = 2024});
    const auto stream = gen.generate();
    const unsigned hw = std::thread::hardware_concurrency();
    std::printf("snapshot-service bench: n=%llu zipf(1.1) k=%u shards=%u "
                "hardware_threads=%u\n",
                static_cast<unsigned long long>(n), k, shards, hw);

    // --- phase A: read latency against a loaded, idle engine -----------------
    stream_engine<> engine(make_cfg());
    {
        auto producer = engine.make_producer();
        producer.push(std::span<const update64>(stream.data(), stream.size()));
        producer.flush();
    }
    engine.flush();

    const auto ids = query_ids(stream, 512);
    std::uint64_t sink = 0;
    bench::latency_recorder fold_rec;
    const double fold_ns = time_fold_reads(engine, ids, fold_rec, sink);

    engine.enable_snapshot_service(std::chrono::milliseconds(2));
    bench::latency_recorder cached_rec;
    const double cached_ns = time_cached_reads(engine, ids, 64, cached_rec, sink);
    const double read_speedup = fold_ns / cached_ns;
    engine.stop();
    if (sink == 0xdeadbeef) {
        std::printf("impossible\n");  // defeat dead-code elimination
    }

    bench::print_header("point-query latency (loaded engine, 8 shards)",
                        "read path                ns/query      speedup");
    std::printf("%-22s %11.0f %11.2fx\n", "fold-on-demand", fold_ns, 1.0);
    std::printf("%-22s %11.0f %11.2fx\n", "cached view", cached_ns, read_speedup);

    // --- phase B: ingest interference of a concurrent reader -----------------
    const auto quiet = time_ingest(stream, reader_mode::none, ids);
    const auto fold = time_ingest(stream, reader_mode::fold, ids);
    const auto cached = time_ingest(stream, reader_mode::cached, ids);

    const double quiet_rate = static_cast<double>(n) / quiet.seconds / 1e6;
    const double fold_rate = static_cast<double>(n) / fold.seconds / 1e6;
    const double cached_rate = static_cast<double>(n) / cached.seconds / 1e6;

    bench::print_header(
        "ingest throughput under concurrent reads (Mupd/s)",
        "reader                    rate    vs quiet   reader q/s  publishes");
    std::printf("%-20s %9.2f %9.2f%% %12s %10s\n", "none", quiet_rate, 100.0, "-", "-");
    std::printf("%-20s %9.2f %9.2f%% %12.0f %10s\n", "fold-on-demand", fold_rate,
                100.0 * fold_rate / quiet_rate,
                static_cast<double>(fold.reader_queries) / fold.seconds, "-");
    std::printf("%-20s %9.2f %9.2f%% %12.0f %10llu\n", "cached view", cached_rate,
                100.0 * cached_rate / quiet_rate,
                static_cast<double>(cached.reader_queries) / cached.seconds,
                static_cast<unsigned long long>(cached.publishes));

    // Acceptance: cached-view reads >= 10x faster than fold-on-demand at 8
    // shards. Below 4 hardware threads the numbers are still recorded but
    // the check degrades to an explicit [INFO] line — it must never
    // silently count as a PASS it did not earn.
    const bool accepted = read_speedup >= 10.0;
    if (hw >= 4) {
        bench::check(accepted,
                     "cached-view point queries >= 10x faster than fold-on-demand "
                     "at 8 shards");
    } else {
        std::printf("[INFO] cached-view speedup %.1fx %s the 10x acceptance target — "
                    "informational only: %u hardware thread(s) < 4 required for the "
                    "gate\n",
                    read_speedup, accepted ? "meets" : "misses", hw);
    }

    FILE* json = std::fopen("BENCH_snapshot.json", "w");
    if (json != nullptr) {
        std::fprintf(json, "{\n");
        std::fprintf(json, "  \"bench\": \"snapshot_service\",\n");
        std::fprintf(json, "  \"stream\": {\"n\": %llu, \"alpha\": 1.1, \"k\": %u, "
                     "\"shards\": %u},\n",
                     static_cast<unsigned long long>(n), k, shards);
        std::fprintf(json, "  \"hardware_threads\": %u,\n", hw);
        std::fprintf(json, "  ");
        allocs.write_json_fields(json, "");
        std::fprintf(json, ",\n");
        std::fprintf(json, "  \"acceptance\": {\"target_read_speedup\": 10.0, "
                     "\"gated\": %s, \"met\": %s},\n",
                     hw >= 4 ? "true" : "false", accepted ? "true" : "false");
        const auto fold_lat = fold_rec.summarize();
        const auto cached_lat = cached_rec.summarize();
        std::fprintf(json, "  \"read_latency\": {\"fold_ns\": %.1f, \"cached_ns\": %.1f, "
                     "\"speedup\": %.2f, "
                     "\"fold_p50_s\": %.6g, \"fold_p99_s\": %.6g, "
                     "\"cached_p50_s\": %.6g, \"cached_p99_s\": %.6g},\n",
                     fold_ns, cached_ns, read_speedup, fold_lat.p50_s, fold_lat.p99_s,
                     cached_lat.p50_s, cached_lat.p99_s);
        std::fprintf(json, "  \"ingest\": [\n");
        std::fprintf(json, "    {\"reader\": \"none\", \"mups\": %.3f},\n", quiet_rate);
        std::fprintf(json,
                     "    {\"reader\": \"fold\", \"mups\": %.3f, \"reader_qps\": %.0f},\n",
                     fold_rate, static_cast<double>(fold.reader_queries) / fold.seconds);
        std::fprintf(json,
                     "    {\"reader\": \"cached\", \"mups\": %.3f, \"reader_qps\": %.0f, "
                     "\"publishes\": %llu}\n",
                     cached_rate,
                     static_cast<double>(cached.reader_queries) / cached.seconds,
                     static_cast<unsigned long long>(cached.publishes));
        std::fprintf(json, "  ]\n}\n");
        std::fclose(json);
        std::printf("\nwrote BENCH_snapshot.json\n");
    }
    return 0;
}
