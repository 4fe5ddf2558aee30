/// \file bench_mem.cpp
/// Memory-locality harness for the common/mem.h subsystem (ISSUE 10):
///
///   A. arena vs heap spelling storage — the same string stream through the
///      arena-backed dictionary (the string default) and the heap-backed
///      one, comparing wall time and allocator traffic. Keys are long
///      enough to defeat SSO, so the heap path pays one allocation per
///      distinct spelling while the arena path bump-allocates into mmap'd
///      blocks the operator-new hook never sees.
///   B. allocation-free snapshot publishes — a loaded engine with the
///      snapshot service republishing its pooled partitioned views; after
///      warmup both the nothing-changed path and the dirty-shard path must
///      perform zero heap allocations per publish.
///   C. placement on/off ingest throughput — the same u64 stream through a
///      default engine and one with hugepages + interleave requested. On
///      single-node or low-core hosts (this includes most CI containers)
///      the comparison is informational: gated=false in the JSON, and
///      bench_delta.py skips gated acceptance leaves.
///
/// Emits BENCH_mem.json. Placement never affects results, so phase A also
/// cross-checks that both backends report the same top-10.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/mem.h"
#include "core/fingerprint_frequent_items.h"
#include "core/string_frequent_items.h"
#include "engine/stream_engine.h"
#include "random/xoshiro.h"
#include "random/zipf.h"
#include "stream/generators.h"

namespace {

using namespace freq;

constexpr std::uint32_t k = 1024;

// --- phase A: arena vs heap spelling storage ---------------------------------

/// Heap-backed twin of the string default: same traits, same fingerprints,
/// only the dictionary storage differs (spelling_dictionary.h pins the two
/// to bit-identical envelopes; tests/test_spelling_arena.cpp enforces it).
using heap_string_sketch =
    fingerprint_frequent_items<std::string, std::uint64_t, plain_lifetime,
                               key_fingerprint_traits<std::string>,
                               spelling_dictionary<std::string, false>>;
using arena_string_sketch = string_frequent_items<std::uint64_t>;

/// Zipf-ranked keys padded past every SSO threshold (libstdc++ keeps 15
/// bytes inline) so heap spelling storage costs a real allocation each.
std::vector<std::string> make_keys(std::size_t distinct) {
    std::vector<std::string> keys;
    keys.reserve(distinct);
    for (std::size_t i = 0; i < distinct; ++i) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "flow:v6:%012zu:padding-for-sso-escape",
                      i);
        keys.emplace_back(buf);
    }
    return keys;
}

struct spelling_run {
    double seconds = 0.0;
    std::uint64_t alloc_count = 0;
    std::uint64_t alloc_bytes = 0;
    std::vector<std::string> top10;
};

template <typename Sketch>
spelling_run run_spelling(const std::vector<std::string>& keys,
                          const std::vector<std::uint32_t>& order) {
    spelling_run r;
    Sketch sketch(sketch_config{.max_counters = k, .seed = 7});
    bench::alloc_phase allocs;
    bench::stopwatch sw;
    for (const std::uint32_t idx : order) {
        sketch.update(keys[idx], 1);
    }
    r.seconds = sw.seconds();
    r.alloc_count = allocs.count();
    r.alloc_bytes = allocs.bytes();
    for (const auto& row : sketch.top_items(10)) {
        r.top10.push_back(row.item);
    }
    return r;
}

// --- phase B: allocation-free snapshot publishes ------------------------------

struct publish_run {
    std::uint64_t repeat_allocs = 0;  ///< publishes with nothing dirty
    std::uint64_t dirty_allocs = 0;   ///< publishes after fresh pushes
    double dirty_publish_s = 0.0;     ///< mean seconds per push + flush + publish
};

publish_run run_publishes(const update_stream<std::uint64_t, std::uint64_t>& stream) {
    engine_config cfg;
    cfg.num_shards = 2;
    cfg.num_producers = 1;
    cfg.sketch = sketch_config{.max_counters = k, .seed = 1};
    stream_engine<> engine(cfg);
    engine.enable_snapshot_service(std::chrono::hours(1));  // publishes on demand only

    auto producer = engine.make_producer();
    producer.push(std::span<const update64>(stream.data(), stream.size()));
    producer.flush();
    engine.flush();

    // Repushes reuse ids already resident in the tables so steady-state
    // publishes never grow a vector — the claim is about allocator traffic
    // per publish, not about table growth.
    const std::size_t repush = std::min<std::size_t>(stream.size(), 4096);
    for (int warm = 0; warm < 3; ++warm) {
        producer.push(std::span<const update64>(stream.data(), repush));
        producer.flush();
        engine.flush();  // republishes
    }
    engine.publish_snapshot_now();  // both pooled views current

    publish_run r;
    constexpr int rounds = 16;
    {
        bench::alloc_phase allocs;
        for (int i = 0; i < rounds; ++i) {
            engine.publish_snapshot_now();
        }
        r.repeat_allocs = allocs.count();
    }
    {
        bench::alloc_phase allocs;
        bench::stopwatch sw;
        for (int i = 0; i < rounds; ++i) {
            producer.push(std::span<const update64>(stream.data(), repush));
            producer.flush();
            engine.flush();
        }
        r.dirty_publish_s = sw.seconds() / rounds;
        r.dirty_allocs = allocs.count();
    }
    engine.stop();
    return r;
}

// --- phase C: placement on/off ingest throughput -----------------------------

double time_engine_ingest(const update_stream<std::uint64_t, std::uint64_t>& stream,
                          bool place) {
    engine_config cfg;
    cfg.num_shards = 2;
    cfg.num_producers = 1;
    cfg.sketch = sketch_config{.max_counters = k, .seed = 1};
    if (place) {
        cfg.hugepages = true;
        cfg.numa = numa_policy::interleave;
    }
    stream_engine<> engine(cfg);
    bench::stopwatch sw;
    {
        auto producer = engine.make_producer();
        producer.push(std::span<const update64>(stream.data(), stream.size()));
        producer.flush();
    }
    engine.flush();
    const double s = sw.seconds();
    engine.stop();
    return s;
}

}  // namespace

int main() {
    const unsigned hw = std::thread::hardware_concurrency();
    const mem::topology& topo = mem::host_topology();
    std::printf("mem bench: numa_compiled=%d nodes=%zu thp=%d hugepool=%zu "
                "hardware_threads=%u\n",
                mem::numa_compiled ? 1 : 0, topo.num_nodes(),
                topo.thp_available ? 1 : 0, topo.explicit_hugepage_bytes, hw);

    // --- phase A -------------------------------------------------------------
    const std::size_t distinct = static_cast<std::size_t>(bench::scaled(50'000));
    const std::size_t n_strings = static_cast<std::size_t>(bench::scaled(2'000'000));
    const std::vector<std::string> keys = make_keys(distinct);
    std::vector<std::uint32_t> order;
    order.reserve(n_strings);
    {
        zipf_distribution zipf(distinct, 1.1);
        xoshiro256ss rng(42);
        for (std::size_t i = 0; i < n_strings; ++i) {
            order.push_back(static_cast<std::uint32_t>(zipf(rng) - 1));
        }
    }

    bench::print_header("arena vs heap spelling storage",
                        "backend        seconds     mups    alloc_count    alloc_MB");
    const spelling_run heap = run_spelling<heap_string_sketch>(keys, order);
    const spelling_run arena = run_spelling<arena_string_sketch>(keys, order);
    for (const auto* r : {&heap, &arena}) {
        std::printf("%-12s %9.3f %8.2f %14" PRIu64 " %11.2f\n",
                    r == &heap ? "heap" : "arena", r->seconds,
                    static_cast<double>(n_strings) / r->seconds / 1e6,
                    r->alloc_count, static_cast<double>(r->alloc_bytes) / 1e6);
    }
    const bool same_top = heap.top10 == arena.top10;
    const bool arena_fewer = arena.alloc_count <= heap.alloc_count;
    bench::check(same_top, "arena and heap dictionaries agree on the top-10");
    bench::check(arena_fewer,
                 "arena spelling ingest allocates no more than the heap backend");

    // --- phase B -------------------------------------------------------------
    const std::uint64_t n_u64 = bench::scaled(1'000'000);
    zipf_stream_generator gen({.num_updates = n_u64,
                               .num_distinct = n_u64 / 10,
                               .alpha = 1.1,
                               .min_weight = 1,
                               .max_weight = 100,
                               .seed = 2024});
    const auto stream = gen.generate();
    const publish_run pubs = run_publishes(stream);
    bench::print_header("allocation-free snapshot publishes",
                        "path               allocs/16 publishes   publish_s");
    std::printf("nothing dirty    %21" PRIu64 "        -\n", pubs.repeat_allocs);
    std::printf("dirty shards     %21" PRIu64 " %11.6f\n", pubs.dirty_allocs,
                pubs.dirty_publish_s);
    const bool zero_reuse = pubs.repeat_allocs == 0;
    const bool zero_dirty = pubs.dirty_allocs == 0;
    bench::check(zero_reuse, "nothing-dirty publish performs zero allocations");
    bench::check(zero_dirty, "steady-state dirty-shard publish performs zero allocations");

    // --- phase C -------------------------------------------------------------
    const double plain_s = time_engine_ingest(stream, false);
    const double placed_s = time_engine_ingest(stream, true);
    // A real placement win needs real placement: multiple NUMA nodes and
    // enough cores that pinning does not fight the scheduler. Containers
    // with one node / few threads report the numbers but do not gate.
    const bool gated = topo.multi_node() && hw >= 4 && mem::numa_compiled;
    const bool placed_ok = placed_s <= plain_s * 1.20;
    bench::print_header("placement on/off engine ingest",
                        "config           seconds     mups");
    std::printf("default        %9.3f %8.2f\n", plain_s,
                static_cast<double>(n_u64) / plain_s / 1e6);
    std::printf("placed         %9.3f %8.2f\n", placed_s,
                static_cast<double>(n_u64) / placed_s / 1e6);
    if (gated) {
        bench::check(placed_ok, "placement-enabled ingest within 20% of default");
    } else {
        std::printf("[info] placement comparison informational "
                    "(nodes=%zu hardware_threads=%u)\n",
                    topo.num_nodes(), hw);
    }

    FILE* json = std::fopen("BENCH_mem.json", "w");
    if (json != nullptr) {
        std::fprintf(json, "{\n");
        std::fprintf(json, "  \"bench\": \"memory_locality\",\n");
        std::fprintf(json,
                     "  \"topology\": {\"numa_compiled\": %s, \"nodes\": %zu, "
                     "\"thp_available\": %s, \"explicit_hugepage_bytes\": %zu},\n",
                     mem::numa_compiled ? "true" : "false", topo.num_nodes(),
                     topo.thp_available ? "true" : "false",
                     topo.explicit_hugepage_bytes);
        std::fprintf(json, "  \"hardware_threads\": %u,\n", hw);
        std::fprintf(json,
                     "  \"spelling\": {\"n\": %zu, \"distinct\": %zu, "
                     "\"heap\": {\"seconds\": %.6g, ",
                     n_strings, distinct, heap.seconds);
        std::fprintf(json, "\"alloc_count\": %" PRIu64 ", \"alloc_bytes\": %" PRIu64
                     "},\n",
                     heap.alloc_count, heap.alloc_bytes);
        std::fprintf(json,
                     "              \"arena\": {\"seconds\": %.6g, \"alloc_count\": "
                     "%" PRIu64 ", \"alloc_bytes\": %" PRIu64 "}},\n",
                     arena.seconds, arena.alloc_count, arena.alloc_bytes);
        std::fprintf(json,
                     "  \"publishes\": {\"rounds\": 16, \"clean_alloc_count\": %" PRIu64
                     ", \"dirty_alloc_count\": %" PRIu64 ", \"dirty_publish_s\": %.6g},\n",
                     pubs.repeat_allocs, pubs.dirty_allocs, pubs.dirty_publish_s);
        std::fprintf(json,
                     "  \"placement\": {\"default_seconds\": %.6g, "
                     "\"placed_seconds\": %.6g, \"gated\": %s},\n",
                     plain_s, placed_s, gated ? "true" : "false");
        std::fprintf(json,
                     "  \"mem_metrics\": {\"hugepage_regions\": %" PRIu64
                     ", \"arena_reserved_bytes\": %" PRIu64
                     ", \"arena_resets\": %" PRIu64 "},\n",
                     obs::pipeline().mem_hugepage_regions.value(),
                     obs::pipeline().mem_arena_reserved_bytes.value(),
                     obs::pipeline().mem_arena_resets.value());
        std::fprintf(json,
                     "  \"acceptance\": {\"same_top10\": %s, "
                     "\"arena_allocs_le_heap\": %s, \"clean_publish_zero_alloc\": %s, "
                     "\"dirty_publish_zero_alloc\": %s, \"gated\": %s, "
                     "\"placement_within_20pct\": %s}\n",
                     same_top ? "true" : "false", arena_fewer ? "true" : "false",
                     zero_reuse ? "true" : "false", zero_dirty ? "true" : "false",
                     gated ? "true" : "false", placed_ok ? "true" : "false");
        std::fprintf(json, "}\n");
        std::fclose(json);
        std::printf("wrote BENCH_mem.json\n");
    }
    return 0;
}
