/// Google-benchmark micro-benchmarks for the §2.3.3 counter table itself:
/// hit and miss lookups, upserts and the decrement-and-compact pass, at
/// small (L1-resident) and large (cache-straining) capacities. These are
/// the per-operation costs that make Fig. 1's throughput possible.
///
/// CI runs it with --benchmark_out=BENCH_table.json
/// --benchmark_out_format=json so scripts/bench_delta.py can diff the
/// per-operation times between runs.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "random/xoshiro.h"
#include "table/counter_table.h"

namespace {

using namespace freq;

using table_t = counter_table<std::uint64_t, std::uint64_t>;

std::vector<std::uint64_t> resident_keys(std::uint32_t k, std::uint64_t seed) {
    xoshiro256ss rng(seed);
    std::vector<std::uint64_t> keys;
    keys.reserve(k);
    for (std::uint32_t i = 0; i < k; ++i) {
        keys.push_back(rng());
    }
    return keys;
}

table_t filled_table(const std::vector<std::uint64_t>& keys,
                     std::uint64_t weight = 100) {
    table_t t(static_cast<std::uint32_t>(keys.size()), 1);
    for (const auto key : keys) {
        t.upsert(key, weight);
    }
    return t;
}

void BM_FindHit(benchmark::State& state) {
    const auto k = static_cast<std::uint32_t>(state.range(0));
    const auto keys = resident_keys(k, 1);
    const auto t = filled_table(keys);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(t.find(keys[i]));
        i = (i + 1) % keys.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_FindMiss(benchmark::State& state) {
    const auto k = static_cast<std::uint32_t>(state.range(0));
    const auto t = filled_table(resident_keys(k, 1));
    xoshiro256ss rng(99);
    for (auto _ : state) {
        benchmark::DoNotOptimize(t.find(rng() | 1ULL));  // almost surely absent
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_UpsertExisting(benchmark::State& state) {
    const auto k = static_cast<std::uint32_t>(state.range(0));
    const auto keys = resident_keys(k, 1);
    auto t = filled_table(keys);
    std::size_t i = 0;
    for (auto _ : state) {
        t.upsert(keys[i], 1);
        i = (i + 1) % keys.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_DecrementAll(benchmark::State& state) {
    // Counters start huge so repeated decrements never evict: the sweep runs
    // the survivors-only path without a rebuild between iterations. The rare refill re-arms it.
    const auto k = static_cast<std::uint32_t>(state.range(0));
    const auto keys = resident_keys(k, 1);
    auto t = filled_table(keys, std::uint64_t{1} << 40);
    for (auto _ : state) {
        if (t.size() < k) {
            state.PauseTiming();
            t = filled_table(keys, std::uint64_t{1} << 40);
            state.ResumeTiming();
        }
        benchmark::DoNotOptimize(t.decrement_all(50));
    }
    // One decrement touches all L slots; report per-counter cost.
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * k);
}

void BM_DecrementAllEvicting(benchmark::State& state) {
    // The other extreme: every pass erases ~1/8 of the counters, so the
    // sweep keeps leaving clusters dirty and re-placing survivors.
    const auto k = static_cast<std::uint32_t>(state.range(0));
    const auto keys = resident_keys(k, 1);
    xoshiro256ss rng(13);
    auto seed_values = [&](table_t& t) {
        t.clear();
        for (const auto key : keys) {
            t.upsert(key, 50 * (1 + rng.below(8)));
        }
    };
    table_t t(k, 1);
    seed_values(t);
    for (auto _ : state) {
        if (t.size() < k / 2) {
            state.PauseTiming();
            seed_values(t);
            state.ResumeTiming();
        }
        benchmark::DoNotOptimize(t.decrement_all(50));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * k);
}

void BM_FillToCapacity(benchmark::State& state) {
    const auto k = static_cast<std::uint32_t>(state.range(0));
    const auto keys = resident_keys(k, 1);
    for (auto _ : state) {
        table_t t(k, 1);
        for (const auto key : keys) {
            t.upsert(key, 1);
        }
        benchmark::DoNotOptimize(t);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * k);
}

}  // namespace

BENCHMARK(BM_FindHit)->Arg(1024)->Arg(65536)->Arg(1 << 20);
BENCHMARK(BM_FindMiss)->Arg(1024)->Arg(65536)->Arg(1 << 20);
BENCHMARK(BM_UpsertExisting)->Arg(1024)->Arg(65536)->Arg(1 << 20);
BENCHMARK(BM_DecrementAll)
    ->Arg(1024)->Arg(65536)->Arg(1 << 20)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_DecrementAllEvicting)->Arg(1024)->Arg(65536)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_FillToCapacity)->Arg(1024)->Arg(65536)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
