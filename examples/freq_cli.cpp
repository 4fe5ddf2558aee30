/// freq_cli — a command-line front end to the library, covering the full
/// workflow the paper's evaluation used (synthesize/preprocess traces once,
/// then run any algorithm over them and compare) plus the runtime façade: the
/// sketch/merge/query/report commands pick lifetime policy and knobs from
/// flags via freq::builder, and summaries travel as the unified envelope, so
/// one binary serves plain, time-fading and sliding-window deployments.
///
/// Usage:
///   freq_cli gen   <out.fqtr> [--n N] [--flows F] [--alpha A] [--seed S]
///                  [--kind caida|zipf] [--timestamps]
///                  (--timestamps writes FQTR v2 with one monotonic
///                  timestamp per record)
///   freq_cli stats <trace.fqtr>
///   freq_cli stats --prom|--json [trace.fqtr] [--n N]
///                  runtime telemetry: drives every pipeline layer (engine,
///                  shards, spelling, snapshot service, façade) over the
///                  trace — or a synthesized stream when none is given —
///                  then dumps the obs registry in Prometheus text or JSON.
///                  Empty output under a -DFREQ_OBS_OFF build, by design.
///   freq_cli run   <trace.fqtr> [--algo smed|smin|rbmc|mhe|cm] [--k K]
///                  [--phi PHI] [--exact]
///   freq_cli sketch <trace.fqtr> <out.sk> [--k K] [--key u64|text]
///                  [--algo paper|count_min|count_sketch|space_saving]
///                  [--policy plain|fading|window] [--decay R] [--window E]
///                  [--tick-every N] [--shards S] [--snapshot-every MS]
///                  [--stats-every N]   (telemetry dump every N updates)
///                  [--hugepages] [--numa]  (memory placement; degrade to
///                  no-ops with a stderr note when the host can't honor them)
///                  --algo picks the sketch algorithm behind the façade
///                  (default: the paper's); the chosen algorithm travels in
///                  the envelope, so query/report/merge need no flag.
///   freq_cli merge <out.sk> <in1.sk> <in2.sk> [...]
///   freq_cli query <sketch.sk> <id-or-word> [...]
///   freq_cli report <sketch.sk> [--phi PHI] [--mode nfp|nfn]
///                  (prints the envelope's algorithm tag with the report;
///                  count_min sketches answer --mode nfn only)
///   freq_cli hhh   <trace.fqtr> [--phi PHI] [--levels 32,24,16,8] [--k K]
///                  [--shards S] [--policy plain|fading|window] [--decay R]
///                  [--window E] [--snapshot-every MS] [--tick-every T]
///                  hierarchical heavy hitters over the trace ids' low 32
///                  bits (IPv4 source addresses), one sharded engine
///                  summarizer per prefix level; --policy applies to every
///                  level; with a v2 trace, --tick-every T ticks the levels
///                  every T timestamp units during replay.
///   freq_cli replay <trace.fqtr> [--into engine|hhh] [--shards S] [--k K]
///                  [--levels ...] [--policy ...] [--tick-every T]
///                  line-rate replay through the full pipeline; reports
///                  sustained records/sec and p50/p99 chunk tails.
///
/// --key text treats each trace id as the word "w<id>" and runs the text
/// summarizer — combined with --shards S the words ingest through the
/// sharded engine (fingerprints on the ring hot path, per-shard spelling
/// dictionaries), and query/report spell results back out.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "api/builder.h"
#include "api/summarizer.h"
#include "baselines/count_min_sketch.h"
#include "baselines/rbmc.h"
#include "baselines/space_saving_heap.h"
#include "common/mem.h"
#include "core/frequent_items_sketch.h"
#include "metrics/error.h"
#include "net/ipv4.h"
#include "stream/exact_counter.h"
#include "stream/generators.h"
#include "stream/trace_io.h"
#include "telemetry/hhh_summarizer.h"
#include "telemetry/trace_replay.h"

namespace {

using namespace freq;
using sketch_u64 = frequent_items_sketch<std::uint64_t, std::uint64_t>;

struct args {
    std::vector<std::string> positional;
    std::uint64_t n = 2'000'000;
    std::uint64_t flows = 200'000;
    double alpha = 1.1;
    std::uint64_t seed = 1;
    std::string kind = "caida";
    std::string algo = "smed";
    std::uint32_t k = 4096;
    double phi = 0.01;
    bool exact = false;
    std::string policy = "plain";
    double decay = 0.97;
    std::uint32_t window = 4;
    std::uint64_t tick_every = 0;  ///< 0 = never tick
    std::string mode = "nfn";
    std::uint32_t shards = 0;           ///< 0 = standalone (no engine)
    std::uint64_t snapshot_every = 0;   ///< ms between publishes; 0 = off
    std::string key = "u64";            ///< u64 | text
    bool prom = false;                  ///< stats: Prometheus telemetry dump
    bool json = false;                  ///< stats: JSON telemetry dump
    std::uint64_t stats_every = 0;      ///< sketch: telemetry every N updates
    bool timestamps = false;            ///< gen: write FQTR v2 with timestamps
    std::string levels = "32,24,16,8";  ///< hhh/replay: prefix levels
    std::string into = "engine";        ///< replay: sink (engine | hhh)
    bool hugepages = false;  ///< advise THP on sketch/engine buffers
    bool numa = false;       ///< interleave engine shards across NUMA nodes
};

args parse(int argc, char** argv) {
    args a;
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", flag.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (flag == "--n") {
            a.n = std::strtoull(next().c_str(), nullptr, 10);
        } else if (flag == "--flows") {
            a.flows = std::strtoull(next().c_str(), nullptr, 10);
        } else if (flag == "--alpha") {
            a.alpha = std::atof(next().c_str());
        } else if (flag == "--seed") {
            a.seed = std::strtoull(next().c_str(), nullptr, 10);
        } else if (flag == "--kind") {
            a.kind = next();
        } else if (flag == "--algo") {
            a.algo = next();
        } else if (flag == "--k") {
            a.k = static_cast<std::uint32_t>(std::strtoul(next().c_str(), nullptr, 10));
        } else if (flag == "--phi") {
            a.phi = std::atof(next().c_str());
        } else if (flag == "--exact") {
            a.exact = true;
        } else if (flag == "--policy") {
            a.policy = next();
        } else if (flag == "--decay") {
            a.decay = std::atof(next().c_str());
        } else if (flag == "--window") {
            a.window = static_cast<std::uint32_t>(std::strtoul(next().c_str(), nullptr, 10));
        } else if (flag == "--tick-every") {
            a.tick_every = std::strtoull(next().c_str(), nullptr, 10);
        } else if (flag == "--mode") {
            a.mode = next();
        } else if (flag == "--shards") {
            a.shards = static_cast<std::uint32_t>(std::strtoul(next().c_str(), nullptr, 10));
        } else if (flag == "--snapshot-every") {
            a.snapshot_every = std::strtoull(next().c_str(), nullptr, 10);
        } else if (flag == "--key") {
            a.key = next();
        } else if (flag == "--prom") {
            a.prom = true;
        } else if (flag == "--json") {
            a.json = true;
        } else if (flag == "--stats-every") {
            a.stats_every = std::strtoull(next().c_str(), nullptr, 10);
        } else if (flag == "--timestamps") {
            a.timestamps = true;
        } else if (flag == "--levels") {
            a.levels = next();
        } else if (flag == "--into") {
            a.into = next();
        } else if (flag == "--hugepages") {
            a.hugepages = true;
        } else if (flag == "--numa") {
            a.numa = true;
        } else {
            a.positional.push_back(flag);
        }
    }
    return a;
}

int cmd_gen(const args& a) {
    if (a.positional.empty()) {
        std::fprintf(stderr, "gen: output path required\n");
        return 2;
    }
    update_stream<std::uint64_t, std::uint64_t> stream;
    if (a.kind == "zipf") {
        zipf_stream_generator gen({.num_updates = a.n,
                                   .num_distinct = a.flows,
                                   .alpha = a.alpha,
                                   .min_weight = 1,
                                   .max_weight = 10'000,
                                   .seed = a.seed});
        stream = gen.generate();
    } else {
        caida_like_generator gen(
            {.num_updates = a.n, .num_flows = a.flows, .alpha = a.alpha, .seed = a.seed});
        stream = gen.generate();
    }
    if (a.timestamps) {
        // Monotonic synthetic clock: one timestamp unit per record, so
        // `replay --tick-every T` produces one epoch tick every T records.
        std::vector<std::uint64_t> ts(stream.size());
        for (std::size_t i = 0; i < ts.size(); ++i) {
            ts[i] = static_cast<std::uint64_t>(i);
        }
        write_trace(a.positional[0], stream, ts);
        std::printf("wrote %zu updates to %s (FQTR v2, timestamps)\n", stream.size(),
                    a.positional[0].c_str());
    } else {
        write_trace(a.positional[0], stream);
        std::printf("wrote %zu updates to %s\n", stream.size(), a.positional[0].c_str());
    }
    return 0;
}

/// Drives every pipeline layer over \p stream so the obs registry holds live
/// samples from all of them: the u64 sharded engine with the async snapshot
/// service (ring, shard drains, sketch maintenance, snapshot publishes,
/// façade verbs), then the text sharded engine (spelling channel + dedupe
/// filter). The small k forces decrement rounds even on modest streams.
void warm_pipeline(const update_stream<std::uint64_t, std::uint64_t>& stream) {
    {
        builder b;
        b.max_counters(512).seed(7).sharded(2).snapshot_every(
            std::chrono::milliseconds(1));
        auto s = b.build();
        const std::size_t chunk = std::max<std::size_t>(1, stream.size() / 4);
        for (std::size_t i = 0; i < stream.size(); i += chunk) {
            const std::size_t run = std::min<std::size_t>(chunk, stream.size() - i);
            s.update(std::span<const update64>(stream.data() + i, run));
            (void)s.total_weight();  // cached-view read -> snapshot acquires
            s.tick();
        }
        (void)s.estimate(stream.empty() ? 0 : stream[0].id);
        (void)s.frequent_items(error_mode::no_false_negatives,
                               0.01 * s.total_weight());
        (void)s.top_items(10);
    }
    {
        builder b;
        b.text_keys().max_counters(512).seed(7).sharded(2);
        auto s = b.build();
        // Few distinct words, many repeats: most records find their
        // spelling already in the shard dictionary (dedupe hits), the
        // first tracked sighting of each word stores it.
        const std::size_t m = std::min<std::size_t>(stream.size(), 100'000);
        std::string word;
        for (std::size_t i = 0; i < m; ++i) {
            word = "w";
            word += std::to_string(stream[i].id % 1024);
            s.update(word, 1.0);
        }
        (void)s.estimate(std::string_view("w1"));
        (void)s.top_items(10);
    }
}

/// `stats --prom|--json`: runtime-introspection dump of the obs registry
/// after warming the full pipeline (from the given trace, or a synthesized
/// Zipf stream when none is supplied).
int cmd_stats_telemetry(const args& a) {
    update_stream<std::uint64_t, std::uint64_t> stream;
    if (!a.positional.empty()) {
        stream = read_trace(a.positional[0]);
    } else {
        zipf_stream_generator gen({.num_updates = a.n,
                                   .num_distinct = std::max<std::uint64_t>(a.n / 10, 16),
                                   .alpha = a.alpha,
                                   .min_weight = 1,
                                   .max_weight = 100,
                                   .seed = a.seed});
        stream = gen.generate();
    }
    warm_pipeline(stream);
    const auto snap = summarizer::telemetry();
    if (a.json) {
        std::printf("%s\n", snap.to_json().c_str());
    } else {
        std::printf("%s", snap.to_prometheus().c_str());
    }
    return 0;
}

int cmd_stats(const args& a) {
    if (a.prom || a.json) {
        return cmd_stats_telemetry(a);
    }
    if (a.positional.empty()) {
        std::fprintf(stderr, "stats: trace path required (or --prom/--json for a "
                             "telemetry dump)\n");
        return 2;
    }
    const auto stream = read_trace(a.positional[0]);
    exact_counter<std::uint64_t, std::uint64_t> exact;
    exact.consume(stream);
    std::printf("n (updates):        %llu\n",
                static_cast<unsigned long long>(exact.num_updates()));
    std::printf("N (weighted):       %llu\n",
                static_cast<unsigned long long>(exact.total_weight()));
    std::printf("distinct ids:       %zu\n", exact.num_distinct());
    std::printf("mean weight:        %.2f\n",
                static_cast<double>(exact.total_weight()) /
                    static_cast<double>(std::max<std::uint64_t>(1, exact.num_updates())));
    const auto top = exact.top_frequencies(10);
    std::printf("top-10 frequencies:");
    for (const auto f : top) {
        std::printf(" %llu", static_cast<unsigned long long>(f));
    }
    std::printf("\n");
    return 0;
}

int cmd_run(const args& a) {
    if (a.positional.empty()) {
        std::fprintf(stderr, "run: trace path required\n");
        return 2;
    }
    const auto stream = read_trace(a.positional[0]);

    // Uniform driver over the algorithms: collect heavy hitter rows.
    struct hh {
        std::uint64_t id;
        std::uint64_t estimate;
    };
    std::vector<hh> hits;
    double seconds = 0;
    std::size_t bytes = 0;
    const auto t0 = std::chrono::steady_clock::now();
    auto elapsed = [&t0] {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    };

    std::uint64_t total_weight = 0;
    for (const auto& u : stream) {
        total_weight += u.weight;
    }
    const auto threshold = static_cast<std::uint64_t>(a.phi * static_cast<double>(total_weight));

    if (a.algo == "smed" || a.algo == "smin") {
        sketch_u64 s(sketch_config{.max_counters = a.k,
                                   .decrement_quantile = a.algo == "smed" ? 0.5 : 0.0,
                                   .seed = a.seed});
        s.consume(stream);
        seconds = elapsed();
        bytes = s.memory_bytes();
        for (const auto& r : s.frequent_items(error_type::no_false_negatives, threshold)) {
            hits.push_back({r.id, r.estimate});
        }
    } else if (a.algo == "rbmc") {
        rbmc<std::uint64_t, std::uint64_t> s(a.k, a.seed);
        s.consume(stream);
        seconds = elapsed();
        bytes = s.memory_bytes();
        s.for_each([&](std::uint64_t id, std::uint64_t c) {
            if (c + s.maximum_error() > threshold) {
                hits.push_back({id, c + s.maximum_error()});
            }
        });
    } else if (a.algo == "mhe") {
        space_saving_heap<std::uint64_t, std::uint64_t> s(a.k, a.seed);
        s.consume(stream);
        seconds = elapsed();
        bytes = s.memory_bytes();
        s.for_each([&](std::uint64_t id, std::uint64_t c) {
            if (c > threshold) {
                hits.push_back({id, c});
            }
        });
    } else if (a.algo == "cm") {
        count_min_sketch<std::uint64_t, std::uint64_t> s(
            {.width = a.k, .depth = 4, .seed = a.seed});
        exact_counter<std::uint64_t, std::uint64_t> candidates;  // CM needs ids externally
        for (const auto& u : stream) {
            s.update(u.id, u.weight);
            candidates.update(u.id, 0);  // remember the id universe only
        }
        seconds = elapsed();
        bytes = s.memory_bytes();
        for (const auto& [id, unused] : candidates.counts()) {
            (void)unused;
            if (s.estimate(id) > threshold) {
                hits.push_back({id, s.estimate(id)});
            }
        }
    } else {
        std::fprintf(stderr, "unknown --algo %s\n", a.algo.c_str());
        return 2;
    }

    std::sort(hits.begin(), hits.end(), [](const hh& x, const hh& y) {
        return x.estimate > y.estimate;
    });
    std::printf("%s k=%u: %.3fs (%.1f M updates/s), %zu KiB, %zu heavy hitters over %.2f%%\n",
                a.algo.c_str(), a.k, seconds,
                static_cast<double>(stream.size()) / seconds / 1e6, bytes / 1024,
                hits.size(), a.phi * 100);
    for (std::size_t i = 0; i < std::min<std::size_t>(10, hits.size()); ++i) {
        std::printf("  %20llu  %llu\n", static_cast<unsigned long long>(hits[i].id),
                    static_cast<unsigned long long>(hits[i].estimate));
    }

    if (a.exact) {
        exact_counter<std::uint64_t, std::uint64_t> exact;
        exact.consume(stream);
        std::printf("exact heavy hitters: %zu\n", exact.heavy_hitters(threshold).size());
    }
    return 0;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw std::runtime_error("cannot open " + path);
    }
    return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        throw std::runtime_error("cannot open " + path);
    }
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/// The façade entry point: lifetime policy and knobs become a summarizer at
/// runtime — the same dispatch a config-driven service would perform.
summarizer build_from_flags(const args& a) {
    builder b;
    b.max_counters(a.k).seed(a.seed);
    // "smed" (the run-verb default) is the paper sketch too, so a bare
    // `sketch` invocation keeps building the paper summarizer.
    if (a.algo == "count_min") {
        b.algorithm(algo::count_min);
    } else if (a.algo == "count_sketch") {
        b.algorithm(algo::count_sketch);
    } else if (a.algo == "space_saving") {
        b.algorithm(algo::space_saving);
    } else if (a.algo != "paper" && a.algo != "smed") {
        throw std::invalid_argument(
            "unknown --algo " + a.algo +
            " (expected paper|count_min|count_sketch|space_saving)");
    }
    if (a.key == "text") {
        b.text_keys();
    } else if (a.key != "u64") {
        throw std::invalid_argument("unknown --key " + a.key + " (expected u64|text)");
    }
    if (a.policy == "fading") {
        b.fading(a.decay);
    } else if (a.policy == "window") {
        b.sliding_window(a.window);
    } else if (a.policy != "plain") {
        throw std::invalid_argument("unknown --policy " + a.policy +
                                    " (expected plain|fading|window)");
    }
    if (a.shards > 0) {
        b.sharded(a.shards);
    }
    if (a.snapshot_every > 0) {
        b.snapshot_every(std::chrono::milliseconds(a.snapshot_every));
    }
    // Memory placement is advisory: report what the host can actually honor
    // so a degraded run (no THP, single node, FREQ_NUMA=OFF) is visible
    // instead of silently identical.
    if (a.hugepages) {
        b.hugepages();
        const mem::topology& topo = mem::host_topology();
        if (!mem::numa_compiled) {
            std::fprintf(stderr,
                         "--hugepages: built without NUMA/hugepage support "
                         "(FREQ_NUMA=OFF or non-Linux); running with ordinary pages\n");
        } else if (!topo.thp_available && topo.explicit_hugepage_bytes == 0) {
            std::fprintf(stderr,
                         "--hugepages: host has no transparent-huge-page support and "
                         "an empty hugepage pool; running with ordinary pages\n");
        }
    }
    if (a.numa) {
        b.numa(numa_policy::interleave);
        const mem::topology& topo = mem::host_topology();
        if (a.shards == 0) {
            std::fprintf(stderr,
                         "--numa: standalone summarizer (no --shards); nothing to "
                         "interleave\n");
        } else if (!topo.multi_node()) {
            std::fprintf(stderr,
                         "--numa: single NUMA node detected; shard placement "
                         "unchanged\n");
        }
    }
    return b.build();
}

error_mode mode_from_flags(const args& a) {
    if (a.mode == "nfp") {
        return error_mode::no_false_positives;
    }
    if (a.mode == "nfn") {
        return error_mode::no_false_negatives;
    }
    throw std::invalid_argument("unknown --mode " + a.mode + " (expected nfp|nfn)");
}

int cmd_sketch(const args& a) {
    if (a.positional.size() < 2) {
        std::fprintf(stderr, "sketch: trace and output paths required\n");
        return 2;
    }
    const auto stream = read_trace(a.positional[0]);
    auto s = build_from_flags(a);
    // Replay in chunks: a policy tick every --tick-every updates (so fading /
    // windowed summaries age mid-trace the way a live deployment would), and
    // with --snapshot-every a live read between chunks served from the
    // cached published view instead of a per-query fold.
    std::size_t chunk = a.tick_every > 0 ? a.tick_every : stream.size();
    if (s.snapshot_service_enabled() && a.tick_every == 0) {
        chunk = std::max<std::size_t>(1, stream.size() / 8);
    }
    const bool text = a.key == "text";
    if (a.stats_every > 0) {
        chunk = std::min<std::size_t>(chunk, a.stats_every);
    }
    std::uint64_t next_stats = a.stats_every;
    std::size_t i = 0;
    while (i < stream.size()) {
        const std::size_t run = std::min<std::size_t>(chunk, stream.size() - i);
        if (text) {
            // Trace ids become words: the text path fingerprints each word
            // back to 64 bits (sharded: in the engine producers).
            std::string word;
            for (std::size_t j = i; j < i + run; ++j) {
                word = "w";
                word += std::to_string(stream[j].id);
                s.update(word, static_cast<double>(stream[j].weight));
            }
        } else {
            s.update(std::span<const update64>(stream.data() + i, run));
        }
        i += run;
        if (s.snapshot_service_enabled()) {
            std::printf("live @ %zu/%zu: epoch=%llu N=%.6g (cached view)\n", i,
                        stream.size(),
                        static_cast<unsigned long long>(s.snapshot_epoch()),
                        s.total_weight());
        }
        if (a.stats_every > 0 && i >= next_stats) {
            std::printf("--- telemetry @ %zu/%zu updates ---\n%s", i, stream.size(),
                        summarizer::telemetry().to_prometheus().c_str());
            while (next_stats <= i) {
                next_stats += a.stats_every;
            }
        }
        if (a.tick_every > 0 && i < stream.size()) {
            s.tick();
        }
    }
    write_file(a.positional[1], s.save().bytes());
    std::printf("sketched %zu updates -> %s (%s, %s)\n", stream.size(),
                a.positional[1].c_str(), s.descriptor().to_string().c_str(),
                s.to_string().c_str());
    return 0;
}

int cmd_merge(const args& a) {
    if (a.positional.size() < 3) {
        std::fprintf(stderr, "merge: output and >= 2 input sketches required\n");
        return 2;
    }
    auto acc = restore_summary(read_file(a.positional[1]));
    for (std::size_t i = 2; i < a.positional.size(); ++i) {
        const auto next = restore_summary(read_file(a.positional[i]));
        acc.merge(next);
    }
    write_file(a.positional[0], acc.save().bytes());
    std::printf("merged %zu sketches -> %s (%s)\n", a.positional.size() - 1,
                a.positional[0].c_str(), acc.to_string().c_str());
    return 0;
}

int cmd_query(const args& a) {
    if (a.positional.size() < 2) {
        std::fprintf(stderr, "query: sketch path and >= 1 id required\n");
        return 2;
    }
    const auto s = restore_summary(read_file(a.positional[0]));
    std::printf("%s\n", s.descriptor().to_string().c_str());
    const bool text = s.descriptor().keys == key_kind::text;
    for (std::size_t i = 1; i < a.positional.size(); ++i) {
        if (text) {
            const std::string& word = a.positional[i];
            std::printf("%s: estimate=%.6g  bounds=[%.6g, %.6g]\n", word.c_str(),
                        s.estimate(word), s.lower_bound(word), s.upper_bound(word));
        } else {
            const std::uint64_t id = std::strtoull(a.positional[i].c_str(), nullptr, 10);
            std::printf("%llu: estimate=%.6g  bounds=[%.6g, %.6g]\n",
                        static_cast<unsigned long long>(id), s.estimate(id),
                        s.lower_bound(id), s.upper_bound(id));
        }
    }
    return 0;
}

int cmd_report(const args& a) {
    if (a.positional.empty()) {
        std::fprintf(stderr, "report: sketch path required\n");
        return 2;
    }
    const auto s = restore_summary(read_file(a.positional[0]));
    const error_mode mode = mode_from_flags(a);
    const auto rs = s.frequent_items(mode, a.phi * s.total_weight());
    std::printf("algorithm: %s\n", to_string(s.descriptor().algorithm));
    std::printf("%s\n%s\n", s.descriptor().to_string().c_str(), rs.to_string().c_str());
    std::printf("guarantee: %s over threshold %.6g (phi=%.4g%%, N=%.6g, max_error=%.6g)\n",
                rs.mode() == error_mode::no_false_positives
                    ? "every row truly exceeds the threshold"
                    : "no item above the threshold is missing",
                rs.threshold(), 100.0 * rs.phi(), rs.total_weight(), rs.maximum_error());
    std::printf("%20s %14s %14s %14s\n", "item", "estimate", "lower", "upper");
    for (std::size_t i = 0; i < std::min<std::size_t>(20, rs.size()); ++i) {
        const auto& row = rs[i];
        std::printf("%20s %14.6g %14.6g %14.6g\n", row.item.c_str(), row.estimate,
                    row.lower_bound, row.upper_bound);
    }
    if (rs.size() > 20) {
        std::printf("  ... %zu more rows\n", rs.size() - 20);
    }
    return 0;
}

std::vector<unsigned> parse_levels(const std::string& spec) {
    std::vector<unsigned> out;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        const std::size_t comma = spec.find(',', pos);
        const std::string tok =
            spec.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
        if (!tok.empty()) {
            out.push_back(static_cast<unsigned>(std::strtoul(tok.c_str(), nullptr, 10)));
        }
        if (comma == std::string::npos) {
            break;
        }
        pos = comma + 1;
    }
    if (out.empty()) {
        throw std::invalid_argument("--levels: no prefix lengths in '" + spec + "'");
    }
    return out;
}

telemetry::hhh_summarizer build_hhh_from_flags(const args& a) {
    lifetime_kind lifetime = lifetime_kind::plain;
    if (a.policy == "fading") {
        lifetime = lifetime_kind::fading;
    } else if (a.policy == "window") {
        lifetime = lifetime_kind::windowed;
    } else if (a.policy != "plain") {
        throw std::invalid_argument("unknown --policy " + a.policy +
                                    " (expected plain|fading|window)");
    }
    telemetry::hhh_config cfg;
    for (const unsigned len : parse_levels(a.levels)) {
        cfg.levels.push_back({.prefix_len = len,
                              .lifetime = lifetime,
                              .decay = a.decay,
                              .window_epochs = a.window});
    }
    cfg.counters_per_level = a.k;
    cfg.seed = a.seed;
    cfg.shards = std::max<std::uint32_t>(1, a.shards);
    if (a.snapshot_every > 0) {
        cfg.snapshot_every = std::chrono::milliseconds(a.snapshot_every);
    }
    return telemetry::hhh_summarizer(std::move(cfg));
}

void print_replay_report(const telemetry::replay_report& rep) {
    std::printf("replayed %llu records in %.3fs: %.2f M records/s, %llu epoch ticks\n",
                static_cast<unsigned long long>(rep.records), rep.seconds,
                rep.records_per_sec / 1e6, static_cast<unsigned long long>(rep.ticks));
    std::printf("chunk tails: p50=%.3fms p99=%.3fms\n", rep.chunk_p50_s * 1e3,
                rep.chunk_p99_s * 1e3);
}

int cmd_hhh(const args& a) {
    if (a.positional.empty()) {
        std::fprintf(stderr, "hhh: trace path required\n");
        return 2;
    }
    const auto trace = read_timed_trace(a.positional[0]);
    auto monitor = build_hhh_from_flags(a);
    const auto rep = telemetry::replay_into(
        monitor, trace, {.tick_interval = a.tick_every});
    print_replay_report(rep);
    std::printf("%zu levels x %u shards, %zu KiB of sketches, N=%.6g\n",
                monitor.num_levels(), monitor.cfg().shards,
                monitor.memory_bytes() / 1024, monitor.total_weight());

    const auto rows = monitor.query(a.phi);
    std::printf("hierarchical heavy hitters (phi=%.4g%%):\n", 100.0 * a.phi);
    std::printf("%-22s %14s %16s\n", "prefix", "estimate", "conditioned");
    for (const auto& r : rows) {
        std::printf("%-22s %14.6g %16.6g\n", r.to_string().c_str(), r.estimate,
                    r.conditioned);
    }
    return 0;
}

int cmd_replay(const args& a) {
    if (a.positional.empty()) {
        std::fprintf(stderr, "replay: trace path required\n");
        return 2;
    }
    const auto trace = read_timed_trace(a.positional[0]);
    const telemetry::replay_options opt{.tick_interval = a.tick_every};
    if (a.into == "hhh") {
        auto monitor = build_hhh_from_flags(a);
        const auto rep = telemetry::replay_into(monitor, trace, opt);
        print_replay_report(rep);
        std::printf("sink: hhh %zu levels x %u shards, N=%.6g\n", monitor.num_levels(),
                    monitor.cfg().shards, monitor.total_weight());
        return 0;
    }
    if (a.into != "engine") {
        std::fprintf(stderr, "replay: unknown --into %s (expected engine|hhh)\n",
                     a.into.c_str());
        return 2;
    }
    args sink_args = a;
    if (sink_args.shards == 0) {
        sink_args.shards = 2;  // replay exercises the sharded pipeline by default
    }
    auto s = build_from_flags(sink_args);
    const auto rep = telemetry::replay_into(s, trace, opt);
    print_replay_report(rep);
    std::printf("sink: engine %s, N=%.6g\n", s.descriptor().to_string().c_str(),
                s.total_weight());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: freq_cli <gen|stats|run|sketch|merge|query|report|hhh|replay>"
                     " ... (see file header for flags)\n");
        return 2;
    }
    const std::string cmd = argv[1];
    const args a = parse(argc, argv);
    try {
        if (cmd == "gen") return cmd_gen(a);
        if (cmd == "stats") return cmd_stats(a);
        if (cmd == "run") return cmd_run(a);
        if (cmd == "sketch") return cmd_sketch(a);
        if (cmd == "merge") return cmd_merge(a);
        if (cmd == "query") return cmd_query(a);
        if (cmd == "report") return cmd_report(a);
        if (cmd == "hhh") return cmd_hhh(a);
        if (cmd == "replay") return cmd_replay(a);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "unknown command %s\n", cmd.c_str());
    return 2;
}
