// Workload table, seeded input generation, statistics and the span
// recorder's summaries.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <unordered_map>

#include "bench.h"
#include "stream/generators.h"

namespace perfbench {

namespace {

// Why each workload exists is recorded in BENCHMARK.json. The sizes give
// every reported tail at least tens of samples beyond it in the fastest
// tenth of a 30 s run's rounds.
const std::vector<workload_config>& table() {
    static const std::vector<workload_config> t = [] {
        std::vector<workload_config> v;

        workload_config ws;
        ws.name = "weighted_standalone";
        ws.kind = stream_kind::caida;
        ws.alpha = 1.1;
        ws.distinct = 500'000;
        ws.round_updates = 2'000'000;
        ws.query_every = 1;
        ws.flush_every = 4;
        ws.fleet_nodes = 128;
        ws.node_updates = 12'500;
        v.push_back(ws);

        workload_config sl;
        sl.name = "sharded_live";
        sl.kind = stream_kind::zipf;
        sl.alpha = 1.1;
        sl.distinct = 1'000'000;
        sl.min_weight = 1;
        sl.max_weight = 100;
        sl.shards = 2;
        sl.snapshot_us = 1000;
        sl.round_updates = 2'000'000;
        sl.query_every = 4;
        sl.flush_every = 32;
        sl.fleet_nodes = 128;
        sl.node_updates = 12'500;
        v.push_back(sl);

        workload_config mf;
        mf.name = "merge_fleet";
        mf.kind = stream_kind::zipf;
        mf.alpha = 1.05;
        mf.distinct = 1'000'000;
        mf.min_weight = 1;
        mf.max_weight = 10'000;
        mf.round_updates = 50'000;
        mf.query_every = 1;
        mf.flush_every = 1;
        mf.fleet_nodes = 128;
        mf.node_updates = 25'000;
        mf.aggregate_is_product = true;
        v.push_back(mf);
        return v;
    }();
    return t;
}

}  // namespace

const workload_config* find_workload(const std::string& name) {
    for (const auto& w : table()) {
        if (w.name == name) {
            return &w;
        }
    }
    return nullptr;
}

std::vector<std::string> workload_names() {
    std::vector<std::string> out;
    for (const auto& w : table()) {
        out.push_back(w.name);
    }
    return out;
}

workload_inputs make_inputs(const workload_config& cfg, std::uint64_t seed) {
    const std::size_t total = cfg.round_updates + cfg.fleet_nodes * cfg.node_updates;
    stream all;
    if (cfg.kind == stream_kind::caida) {
        freq::caida_like_generator gen(
            {.num_updates = total, .num_flows = cfg.distinct, .alpha = cfg.alpha, .seed = seed});
        all = gen.generate();
    } else {
        freq::zipf_stream_generator gen({.num_updates = total,
                                         .num_distinct = cfg.distinct,
                                         .alpha = cfg.alpha,
                                         .min_weight = cfg.min_weight,
                                         .max_weight = cfg.max_weight,
                                         .seed = seed});
        all = gen.generate();
    }
    auto part = [&](std::size_t from, std::size_t n) {
        return stream(all.begin() + static_cast<std::ptrdiff_t>(from),
                      all.begin() + static_cast<std::ptrdiff_t>(from + n));
    };
    workload_inputs in;
    in.round = part(0, cfg.round_updates);
    in.nodes.reserve(cfg.fleet_nodes);
    for (std::size_t j = 0; j < cfg.fleet_nodes; ++j) {
        in.nodes.push_back(part(cfg.round_updates + j * cfg.node_updates, cfg.node_updates));
    }
    return in;
}

text_stream with_spellings(const stream& s) {
    std::unordered_map<std::uint64_t, std::uint32_t> index_of;
    text_stream out;
    out.word.reserve(s.size());
    for (const auto& u : s) {
        const auto [it, fresh] =
            index_of.try_emplace(u.id, static_cast<std::uint32_t>(out.vocab.size()));
        if (fresh) {
            // Built with += : g++ 12 Release flags the equivalent literal +
            // to_string concatenation with a false -Wrestrict.
            std::string spelling = "w";
            spelling += std::to_string(u.id);
            out.vocab.push_back(std::move(spelling));
        }
        out.word.push_back(it->second);
    }
    return out;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double q) {
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(i, v.size() - 1)];
}

std::map<std::string, tracer::totals> tracer::summarize() const {
    std::vector<double> child_ns(spans_.size(), 0.0);
    for (const auto& s : spans_) {
        if (s.parent >= 0) {
            child_ns[static_cast<std::size_t>(s.parent)] +=
                static_cast<double>(s.end_ns - s.start_ns);
        }
    }
    std::map<std::string, totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const span& s = spans_[i];
        totals& t = out[s.name];
        const double d = static_cast<double>(s.end_ns - s.start_ns);
        t.total_ns += d;
        t.self_ns += d - child_ns[i];
        t.spans += 1;
        t.items += s.items;
    }
    return out;
}

bool tracer::write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const span& s = spans_[i];
        std::fprintf(f,
                     "{\"id\": %zu, \"name\": \"%s\", \"parent\": %lld, \"start_ns\": %lld, "
                     "\"end_ns\": %lld, \"items\": %llu}\n",
                     i, s.name.c_str(), static_cast<long long>(s.parent),
                     static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                     static_cast<unsigned long long>(s.items));
    }
    return std::fclose(f) == 0;
}

}  // namespace perfbench
