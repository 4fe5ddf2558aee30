#ifndef FREQ_PERFBENCH_BENCH_H
#define FREQ_PERFBENCH_BENCH_H

/// \file bench.h
/// Shared declarations of the libfreq benchmark: workload configuration,
/// seeded inputs, timing statistics, the in-memory span recorder and the
/// allocation counter used by traced runs.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/summarizer.h"
#include "stream/exact_counter.h"
#include "stream/update.h"

namespace perfbench {

using clock_type = std::chrono::steady_clock;

inline double seconds_between(clock_type::time_point a, clock_type::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

// --- workloads ---------------------------------------------------------------

/// Counters per summary (the paper's deployed size) and the heavy-hitter
/// threshold fraction every query and check uses.
constexpr std::uint32_t k = 4096;
constexpr double phi = 0.001;

enum class stream_kind { caida, zipf };

/// Everything that distinguishes one workload from another. The program
/// under test only ever sees the inputs these parameters generate.
struct workload_config {
    std::string name;
    stream_kind kind = stream_kind::zipf;
    double alpha = 1.1;
    std::uint64_t distinct = 1'000'000;  ///< rank space (flows for caida)
    std::uint64_t min_weight = 1;
    std::uint64_t max_weight = 100;
    std::uint32_t shards = 0;           ///< 0 = standalone façade
    std::uint32_t snapshot_us = 0;      ///< 0 = no snapshot service
    std::size_t round_updates = 0;      ///< updates ingested per round
    std::size_t query_every = 1;        ///< chunks between dashboard polls
    std::size_t flush_every = 4;        ///< chunks between visibility polls
    std::size_t fleet_nodes = 0;        ///< pre-saved envelopes merged per round
    std::size_t node_updates = 0;       ///< updates behind each fleet envelope
    bool aggregate_is_product = false;  ///< accuracy metrics read the aggregate
};

const workload_config* find_workload(const std::string& name);
std::vector<std::string> workload_names();

using stream = std::vector<freq::update64>;

/// The round stream plus fleet_nodes node streams, all drawn from one
/// generator sequence so every part shares the same key universe.
struct workload_inputs {
    stream round;
    std::vector<stream> nodes;
};

workload_inputs make_inputs(const workload_config& cfg, std::uint64_t seed);

/// The keys of a stream spelled "w<id>", for the text-layer replays.
struct text_stream {
    std::vector<std::uint32_t> word;  ///< index into vocab per update
    std::vector<std::string> vocab;
    std::string_view spelling(std::size_t i) const { return vocab[word[i]]; }
};

text_stream with_spellings(const stream& s);

// --- façade factory (the only translation unit that includes builder.h) -----

freq::summarizer make_ingest_summarizer(const workload_config& cfg, std::uint64_t seed);
/// A standalone summary: fleet nodes and the merge aggregate.
freq::summarizer make_aggregate(std::uint64_t seed);
freq::summarizer restore(const freq::summary_bytes& bytes);
/// A summarizer whose summary ignores updates: its feeder costs only the
/// façade's dispatch (the ledger's api/ term).
freq::summarizer null_sink();

// --- statistics --------------------------------------------------------------

double median(std::vector<double> v);
/// Nearest-rank percentile (q in [0, 1]).
double percentile(std::vector<double> v, double q);

// --- tracing -------------------------------------------------------------------

/// In-memory span recorder: spans are appended while the benchmark runs and
/// written out once at the end. Per-item layers are recorded as one span
/// per block of calls with the block's item count. A disabled tracer
/// records nothing.
class tracer {
public:
    struct span {
        std::string name;
        std::int64_t parent = -1;
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
        std::uint64_t items = 1;
    };

    explicit tracer(bool on) : on_(on), epoch_(clock_type::now()) {}

    std::int64_t begin(const char* name, std::int64_t parent = -1) {
        if (!on_) {
            return -1;
        }
        spans_.push_back(span{name, parent, now_ns(), 0, 1});
        return static_cast<std::int64_t>(spans_.size() - 1);
    }

    void end(std::int64_t id, std::uint64_t items = 1) {
        if (id < 0) {
            return;
        }
        span& s = spans_[static_cast<std::size_t>(id)];
        s.end_ns = now_ns();
        s.items = items;
    }

    /// Records an already-measured block (the layer replays time their
    /// blocks themselves).
    void add(const char* name, std::int64_t parent, std::int64_t start_ns,
             std::int64_t end_ns, std::uint64_t items) {
        if (on_) {
            spans_.push_back(span{name, parent, start_ns, end_ns, items});
        }
    }

    std::int64_t now_ns() const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(clock_type::now() - epoch_)
            .count();
    }

    struct totals {
        double total_ns = 0.0;
        double self_ns = 0.0;
        std::uint64_t spans = 0;
        std::uint64_t items = 0;
    };

    /// Per-name duration totals and self times (a span's duration minus the
    /// part its child spans cover).
    std::map<std::string, totals> summarize() const;

    /// Writes every span as one JSON line.
    bool write_jsonl(const std::string& path) const;

    std::size_t size() const noexcept { return spans_.size(); }

private:
    bool on_;
    clock_type::time_point epoch_;
    std::vector<span> spans_;
};

// --- allocation counting (traced runs only) ------------------------------------

/// Heap allocations seen while counting is on; only traced runs turn it on,
/// so untraced runs pay one relaxed load per allocation.
void alloc_counting(bool on);
std::uint64_t alloc_count();

// --- results ----------------------------------------------------------------------

struct metric {
    double value = 0.0;
    std::string unit;
};

struct run_result {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::pair<std::string, metric>> metrics;
    std::vector<std::pair<std::string, std::string>> info;  ///< context line
    std::vector<std::string> lines;                          ///< printed before the result

    void put(const std::string& name, double value, const std::string& unit) {
        metrics.emplace_back(name, metric{value, unit});
    }
    void note(const std::string& key, const std::string& json_value) {
        info.emplace_back(key, json_value);
    }
};

run_result run_workload(const workload_config& cfg, std::uint64_t seed, double seconds,
                        bool trace, const std::string& trace_path);

// --- per-layer replays ---------------------------------------------------------------

/// Threads a run may start beside its main thread, within nproc where the
/// host allows it.
struct thread_budget {
    std::uint32_t shards = 2;  ///< engine workers
    bool service = true;       ///< a snapshot-service thread besides them
};

/// Replays the workload's stream (and its text form) against each layer's
/// public functions in blocks of calls; stores the per-layer figures in
/// \p values.
void run_layers(std::uint64_t seed, const stream& ups, const text_stream& text,
                thread_budget threads, tracer& tr, std::map<std::string, double>& values);

/// The ledger's per-update terms from one pass over \p ups, each layer
/// timed on its own: the façade's dispatch (api/) and the layer under it
/// (core/ standalone; engine/ pushes and flush barriers sharded).
struct ledger_terms {
    double api_ns = 0.0;
    double below_ns = 0.0;
};

ledger_terms ledger_pass(const workload_config& cfg, std::uint64_t seed, const stream& ups,
                         const std::vector<std::uint64_t>& probes, tracer& tr);

/// Share of updates routed to the busiest of \p shards engine shards.
double hot_shard_share(const stream& s, std::uint32_t shards, std::uint64_t seed);

}  // namespace perfbench

#endif  // FREQ_PERFBENCH_BENCH_H
