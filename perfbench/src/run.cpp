// The end-to-end runner: seeded setup, closed-loop timed rounds through the
// public façade, correctness checks against exact_counter, and the traced
// run that adds spans, allocation counts and the per-layer ledger.
//
// One round: build a fresh summarizer (untimed), push the round stream
// through one feeder in fixed-size chunks with dashboard and visibility
// polls between chunks, reach the applied barrier, then save the result and
// restore + merge it with the fleet's pre-saved envelopes into a fresh
// aggregate. Every round repeats the same work: the same inputs into
// summaries with the same hash seed, the run's seed. Timings are medians and
// tails over rounds, accuracy figures those of the first round.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <unordered_set>

#include <sched.h>

#include "bench.h"
#include "common/simd.h"

namespace perfbench {

namespace {

using freq::error_mode;

/// Updates pushed between two clock reads.
constexpr std::size_t chunk = 4096;

/// Exact answers for one stream (or a union of streams).
struct oracle {
    freq::exact_counter<std::uint64_t, std::uint64_t> exact;
    double total = 0.0;
    std::vector<std::uint64_t> heavy;  ///< ids with f > phi * N

    double f(std::uint64_t id) const { return static_cast<double>(exact.frequency(id)); }
};

oracle make_oracle(const std::vector<const stream*>& parts) {
    oracle o;
    for (const stream* s : parts) {
        for (const auto& u : *s) {
            o.exact.update(u.id, u.weight);
        }
    }
    o.total = static_cast<double>(o.exact.total_weight());
    for (const auto& [id, f] : o.exact.counts()) {
        if (static_cast<double>(f) > phi * o.total) {
            o.heavy.push_back(id);
        }
    }
    return o;
}

struct round_oracles {
    oracle round;
    oracle fleet;  ///< round stream plus every node stream
};

/// Counts correctness checks and their violations.
struct checker {
    std::uint64_t checks = 0;
    std::uint64_t failed = 0;

    void expect(bool ok, const char* what, double a = 0.0, double b = 0.0) {
        ++checks;
        if (!ok) {
            ++failed;
            if (failed <= 20) {
                std::fprintf(stderr, "violation: %s (%.17g vs %.17g)\n", what, a, b);
            }
        }
    }
};

/// Timings of one round.
struct round_times {
    double ingest_s = 0.0;    ///< ingest phase, polls included
    double merge_s = 0.0;
    double ingest_mups = 0.0;
    double merge_per_s = 0.0;
    std::vector<double> chunk_us, query_us, flush_us, merge_us;
};

/// Everything a run keeps across rounds.
struct samples {
    std::vector<round_times> rounds;
    std::uint64_t updates = 0;
    std::uint64_t polls = 0;
    std::uint64_t merges = 0;
    std::uint64_t ingest_allocs = 0;
    double err_bound_frac = 0.0;
    double mem_bytes = 0.0;
    double envelope_bytes = 0.0;
    double fill = 0.0;

    /// The fastest tenth of the rounds, ranked by the time of one phase
    /// (ingest or merge). Rounds repeat identical work (same inputs, same
    /// hash seed), so they differ only in interference; on shared hosts the
    /// CPU's speed drifts by up to 1.5x over seconds, and the fastest tenth
    /// is what the run saw when the host was at its best. A change that
    /// slows the program, or makes a seed pathological, slows every round
    /// of that seed's run, so it still shows.
    std::vector<const round_times*> kept(double round_times::*phase) const {
        std::vector<const round_times*> out;
        for (const auto& r : rounds) {
            out.push_back(&r);
        }
        std::sort(out.begin(), out.end(), [phase](const round_times* a, const round_times* b) {
            return a->*phase < b->*phase;
        });
        out.resize((out.size() + 9) / 10);
        return out;
    }
};

/// One per-round figure over the kept rounds.
std::vector<double> per_round(const std::vector<const round_times*>& rs,
                              double round_times::*field) {
    std::vector<double> out;
    for (const round_times* r : rs) {
        out.push_back(r->*field);
    }
    return out;
}

/// Samples of the kept rounds, pooled.
std::vector<double> pooled(const std::vector<const round_times*>& rs,
                           std::vector<double> round_times::*field) {
    std::vector<double> out;
    for (const round_times* r : rs) {
        out.insert(out.end(), (r->*field).begin(), (r->*field).end());
    }
    return out;
}

/// State built by setup: inputs, the fleet's saved envelopes, query keys.
struct prepared {
    workload_inputs in;
    std::vector<freq::summary_bytes> fleet;
    std::vector<std::uint64_t> probes;
    std::vector<double> prefix_weight;  ///< prefix sums of the round stream
};

volatile double sink = 0.0;

/// The full check set of one summary against its oracle: brackets of the
/// probe keys and of every reported row, the NFN/NFP threshold semantics,
/// and optionally Theorem 5's bound for merged summaries.
void check_summary(const freq::summarizer& s, const oracle& o,
                   const std::vector<std::uint64_t>& probes, bool theorem5, checker& chk) {
    const double n = s.total_weight();
    const double max_err = s.maximum_error();
    chk.expect(n == o.total, "total_weight == N", n, o.total);
    for (const std::uint64_t id : probes) {
        const double f = o.f(id);
        const double lo = s.lower_bound(id);
        const double hi = s.upper_bound(id);
        const double e = s.estimate(id);
        chk.expect(lo <= f, "lower_bound <= f", lo, f);
        chk.expect(f <= hi, "f <= upper_bound", f, hi);
        chk.expect(std::fabs(f - e) <= max_err, "|f - estimate| <= maximum_error",
                   std::fabs(f - e), max_err);
    }
    const double threshold = phi * o.total;
    std::unordered_set<std::uint64_t> reported;
    for (const auto& r : s.frequent_items(error_mode::no_false_negatives, threshold)) {
        reported.insert(r.id);
        const double f = o.f(r.id);
        chk.expect(r.lower_bound <= f && f <= r.upper_bound, "NFN row bracket", f,
                   r.upper_bound);
    }
    for (const std::uint64_t id : o.heavy) {
        chk.expect(reported.count(id) == 1, "NFN reports every item above phi*N", o.f(id),
                   threshold);
    }
    for (const auto& r : s.frequent_items(error_mode::no_false_positives, threshold)) {
        chk.expect(o.f(r.id) > threshold, "NFP reports no item at or below phi*N", o.f(r.id),
                   threshold);
    }
    if (theorem5) {
        // Theorem 5: f - lower_bound <= (N - C) / k* with k* >= 0.33 k,
        // where C is the merged counter sum; the offset obeys the same bound.
        double c_sum = 0.0;
        for (const auto& r : s.top_items(k)) {
            c_sum += r.lower_bound;
        }
        const double bound = (n - c_sum) / (0.33 * k);
        chk.expect(max_err <= bound, "Theorem 5: maximum_error <= (N - C) / 0.33k", max_err,
                   bound);
        for (const std::uint64_t id : probes) {
            const double gap = o.f(id) - s.lower_bound(id);
            chk.expect(gap <= bound, "Theorem 5: f - lower_bound <= (N - C) / 0.33k", gap,
                       bound);
        }
    }
}

/// Eight heaviest keys plus eight keys at fixed stream positions.
std::vector<std::uint64_t> make_probes(const stream& st, const oracle& o) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> by_count(o.exact.counts().begin(),
                                                                  o.exact.counts().end());
    const std::size_t top = std::min<std::size_t>(8, by_count.size());
    std::partial_sort(by_count.begin(), by_count.begin() + static_cast<std::ptrdiff_t>(top),
                      by_count.end(), [](const auto& a, const auto& b) {
                          return a.second != b.second ? a.second > b.second : a.first < b.first;
                      });
    std::vector<std::uint64_t> out;
    for (std::size_t j = 0; j < top; ++j) {
        out.push_back(by_count[j].first);
    }
    for (std::size_t j = 0; j < 8; ++j) {
        out.push_back(st[j * st.size() / 8].id);
    }
    return out;
}

prepared setup(const workload_config& cfg, std::uint64_t seed) {
    prepared p;
    p.in = make_inputs(cfg, seed);
    p.fleet.reserve(cfg.fleet_nodes);
    for (std::size_t j = 0; j < p.in.nodes.size(); ++j) {
        freq::summarizer s = make_aggregate(seed + 1 + j);
        for (const auto& u : p.in.nodes[j]) {
            s.update(u.id, static_cast<double>(u.weight));
        }
        p.fleet.push_back(s.save());
    }
    return p;
}

/// One dashboard poll: 16 point estimates and the heavy hitters above
/// phi * N. Returns the N the answer was computed over.
double poll(const freq::summarizer& s, const std::vector<std::uint64_t>& probes,
            double pushed) {
    double acc = 0.0;
    for (const std::uint64_t id : probes) {
        acc += s.estimate(id);
    }
    const freq::result_set rows = s.frequent_items(error_mode::no_false_negatives, phi * pushed);
    sink = sink + acc + static_cast<double>(rows.size());
    return rows.total_weight();
}

/// Pins the feeding thread to one CPU it may run on, the next one for each
/// round (advance()). On shared hosts one core slows down by up to 1.5x for
/// tens of seconds while a neighbour loads it; with rounds spread over
/// every core, the fastest tenth comes from the cores that were quiet.
/// Threads inherit their creator's CPU set, so a summarizer's engine
/// threads are started with the full set (release()) and the feeder is
/// pinned after.
class cpu_rotation {
public:
    cpu_rotation() {
        if (sched_getaffinity(0, sizeof original_, &original_) == 0) {
            for (int c = 0; c < CPU_SETSIZE; ++c) {
                if (CPU_ISSET(c, &original_)) {
                    cpus_.push_back(c);
                }
            }
        }
    }
    ~cpu_rotation() { release(); }
    cpu_rotation(const cpu_rotation&) = delete;
    cpu_rotation& operator=(const cpu_rotation&) = delete;

    void advance() { ++next_; }
    void pin() {
        if (cpus_.size() > 1) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpus_[next_ % cpus_.size()], &one);
            sched_setaffinity(0, sizeof one, &one);
        }
    }
    void release() {
        if (cpus_.size() > 1) {
            sched_setaffinity(0, sizeof original_, &original_);
        }
    }

private:
    cpu_set_t original_{};
    std::vector<int> cpus_;
    std::size_t next_ = 0;
};

/// Ingest phase of one round; returns the summary at the applied barrier.
freq::summarizer ingest(const workload_config& cfg, std::uint64_t seed, const prepared& p,
                        samples& sm, round_times& rt, checker& chk, tracer& tr,
                        std::int64_t root, cpu_rotation* cpus) {
    const stream& ups = p.in.round;
    if (cpus != nullptr) {
        cpus->release();
    }
    freq::summarizer s = make_ingest_summarizer(cfg, seed);
    if (cpus != nullptr) {
        cpus->pin();
    }
    const std::uint64_t allocs0 = alloc_count();
    double query_s = 0.0;
    {
        freq::summarizer::feeder f = s.make_feeder();
        const std::size_t n = ups.size();
        const auto t_start = clock_type::now();
        std::size_t c = 0;
        for (std::size_t b = 0; b < n; b += chunk, ++c) {
            const std::size_t e = std::min(n, b + chunk);
            const std::int64_t sp = tr.begin("api.push", root);
            const auto t0 = clock_type::now();
            for (std::size_t i = b; i < e; ++i) {
                f.push(ups[i].id, static_cast<double>(ups[i].weight));
            }
            const auto t1 = clock_type::now();
            tr.end(sp, e - b);
            rt.chunk_us.push_back(seconds_between(t0, t1) * 1e6);
            const double pushed = p.prefix_weight[e];
            if (c % cfg.query_every == 0) {
                const std::int64_t qs = tr.begin("api.query", root);
                const auto q0 = clock_type::now();
                poll(s, p.probes, pushed);
                const auto q1 = clock_type::now();
                tr.end(qs);
                query_s += seconds_between(q0, q1);
                rt.query_us.push_back(seconds_between(q0, q1) * 1e6);
                ++sm.polls;
            }
            if (c % cfg.flush_every == cfg.flush_every / 2) {
                // Visibility: from the last push until a dashboard poll
                // has answered over everything pushed.
                const std::int64_t fs = tr.begin("api.flush", root);
                const auto v0 = clock_type::now();
                f.flush();
                s.flush();
                const auto vq = clock_type::now();
                const double seen = poll(s, p.probes, pushed);
                const auto v1 = clock_type::now();
                tr.end(fs);
                query_s += seconds_between(vq, v1);
                chk.expect(seen == pushed, "flushed pushes are visible", seen, pushed);
                rt.flush_us.push_back(seconds_between(v0, v1) * 1e6);
                ++sm.polls;
            }
        }
        f.flush();
        s.flush();
        const auto t_end = clock_type::now();
        // Dashboard polls run on the ingest thread; their time is reported
        // as query (and visibility) latency, not as ingest time. Flush
        // barriers stay in: reaching the applied state is part of ingest.
        const double ingest_s = seconds_between(t_start, t_end) - query_s;
        rt.ingest_mups = static_cast<double>(n) / ingest_s / 1e6;
        rt.ingest_s = ingest_s + query_s;
        sm.updates += n;
    }
    sm.ingest_allocs += alloc_count() - allocs0;
    return s;
}

/// Merge phase of one round plus the end-of-round checks.
void merge_and_check(const workload_config& cfg, std::uint64_t seed, const prepared& p,
                     const round_oracles& o, freq::summarizer s, samples& sm, round_times& rt,
                     checker& chk, tracer& tr, std::int64_t root, bool check) {
    // Accuracy and size figures come from a run's first round.
    const bool first = sm.rounds.empty();
    std::int64_t sv = tr.begin("api.save", root);
    const freq::summary_bytes own = s.save();
    tr.end(sv);
    if (first) {
        sm.fill = static_cast<double>(s.num_counters()) / k;
        if (!cfg.aggregate_is_product) {
            sm.err_bound_frac = s.maximum_error() / s.total_weight();
        }
    }
    // A summary's size swings with how full its table happens to be (k/2 to
    // k counters under median decrements), so both size figures are means
    // over every summary and envelope of the round.
    double mem = static_cast<double>(s.memory_bytes());
    double bytes = static_cast<double>(own.size());
    // Keep a standalone copy for the checks and stop a sharded summarizer's
    // threads, so they cannot disturb the merge timings.
    const freq::summarizer ingested = cfg.shards > 0 ? s.snapshot() : std::move(s);
    s = freq::summarizer();
    freq::summarizer agg = make_aggregate(seed ^ 0x5eed'a66e'0000'0001ULL);
    std::vector<const freq::summary_bytes*> envs;
    for (const auto& e : p.fleet) {
        envs.push_back(&e);
    }
    envs.push_back(&own);
    const auto m0 = clock_type::now();
    for (const freq::summary_bytes* e : envs) {
        const auto t0 = clock_type::now();
        const std::int64_t rs = tr.begin("api.restore", root);
        const freq::summarizer part = restore(*e);
        tr.end(rs);
        const std::int64_t ms = tr.begin("core.merge", root);
        agg.merge(part);
        tr.end(ms);
        rt.merge_us.push_back(seconds_between(t0, clock_type::now()) * 1e6);
        mem += static_cast<double>(part.memory_bytes());
    }
    rt.merge_s = seconds_between(m0, clock_type::now());
    rt.merge_per_s = static_cast<double>(envs.size()) / rt.merge_s;
    sm.merges += envs.size();
    sv = tr.begin("api.save", root);
    const freq::summary_bytes agg_bytes = agg.save();
    tr.end(sv);
    bytes += static_cast<double>(agg_bytes.size());
    for (const auto& e : p.fleet) {
        bytes += static_cast<double>(e.size());
    }
    mem += static_cast<double>(agg.memory_bytes());
    if (first) {
        sm.envelope_bytes = bytes / static_cast<double>(p.fleet.size() + 2);
        sm.mem_bytes = mem / static_cast<double>(envs.size() + 2);
        if (cfg.aggregate_is_product) {
            sm.err_bound_frac = agg.maximum_error() / agg.total_weight();
        }
    }
    if (check) {
        check_summary(ingested, o.round, p.probes, false, chk);
        check_summary(agg, o.fleet, p.probes, cfg.aggregate_is_product, chk);
    }
}

/// One full round, recorded into \p sm; with \p cpus, fed from its CPU.
void run_round(const workload_config& cfg, std::uint64_t seed, const prepared& p,
               const round_oracles& o, samples& sm, checker& chk, tracer& tr, bool check,
               cpu_rotation* cpus = nullptr) {
    const std::int64_t root = tr.begin("round");
    round_times rt;
    freq::summarizer s = ingest(cfg, seed, p, sm, rt, chk, tr, root, cpus);
    merge_and_check(cfg, seed, p, o, std::move(s), sm, rt, chk, tr, root, check);
    tr.end(root);
    sm.rounds.push_back(std::move(rt));
}

/// Runs rounds until \p deadline (at least one).
void run_rounds(const workload_config& cfg, std::uint64_t seed, const prepared& p,
                const round_oracles& o, clock_type::time_point deadline, samples& sm,
                checker& chk, tracer& tr) {
    cpu_rotation cpus;
    do {
        cpus.advance();
        run_round(cfg, seed, p, o, sm, chk, tr, true, &cpus);
    } while (clock_type::now() < deadline);
}

/// Nanoseconds per update the kept rounds spent in push blocks.
double push_ns(const samples& sm) {
    const auto kept = sm.kept(&round_times::ingest_s);
    double push_us = 0.0;
    for (const round_times* r : kept) {
        for (const double x : r->chunk_us) {
            push_us += x;
        }
    }
    const double updates = static_cast<double>(sm.updates) /
                           static_cast<double>(sm.rounds.size()) *
                           static_cast<double>(kept.size());
    return push_us * 1e3 / updates;
}

/// Untraced cost of one update: the kept rounds' median ingest rate.
double ns_per_update(const samples& sm) {
    return 1e3 / median(per_round(sm.kept(&round_times::ingest_s), &round_times::ingest_mups));
}

std::string json_str(const std::string& s) { return "\"" + s + "\""; }

std::string build_config_json() {
    std::string out = "{\"compiler\": " + json_str(PERFBENCH_COMPILER) +
                      ", \"build_type\": " + json_str(PERFBENCH_BUILD_TYPE) +
                      ", \"simd\": " + json_str(freq::simd::isa_name()) + ", \"obs_off\": ";
#ifdef FREQ_OBS_OFF
    out += "true";
#else
    out += "false";
#endif
    out += "}";
    return out;
}

void input_properties(std::uint64_t seed, const prepared& p, const oracle& o,
                      const samples& sm, std::uint32_t shards, run_result& out) {
    std::uint64_t top = 0;
    for (const auto& [id, f] : o.exact.counts()) {
        top = std::max(top, f);
    }
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"updates_per_round\": %zu, \"distinct_keys\": %zu, \"top1_share\": %.6g, "
                  "\"hot_shard_share\": %.6g, \"hot_shard_of\": %u, \"fill\": %.6g, "
                  "\"fleet_envelopes\": %zu}",
                  p.in.round.size(), o.exact.num_distinct(),
                  static_cast<double>(top) / o.total, hot_shard_share(p.in.round, shards, seed),
                  shards, sm.fill, p.fleet.size());
    out.note("inputs", buf);
}

/// Per-layer figures of the traced run, in BENCHMARK.json's order.
constexpr std::pair<const char*, const char*> layer_catalog[] = {
    {"api.push_ns", "ns"},
    {"api.dispatch_ns", "ns"},
    {"api.restore_us", "us"},
    {"api.save_us", "us"},
    {"core.update_ns", "ns"},
    {"core.update_span_ns", "ns"},
    {"core.decrement_rounds_per_mupd", "1/Mupd"},
    {"core.frequent_items_us", "us"},
    {"core.merge_us", "us"},
    {"core.text_update_ns", "ns"},
    {"core.fingerprint_ns", "ns"},
    {"table.find_ns", "ns"},
    {"table.upsert_ns", "ns"},
    {"table.probe_len_mean", "slots"},
    {"table.decrement_all_us", "us"},
    {"engine.producer_push_ns", "ns"},
    {"engine.ring_push_ns", "ns"},
    {"engine.shard_drain_ns", "ns"},
    {"engine.drain_batch_mean", "updates"},
    {"engine.ring_full_stalls_per_mupd", "1/Mupd"},
    {"engine.hot_shard_share", "ratio"},
    {"engine.flush_us", "us"},
    {"engine.fold_us", "us"},
    {"engine.shards_refolded_per_fold", "shards"},
    {"engine.acquire_ns", "ns"},
    {"engine.text_push_ns", "ns"},
    {"engine.spelling_dedupe_hit_frac", "ratio"},
    {"engine.spelling_rejects_per_mupd", "1/Mupd"},
    {"alloc.timed_per_mupd", "1/Mupd"},
    {"ledger.e2e_ns", "ns"},
    {"ledger.sum_ns", "ns"},
    {"ledger.gap_frac", "ratio"},
    {"ledger.core_self_ns", "ns"},
    {"ledger.table_self_ns", "ns"},
    {"ledger.drain_vs_push_ratio", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

}  // namespace

run_result run_workload(const workload_config& requested, std::uint64_t seed, double seconds,
                        bool trace, const std::string& trace_path) {
    run_result out;
    // Thread budget: the feeding thread, one worker per shard and the
    // snapshot-service thread stay within nproc where the host allows it
    // (a sharded summarizer needs one worker, so nproc = 1 runs two
    // threads). Shards give way first, then the service. The layer replays
    // and the hot-shard probe start engines of their own, one at a time,
    // under the same budget.
    workload_config cfg = requested;
    const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    const auto fit = [nproc](std::uint32_t want, bool service) {
        thread_budget b;
        b.shards = static_cast<std::uint32_t>(
            std::max(1, std::min(static_cast<int>(want), nproc - 1 - (service ? 1 : 0))));
        b.service = service && 1 + static_cast<int>(b.shards) + 1 <= nproc;
        return b;
    };
    const thread_budget layers = fit(cfg.shards > 0 ? cfg.shards : 2, true);
    if (cfg.shards > 0) {
        const thread_budget own = fit(cfg.shards, cfg.snapshot_us > 0);
        cfg.shards = own.shards;
        cfg.snapshot_us = own.service ? cfg.snapshot_us : 0;
    }
    const int threads =
        1 + static_cast<int>(cfg.shards) + (cfg.shards > 0 && cfg.snapshot_us > 0 ? 1 : 0);
    out.note("build", build_config_json());
    out.note("nproc", std::to_string(nproc));
    out.note("threads", std::to_string(threads));

    // Set-up: input generation, fleet envelopes and a warm-up round.
    std::vector<double> setup_s;
    round_oracles o;
    checker chk;
    tracer off(false);
    auto timed_setup = [&](prepared& q) {
        const auto t0 = clock_type::now();
        q = setup(cfg, seed);
        // Bookkeeping for the polls and checks: not part of set-up time.
        const auto b0 = clock_type::now();
        q.prefix_weight.assign(1, 0.0);
        for (const auto& u : q.in.round) {
            q.prefix_weight.push_back(q.prefix_weight.back() + static_cast<double>(u.weight));
        }
        if (setup_s.empty()) {
            std::vector<const stream*> all{&q.in.round};
            for (const auto& n : q.in.nodes) {
                all.push_back(&n);
            }
            o.round = make_oracle({&q.in.round});
            o.fleet = make_oracle(all);
        }
        q.probes = make_probes(q.in.round, o.round);
        const auto b1 = clock_type::now();
        samples warm;
        run_round(cfg, seed, q, o, warm, chk, off, false);
        setup_s.push_back(seconds_between(t0, clock_type::now()) - seconds_between(b0, b1));
    };
    prepared p;
    timed_setup(p);

    if (!trace) {
        // Set-up is repeated between stretches of rounds, so its median
        // samples the host at several points of the run, as the rounds do.
        // The stretches end on a fixed schedule: set-up time eats into the
        // rounds' share, not into the run's length.
        constexpr int stretches = 9;
        const auto t_run = clock_type::now();
        const auto run_len = std::chrono::duration_cast<clock_type::duration>(
            std::chrono::duration<double>(seconds));
        samples sm;
        for (int i = 0; i < stretches; ++i) {
            if (i > 0) {
                prepared again;
                timed_setup(again);
            }
            run_rounds(cfg, seed, p, o, t_run + run_len * (i + 1) / stretches, sm, chk, off);
        }
        const auto kept = sm.kept(&round_times::ingest_s);
        const auto kept_merges = sm.kept(&round_times::merge_s);
        const auto chunk_us = pooled(kept, &round_times::chunk_us);
        const auto flush_us = pooled(kept, &round_times::flush_us);
        const auto query_us = pooled(kept, &round_times::query_us);
        const auto merge_us = pooled(kept_merges, &round_times::merge_us);
        out.put("setup_s", median(setup_s), "s");
        out.put("ingest_mups", median(per_round(kept, &round_times::ingest_mups)), "Mupd/s");
        // Tails are reported at p90: between identical runs on a shared host
        // the p99s swing by 20-25%, more than any bound the benchmark can hold.
        out.put("ingest_chunk_p90_us", percentile(chunk_us, 0.9), "us");
        out.put("flush_p50_us", percentile(flush_us, 0.5), "us");
        out.put("flush_p90_us", percentile(flush_us, 0.9), "us");
        out.put("query_p50_us", percentile(query_us, 0.5), "us");
        out.put("query_p90_us", percentile(query_us, 0.9), "us");
        out.put("merge_per_s", median(per_round(kept_merges, &round_times::merge_per_s)),
                "envelopes/s");
        out.put("merge_p90_us", percentile(merge_us, 0.9), "us");
        out.put("err_bound_frac", sm.err_bound_frac, "ratio");
        out.put("summary_mem_bytes", sm.mem_bytes, "bytes");
        out.put("envelope_bytes", sm.envelope_bytes, "bytes");
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "{\"rounds\": %zu, \"kept_rounds\": %zu, \"chunks\": %zu, "
                      "\"flush_polls\": %zu, \"query_polls\": %zu, \"merges\": %zu}",
                      sm.rounds.size(), kept.size(), chunk_us.size(), flush_us.size(),
                      query_us.size(), merge_us.size());
        out.note("samples", buf);
        input_properties(seed, p, o.round, sm, cfg.shards > 0 ? cfg.shards : layers.shards, out);
        out.attempted = sm.updates + sm.polls + sm.merges;
    } else {
        // Untraced rounds alternate with the same rounds run with spans and
        // allocation counting, and with a ledger pass that times the layers
        // of the ingest path one by one, so all three see the same host
        // conditions. Traced vs untraced rounds is the tracing overhead.
        samples plain;
        samples traced;
        std::vector<ledger_terms> passes;
        tracer tr(true);
        const auto t0 = clock_type::now();
        {
            // Each iteration's rounds and pass share one CPU; a sharded
            // pass starts engine threads of its own, so it runs released.
            cpu_rotation cpus;
            do {
                cpus.advance();
                run_round(cfg, seed, p, o, plain, chk, off, true, &cpus);
                alloc_counting(true);
                run_round(cfg, seed, p, o, traced, chk, tr, true, &cpus);
                alloc_counting(false);
                if (cfg.shards > 0) {
                    cpus.release();
                }
                passes.push_back(ledger_pass(cfg, seed, p.in.round, p.probes, tr));
            } while (seconds_between(t0, clock_type::now()) < 0.6 * seconds);
        }

        std::map<std::string, double> v;
        const auto spans = tr.summarize();
        auto per_item = [&](const char* name, double scale) {
            const auto it = spans.find(name);
            if (it == spans.end() || it->second.items == 0) {
                return 0.0;
            }
            return it->second.total_ns / static_cast<double>(it->second.items) * scale;
        };
        v["api.push_ns"] = push_ns(traced);
        v["api.restore_us"] = per_item("api.restore", 1e-3);
        v["api.save_us"] = per_item("api.save", 1e-3);
        v["core.merge_us"] = per_item("core.merge", 1e-3);
        v["alloc.timed_per_mupd"] =
            static_cast<double>(traced.ingest_allocs) / (static_cast<double>(traced.updates) / 1e6);
        const double e2e_ns = ns_per_update(plain);
        v["ledger.e2e_ns"] = e2e_ns;
        v["trace.overhead_frac"] = ns_per_update(traced) / e2e_ns - 1.0;

        run_layers(seed, p.in.round, with_spellings(p.in.round), layers, tr, v);

        // Ledger: the per-update costs of the layers along the ingest path,
        // each timed on its own, summed and compared with the untraced
        // end-to-end cost. Both sides take the same statistic: the median
        // of the fastest tenth of their passes (rounds). The split of
        // core.update_ns into core/ and table/ self time is modelled from
        // the table replays and does not enter the sum.
        std::sort(passes.begin(), passes.end(), [](const ledger_terms& a, const ledger_terms& b) {
            return a.api_ns + a.below_ns < b.api_ns + b.below_ns;
        });
        passes.resize((passes.size() + 9) / 10);
        std::vector<double> api_ns, sum_ns;
        for (const ledger_terms& t : passes) {
            api_ns.push_back(t.api_ns);
            sum_ns.push_back(t.api_ns + t.below_ns);
        }
        v["api.dispatch_ns"] = median(api_ns);
        v["ledger.sum_ns"] = median(sum_ns);
        v["ledger.core_self_ns"] =
            (cfg.shards == 0 ? v["core.update_ns"] : v["core.update_span_ns"]) -
            v["ledger.table_self_ns"];
        v["ledger.gap_frac"] = std::fabs(v["ledger.sum_ns"] - e2e_ns) / e2e_ns;

        for (const auto& [name, unit] : layer_catalog) {
            out.put(name, v[name], unit);
        }
        for (const auto& [name, t] : tr.summarize()) {
            char line[192];
            std::snprintf(line, sizeof line,
                          "span %-24s count=%-8llu items=%-10llu total_ms=%-10.3f self_ms=%.3f",
                          name.c_str(), static_cast<unsigned long long>(t.spans),
                          static_cast<unsigned long long>(t.items), t.total_ns * 1e-6,
                          t.self_ns * 1e-6);
            out.lines.emplace_back(line);
        }
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "{\"untraced_rounds\": %zu, \"traced_rounds\": %zu, \"spans\": %zu}",
                      plain.rounds.size(), traced.rounds.size(), tr.size());
        out.note("samples", buf);
        if (!trace_path.empty()) {
            out.note("trace_file", json_str(tr.write_jsonl(trace_path) ? trace_path : ""));
        }
        out.attempted = plain.updates + plain.polls + plain.merges + traced.updates +
                        traced.polls + traced.merges;
    }
    out.attempted += chk.checks;
    out.failed = chk.failed;
    out.correct = chk.failed == 0;
    return out;
}

}  // namespace perfbench
