// Per-layer replays of the traced run. Each replay drives one layer's public
// functions with the workload's own stream and times blocks of calls as
// spans (one span per block, never one per call). Counts the layers export
// through the telemetry registry are read as deltas around a replay.

#include <algorithm>
#include <chrono>
#include <span>
#include <vector>

#include "bench.h"
#include "core/basic_frequent_items.h"
#include "core/string_frequent_items.h"
#include "engine/shard.h"
#include "engine/spsc_ring.h"
#include "engine/stream_engine.h"
#include "table/counter_table.h"

namespace perfbench {

namespace {

/// The instantiations the builder materializes for counts-weighted,
/// plain-lifetime integer and text summaries.
using sketch_type =
    freq::basic_frequent_items<std::uint64_t, std::uint64_t, freq::plain_lifetime>;
using text_sketch = freq::string_frequent_items<std::uint64_t, freq::plain_lifetime>;
using table_type = freq::counter_table<std::uint64_t, std::uint64_t>;

volatile std::uint64_t sink = 0;

freq::sketch_config sketch_cfg(std::uint64_t seed) {
    freq::sketch_config c;
    c.max_counters = k;
    c.seed = seed;
    return c;
}

freq::engine_config engine_cfg(std::uint64_t seed, std::uint32_t shards) {
    freq::engine_config e;
    e.num_shards = shards;
    e.num_producers = 1;
    e.sketch = sketch_cfg(seed);
    return e;
}

double family_total(const freq::obs::registry_snapshot& snap, const char* name) {
    const freq::obs::family_snapshot* f = snap.find(name);
    double v = 0.0;
    if (f != nullptr) {
        for (const auto& s : f->samples) {
            v += s.value;
        }
    }
    return v;
}

/// Telemetry deltas between two scrapes.
struct scrape {
    freq::obs::registry_snapshot at = freq::summarizer::telemetry();
    double delta(const char* name) const {
        return family_total(freq::summarizer::telemetry(), name) - family_total(at, name);
    }
};

/// Times \p body over [0, n) in blocks of \p block calls, one span per
/// block, and returns nanoseconds per call.
template <typename Body>
double per_call_ns(tracer& tr, const char* name, std::int64_t parent, std::size_t n,
                   std::size_t block, Body&& body) {
    std::int64_t total = 0;
    for (std::size_t b = 0; b < n; b += block) {
        const std::size_t e = std::min(n, b + block);
        const std::int64_t t0 = tr.now_ns();
        body(b, e);
        const std::int64_t t1 = tr.now_ns();
        tr.add(name, parent, t0, t1, e - b);
        total += t1 - t0;
    }
    return n == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(n);
}

/// Median over \p reps repetitions of a replay returning ns per call.
template <typename Rep>
double median_of(int reps, Rep&& rep) {
    std::vector<double> v;
    for (int r = 0; r < reps; ++r) {
        v.push_back(rep());
    }
    return median(v);
}

constexpr std::size_t block = 4096;
constexpr int reps = 3;

/// The rounds' dashboard poll against a core summary: point estimates of
/// the probe keys and the heavy hitters above phi * pushed.
template <typename Sketch>
void dashboard(const Sketch& s, const std::vector<std::uint64_t>& probes, std::uint64_t pushed) {
    std::uint64_t acc = 0;
    for (const std::uint64_t id : probes) {
        acc += s.estimate(id);
    }
    const auto threshold = static_cast<std::uint64_t>(phi * static_cast<double>(pushed));
    acc += s.frequent_items(freq::error_type::no_false_negatives, threshold).size();
    sink = sink + acc;
}

}  // namespace

double hot_shard_share(const stream& s, std::uint32_t shards, std::uint64_t seed) {
    freq::stream_engine<std::uint64_t, std::uint64_t, sketch_type> eng(engine_cfg(seed, shards));
    std::vector<std::uint64_t> per(shards, 0);
    for (const auto& u : s) {
        ++per[eng.shard_of(u.id)];
    }
    return static_cast<double>(*std::max_element(per.begin(), per.end())) /
           static_cast<double>(std::max<std::size_t>(1, s.size()));
}

ledger_terms ledger_pass(const workload_config& cfg, std::uint64_t seed, const stream& ups,
                         const std::vector<std::uint64_t>& probes, tracer& tr) {
    const std::size_t n = ups.size();
    const std::int64_t root = tr.begin("ledger");
    ledger_terms out;
    {
        // api/: the façade's dispatch into a summary that ignores every
        // update, so no core/ or table/ work is timed with it.
        freq::summarizer nothing = null_sink();
        freq::summarizer::feeder f = nothing.make_feeder();
        out.api_ns = per_call_ns(tr, "api.dispatch", root, n, block, [&](auto b, auto e) {
            for (std::size_t i = b; i < e; ++i) {
                f.push(ups[i].id, static_cast<double>(ups[i].weight));
            }
        });
    }
    if (cfg.shards == 0) {
        // core/ (with table/ inside it), driven directly.
        sketch_type sk(sketch_cfg(seed));
        out.below_ns = per_call_ns(tr, "ledger.core_update", root, n, block, [&](auto b, auto e) {
            for (std::size_t i = b; i < e; ++i) {
                sk.update(ups[i].id, ups[i].weight);
            }
        });
    } else {
        // engine/ driven directly with the rounds' shards, snapshot service
        // and cadence: producer pushes and flush barriers are timed, the
        // dashboard polls between them are not (as in the rounds, the
        // shards keep draining while a poll runs).
        freq::stream_engine<std::uint64_t, std::uint64_t, sketch_type> eng(
            engine_cfg(seed, cfg.shards));
        if (cfg.snapshot_us > 0) {
            eng.enable_snapshot_service(std::chrono::microseconds(cfg.snapshot_us));
        }
        auto producer = eng.make_producer();
        std::uint64_t pushed = 0;
        const auto poll = [&] {
            if (eng.snapshot_service_enabled()) {
                dashboard(*eng.acquire_snapshot(), probes, pushed);
            } else {
                dashboard(eng.snapshot(), probes, pushed);
            }
        };
        const auto barrier = [&] {
            const std::int64_t t0 = tr.now_ns();
            producer.flush();
            eng.flush();
            const std::int64_t t1 = tr.now_ns();
            tr.add("ledger.engine_flush", root, t0, t1, 1);
            return t1 - t0;
        };
        std::int64_t total = 0;
        std::size_t c = 0;
        for (std::size_t b = 0; b < n; b += block, ++c) {
            const std::size_t e = std::min(n, b + block);
            const std::int64_t t0 = tr.now_ns();
            for (std::size_t i = b; i < e; ++i) {
                producer.push(ups[i].id, ups[i].weight);
            }
            const std::int64_t t1 = tr.now_ns();
            tr.add("ledger.engine_push", root, t0, t1, e - b);
            total += t1 - t0;
            for (std::size_t i = b; i < e; ++i) {
                pushed += ups[i].weight;
            }
            if (c % cfg.query_every == 0) {
                poll();
            }
            if (c % cfg.flush_every == cfg.flush_every / 2) {
                total += barrier();
                poll();
            }
        }
        total += barrier();
        out.below_ns = static_cast<double>(total) / static_cast<double>(std::max<std::size_t>(1, n));
    }
    tr.end(root);
    return out;
}

void run_layers(std::uint64_t seed, const stream& ups, const text_stream& text,
                thread_budget threads, tracer& tr, std::map<std::string, double>& v) {
    const std::size_t n = ups.size();
    const freq::sketch_config scfg = sketch_cfg(seed);
    const std::uint32_t shards = threads.shards;

    // --- core/: per-item update, span update, decrement rounds, queries -----
    std::int64_t root = tr.begin("layer.core");
    sketch_type last(scfg);
    double evictions = 0.0;
    v["core.update_ns"] = median_of(reps, [&] {
        sketch_type sk(scfg);
        const scrape before;
        const double ns = per_call_ns(tr, "core.update", root, n, block, [&](auto b, auto e) {
            for (std::size_t i = b; i < e; ++i) {
                sk.update(ups[i].id, ups[i].weight);
            }
        });
        evictions = before.delta("freq_sketch_evictions_total");
        last = sk;
        return ns;
    });
    const double rounds = static_cast<double>(last.num_decrements());
    v["core.decrement_rounds_per_mupd"] = rounds / (static_cast<double>(n) / 1e6);
    v["core.update_span_ns"] = median_of(reps, [&] {
        sketch_type sk(scfg);
        return per_call_ns(tr, "core.update_span", root, n, block, [&](auto b, auto e) {
            for (std::size_t i = b; i < e; i += 512) {
                const std::size_t m = std::min<std::size_t>(512, e - i);
                sk.update(std::span<const freq::update64>(&ups[i], m));
            }
        });
    });
    const auto threshold =
        static_cast<std::uint64_t>(phi * static_cast<double>(last.total_weight()));
    v["core.frequent_items_us"] =
        per_call_ns(tr, "core.frequent_items", root, 200, 20, [&](auto b, auto e) {
            for (std::size_t i = b; i < e; ++i) {
                sink = sink + last.frequent_items(freq::error_type::no_false_negatives, threshold)
                                  .size();
            }
        }) * 1e-3;
    tr.end(root);

    // --- table/: find, upsert, probe length, decrement_all -----------------------
    // A table with the sketch's geometry and hash seed, holding the counters
    // the core replay ended with.
    root = tr.begin("layer.table");
    std::vector<std::pair<std::uint64_t, std::uint64_t>> tracked;
    last.for_each([&](std::uint64_t id, std::uint64_t c) { tracked.emplace_back(id, c); });
    table_type loaded(k, seed);
    v["table.upsert_ns"] = median_of(5, [&] {
        table_type t(k, seed);
        const double ns = per_call_ns(tr, "table.upsert", root, tracked.size(), 512,
                                      [&](auto b, auto e) {
                                          for (std::size_t i = b; i < e; ++i) {
                                              t.upsert(tracked[i].first, tracked[i].second);
                                          }
                                      });
        loaded = t;
        return ns;
    });
    v["table.find_ns"] = median_of(reps, [&] {
        return per_call_ns(tr, "table.find", root, n, block, [&](auto b, auto e) {
            std::uint64_t acc = 0;
            for (std::size_t i = b; i < e; ++i) {
                const std::uint64_t* c = loaded.find(ups[i].id);
                acc += c != nullptr ? *c : 0;
            }
            sink = sink + acc;
        });
    });
    double states = 0.0;
    for (std::uint32_t s = 0; s < loaded.num_slots(); ++s) {
        states += loaded.slot_state(s);
    }
    v["table.probe_len_mean"] = states / std::max<double>(1.0, loaded.size());
    // Decrement by the counters' median, the c* SMED would pick.
    std::vector<std::uint64_t> values;
    for (const auto& t : tracked) {
        values.push_back(t.second);
    }
    const auto mid = values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
    std::nth_element(values.begin(), mid, values.end());
    const std::uint64_t cstar = values.empty() ? 1 : *mid;
    std::vector<double> dec_us;
    for (int r = 0; r < 50; ++r) {
        table_type t = loaded;
        const std::int64_t t0 = tr.now_ns();
        sink = sink + t.decrement_all(cstar);
        const std::int64_t t1 = tr.now_ns();
        tr.add("table.decrement_all", root, t0, t1, 1);
        dec_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    }
    v["table.decrement_all_us"] = median(dec_us);
    // Table work per update: one find each, one upsert per counter ever
    // created (live counters + evictions), one sweep per decrement round.
    const double inserts = static_cast<double>(last.num_counters()) + evictions;
    v["ledger.table_self_ns"] = v["table.find_ns"] +
                                inserts / static_cast<double>(n) * v["table.upsert_ns"] +
                                rounds / static_cast<double>(n) * v["table.decrement_all_us"] * 1e3;
    tr.end(root);

    // --- engine/: ring hand-off, single-threaded shard drain ------------------
    root = tr.begin("layer.engine");
    // Producers publish staged runs of engine_config::producer_batch (128).
    v["engine.ring_push_ns"] = median_of(reps, [&] {
        freq::spsc_ring<freq::update64> ring(4096);
        std::vector<freq::update64> out(4096);
        std::int64_t total = 0;
        for (std::size_t b = 0; b < n; b += 4096) {
            const std::size_t e = std::min(n, b + 4096);
            const std::int64_t t0 = tr.now_ns();
            for (std::size_t i = b; i < e; i += 128) {
                sink = sink + ring.try_push(std::span<const freq::update64>(
                                  &ups[i], std::min<std::size_t>(128, e - i)));
            }
            const std::int64_t t1 = tr.now_ns();
            tr.add("engine.ring_push", root, t0, t1, e - b);
            total += t1 - t0;
            while (ring.try_pop(out.data(), out.size()) > 0) {
            }
        }
        return static_cast<double>(total) / static_cast<double>(n);
    });
    v["engine.shard_drain_ns"] = median_of(reps, [&] {
        freq::engine_shard<std::uint64_t, std::uint64_t, sketch_type> shard(scfg, 1, 4096, 512);
        std::int64_t total = 0;
        for (std::size_t b = 0; b < n; b += 4096) {
            const std::size_t e = std::min(n, b + 4096);
            shard.ring(0).try_push(std::span<const freq::update64>(&ups[b], e - b));
            const std::int64_t t0 = tr.now_ns();
            while (shard.drain() > 0) {
            }
            const std::int64_t t1 = tr.now_ns();
            tr.add("engine.shard_drain", root, t0, t1, e - b);
            total += t1 - t0;
        }
        return static_cast<double>(total) / static_cast<double>(n);
    });
    v["engine.hot_shard_share"] = hot_shard_share(ups, shards, seed);

    // --- engine/: live producer, flush barrier, folds, cached reads -----------
    {
        freq::stream_engine<std::uint64_t, std::uint64_t, sketch_type> eng(
            engine_cfg(seed, shards));
        if (threads.service) {
            eng.enable_snapshot_service(std::chrono::microseconds(1000));
        }
        const scrape before;
        std::vector<double> flush_us, fold_us;
        double folds = 0.0;
        std::int64_t push_total = 0;
        {
            auto producer = eng.make_producer();
            std::size_t c = 0;
            for (std::size_t b = 0; b < n; b += block, ++c) {
                const std::size_t e = std::min(n, b + block);
                const std::int64_t t0 = tr.now_ns();
                for (std::size_t i = b; i < e; ++i) {
                    producer.push(ups[i].id, ups[i].weight);
                }
                const std::int64_t t1 = tr.now_ns();
                tr.add("engine.producer_push", root, t0, t1, e - b);
                push_total += t1 - t0;
                if (c % 8 == 4) {
                    // A fold while shards are dirty, then the barrier (which
                    // republishes through the snapshot service).
                    const std::int64_t s0 = tr.now_ns();
                    sink = sink + eng.snapshot().num_counters();
                    const std::int64_t s1 = tr.now_ns();
                    tr.add("engine.fold", root, s0, s1, 1);
                    fold_us.push_back(static_cast<double>(s1 - s0) * 1e-3);
                    folds += 1.0;
                    const std::int64_t f0 = tr.now_ns();
                    producer.flush();
                    eng.flush();
                    const std::int64_t f1 = tr.now_ns();
                    tr.add("engine.flush", root, f0, f1, 1);
                    flush_us.push_back(static_cast<double>(f1 - f0) * 1e-3);
                }
            }
            producer.flush();
            eng.flush();
        }
        v["engine.producer_push_ns"] = static_cast<double>(push_total) / static_cast<double>(n);
        v["engine.flush_us"] = median(flush_us);
        v["engine.fold_us"] = median(fold_us);
        const double applied = before.delta("freq_engine_updates_applied_total");
        const double batches = before.delta("freq_engine_batches_applied_total");
        v["engine.drain_batch_mean"] = batches > 0 ? applied / batches : 0.0;
        v["engine.ring_full_stalls_per_mupd"] =
            before.delta("freq_engine_ring_full_total") / (static_cast<double>(n) / 1e6);
        folds += before.delta("freq_snapshot_publishes_total");
        v["engine.shards_refolded_per_fold"] =
            folds > 0 ? before.delta("freq_snapshot_shards_refolded_total") / folds : 0.0;
        // Without a thread to spare for the service there is no cached
        // view to acquire, and the figure reads 0.
        if (threads.service) {
            v["engine.acquire_ns"] = median_of(reps, [&] {
                return per_call_ns(tr, "engine.acquire", root, 64 * 1024, 64,
                                   [&](auto b, auto e) {
                                       for (std::size_t i = b; i < e; ++i) {
                                           sink = sink + eng.acquire_snapshot().epoch();
                                       }
                                   });
            });
        }
    }
    v["ledger.drain_vs_push_ratio"] =
        v["engine.shard_drain_ns"] * v["engine.hot_shard_share"] / v["engine.producer_push_ns"];
    tr.end(root);

    // --- text: fingerprinting, keyed core updates, keyed engine pushes --------
    root = tr.begin("layer.text");
    const std::size_t nt = std::min<std::size_t>(n, 1'000'000);
    v["core.fingerprint_ns"] = median_of(reps, [&] {
        return per_call_ns(tr, "core.fingerprint", root, nt, block, [&](auto b, auto e) {
            std::uint64_t acc = 0;
            for (std::size_t i = b; i < e; ++i) {
                acc ^= text_sketch::fingerprint(text.spelling(i));
            }
            sink = sink + acc;
        });
    });
    v["core.text_update_ns"] = median_of(reps, [&] {
        text_sketch sk(scfg);
        return per_call_ns(tr, "core.text_update", root, nt, block, [&](auto b, auto e) {
            for (std::size_t i = b; i < e; ++i) {
                sk.update(text.spelling(i), ups[i].weight);
            }
        });
    });
    {
        freq::stream_engine<std::uint64_t, std::uint64_t, text_sketch> eng(
            engine_cfg(seed, shards));
        const scrape before;
        {
            auto producer = eng.make_producer();
            v["engine.text_push_ns"] =
                per_call_ns(tr, "engine.text_push", root, nt, block, [&](auto b, auto e) {
                    for (std::size_t i = b; i < e; ++i) {
                        producer.push(text.spelling(i), ups[i].weight);
                    }
                });
            producer.flush();
            eng.flush();
        }
        v["engine.spelling_dedupe_hit_frac"] =
            before.delta("freq_spelling_dedupe_hits_total") / static_cast<double>(nt);
        v["engine.spelling_rejects_per_mupd"] =
            before.delta("freq_spelling_rejects_total") / (static_cast<double>(nt) / 1e6);
    }
    tr.end(root);
}

}  // namespace perfbench
