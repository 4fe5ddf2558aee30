#ifndef FREQ_OBS_PIPELINE_METRICS_H
#define FREQ_OBS_PIPELINE_METRICS_H

/// \file pipeline_metrics.h
/// The instrument catalog of the freq pipeline — every metric the library
/// exports, registered once on the process-wide registry and shared by all
/// engine/sketch/façade instances (process-lifetime totals, Prometheus
/// style). Call sites reach them through obs::pipeline(), a magic-static
/// bundle of references, so the per-event cost is the instrument operation
/// itself (one relaxed fetch_add, or a histogram record).
///
/// Naming scheme (one prefix per layer; *_total for monotonic counters,
/// *_ns for steady-clock nanosecond latencies):
///
///   freq_engine_*    ring hot path (producers, backpressure, occupancy)
///   freq_shard_*     worker drain loop and lifetime clock
///   freq_sketch_*    sketch maintenance (decrement rounds, evictions,
///                    renormalizations)
///   freq_spelling_*  text / generic key spellings stored by shard workers
///   freq_snapshot_*  async snapshot service
///   freq_facade_*    api/summarizer.h verbs
///   freq_hhh_* / freq_entropy_* / freq_replay_*
///                    network-telemetry subsystem (src/telemetry/)
///   freq_mem_*       memory subsystem (common/mem.h): hugepage-backed
///                    regions, arena reservations/resets, NUMA shard
///                    placement outcomes
///
/// Under -DFREQ_OBS_OFF this struct collapses to a bundle of empty no-op
/// members with constant initialization, so obs::pipeline().x.add(…)
/// compiles to nothing.

#include "obs/instruments.h"
#include "obs/registry.h"

namespace freq::obs {

#ifndef FREQ_OBS_OFF

struct pipeline_metrics {
    // --- engine / ring layer ------------------------------------------------
    counter& engine_updates_enqueued;
    counter& engine_updates_applied;
    counter& engine_batches_applied;
    counter& engine_ring_full;
    counter& engine_publishes;
    counter& engine_dropped;
    counter& engine_worker_parks;
    histogram& engine_ring_occupancy;

    // --- shard / sketch maintenance -----------------------------------------
    histogram& shard_drain_batch_size;
    counter& shard_ticks;
    counter& sketch_decrement_rounds;
    counter& sketch_evictions;
    counter& sketch_renormalizations;

    // --- text / generic key spellings (engine shards) -----------------------
    counter& spelling_applied;
    counter& spelling_dedupe_hits;

    // --- snapshot service ---------------------------------------------------
    counter& snapshot_publishes;
    counter& snapshot_coalesced_publishes;
    counter& snapshot_acquires;
    counter& snapshot_acquire_retries;
    counter& snapshot_pool_grows;
    counter& snapshot_shards_refolded;
    histogram& snapshot_publish_latency_ns;

    // --- façade -------------------------------------------------------------
    counter& facade_updates;
    histogram& facade_estimate_latency_ns;
    histogram& facade_frequent_items_latency_ns;
    histogram& facade_top_items_latency_ns;

    // --- network telemetry ----------------------------------------------------
    counter& hhh_levels_queried;
    counter& entropy_alarms;
    counter& replay_records;

    // --- memory subsystem (common/mem.h) --------------------------------------
    counter& mem_hugepage_regions;
    counter& mem_arena_reserved_bytes;
    counter& mem_arena_resets;
    counter& mem_node_local_shards;
    counter& mem_remote_shards;

    static pipeline_metrics& instance() {
        static pipeline_metrics m{registry::global()};
        return m;
    }

private:
    explicit pipeline_metrics(registry& r)
        : engine_updates_enqueued(r.get_counter(
              "freq_engine_updates_enqueued_total",
              "Updates pushed into shard rings by producers")),
          engine_updates_applied(r.get_counter(
              "freq_engine_updates_applied_total",
              "Updates applied to shard sketches by workers")),
          engine_batches_applied(r.get_counter(
              "freq_engine_batches_applied_total",
              "Sketch lock acquisitions by shard workers (drained batches)")),
          engine_ring_full(r.get_counter(
              "freq_engine_ring_full_total",
              "Producer yields due to full rings (backpressure stalls)")),
          engine_publishes(r.get_counter(
              "freq_engine_publishes_total",
              "Staged runs published into shard rings by producers")),
          engine_dropped(r.get_counter(
              "freq_engine_dropped_total",
              "Staged updates dropped: published after stop() or to a failed shard")),
          engine_worker_parks(r.get_counter(
              "freq_engine_worker_parks_total",
              "Idle shard workers parking until the next published run")),
          engine_ring_occupancy(r.get_histogram(
              "freq_engine_ring_occupancy",
              "Ring fill level (elements) sampled at each producer publish")),
          shard_drain_batch_size(r.get_histogram(
              "freq_shard_drain_batch_size",
              "Updates applied per shard drain batch")),
          shard_ticks(r.get_counter(
              "freq_shard_ticks_total",
              "Lifetime-clock ticks applied to shards (decay steps / window rotations)")),
          sketch_decrement_rounds(r.get_counter(
              "freq_sketch_decrement_rounds_total",
              "Offset-subtraction rounds triggered by full counter tables")),
          sketch_evictions(r.get_counter(
              "freq_sketch_evictions_total",
              "Counters evicted (reached zero) during decrement rounds")),
          sketch_renormalizations(r.get_counter(
              "freq_sketch_renormalizations_total",
              "Fading-sketch weight renormalizations (rebase of decayed scales)")),
          spelling_applied(r.get_counter(
              "freq_spelling_applied_total",
              "Spellings stored into shard dictionaries")),
          spelling_dedupe_hits(r.get_counter(
              "freq_spelling_dedupe_hits_total",
              "Keyed records whose spelling the shard dictionary already held")),
          snapshot_publishes(r.get_counter(
              "freq_snapshot_publishes_total",
              "Snapshot-service publish cycles (fold + buffer swap)")),
          snapshot_coalesced_publishes(r.get_counter(
              "freq_snapshot_coalesced_publishes_total",
              "publish_now() calls satisfied by an in-flight publish cycle")),
          snapshot_acquires(r.get_counter(
              "freq_snapshot_acquires_total",
              "Cached-view acquisitions (published_snapshot pins)")),
          snapshot_acquire_retries(r.get_counter(
              "freq_snapshot_acquire_retries_total",
              "Validating-reload retries taken inside acquire()")),
          snapshot_pool_grows(r.get_counter(
              "freq_snapshot_pool_grows_total",
              "Buffer-pool growth events caused by long-pinned views")),
          snapshot_shards_refolded(r.get_counter(
              "freq_snapshot_shards_refolded_total",
              "Shards copied by snapshot views (dirty generations only when "
              "publishing) plus shards merged by snapshot() folds")),
          snapshot_publish_latency_ns(r.get_histogram(
              "freq_snapshot_publish_latency_ns",
              "Latency of one publish cycle (fold + swap), nanoseconds")),
          facade_updates(r.get_counter(
              "freq_facade_updates_total",
              "Updates accepted through the summarizer facade")),
          facade_estimate_latency_ns(r.get_histogram(
              "freq_facade_query_latency_ns",
              "Facade query latency by verb, nanoseconds",
              {{"verb", "estimate"}})),
          facade_frequent_items_latency_ns(r.get_histogram(
              "freq_facade_query_latency_ns",
              "Facade query latency by verb, nanoseconds",
              {{"verb", "frequent_items"}})),
          facade_top_items_latency_ns(r.get_histogram(
              "freq_facade_query_latency_ns",
              "Facade query latency by verb, nanoseconds",
              {{"verb", "top_items"}})),
          hhh_levels_queried(r.get_counter(
              "freq_hhh_levels_queried_total",
              "Prefix levels walked by hierarchical heavy-hitter queries")),
          entropy_alarms(r.get_counter(
              "freq_entropy_alarm_total",
              "Entropy-shift alarms raised (collapse or spike vs the EWMA baseline)")),
          replay_records(r.get_counter(
              "freq_replay_records_total",
              "Trace records driven through the pipeline by replay harnesses")),
          mem_hugepage_regions(r.get_counter(
              "freq_mem_hugepage_regions_total",
              "Memory regions successfully huge-page backed or THP-advised")),
          mem_arena_reserved_bytes(r.get_counter(
              "freq_mem_arena_reserved_bytes_total",
              "Bytes of block storage ever reserved by bump-pointer arenas")),
          mem_arena_resets(r.get_counter(
              "freq_mem_arena_resets_total",
              "Bulk arena resets (spelling prune rebuilds, fold-scratch reuse)")),
          mem_node_local_shards(r.get_counter(
              "freq_mem_node_local_shards_total",
              "Shard workers pinned to a NUMA node with node-local state")),
          mem_remote_shards(r.get_counter(
              "freq_mem_remote_shards_total",
              "Shard workers that requested NUMA placement but degraded "
              "(single node, failed pin, or FREQ_NUMA=OFF)")) {}
};

#else  // FREQ_OBS_OFF: empty no-op members, constant-initialized.

struct pipeline_metrics {
    counter engine_updates_enqueued;
    counter engine_updates_applied;
    counter engine_batches_applied;
    counter engine_ring_full;
    counter engine_publishes;
    counter engine_dropped;
    counter engine_worker_parks;
    histogram engine_ring_occupancy;
    histogram shard_drain_batch_size;
    counter shard_ticks;
    counter sketch_decrement_rounds;
    counter sketch_evictions;
    counter sketch_renormalizations;
    counter spelling_applied;
    counter spelling_dedupe_hits;
    counter snapshot_publishes;
    counter snapshot_coalesced_publishes;
    counter snapshot_acquires;
    counter snapshot_acquire_retries;
    counter snapshot_pool_grows;
    counter snapshot_shards_refolded;
    histogram snapshot_publish_latency_ns;
    counter facade_updates;
    histogram facade_estimate_latency_ns;
    histogram facade_frequent_items_latency_ns;
    histogram facade_top_items_latency_ns;
    counter hhh_levels_queried;
    counter entropy_alarms;
    counter replay_records;
    counter mem_hugepage_regions;
    counter mem_arena_reserved_bytes;
    counter mem_arena_resets;
    counter mem_node_local_shards;
    counter mem_remote_shards;

    static pipeline_metrics& instance() noexcept {
        static pipeline_metrics m;
        return m;
    }
};

#endif  // FREQ_OBS_OFF

/// The shared catalog (see file comment).
inline pipeline_metrics& pipeline() { return pipeline_metrics::instance(); }

}  // namespace freq::obs

#endif  // FREQ_OBS_PIPELINE_METRICS_H
