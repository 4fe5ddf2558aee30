#ifndef FREQ_FREQ_H
#define FREQ_FREQ_H

/// \file freq.h
/// Umbrella header: the public API of libfreq in one include.
///
///   #include "freq.h"
///
/// brings in the paper's sketch and every companion type. Individual
/// headers remain includable on their own for faster builds.
///
/// The library has two public layers; both are stable, pick by need:
///
///  * The **façade** (`src/api/`) — `freq::builder` → `freq::summarizer`.
///    Key type, weight type, k, lifetime policy and engine sharding are
///    *runtime* choices; queries return self-describing `result_set`s and
///    any summary round-trips through the unified `summary_bytes` envelope.
///    One virtual dispatch per call (amortized away by the span ingest
///    path; BENCH_api.json records the gap). This is the layer services
///    and config-driven integrations should use.
///
///  * The **template layer** (`src/core/`, `src/engine/`) — the concrete
///    `basic_frequent_items` / `frequent_items_sketch` / `stream_engine`
///    templates the façade wraps. Zero overhead, compile-time
///    configuration, richer static typing. The façade adds no state on
///    top: anything built here can be serialized with `envelope_save` and
///    re-opened as a summarizer (and vice versa).

// The runtime-configurable façade (builder / summarizer / envelope).
#include "api/builder.h"
#include "api/result_set.h"
#include "api/summarizer.h"
#include "api/summary_bytes.h"

// Memory subsystem: NUMA topology, huge-page-advised buffers, bump arenas
// (compile with -DFREQ_NUMA=OFF to pin every operation to its no-op
// degradation; results are identical either way).
#include "common/mem.h"

// The paper's contribution (Algorithms 3-5 + §2.3 engineering).
#include "core/basic_frequent_items.h"        // policy-templated counter core
#include "core/fingerprint_frequent_items.h"  // any key kind via fingerprints
#include "core/frequent_items_sketch.h"       // 64-bit identifiers (the fast path)
#include "core/generic_frequent_items.h"      // arbitrary item types (map-backed)
#include "core/lifetime_policy.h"             // plain / fading / sliding-window
#include "core/med_exact_sketch.h"            // Algorithm 3 (deterministic variant)
#include "core/signed_frequent_items.h"       // §1.3 Note: deletion support
#include "core/sketch_config.h"
#include "core/spelling_dictionary.h"         // detachable key-identification half
#include "core/string_frequent_items.h"       // string keys (tf-idf use case)

// The sharded concurrent ingestion engine (§3 scaled to a running system).
#include "engine/shard.h"
#include "engine/snapshot_service.h"  // async double-buffered read path
#include "engine/spsc_ring.h"
#include "engine/stream_engine.h"

// Telemetry: lock-free instruments, the process-wide registry and the
// pipeline's instrument catalog (compile with -DFREQ_OBS_OFF to turn every
// instrument into a no-op).
#include "obs/instruments.h"
#include "obs/pipeline_metrics.h"
#include "obs/registry.h"

// Applications built on the sketch (§1.2 / §6).
#include "entropy/entropy_estimator.h"
#include "hhh/hierarchical_heavy_hitters.h"

// The network-telemetry subsystem: the applications promoted onto the
// engine (per-level sharded HHH, certified entropy alarms, trace replay).
#include "telemetry/entropy_monitor.h"
#include "telemetry/hhh_summarizer.h"
#include "telemetry/trace_replay.h"

// Workloads, ground truth and IO.
#include "metrics/error.h"
#include "metrics/space.h"
#include "stream/exact_counter.h"
#include "stream/generators.h"
#include "stream/trace_io.h"
#include "stream/update.h"

#endif  // FREQ_FREQ_H
