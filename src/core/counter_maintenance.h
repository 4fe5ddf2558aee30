#ifndef FREQ_CORE_COUNTER_MAINTENANCE_H
#define FREQ_CORE_COUNTER_MAINTENANCE_H

/// \file counter_maintenance.h
/// Two layers of the backend contract live here.
///
/// `sketch_backend` is the concept every runtime-selectable algorithm of
/// the façade models: the paper's counter-based cores
/// (basic_frequent_items and its policy instantiations) and the §1.3
/// baselines promoted by backend_summaries.h (count_min / count_sketch /
/// space_saving). The engine's shards, the snapshot service and the
/// type-erased summarizer program against exactly this surface, so a new
/// algorithm plugs in by modeling the concept — nothing downstream
/// changes.
///
/// `claim_or_reduce` is the one maintenance step every *counter-based*
/// summary shares — Algorithm 4's Update() skeleton: increment the item's
/// counter if tracked, claim a free counter if one exists, otherwise
/// reduce every counter by some c* and admit the remainder when it is
/// positive. The variants differ only in storage (parallel-array
/// counter_table vs. node-based map) and in how c* is chosen (sampled
/// quantile vs. exact median) — both are injected, so the admission logic
/// exists exactly once.
///
/// Each reduce() invocation is also counted on the process-wide telemetry
/// registry (freq_sketch_decrement_rounds_total): decrement rounds are the
/// O(k) maintenance events that dominate worst-case update cost, so their
/// rate is the first thing to look at when ingest throughput dips.

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "core/sketch_config.h"
#include "obs/pipeline_metrics.h"
#include "stream/update.h"

namespace freq {

/// The backend concept of the façade: one runtime-selectable sketch
/// algorithm. Models are constructible from a sketch_config (which maps
/// max_counters / seed / decay onto the algorithm's own knobs),
/// copy-constructible (engine shards clone for snapshots), ingest scalar
/// and batched updates, advance lifetime clocks via tick(), merge with a
/// same-type peer, and answer the full query surface: point brackets,
/// global error bound, threshold and top-m enumeration, and capacity /
/// memory introspection. Save/restore rides along via the summary_bytes
/// envelope (summary_traits + summary_serde_access specializations), which
/// every façade-reachable model provides.
template <typename S>
concept sketch_backend =
    std::copy_constructible<S> && std::constructible_from<S, const sketch_config&> &&
    requires(S s, const S cs, typename S::key_type id, typename S::weight_type w,
             std::span<const update<typename S::key_type, typename S::weight_type>> batch,
             std::uint64_t epochs, error_type mode, std::size_t m) {
        typename S::key_type;
        typename S::weight_type;
        typename S::lifetime_policy;
        s.update(id, w);
        s.update(batch);
        s.tick(epochs);
        s.merge(cs);
        { cs.estimate(id) } -> std::convertible_to<typename S::weight_type>;
        { cs.lower_bound(id) } -> std::convertible_to<typename S::weight_type>;
        { cs.upper_bound(id) } -> std::convertible_to<typename S::weight_type>;
        { cs.total_weight() } -> std::convertible_to<typename S::weight_type>;
        { cs.maximum_error() } -> std::convertible_to<typename S::weight_type>;
        { cs.num_counters() } -> std::convertible_to<std::size_t>;
        { cs.capacity() } -> std::convertible_to<std::size_t>;
        { cs.memory_bytes() } -> std::convertible_to<std::size_t>;
        cs.frequent_items(mode, w);
        cs.top_items(m);
        { cs.config() } -> std::convertible_to<const sketch_config&>;
        { cs.to_string() } -> std::convertible_to<std::string>;
    };

namespace detail {

/// True when \p S declares `static constexpr bool merge_requires_equal_seeds
/// = true` — the linear-sketch opt-out from the engine's per-shard seed
/// perturbation. Cellwise merge (count_min / count_sketch) only composes
/// across shards when every shard hashes with the *same* seed; that is
/// sound for them because shards partition the key space, so equal seeds
/// never double-count. Counter-based backends keep perturbed seeds (their
/// merge is row-wise, and decorrelated decrement sampling helps).
template <typename S>
concept declares_equal_seed_merge = requires {
    { S::merge_requires_equal_seeds } -> std::convertible_to<bool>;
};

template <typename S>
inline constexpr bool merge_requires_equal_seeds_v = [] {
    if constexpr (declares_equal_seed_merge<S>) {
        return static_cast<bool>(S::merge_requires_equal_seeds);
    } else {
        return false;
    }
}();

}  // namespace detail

}  // namespace freq

namespace freq::detail {

/// \param store   counter storage providing find(id) -> W* (nullptr when
///                untracked), full(), and upsert(id, w) for absent ids.
/// \param reduce  invoked only when the store is full; must subtract some
///                c* > 0 from every counter, erase the non-positive ones,
///                and return c*.
///
/// Declared inline so that compilers inline it into the per-row admission
/// loops (basic_frequent_items::ingest_rows): called out of line, it costs
/// merges and span updates more than their precomputed home slots save.
template <typename Store, typename K, typename W, typename Reduce>
inline void claim_or_reduce(Store& store, const K& id, W weight, Reduce&& reduce) {
    if (W* c = store.find(id)) {
        *c += weight;
        return;
    }
    if (!store.full()) {
        store.upsert(id, weight);
        return;
    }
    obs::pipeline().sketch_decrement_rounds.add(1);
    const W cstar = reduce();
    if (weight > cstar) {
        store.upsert(id, weight - cstar);
    }
}

}  // namespace freq::detail

#endif  // FREQ_CORE_COUNTER_MAINTENANCE_H
