#ifndef FREQ_CORE_STRING_FREQUENT_ITEMS_H
#define FREQ_CORE_STRING_FREQUENT_ITEMS_H

/// \file string_frequent_items.h
/// Frequent items over string identifiers — the tf-idf / text-mining use
/// case of §1.2 (real-valued weights over words) and the closest analogue of
/// Apache DataSketches' generic frequent_items_sketch<std::string>.
///
/// Since the fingerprint/dictionary split (see
/// core/fingerprint_frequent_items.h) this is an alias: strings are
/// FNV-1a-fingerprinted to 64 bits so the hot path runs on the same
/// parallel-array table as the integer sketch, and a detachable
/// spelling_dictionary remembers the spelling of currently-tracked
/// fingerprints so results are human-readable. The split is what lets text
/// keys ingest through the sharded engine: fixed-size fingerprint records
/// ride the SPSC rings with each key's bytes on a byte lane beside them,
/// and each shard, applying them through the same keyed update, owns the
/// dictionary slice for the keys routed to it (engine/stream_engine.h).
///
/// Pick a Lifetime (core/lifetime_policy.h) to get plain, time-fading or
/// sliding-window semantics over the same fingerprint + dictionary scheme —
/// e.g. string_frequent_items<double, exponential_fading> for fading word
/// counts. The plain default keeps the pre-split behavior, unchanged.

#include <string>

#include "core/fingerprint_frequent_items.h"
#include "core/lifetime_policy.h"

namespace freq {

template <typename W = double, typename Lifetime = plain_lifetime>
using string_frequent_items = fingerprint_frequent_items<std::string, W, Lifetime>;

}  // namespace freq

#endif  // FREQ_CORE_STRING_FREQUENT_ITEMS_H
