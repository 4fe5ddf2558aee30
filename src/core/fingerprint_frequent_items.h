#ifndef FREQ_CORE_FINGERPRINT_FREQUENT_ITEMS_H
#define FREQ_CORE_FINGERPRINT_FREQUENT_ITEMS_H

/// \file fingerprint_frequent_items.h
/// Frequent items over any key kind via fingerprinting: the counting
/// substrate runs on 64-bit fingerprints (the same policy-templated
/// parallel-array core as the integer sketch — core/basic_frequent_items.h
/// + core/lifetime_policy.h) while a detachable spelling_dictionary
/// remembers the original keys of currently-tracked fingerprints so
/// results are reported in the caller's vocabulary.
///
/// This is the split the sharded engine needs: each ring record is a
/// fixed-size (fingerprint, weight) pair whose key bytes ride a byte lane
/// beside it, in stream order; a shard applies every record through the
/// same keyed update(fp, item, w) a standalone summary runs, so each shard
/// owns the dictionary slice for the fingerprints routed to it, and
/// snapshot merge unions slices (merge() below). Standalone use composes
/// the same two halves in one object — `string_frequent_items` (string
/// keys, the tf-idf use case of §1.2) is an alias of this template.
///
/// Fingerprint collisions merge two keys' counts; at 64 bits the chance any
/// pair among k tracked items collides is ~k²/2⁶⁵ (≈1e-11 for k = 2¹⁵) —
/// the standard trade DataSketches also makes for non-integer keys.
///
/// Key kinds plug in through `key_fingerprint_traits<Item>`: strings get a
/// stable FNV-1a fingerprint and string_view call surfaces; other types
/// default to a mixed std::hash (process-stable only — specialize the
/// traits with a portable fingerprint before shipping envelopes across
/// machines, exactly like DataSketches' serde-vs-hash distinction).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/mem.h"
#include "core/basic_frequent_items.h"
#include "core/frequent_items_sketch.h"
#include "core/lifetime_policy.h"
#include "core/sketch_config.h"
#include "core/spelling_dictionary.h"
#include "hashing/hash.h"

namespace freq {

/// How a key kind maps into the fingerprint-counted core: the view type its
/// call surfaces take, the 64-bit fingerprint, and how to materialize an
/// owned Item from a view (for the spelling dictionary).
template <typename Item>
struct key_fingerprint_traits {
    using view_type = const Item&;

    /// Default fingerprint: std::hash widened through a finalizing mixer.
    /// Stable within a process — good enough for in-memory summaries and
    /// single-process engines; specialize with a portable hash (as the
    /// std::string specialization does) before shipping envelopes between
    /// machines.
    static std::uint64_t fingerprint(const Item& v) {
        return murmur_mix64(static_cast<std::uint64_t>(std::hash<Item>{}(v)) ^
                            0x4669'6e67'6572'7072ULL);
    }

    static const Item& materialize(const Item& v) { return v; }
};

template <>
struct key_fingerprint_traits<std::string> {
    using view_type = std::string_view;

    /// FNV-1a: byte-stable across processes and machines, so string-keyed
    /// envelopes merge correctly anywhere.
    static std::uint64_t fingerprint(std::string_view v) noexcept { return fnv1a64(v); }

    static std::string materialize(std::string_view v) { return std::string(v); }
};

template <typename Item, typename W = double, typename Lifetime = plain_lifetime,
          typename Traits = key_fingerprint_traits<Item>,
          typename Dict = spelling_dictionary<Item>>
class fingerprint_frequent_items {
    /// The plain instantiation routes through frequent_items_sketch so the
    /// serialization-capable type stays reachable; other lifetimes sit on
    /// the policy core directly.
    using inner_sketch =
        std::conditional_t<std::is_same_v<Lifetime, plain_lifetime>,
                           frequent_items_sketch<std::uint64_t, W>,
                           basic_frequent_items<std::uint64_t, W, Lifetime>>;

public:
    using item_type = Item;
    using item_view = typename Traits::view_type;
    using key_traits = Traits;
    using weight_type = W;
    using lifetime_policy = Lifetime;
    /// Defaults to the arena backend for strings, the heap backend for
    /// other item types; tests pin the heap backend explicitly to hold the
    /// two to bit-identical envelopes (spelling_dictionary.h).
    using dictionary_type = Dict;

    struct row {
        Item item;
        W estimate;
        W lower_bound;
        W upper_bound;
        std::uint64_t fingerprint = 0;
    };

    explicit fingerprint_frequent_items(std::uint32_t max_counters, std::uint64_t seed = 0)
        : fingerprint_frequent_items(
              sketch_config{.max_counters = max_counters, .seed = seed}) {}

    /// Full-config constructor — needed to reach the lifetime knobs
    /// (sketch_config::decay / window_epochs). \p place threads the memory
    /// hints of common/mem.h into both halves: the counting table's backing
    /// arrays and the spelling dictionary's byte arena.
    explicit fingerprint_frequent_items(const sketch_config& cfg,
                                        const mem::placement& place = {})
        : sketch_(cfg, place) {
        // The dictionary budget must cover every simultaneously trackable
        // fingerprint: a windowed sketch tracks up to k per live epoch.
        dict_.configure(static_cast<std::uint64_t>(cfg.max_counters) *
                        (Lifetime::windowed ? cfg.window_epochs : 1u));
        dict_.set_placement(place);
    }

    /// Re-applies placement hints to table arrays and future arena blocks.
    void apply_placement(const mem::placement& place) noexcept {
        sketch_.apply_placement(place);
        dict_.set_placement(place);
    }

    /// The key's position in the 64-bit fingerprint space the counting core
    /// (and the engine's shard routing) operates on.
    static std::uint64_t fingerprint(item_view item) { return Traits::fingerprint(item); }

    // --- ingestion (keyed path: count + remember the spelling) ---------------

    void update(item_view item, W weight = W{1}) {
        (void)update(Traits::fingerprint(item), item, weight);
    }

    /// What a keyed update did with the key's spelling: the dictionary
    /// already held it, stored it now, or skipped it (untracked key).
    enum class spelling_outcome : std::uint8_t { known, stored, untracked };

    /// The keyed update with \p fp = fingerprint(item) already computed:
    /// the body of update(item, w), and what an engine shard applies each
    /// ring record through, so a shard equals a standalone summary fed its
    /// sub-stream. Remembers the spelling while the item is tracked. Known
    /// spellings skip the tracked-check entirely, and admission can only
    /// have happened in the current epoch, so a windowed sketch probes one
    /// epoch table, not all window_epochs of them (an id tracked only in
    /// an older epoch got its dictionary entry when that epoch admitted
    /// it, and prune keeps window-wide-tracked fingerprints). A spelling
    /// swept while its key was untracked returns with the key's next
    /// tracked occurrence.
    spelling_outcome update(std::uint64_t fp, item_view item, W weight) {
        sketch_.update(fp, weight);
        if (dict_.contains(fp)) {
            return spelling_outcome::known;
        }
        if (!tracked_now(fp)) {
            return spelling_outcome::untracked;
        }
        if (dict_.note(fp, Traits::materialize(item))) {
            prune();
        }
        return spelling_outcome::stored;
    }

    // --- lifetime ------------------------------------------------------------

    /// Advances the lifetime policy's logical clock (no-op for plain).
    void tick(std::uint64_t epochs = 1) { sketch_.tick(epochs); }

    /// Current logical clock (ticks since construction; 0 for plain).
    std::uint64_t now() const noexcept {
        if constexpr (Lifetime::windowed) {
            return sketch_.now();
        } else if constexpr (Lifetime::decaying) {
            return sketch_.policy().now();
        } else {
            return 0;
        }
    }

    // --- merging (Algorithm 5 + dictionary union) ----------------------------

    /// Merges the fingerprint sketches (policy-aware — clocks align,
    /// windows fold epoch-wise) and unions the spelling dictionaries,
    /// pruning if the union overflows. This is how the engine's snapshot
    /// folds per-shard dictionary slices into one reportable summary.
    void merge(const fingerprint_frequent_items& other) {
        sketch_.merge(other.sketch_);
        if (dict_.merge_union(other.dict_)) {
            prune();
        }
    }

    // --- queries -------------------------------------------------------------

    W estimate(item_view item) const { return sketch_.estimate(Traits::fingerprint(item)); }
    W lower_bound(item_view item) const {
        return sketch_.lower_bound(Traits::fingerprint(item));
    }
    W upper_bound(item_view item) const {
        return sketch_.upper_bound(Traits::fingerprint(item));
    }
    W maximum_error() const noexcept { return sketch_.maximum_error(); }
    W total_weight() const noexcept { return sketch_.total_weight(); }
    std::uint32_t capacity() const noexcept { return sketch_.capacity(); }
    std::uint32_t num_counters() const noexcept { return sketch_.num_counters(); }
    const sketch_config& config() const noexcept { return sketch_.config(); }

    /// Heavy hitters with their spellings, sorted by descending estimate.
    std::vector<row> frequent_items(error_type et, W threshold) const {
        return spell_rows(sketch_.frequent_items(et, threshold));
    }

    std::vector<row> frequent_items(error_type et) const {
        return frequent_items(et, sketch_.maximum_error());
    }

    /// The (up to) m tracked items with the largest estimates, spelled out,
    /// in descending order — same contract as the core sketch's top_items.
    std::vector<row> top_items(std::size_t m) const {
        return spell_rows(sketch_.top_items(m));
    }

    /// The identification half: spellings of currently-relevant
    /// fingerprints (read-only; the engine serializes per-shard slices).
    const dictionary_type& dictionary() const noexcept { return dict_; }

    /// Sketch bytes plus dictionary footprint (keys + item storage).
    std::size_t memory_bytes() const noexcept {
        return sketch_.memory_bytes() + dict_.memory_bytes();
    }

    /// One-line human-readable summary (examples / debugging).
    std::string to_string() const {
        return "fingerprint_frequent_items(k=" + std::to_string(capacity()) +
               ", counters=" + std::to_string(num_counters()) +
               ", spellings=" + std::to_string(dict_.size()) +
               ", N=" + std::to_string(static_cast<double>(total_weight())) + ")";
    }

private:
    friend struct summary_serde_access;

    /// Whether the most recent update for \p fp can have admitted it — the
    /// current epoch for a windowed sketch, the whole table otherwise.
    bool tracked_now(std::uint64_t fp) const {
        if constexpr (Lifetime::windowed) {
            return sketch_.current_epoch().lower_bound(fp) > W{0};
        } else {
            return sketch_.lower_bound(fp) > W{0};
        }
    }

    void prune() {
        dict_.prune([this](std::uint64_t fp) { return sketch_.lower_bound(fp) > W{0}; });
    }

    template <typename Rows>
    std::vector<row> spell_rows(const Rows& in) const {
        std::vector<row> out;
        out.reserve(in.size());
        for (const auto& r : in) {
            // Heap backend: const Item*. Arena backend: const string_view*
            // into the arena — either way an Item is materialized per row.
            const auto* spelling = dict_.find(r.id);
            out.push_back(row{spelling != nullptr ? Item(*spelling) : unknown_item(),
                              r.estimate, r.lower_bound, r.upper_bound, r.id});
        }
        return out;
    }

    /// Placeholder for a tracked fingerprint whose spelling is (not yet)
    /// known — the count is still correct, only the identification lags.
    static Item unknown_item() {
        if constexpr (std::is_same_v<Item, std::string>) {
            return std::string("<unknown>");
        } else {
            return Item{};
        }
    }

    inner_sketch sketch_;
    dictionary_type dict_;
};

}  // namespace freq

#endif  // FREQ_CORE_FINGERPRINT_FREQUENT_ITEMS_H
