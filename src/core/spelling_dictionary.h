#ifndef FREQ_CORE_SPELLING_DICTIONARY_H
#define FREQ_CORE_SPELLING_DICTIONARY_H

/// \file spelling_dictionary.h
/// The detachable identification half of a fingerprint-counted summary.
///
/// The paper's sketch is key-type-agnostic: it counts 64-bit identifiers
/// and needs the original key only to *report* items. Splitting that
/// identification state into its own component lets the counting substrate
/// run anywhere fingerprints flow — a standalone adapter keeps one
/// dictionary next to its sketch, while the sharded engine gives each shard
/// the dictionary slice for the fingerprints routed to it and unions slices
/// at snapshot-merge time (the same counting/identification separation
/// FDCMSS-style systems and witness-reporting schemes make).
///
/// Memory discipline (unchanged from the original string adapter): the map
/// holds at most prune_limit = 4 × (simultaneously trackable fingerprints)
/// entries; overflowing triggers a prune() sweep that drops every spelling
/// whose fingerprint the counting core no longer tracks. Because tracked
/// fingerprints survive sweeps, the footprint is O(k · avg key size) while
/// admission churn stays amortized O(1) per note().
///
/// Storage backends (the UseArena template switch):
///
///   * heap (any Item, and the envelope-parity reference for strings) —
///     the map owns Item values directly, one heap node per spelling.
///   * arena (std::string only, the default for strings) — spelling bytes
///     live contiguously in a per-dictionary bump arena (common/mem.h) and
///     the map holds string_views into it. prune() rebuilds the survivors
///     into a fresh arena, so churny streams never fragment; the arena
///     inherits the owner's mem::placement hints (huge pages, and NUMA
///     locality via construction on the pinned shard worker).
///
/// Both backends expose the same surface: for_each passes spellings as
/// values convertible to std::string_view, find() returns a pointer whose
/// dereference converts likewise, and the envelope writer canonically sorts
/// by fingerprint — so the two backends produce bit-identical envelopes for
/// identical logical contents (tests/test_spelling_arena.cpp holds the
/// project to that).

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "common/contracts.h"
#include "common/mem.h"

namespace freq {

template <typename Item = std::string, bool UseArena = std::is_same_v<Item, std::string>>
class spelling_dictionary;

// --- heap backend (the original adapter; any Item type) ----------------------

template <typename Item, bool UseArena>
class spelling_dictionary {
public:
    using item_type = Item;

    spelling_dictionary() = default;

    /// Sizes the prune budget: \p trackable is the number of fingerprints
    /// the counting core can track simultaneously (k, or k · window_epochs
    /// for a windowed core — a per-epoch budget would leave the dictionary
    /// permanently over limit and re-sweep on nearly every note()).
    explicit spelling_dictionary(std::uint64_t trackable) { configure(trackable); }

    void configure(std::uint64_t trackable) {
        FREQ_REQUIRE(trackable >= 1, "spelling dictionary needs a positive budget");
        prune_limit_ = 4ull * trackable;
        // Modest upfront reservation only: a windowed sharded config can make
        // the *budget* large (k · window per shard), but sparse streams
        // should not pay the worst-case bucket array before any key arrives.
        map_.reserve(static_cast<std::size_t>(
            trackable < (1ull << 14) ? 2 * trackable : (1ull << 15)));
    }

    /// Placement hints are meaningful only for the arena backend; the heap
    /// backend accepts and ignores them so owners stay backend-generic.
    void set_placement(const mem::placement&) noexcept {}

    bool contains(std::uint64_t fp) const { return map_.contains(fp); }

    /// The spelling of \p fp, or nullptr when unknown (never tracked, or
    /// pruned while untracked).
    const Item* find(std::uint64_t fp) const {
        const auto it = map_.find(fp);
        return it == map_.end() ? nullptr : &it->second;
    }

    /// Remembers \p item as the spelling of \p fp (first writer wins — the
    /// fingerprint determines the spelling up to 64-bit collisions). Returns
    /// true when the dictionary is over budget and due for a prune(); the
    /// owner supplies the tracked-predicate, so the sweep stays here while
    /// the liveness notion stays with the counting core.
    template <typename V>
    bool note(std::uint64_t fp, V&& item) {
        map_.try_emplace(fp, std::forward<V>(item));
        return map_.size() > prune_limit_;
    }

    /// Drops every spelling whose fingerprint \p tracked rejects. O(size).
    template <typename TrackedPred>
    void prune(TrackedPred&& tracked) {
        for (auto it = map_.begin(); it != map_.end();) {
            if (tracked(it->first)) {
                ++it;
            } else {
                it = map_.erase(it);
            }
        }
    }

    /// Unions \p other's spellings into this dictionary (Algorithm 5's
    /// identification half). Returns true when the union overflowed the
    /// budget and a prune() is due.
    bool merge_union(const spelling_dictionary& other) {
        for (const auto& [fp, spelling] : other.map_) {
            map_.try_emplace(fp, spelling);
        }
        return map_.size() > prune_limit_;
    }

    std::size_t size() const noexcept { return map_.size(); }
    bool empty() const noexcept { return map_.empty(); }

    /// 4 × the simultaneously trackable fingerprints (see configure()).
    std::uint64_t prune_limit() const noexcept { return prune_limit_; }
    bool over_budget() const noexcept { return map_.size() > prune_limit_; }

    /// Visits every (fingerprint, spelling) pair in unspecified order.
    template <typename F>
    void for_each(F&& f) const {
        for (const auto& [fp, spelling] : map_) {
            f(fp, spelling);
        }
    }

    /// Keys + node overhead + owned string storage (strings report their
    /// heap capacity; other item types their object size).
    std::size_t memory_bytes() const noexcept {
        std::size_t bytes = map_.bucket_count() * sizeof(void*);
        for (const auto& [fp, item] : map_) {
            bytes += sizeof(fp) + sizeof(Item) + 2 * sizeof(void*);
            if constexpr (std::is_same_v<Item, std::string>) {
                bytes += item.capacity();
            }
        }
        return bytes;
    }

private:
    std::unordered_map<std::uint64_t, Item> map_;
    std::uint64_t prune_limit_ = 4;  ///< 4 × simultaneously trackable fingerprints
};

// --- arena backend (std::string spellings in a bump arena) -------------------

template <>
class spelling_dictionary<std::string, true> {
public:
    using item_type = std::string;

    spelling_dictionary() = default;
    explicit spelling_dictionary(std::uint64_t trackable) { configure(trackable); }

    /// Deep copies rebuild into a private arena, so copies are independent
    /// (sketch clones and merges rely on value semantics).
    spelling_dictionary(const spelling_dictionary& other)
        : block_bytes_(other.block_bytes_),
          arena_(other.block_bytes_, other.arena_.hints()),
          prune_limit_(other.prune_limit_) {
        map_.reserve(other.map_.size());
        for (const auto& [fp, view] : other.map_) {
            map_.emplace(fp, arena_.store(view));
        }
    }

    /// Copy-assign rewinds the existing arena instead of replacing it, so a
    /// steady-state clone-into cycle (the engine's snapshot publish)
    /// reuses the same hot block.
    spelling_dictionary& operator=(const spelling_dictionary& other) {
        if (this != &other) {
            prune_limit_ = other.prune_limit_;
            block_bytes_ = other.block_bytes_;
            map_.clear();
            arena_.reset();
            arena_.set_hints(other.arena_.hints());
            for (const auto& [fp, view] : other.map_) {
                map_.emplace(fp, arena_.store(view));
            }
        }
        return *this;
    }

    spelling_dictionary(spelling_dictionary&&) = default;
    spelling_dictionary& operator=(spelling_dictionary&&) = default;
    ~spelling_dictionary() = default;

    void configure(std::uint64_t trackable) {
        FREQ_REQUIRE(trackable >= 1, "spelling dictionary needs a positive budget");
        prune_limit_ = 4ull * trackable;
        map_.reserve(static_cast<std::size_t>(
            trackable < (1ull << 14) ? 2 * trackable : (1ull << 15)));
        // Scale the arena block to the budget (~24 spelling bytes per entry
        // to start; doubling growth covers longer keys) so a tiny
        // dictionary's footprint stays tiny — the same proportionality the
        // heap backend gets from per-string allocation.
        block_bytes_ = block_bytes_for(prune_limit_);
        const mem::placement hints = arena_.hints();
        arena_ = mem::arena(block_bytes_, hints);
    }

    /// Future arena blocks pick up the hints (huge-page advice); NUMA
    /// locality comes from first-touch on the constructing/pinned thread.
    void set_placement(const mem::placement& hints) noexcept { arena_.set_hints(hints); }

    bool contains(std::uint64_t fp) const { return map_.contains(fp); }

    /// The spelling of \p fp as a view into the arena, or nullptr when
    /// unknown. The pointer is stable; the viewed bytes live until the next
    /// prune() rebuild or clear.
    const std::string_view* find(std::uint64_t fp) const {
        const auto it = map_.find(fp);
        return it == map_.end() ? nullptr : &it->second;
    }

    /// First-writer-wins note(), same contract as the heap backend; the
    /// spelling bytes are copied into the arena only on actual insertion.
    template <typename V>
    bool note(std::uint64_t fp, V&& item) {
        const auto [it, inserted] = map_.try_emplace(fp);
        if (inserted) {
            it->second = arena_.store(std::string_view(item));
        }
        return map_.size() > prune_limit_;
    }

    /// Drops untracked spellings and rebuilds the survivors into a fresh
    /// arena — churny streams never fragment the byte storage, and the old
    /// arena's pages return to the OS in one release. O(size + bytes).
    template <typename TrackedPred>
    void prune(TrackedPred&& tracked) {
        mem::arena fresh(block_bytes_, arena_.hints());
        for (auto it = map_.begin(); it != map_.end();) {
            if (tracked(it->first)) {
                it->second = fresh.store(it->second);
                ++it;
            } else {
                it = map_.erase(it);
            }
        }
        arena_ = std::move(fresh);
    }

    bool merge_union(const spelling_dictionary& other) {
        for (const auto& [fp, view] : other.map_) {
            const auto [it, inserted] = map_.try_emplace(fp);
            if (inserted) {
                it->second = arena_.store(view);
            }
        }
        return map_.size() > prune_limit_;
    }

    std::size_t size() const noexcept { return map_.size(); }
    bool empty() const noexcept { return map_.empty(); }
    std::uint64_t prune_limit() const noexcept { return prune_limit_; }
    bool over_budget() const noexcept { return map_.size() > prune_limit_; }

    /// Visits every (fingerprint, spelling) pair in unspecified order; the
    /// spelling parameter is a std::string_view into the arena.
    template <typename F>
    void for_each(F&& f) const {
        for (const auto& [fp, view] : map_) {
            f(fp, view);
        }
    }

    /// Map overhead plus the arena's reserved block bytes.
    std::size_t memory_bytes() const noexcept {
        return map_.bucket_count() * sizeof(void*) +
               map_.size() * (sizeof(std::uint64_t) + sizeof(std::string_view) +
                              2 * sizeof(void*)) +
               arena_.bytes_reserved();
    }

    /// Arena introspection for tests and benches.
    std::size_t arena_bytes_used() const noexcept { return arena_.bytes_used(); }
    std::size_t arena_bytes_reserved() const noexcept { return arena_.bytes_reserved(); }

private:
    static std::size_t block_bytes_for(std::uint64_t prune_limit) noexcept {
        const std::uint64_t want = prune_limit * 24;
        if (want < 4096) {
            return 4096;
        }
        if (want > mem::arena::default_block_bytes) {
            return mem::arena::default_block_bytes;
        }
        return static_cast<std::size_t>(want);
    }

    std::unordered_map<std::uint64_t, std::string_view> map_;
    std::size_t block_bytes_ = 4096;
    mem::arena arena_{4096};
    std::uint64_t prune_limit_ = 4;
};

}  // namespace freq

#endif  // FREQ_CORE_SPELLING_DICTIONARY_H
