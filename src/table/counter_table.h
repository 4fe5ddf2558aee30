#ifndef FREQ_TABLE_COUNTER_TABLE_H
#define FREQ_TABLE_COUNTER_TABLE_H

/// \file counter_table.h
/// The hash table of §2.3.3 of the paper: an open-addressing, linear-probing
/// map from 64-bit item identifiers to counters, laid out as three parallel
/// arrays (keys, values, states) of length L = ceil_pow2(4k/3) where k is the
/// maximum number of live counters.
///
/// A state of 0 marks an empty slot; a positive state equals the probe
/// distance of the stored key from its preferred slot, plus one. States fit
/// in 16 bits: at load factor <= 3/4 the probability that any probe sequence
/// ever exceeds 2^14 is negligible (the paper reports < 1e-250), and the
/// implementation checks the bound explicitly.
///
/// Beyond find/upsert, the table supports the one operation that makes the
/// paper's algorithms fast: decrement_all(c*), which subtracts c* from every
/// counter and removes the non-positive ones *in place*, with no scratch
/// memory, in two linear passes. The first is a branch-free subtract over
/// the parallel values_/states_ arrays that empties the slots of dying
/// counters (integral counters compare by a borrow bit, so the pass
/// vectorizes under baseline SSE2); the second walks once around the array
/// from an empty slot and moves each survivor back to the first hole on its
/// probe path, found from the survivor's state (distance from its preferred
/// slot) without rehashing its key.
///
/// Walks that skip empty slots — that second pass, for_each (save, top
/// items) and for_each_from (the source side of every Algorithm 5 merge) —
/// read the occupancy of 64 consecutive slots into one word and visit its
/// set bits, instead of branching on every slot: at 25–75% load that branch
/// mispredicts often enough to cost more than the data movement.
///
/// find/upsert are the plain linear-probing loops of §2.3.3, one slot per
/// step: at load factor <= 3/4 a probe touches a slot or two on average.
/// Each also has a form that probes from a home slot the caller hashed
/// ahead; the bulk paths into a table (Algorithm 5 merges and span
/// updates, basic_frequent_items::ingest_rows) gather rows into a fixed
/// stack block, each with its home slot in the destination, and admit them
/// through homed_view, so a merge stays O(k) and allocation-free.
/// insert_absent skips the key compares for keys known to be new.
///
/// At 8-byte keys, 8-byte values and 2-byte states the table costs
/// 18 * ceil_pow2(4k/3) bytes — the paper's "24k bytes" figure when 4k/3
/// lands on a power of two.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "common/contracts.h"
#include "common/mem.h"
#include "hashing/hash.h"

namespace freq {

template <typename K = std::uint64_t, typename W = std::uint64_t>
class counter_table {
    static_assert(std::is_integral_v<K> && sizeof(K) <= 8,
                  "counter_table keys are integral identifiers (fingerprint other types)");
    static_assert(std::is_arithmetic_v<W>, "counter weights must be arithmetic");

public:
    using key_type = K;
    using weight_type = W;
    using state_type = std::uint16_t;

    /// \param max_items  k — the largest number of simultaneously tracked
    ///                   counters; the slot array is sized ceil_pow2(4k/3).
    /// \param hash_seed  seeds the slot hash so distinct tables can use
    ///                   independent hash functions (see §3.2's merge note).
    /// \param place      memory-placement hints (common/mem.h): with
    ///                   hugepages set, the freshly sized parallel arrays
    ///                   are THP-advised right here, before any entry lands, so
    ///                   the kernel can back them with huge pages from the
    ///                   first fault. NUMA locality needs no hook: the
    ///                   arrays fault in on the *constructing* thread's
    ///                   node, and the engine constructs each shard on its
    ///                   pinned worker. Placement never affects results.
    explicit counter_table(std::uint32_t max_items, std::uint64_t hash_seed = 0,
                           const mem::placement& place = {})
        : max_items_(max_items), hash_seed_(hash_seed) {
        FREQ_REQUIRE(max_items >= 1, "counter_table needs capacity for at least one counter");
        FREQ_REQUIRE(max_items <= (1u << 28), "counter_table capacity limited to 2^28 counters");
        const std::uint64_t want = (static_cast<std::uint64_t>(max_items) * 4 + 2) / 3;
        num_slots_ = static_cast<std::uint32_t>(ceil_pow2(want));
        mask_ = num_slots_ - 1;
        keys_.resize(num_slots_);
        values_.resize(num_slots_);
        states_.assign(num_slots_, 0);
        apply_placement(place);
    }

    /// The allocator hook's re-advise half: applies the hugepage hint to
    /// the already-allocated parallel arrays (vectors never reallocate, so
    /// advising once covers the table's lifetime). Safe to call anytime.
    void apply_placement(const mem::placement& place) noexcept {
        mem::apply_placement(keys_.data(), keys_.size() * sizeof(K), place);
        mem::apply_placement(values_.data(), values_.size() * sizeof(W), place);
        mem::apply_placement(states_.data(), states_.size() * sizeof(state_type), place);
    }

    std::uint32_t capacity() const noexcept { return max_items_; }   ///< k
    std::uint32_t num_slots() const noexcept { return num_slots_; }  ///< L
    std::uint32_t size() const noexcept { return num_active_; }
    bool empty() const noexcept { return num_active_ == 0; }
    bool full() const noexcept { return num_active_ == max_items_; }
    std::uint64_t hash_seed() const noexcept { return hash_seed_; }

    /// Bytes consumed by the parallel arrays — the quantity the paper's
    /// equal-space comparisons (§4.3) equalize across algorithms.
    std::size_t memory_bytes() const noexcept {
        return static_cast<std::size_t>(num_slots_) *
               (sizeof(K) + sizeof(W) + sizeof(state_type));
    }

    /// Storage cost of a hypothetical table with capacity \p max_items,
    /// computed without allocating (the equal-space harnesses probe large k).
    static std::size_t bytes_for(std::uint32_t max_items) noexcept {
        const std::uint64_t want = (static_cast<std::uint64_t>(max_items) * 4 + 2) / 3;
        return static_cast<std::size_t>(ceil_pow2(want)) *
               (sizeof(K) + sizeof(W) + sizeof(state_type));
    }

    /// Pointer to the counter for \p key, or nullptr when untracked.
    const W* find(K key) const noexcept { return find(key, home_slot(key)); }
    W* find(K key) noexcept { return find(key, home_slot(key)); }

    /// find() probing from \p home, which must be home_slot(key): the one
    /// probe loop, for callers that hashed the key ahead.
    const W* find(K key, std::uint32_t home) const noexcept {
        std::uint32_t idx = home;
        while (states_[idx] != 0) {
            if (keys_[idx] == key) {
                return &values_[idx];
            }
            idx = (idx + 1) & mask_;
        }
        return nullptr;
    }

    W* find(K key, std::uint32_t home) noexcept {
        return const_cast<W*>(static_cast<const counter_table*>(this)->find(key, home));
    }

    /// Adds \p weight to the counter for \p key, inserting the key if absent.
    /// Returns true when a new counter was created.
    /// Precondition: if the key is absent, the table must not be full —
    /// callers (the sketch algorithms) decrement-and-compact first.
    bool upsert(K key, W weight) { return upsert(key, weight, home_slot(key)); }

    /// upsert() probing from \p home, which must be home_slot(key).
    bool upsert(K key, W weight, std::uint32_t home) {
        std::uint32_t idx = home;
        while (states_[idx] != 0) {
            if (keys_[idx] == key) {
                values_[idx] += weight;
                return false;
            }
            idx = (idx + 1) & mask_;
        }
        insert_at(idx, home, key, weight);
        return true;
    }

    /// The store detail::claim_or_reduce admits one key through when its
    /// home slot is already known: find/upsert probe from \p home instead
    /// of hashing the key again. Decrements never move a key's home, so a
    /// view stays valid across the reduce step of its admission.
    struct homed_view {
        counter_table& table;
        std::uint32_t home;

        W* find(K key) const noexcept { return table.find(key, home); }
        bool full() const noexcept { return table.full(); }
        bool upsert(K key, W weight) const { return table.upsert(key, weight, home); }
    };

    /// Inserts \p key, which the caller knows is absent, into the first
    /// empty slot of its probe path — where upsert would put it — reading
    /// only states, never keys. Precondition: the table is not full. The
    /// envelope decoder uses it: strictly ascending rows are distinct keys.
    void insert_absent(K key, W weight) {
        const std::uint32_t home = home_slot(key);
        std::uint32_t idx = home;
        while (states_[idx] != 0) {
            idx = (idx + 1) & mask_;
        }
        insert_at(idx, home, key, weight);
    }

    /// Subtracts \p amount from every counter and erases the counters that
    /// become non-positive, compacting probe runs in place. Returns the
    /// number of erased counters. O(L), two passes, no allocation.
    ///
    /// The result is exactly the layout of the textbook single pass that
    /// walks once around the array from an empty slot, vacating each
    /// counter and either dropping it or re-inserting it by probing from
    /// its preferred slot (see the reference sweep in
    /// tests/test_counter_table.cpp):
    ///   1. a branch-free pass subtracts \p amount from every survivor and
    ///      empties the slots of the counters that drop to <= \p amount;
    ///   2. a walk from the slot after that empty `start` moves each
    ///      survivor to the first empty slot on its probe path, which
    ///      begins at home = slot - (state - 1): no rehash is needed, and a
    ///      survivor with no hole between home and itself stays put.
    /// Every slot a survivor's re-insertion probes lies in its original
    /// cluster before it, so the walk has already finalized it — the same
    /// slots the single pass would see. The start slot is located from the
    /// slot the previous decrement (or erase) left empty rather than by
    /// scanning from slot 0, which on a near-full table whose front is one
    /// long cluster would cost O(cluster) per decrement.
    std::uint32_t decrement_all(W amount) {
        if (num_active_ == 0) {
            return 0;
        }
        // A load factor <= 3/4 guarantees an empty slot exists; the hint
        // may have been refilled since, so scan (wrapping) from it.
        std::uint32_t start = empty_hint_;
        std::uint32_t scanned = 0;
        while (states_[start] != 0) {
            start = (start + 1) & mask_;
            ++scanned;
            FREQ_EXPECTS(scanned <= num_slots_);
        }
        const std::uint32_t erased = subtract_and_drop(amount);
        num_active_ -= erased;
        if (erased != 0) {  // without new holes every survivor is in place
            close_holes(start);
        }
        // The start slot was empty before the sweep and no survivor moves
        // into it (no probe path crossed it), so it is still empty — the
        // next decrement starts its scan here.
        empty_hint_ = start;
        return erased;
    }

    /// Multiplies every counter by \p factor (> 0) in place — the
    /// renormalization pass of the forward-decay lifetime policy, which
    /// periodically rebases its landmark so inflated counters keep
    /// floating-point headroom. Slot placement is key-driven, so scaling
    /// itself never moves entries; in the (denormal-only) event that some
    /// counter underflows to zero, one decrement_all(0) pass drops the dead
    /// counters and compacts the probe runs — a single O(L) sweep instead
    /// of the former rescan-then-erase-per-key cleanup.
    void scale_all(double factor) {
        static_assert(std::is_floating_point_v<W>,
                      "scale_all is meaningful only for floating-point counters");
        FREQ_REQUIRE(factor > 0.0, "scale_all factor must be positive");
        bool underflow = false;
        for (std::uint32_t i = 0; i < num_slots_; ++i) {
            if (states_[i] != 0) {
                values_[i] = static_cast<W>(values_[i] * factor);
                underflow |= !(values_[i] > W{0});
            }
        }
        if (underflow) {
            decrement_all(W{0});
        }
    }

    /// Removes \p key if present, restoring the probing invariant by the
    /// standard backward-shift technique (no tombstones). Returns true when
    /// the key was present. Used by the RAP Space-Saving variant, which
    /// reassigns (rather than decrements) counters.
    bool erase(K key) {
        std::uint32_t idx = home_slot(key);
        while (states_[idx] != 0) {
            if (keys_[idx] == key) {
                states_[idx] = 0;
                --num_active_;
                empty_hint_ = backward_shift(idx);
                return true;
            }
            idx = (idx + 1) & mask_;
        }
        return false;
    }

    /// Visits every live (key, counter) pair in slot order.
    template <typename F>
    void for_each(F&& f) const {
        for_each_from(0, std::forward<F>(f));
    }

    /// Visits, in slot order, every live pair whose counter passes \p keep.
    /// keep runs on the values array 8 slots at a time into a bit mask,
    /// with no branch per slot, and states are read only for the slots it
    /// selects: a set query then branches once per candidate instead of
    /// once per slot. Empty slots hold stale values; their state discards
    /// them.
    template <typename Keep, typename F>
    void for_each_if(Keep&& keep, F&& f) const {
        const W* const values = values_.data();
        std::uint32_t i = 0;
        for (; i + 8 <= num_slots_; i += 8) {
            unsigned mask = 0;
            for (unsigned j = 0; j < 8; ++j) {
                mask |= static_cast<unsigned>(keep(values[i + j])) << j;
            }
            for (; mask != 0; mask &= mask - 1) {
                const std::uint32_t slot = i + static_cast<std::uint32_t>(std::countr_zero(mask));
                if (states_[slot] != 0) {
                    f(keys_[slot], values[slot]);
                }
            }
        }
        for (; i < num_slots_; ++i) {  // tables of fewer than 8 slots
            if (keep(values[i]) && states_[i] != 0) {
                f(keys_[i], values[i]);
            }
        }
    }

    /// Visits every live pair starting at \p start_slot and wrapping — used
    /// by the merge procedure to iterate the source summary in a randomized
    /// order, avoiding the front-of-table overpopulation hazard of §3.2.
    template <typename F>
    void for_each_from(std::uint32_t start_slot, F&& f) const {
        FREQ_REQUIRE(start_slot < num_slots_, "start slot out of range");
        for (std::uint32_t base = 0; base < num_slots_; base += 64) {
            const std::uint32_t first = start_slot + base;
            for (std::uint64_t live = occupancy(first, num_slots_ - base); live != 0;
                 live &= live - 1) {
                const std::uint32_t slot =
                    (first + static_cast<std::uint32_t>(std::countr_zero(live))) & mask_;
                f(keys_[slot], values_[slot]);
            }
        }
    }

    // --- raw slot access (sampling during SMED decrements) -----------------

    bool slot_occupied(std::uint32_t slot) const noexcept { return states_[slot] != 0; }
    K slot_key(std::uint32_t slot) const noexcept { return keys_[slot]; }
    W slot_value(std::uint32_t slot) const noexcept { return values_[slot]; }
    state_type slot_state(std::uint32_t slot) const noexcept { return states_[slot]; }

    /// Preferred slot of a key — exposed for invariant checking in tests.
    std::uint32_t home_slot(K key) const noexcept {
        return static_cast<std::uint32_t>(
                   table_hash(static_cast<std::uint64_t>(key), hash_seed_)) &
               mask_;
    }

    /// Slot the next decrement_all starts its empty-slot scan from —
    /// exposed for the reference-sweep tests.
    std::uint32_t empty_hint() const noexcept { return empty_hint_; }

    void clear() noexcept {
        states_.assign(num_slots_, 0);
        num_active_ = 0;
        empty_hint_ = 0;
    }

private:
    /// Pass 1 of decrement_all: subtracts \p amount from every live counter
    /// above it and empties the slots of the others, without a branch per
    /// slot (a branch on the compare would mispredict on half the slots). A
    /// slot's value is left unchanged when it does not survive, so unsigned
    /// counters never wrap. Returns the number of counters dropped.
    ///
    /// Integral counters compute "survives" (amount < value) as the borrow
    /// out of amount − value, built from sub/and/or/xor/shift on the
    /// unsigned images (signed ones biased by the sign bit so they order
    /// like unsigned): SSE2 has no unsigned 64-bit compare, but it has all
    /// of those, so the compiler vectorizes the loop under the baseline ISA.
    /// Floating-point counters scale the subtrahend by 0 or 1.
    std::uint32_t subtract_and_drop(W amount) noexcept {
        std::uint32_t dropped = 0;
        W* const values = values_.data();
        state_type* const states = states_.data();
        const std::uint32_t n = num_slots_;
        if constexpr (std::is_integral_v<W>) {
            using U = std::make_unsigned_t<W>;
            constexpr int top = 8 * sizeof(U) - 1;
            constexpr U bias = std::is_signed_v<W> ? static_cast<U>(U{1} << top) : U{0};
            const U a = static_cast<U>(static_cast<U>(amount) ^ bias);
            for (std::uint32_t i = 0; i < n; ++i) {
                const U v = static_cast<U>(static_cast<U>(values[i]) ^ bias);
                const auto survives =
                    static_cast<U>(((~a & v) | (~(a ^ v) & static_cast<U>(a - v))) >> top);
                const auto keep = static_cast<U>(U{0} - survives);
                values[i] = static_cast<W>(static_cast<U>(values[i]) -
                                           (static_cast<U>(amount) & keep));
                const state_type state = states[i];
                states[i] = static_cast<state_type>(
                    state & static_cast<state_type>(0u - static_cast<unsigned>(survives)));
                dropped += static_cast<std::uint32_t>(state != 0) &
                           static_cast<std::uint32_t>(survives ^ 1u);
            }
        } else {
            for (std::uint32_t i = 0; i < n; ++i) {
                const W value = values[i];
                const state_type state = states[i];
                const bool dies = value <= amount;
                values[i] = value - amount * static_cast<W>(!dies);
                states[i] =
                    static_cast<state_type>(state & (0u - static_cast<unsigned>(!dies)));
                dropped += static_cast<std::uint32_t>(dies & (state != 0));
            }
        }
        return dropped;
    }

    /// Pass 2 of decrement_all: walks every slot once, from the empty
    /// \p start and wrapping, and moves each survivor to the first empty
    /// slot on its probe path. `last_empty` is the walk step of the latest
    /// slot behind the cursor that is empty (a survivor that moves empties
    /// its old slot), so a survivor whose preferred slot lies past it has no
    /// hole to fill and keeps its place.
    ///
    /// The walk visits only the set bits of each 64-step occupancy word. A
    /// survivor only ever moves to a slot behind the cursor, so the word
    /// read on entry stays exact for every slot ahead; its zero bits behind
    /// the cursor were empty when the cursor passed them, and any of them a
    /// move has refilled since lies before that move's step. last_empty is
    /// therefore the larger of the running value (raised by moves) and the
    /// highest zero bit below the cursor.
    void close_holes(std::uint32_t start) {
        std::uint32_t last_empty = 0;
        for (std::uint32_t base = 0; base < num_slots_; base += 64) {
            const std::uint64_t live = occupancy(start + base, num_slots_ - base);
            for (std::uint64_t rest = live; rest != 0; rest &= rest - 1) {
                const auto bit = static_cast<std::uint32_t>(std::countr_zero(rest));
                const std::uint64_t empty_below = ~live & ((std::uint64_t{1} << bit) - 1);
                last_empty = std::max(last_empty,
                                      empty_below != 0 ? base + floor_log2(empty_below) : 0);
                const std::uint32_t step = base + bit;
                const std::uint32_t idx = (start + step) & mask_;
                const std::uint32_t state = states_[idx];
                if (step - last_empty >= state) {
                    continue;  // no hole between the preferred slot and here
                }
                std::uint32_t target = (idx - (state - 1)) & mask_;
                std::uint32_t dist = 0;
                while (states_[target] != 0) {
                    target = (target + 1) & mask_;
                    ++dist;
                }
                FREQ_EXPECTS(dist + 1 <= max_state);
                keys_[target] = keys_[idx];
                values_[target] = values_[idx];
                states_[target] = static_cast<state_type>(dist + 1);
                states_[idx] = 0;
                last_empty = step;
            }
            if (~live != 0) {  // the word's empty slots are behind the cursor now
                last_empty = std::max(last_empty, base + floor_log2(~live));
            }
        }
    }

    /// Occupancy of the walk positions first, first + 1, ... (slot
    /// (first + j) & mask_ for bit j), wrapping, limited to the \p count
    /// positions left in the walk: bit j is set when that slot is live. The
    /// flags are staged as bytes — a compare loop the compiler vectorizes
    /// when the 64 slots are contiguous — and each group of eight is packed
    /// into eight bits by one multiply.
    std::uint64_t occupancy(std::uint32_t first, std::uint32_t count) const noexcept {
        first &= mask_;
        std::uint8_t live[64];
        const state_type* const states = states_.data();
        if (first + 64 <= num_slots_) {
            for (std::uint32_t j = 0; j < 64; ++j) {
                live[j] = states[first + j] != 0;
            }
        } else {
            for (std::uint32_t j = 0; j < 64; ++j) {
                live[j] = j < count && states[(first + j) & mask_] != 0;
            }
        }
        // Multiplying moves byte j of the loaded word (0 or 1) to bit 56 + j
        // without carries; which constant does so depends on the byte order
        // memcpy loads in.
        constexpr std::uint64_t gather = std::endian::native == std::endian::little
                                             ? 0x0102'0408'1020'4080ULL
                                             : 0x8040'2010'0804'0201ULL;
        std::uint64_t word = 0;
        for (std::uint32_t j = 0; j < 64; j += 8) {
            std::uint64_t bytes = 0;
            std::memcpy(&bytes, live + j, sizeof bytes);
            word |= ((bytes * gather) >> 56) << j;
        }
        return word;
    }

    void insert_at(std::uint32_t slot, std::uint32_t home, K key, W weight) {
        const std::uint32_t dist = (slot - home) & mask_;
        FREQ_EXPECTS(num_active_ < max_items_);
        FREQ_EXPECTS(dist + 1 <= max_state);
        keys_[slot] = key;
        values_[slot] = weight;
        states_[slot] = static_cast<state_type>(dist + 1);
        ++num_active_;
    }

    /// After vacating \p hole, slide each subsequent cluster element one
    /// step closer to its preferred slot when doing so keeps it reachable.
    /// Returns the slot left empty, which the next decrement_all uses as
    /// its empty-slot hint.
    std::uint32_t backward_shift(std::uint32_t hole) {
        std::uint32_t idx = (hole + 1) & mask_;
        while (states_[idx] != 0) {
            const std::uint32_t dist = states_[idx] - 1u;
            const std::uint32_t gap = (idx - hole) & mask_;
            if (dist >= gap) {
                // The element's preferred slot is at or before the hole, so
                // it may occupy the hole without breaking its probe chain.
                keys_[hole] = keys_[idx];
                values_[hole] = values_[idx];
                states_[hole] = static_cast<state_type>(dist - gap + 1);
                states_[idx] = 0;
                hole = idx;
            }
            idx = (idx + 1) & mask_;
        }
        return hole;
    }

    static constexpr state_type max_state = 0xffff;

    std::uint32_t max_items_;
    std::uint32_t num_slots_ = 0;
    std::uint32_t mask_ = 0;
    std::uint32_t num_active_ = 0;
    std::uint32_t empty_hint_ = 0;
    std::uint64_t hash_seed_;
    std::vector<K> keys_;
    std::vector<W> values_;
    std::vector<state_type> states_;
};

}  // namespace freq

#endif  // FREQ_TABLE_COUNTER_TABLE_H
