#ifndef FREQ_ENGINE_PARTITIONED_VIEW_H
#define FREQ_ENGINE_PARTITIONED_VIEW_H

/// \file partitioned_view.h
/// Reads over a key-partitioned summary without merging it. The engine
/// routes every key to one shard (shard_router), so each key's whole
/// substream lives in one shard's sketch and the shard sketches side by
/// side already summarize the union: a point query asks the key's shard,
/// N is the sum over shards, and a set query merges the per-shard rows by
/// estimate. No Theorem 5 merge runs, so none of its error is added: a
/// key's bounds carry only its own shard's offset, and maximum_error() is
/// the largest shard offset, not their sum.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "engine/shard.h"
#include "engine/snapshot_service.h"
#include "hashing/hash.h"

namespace freq {

/// Key -> shard: mix64(id ^ salt) mod S, the modulo computed from a
/// precomputed 128-bit reciprocal instead of a divide (Lemire, Kaser and
/// Kurz, "Faster remainder by direct computation", 2019: exact for every
/// 64-bit dividend and 32-bit divisor). Producers and views share one
/// router, so a view asks the shard a key was routed to.
class shard_router {
public:
    shard_router() = default;  ///< one shard
    shard_router(std::uint32_t shards, std::uint64_t salt) noexcept
        : magic_(~__uint128_t{0} / shards + 1), salt_(salt), shards_(shards) {}

    std::uint32_t operator()(std::uint64_t id) const noexcept { return reduce(mix64(id ^ salt_)); }

    /// h mod num_shards(). For one shard the magic wraps to 0, and so does
    /// the result.
    std::uint32_t reduce(std::uint64_t h) const noexcept {
        const __uint128_t low = magic_ * h;
        const __uint128_t top = (static_cast<__uint128_t>(static_cast<std::uint64_t>(low)) *
                                 shards_ >> 64) + (low >> 64) * shards_;
        return static_cast<std::uint32_t>(top >> 64);
    }

    std::uint32_t num_shards() const noexcept { return shards_; }

private:
    __uint128_t magic_ = 0;  ///< ceil(2^128 / shards), mod 2^128
    std::uint64_t salt_ = 0;
    std::uint32_t shards_ = 1;
};

/// Read-only view over the per-shard sketches of one partitioned summary.
/// \p Parts owns them (std::vector, what the engine publishes) or borrows
/// them (std::span<const Sketch>, the façade's one-part standalone view).
template <typename Sketch, typename Parts = std::vector<Sketch>>
class partitioned_view {
public:
    using weight_type = typename Sketch::weight_type;
    using row = typename Sketch::row;

    /// \p gens holds the shard generation each owned part was copied at.
    partitioned_view(Parts parts, shard_router router, std::vector<std::uint64_t> gens = {})
        : parts_(std::move(parts)), gens_(std::move(gens)), router_(router) {}

    std::span<const Sketch> parts() const noexcept { return parts_; }

    weight_type estimate(const auto& key) const { return part_of(key).estimate(key); }
    weight_type lower_bound(const auto& key) const { return part_of(key).lower_bound(key); }
    weight_type upper_bound(const auto& key) const { return part_of(key).upper_bound(key); }

    weight_type total_weight() const {
        return sum<weight_type>([](const Sketch& p) { return p.total_weight(); });
    }
    std::uint32_t num_counters() const {
        return sum<std::uint32_t>([](const Sketch& p) { return p.num_counters(); });
    }
    std::size_t memory_bytes() const {
        return sum<std::size_t>([](const Sketch& p) { return p.memory_bytes(); });
    }
    weight_type maximum_error() const {
        weight_type e{0};
        for (const Sketch& p : parts_) {
            e = std::max<weight_type>(e, p.maximum_error());
        }
        return e;
    }
    /// Lifetime clock: part 0's, which the engine never lets the others
    /// disagree with.
    std::uint64_t now() const { return detail::snapshot_clock(parts_[0]); }

    std::vector<row> frequent_items(error_type et, weight_type threshold) const {
        return merged([&](const Sketch& p) { return p.frequent_items(et, threshold); },
                      std::numeric_limits<std::size_t>::max());
    }
    std::vector<row> top_items(std::size_t m) const {
        return merged([&](const Sketch& p) { return p.top_items(m); }, m);
    }

    /// Re-copies each shard whose generation moved since this view's copy
    /// of it and returns how many it copied. The generation is read before
    /// the copy, so a racing mutation costs a redundant copy next time,
    /// never a missed one. Copy-assignment reuses each part's storage.
    template <typename Shard>
    std::size_t copy_dirty(const std::vector<std::unique_ptr<Shard>>& shards) {
        std::size_t copied = 0;
        for (std::size_t s = 0; s < shards.size(); ++s) {
            const std::uint64_t gen = shards[s]->generation();
            if (gen != gens_[s]) {
                shards[s]->clone_sketch_into(parts_[s]);
                gens_[s] = gen;
                ++copied;
            }
        }
        return copied;
    }

private:
    /// The part a key was routed to (text keys route by fingerprint).
    const Sketch& part_of(const auto& key) const {
        if (parts_.size() == 1) {
            return parts_[0];
        } else if constexpr (spelling_sketch<Sketch>) {
            return parts_[router_(Sketch::fingerprint(key))];
        } else {
            return parts_[router_(static_cast<std::uint64_t>(key))];
        }
    }

    template <typename T, typename Get>
    T sum(Get get) const {
        T total{0};
        for (const Sketch& p : parts_) {
            total += get(p);
        }
        return total;
    }

    /// Merges the parts' answers (each sorted by descending estimate) and
    /// keeps the first \p m rows.
    template <typename Query>
    std::vector<row> merged(Query&& query, std::size_t m) const {
        std::vector<row> out = query(parts_[0]);
        for (std::size_t i = 1; i < parts_.size(); ++i) {
            std::vector<row> rows = query(parts_[i]);
            const auto mid = static_cast<std::ptrdiff_t>(out.size());
            out.insert(out.end(), std::make_move_iterator(rows.begin()),
                       std::make_move_iterator(rows.end()));
            std::inplace_merge(out.begin(), out.begin() + mid, out.end(),
                               [](const row& a, const row& b) { return a.estimate > b.estimate; });
        }
        if (out.size() > m) {
            out.erase(out.begin() + static_cast<std::ptrdiff_t>(m), out.end());
        }
        return out;
    }

    Parts parts_;
    std::vector<std::uint64_t> gens_;
    shard_router router_;
};

}  // namespace freq

#endif  // FREQ_ENGINE_PARTITIONED_VIEW_H
