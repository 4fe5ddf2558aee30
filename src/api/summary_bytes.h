#ifndef FREQ_API_SUMMARY_BYTES_H
#define FREQ_API_SUMMARY_BYTES_H

/// \file summary_bytes.h
/// The unified serde envelope: one versioned, policy-tagged wire format that
/// round-trips *any* summary instantiation — plain, time-fading or
/// sliding-window lifetime; u64 or text keys; table- or map-backed core;
/// standalone sketch or engine snapshot — replacing the per-class ad-hoc
/// `serialize()` formats. A 48-byte self-describing header carries the full
/// summary_descriptor, so a receiver can route bytes to the right
/// instantiation (or reject them) before touching the body.
///
/// Wire layout (little-endian, via common/bytes.h):
///
///   header (48 B): magic 'FQEN' u32 | version u8 | key_kind u8 |
///     weight_kind u8 | lifetime u8 | backend u8 | minor_version u8 |
///     algorithm u8 | reserved u8 | max_counters u32 | sample_size u32 |
///     decrement_quantile f64 | seed u64 | decay f64 | window_epochs u32
///   policy state: fading → now u64, inflation f64; windowed → now u64
///   body (algo::paper):
///     non-windowed → offset W | total W | n u32 | n × (key u64, counter W)
///     windowed     → epoch_count u32 | per live non-empty epoch:
///                    abs_epoch u64, then the non-windowed body
///   text keys append the spelling dictionary (minor ≥ 1):
///                    segment_count u32 | per segment:
///                    dict_n u32 | dict_n × (fp u64, len u32, bytes)
///   body (baseline algorithms; see backend_summaries.h):
///     count_min    → [fading clock] | total W | width·depth cells W |
///                    cand_n u32 | cand_n × candidate id u64
///     count_sketch → total u64 | width·depth cells i64 (two's complement) |
///                    cand_n u32 | cand_n × candidate id u64
///     space_saving → [fading clock] | total W | n u32 |
///                    n × (id u64, count W, error W)
///
/// The minor version (formerly the first reserved byte, so minor-0 images
/// are exactly the pre-bump format) versions the layout twice over: minor
/// 0 carried a single unframed text dictionary; minor 1 frames it into
/// *segments* so a sharded engine's per-shard dictionary slices can ship
/// without being unioned first (envelope_save_sharded_text); minor 2 turns
/// header byte 10 into the algorithm tag (algo::paper = 0, the old
/// reserved value, so minor-≤1 images restore as the paper sketch).
/// Readers union all segments (first spelling wins) and re-apply the prune
/// discipline; minor-0/1 images remain restorable.
///
/// Canonical encoding: counter rows are sorted by key and dictionary
/// entries by fingerprint, so save → restore → save is byte-identical (the
/// hash table's slot order, which depends on insertion history, never
/// leaks into the bytes). envelope_save always writes the canonical
/// single-segment union — the multi-segment form is an optimization for
/// shippers that skip the union, and restoring it normalizes back to the
/// canonical image. Weights travel as u64 or IEEE-754 f64 bits per
/// weight_kind. Decoding validates every field before the matching
/// allocation — the §3 merging architecture ships summaries between
/// machines, so envelope bytes are untrusted input.
///
/// Decode contract of a flat counter body: after n is read and bounded by
/// capacity, the bytes of all complete rows present are bounds-checked
/// once and the rows decoded as one block (one load per field). The
/// errors and their order are those of decoding field by field: rows are
/// checked in wire order, a non-ascending, non-positive or non-finite row
/// throws std::invalid_argument, and a body cut short throws
/// std::out_of_range at its first missing field, only if every row before
/// that field passed its checks.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "baselines/backend_summaries.h"
#include "common/bytes.h"
#include "common/contracts.h"
#include "core/basic_frequent_items.h"
#include "core/fingerprint_frequent_items.h"
#include "core/frequent_items_sketch.h"
#include "core/generic_frequent_items.h"
#include "core/lifetime_policy.h"
#include "core/sketch_config.h"
#include "core/spelling_dictionary.h"
#include "core/string_frequent_items.h"
#include "select/radix.h"

namespace freq {

// --- the envelope's runtime type tags ----------------------------------------

enum class key_kind : std::uint8_t {
    u64 = 0,   ///< 64-bit integer identifiers (the fast path)
    text = 1,  ///< strings, fingerprinted to 64 bits + spelling dictionary
};

enum class weight_kind : std::uint8_t {
    counts = 0,  ///< std::uint64_t weights (exact integer counts)
    real = 1,    ///< double weights (tf-idf style real values; fading)
};

enum class lifetime_kind : std::uint8_t {
    plain = 0,     ///< weight never ages (the paper's sketch)
    fading = 1,    ///< exponential time-fading via forward decay
    windowed = 2,  ///< sliding window of the last window_epochs ticks
};

enum class backend_kind : std::uint8_t {
    table = 0,  ///< parallel-array counter_table, sampled-quantile decrement
    map = 1,    ///< node-based map, exact-median decrement (Theorem 2 bound)
};

/// The preferred name for the counter-storage axis: builder::storage() takes
/// it, and it frees the word "backend" for the *algorithm* axis below.
using storage = backend_kind;

/// The algorithm axis of the façade: which sketch family maintains the
/// counters. paper is the counter-based sketch this repo reproduces; the
/// other three are the §1.3 baselines promoted to runtime-selectable
/// backends (src/baselines/backend_summaries.h). Wire tag: header byte 10
/// (reserved-zero before minor 2, so legacy images decode as paper).
enum class algo : std::uint8_t {
    paper = 0,         ///< Algorithm 4 counter-based sketch (the default)
    count_min = 1,     ///< Count-Min [CM05]: point-query sketch, no lower bounds
    count_sketch = 2,  ///< Count sketch [CCF02]: unbiased median-of-rows estimates
    space_saving = 3,  ///< Space Saving [MAE05]: exact top-k order, O(log k) updates
};

inline const char* to_string(key_kind k) { return k == key_kind::u64 ? "u64" : "text"; }
inline const char* to_string(weight_kind w) {
    return w == weight_kind::counts ? "counts" : "real";
}
inline const char* to_string(lifetime_kind l) {
    switch (l) {
        case lifetime_kind::plain: return "plain";
        case lifetime_kind::fading: return "fading";
        default: return "windowed";
    }
}
inline const char* to_string(backend_kind b) {
    return b == backend_kind::table ? "table" : "map";
}
inline const char* to_string(algo a) {
    switch (a) {
        case algo::paper: return "paper";
        case algo::count_min: return "count_min";
        case algo::count_sketch: return "count_sketch";
        default: return "space_saving";
    }
}

/// Everything needed to materialize (or reject) a summary instantiation at
/// runtime: the five type tags plus the full sketch_config. Two summaries
/// are merge-compatible exactly when their descriptors compare equal.
struct summary_descriptor {
    key_kind keys = key_kind::u64;
    weight_kind weights = weight_kind::counts;
    lifetime_kind lifetime = lifetime_kind::plain;
    backend_kind backend = backend_kind::table;
    algo algorithm = algo::paper;
    sketch_config sketch{};

    friend bool operator==(const summary_descriptor&, const summary_descriptor&) = default;

    std::string to_string() const {
        return std::string("summary_descriptor(") + freq::to_string(keys) + ", " +
               freq::to_string(weights) + ", " + freq::to_string(lifetime) + ", " +
               freq::to_string(backend) + ", " + freq::to_string(algorithm) +
               ", k=" + std::to_string(sketch.max_counters) + ")";
    }
};

// --- compile-time tags of each summary template ------------------------------

namespace detail {

template <typename W>
constexpr weight_kind weight_kind_of() {
    static_assert(std::is_same_v<W, std::uint64_t> || std::is_same_v<W, double>,
                  "the envelope ships std::uint64_t or double weights only");
    return std::is_same_v<W, double> ? weight_kind::real : weight_kind::counts;
}

template <typename P>
constexpr lifetime_kind lifetime_kind_of() {
    if constexpr (P::windowed) {
        return lifetime_kind::windowed;
    } else if constexpr (P::decaying) {
        return lifetime_kind::fading;
    } else {
        return lifetime_kind::plain;
    }
}

}  // namespace detail

/// Maps a summary type to its envelope tags. Specialized for every summary
/// template the envelope can carry.
template <typename Summary>
struct summary_traits;

template <typename K, typename W, typename P>
struct summary_traits<basic_frequent_items<K, W, P>> {
    static_assert(std::is_same_v<K, std::uint64_t>,
                  "the envelope ships 64-bit keys; reduce wider keys first");
    static constexpr key_kind keys = key_kind::u64;
    static constexpr weight_kind weights = detail::weight_kind_of<W>();
    static constexpr lifetime_kind lifetime = detail::lifetime_kind_of<P>();
    static constexpr backend_kind backend = backend_kind::table;
    static constexpr algo algorithm = algo::paper;
};

template <typename K, typename W>
struct summary_traits<frequent_items_sketch<K, W>>
    : summary_traits<basic_frequent_items<K, W, plain_lifetime>> {};

template <typename W, typename L, typename T, typename D>
struct summary_traits<fingerprint_frequent_items<std::string, W, L, T, D>> {
    static constexpr key_kind keys = key_kind::text;
    static constexpr weight_kind weights = detail::weight_kind_of<W>();
    static constexpr lifetime_kind lifetime = detail::lifetime_kind_of<L>();
    static constexpr backend_kind backend = backend_kind::table;
    static constexpr algo algorithm = algo::paper;
};

template <typename W, typename H, typename E, typename L>
struct summary_traits<generic_frequent_items<std::uint64_t, W, H, E, L>> {
    static constexpr key_kind keys = key_kind::u64;
    static constexpr weight_kind weights = detail::weight_kind_of<W>();
    static constexpr lifetime_kind lifetime = detail::lifetime_kind_of<L>();
    static constexpr backend_kind backend = backend_kind::map;
    static constexpr algo algorithm = algo::paper;
};

// The baseline adapters (src/baselines/backend_summaries.h): u64 keys and
// table-style storage by construction, tagged with their own algorithm.
template <typename W, typename L>
struct summary_traits<count_min_summary<W, L>> {
    static constexpr key_kind keys = key_kind::u64;
    static constexpr weight_kind weights = detail::weight_kind_of<W>();
    static constexpr lifetime_kind lifetime = detail::lifetime_kind_of<L>();
    static constexpr backend_kind backend = backend_kind::table;
    static constexpr algo algorithm = algo::count_min;
};

template <>
struct summary_traits<count_sketch_summary> {
    static constexpr key_kind keys = key_kind::u64;
    static constexpr weight_kind weights = weight_kind::counts;
    static constexpr lifetime_kind lifetime = lifetime_kind::plain;
    static constexpr backend_kind backend = backend_kind::table;
    static constexpr algo algorithm = algo::count_sketch;
};

template <typename W, typename L>
struct summary_traits<space_saving_summary<W, L>> {
    static constexpr key_kind keys = key_kind::u64;
    static constexpr weight_kind weights = detail::weight_kind_of<W>();
    static constexpr lifetime_kind lifetime = detail::lifetime_kind_of<L>();
    static constexpr backend_kind backend = backend_kind::table;
    static constexpr algo algorithm = algo::space_saving;
};

namespace detail {

/// Whether \p d's tags name the instantiation \p Summary.
template <typename Summary>
bool descriptor_names(const summary_descriptor& d) noexcept {
    using traits = summary_traits<Summary>;
    return d.keys == traits::keys && d.weights == traits::weights &&
           d.lifetime == traits::lifetime && d.backend == traits::backend &&
           d.algorithm == traits::algorithm;
}

}  // namespace detail

// --- the envelope value type -------------------------------------------------

/// Owning, header-validated envelope bytes. `wrap()` checks the 48-byte
/// header (magic, version, tag ranges, tag cross-consistency) and caches
/// the descriptor; the body is validated by envelope_load / restore_summary
/// when the summary is actually materialized.
class summary_bytes {
public:
    static constexpr std::uint32_t magic = 0x4e455146;  // "FQEN"
    static constexpr std::uint8_t current_version = 1;
    /// Minor format revisions: 1 framed the text dictionary section into
    /// segments, 2 turned header byte 10 (previously reserved-zero) into the
    /// algorithm tag. Each writer emits the *lowest* minor whose layout it
    /// needs — paper/u64 images write 0, paper/text images write 1
    /// (text_dictionary_minor), baseline-algorithm images write 2 — so
    /// paper envelopes stay byte-identical to pre-bump ones and readable by
    /// pre-bump peers in a mixed-version fleet. Readers accept any minor up
    /// to the current one; minor ≤ 1 images decode as algo::paper.
    static constexpr std::uint8_t current_minor_version = 2;
    /// The minor that introduced dictionary-segment framing (what paper
    /// text writers emit).
    static constexpr std::uint8_t text_dictionary_minor = 1;
    static constexpr std::size_t header_size = 48;

    /// Validates the header and takes ownership of \p bytes. Throws
    /// std::invalid_argument / std::out_of_range on malformed headers.
    static summary_bytes wrap(std::vector<std::uint8_t> bytes) {
        byte_reader r(bytes);
        summary_bytes out;
        out.version_ = parse_header(r, out.descriptor_, out.minor_version_);
        out.bytes_ = std::move(bytes);
        return out;
    }

    const std::vector<std::uint8_t>& bytes() const& noexcept { return bytes_; }
    std::vector<std::uint8_t> take() && { return std::move(bytes_); }
    std::size_t size() const noexcept { return bytes_.size(); }

    const summary_descriptor& descriptor() const noexcept { return descriptor_; }
    std::uint8_t version() const noexcept { return version_; }
    std::uint8_t minor_version() const noexcept { return minor_version_; }

    friend bool operator==(const summary_bytes& a, const summary_bytes& b) {
        return a.bytes_ == b.bytes_;
    }

    /// Reads and validates one header from \p r, filling \p d and \p minor.
    /// Returns the format version. Shared by wrap() and the load path so
    /// both enforce identical rules.
    static std::uint8_t parse_header(byte_reader& r, summary_descriptor& d,
                                     std::uint8_t& minor) {
        FREQ_REQUIRE(r.get_u32() == magic, "not a freq summary envelope");
        const std::uint8_t version = r.get_u8();
        FREQ_REQUIRE(version == current_version, "unsupported envelope version");
        const std::uint8_t keys = r.get_u8();
        const std::uint8_t weights = r.get_u8();
        const std::uint8_t lifetime = r.get_u8();
        const std::uint8_t backend = r.get_u8();
        FREQ_REQUIRE(keys <= 1, "envelope key kind out of range");
        FREQ_REQUIRE(weights <= 1, "envelope weight kind out of range");
        FREQ_REQUIRE(lifetime <= 2, "envelope lifetime kind out of range");
        FREQ_REQUIRE(backend <= 1, "envelope backend kind out of range");
        // Minor revisions change the body layout, so an unknown minor
        // cannot be skipped over — reject it.
        minor = r.get_u8();
        FREQ_REQUIRE(minor <= current_minor_version, "unsupported envelope minor version");
        // Byte 10: the algorithm tag (minor ≥ 2). It was a reserved-zero
        // byte before, so legacy images decode as algo::paper and a nonzero
        // value in a minor-≤1 image is still the old "reserved bytes must
        // be zero" error, not a silent reinterpretation.
        const std::uint8_t algorithm = r.get_u8();
        if (minor < 2) {
            FREQ_REQUIRE(algorithm == 0, "envelope reserved bytes must be zero");
        }
        FREQ_REQUIRE(algorithm <= static_cast<std::uint8_t>(algo::space_saving),
                     "envelope algorithm tag out of range");
        FREQ_REQUIRE(r.get_u8() == 0, "envelope reserved bytes must be zero");
        d.keys = static_cast<key_kind>(keys);
        d.weights = static_cast<weight_kind>(weights);
        d.lifetime = static_cast<lifetime_kind>(lifetime);
        d.backend = static_cast<backend_kind>(backend);
        d.algorithm = static_cast<algo>(algorithm);
        d.sketch.max_counters = r.get_u32();
        d.sketch.sample_size = r.get_u32();
        d.sketch.decrement_quantile = r.get_f64();
        d.sketch.seed = r.get_u64();
        d.sketch.decay = r.get_f64();
        d.sketch.window_epochs = r.get_u32();
        FREQ_REQUIRE(d.lifetime != lifetime_kind::fading || d.weights == weight_kind::real,
                     "fading summaries require real weights");
        FREQ_REQUIRE(d.backend != backend_kind::map || d.lifetime != lifetime_kind::windowed,
                     "the map storage has no sliding-window policy");
        FREQ_REQUIRE(d.algorithm == algo::paper ||
                         (d.keys == key_kind::u64 && d.backend == backend_kind::table &&
                          d.lifetime != lifetime_kind::windowed),
                     "baseline algorithms ship u64 keys, table storage and no window");
        FREQ_REQUIRE(d.algorithm != algo::count_sketch ||
                         (d.weights == weight_kind::counts &&
                          d.lifetime == lifetime_kind::plain),
                     "count_sketch envelopes are counts-weighted and plain-lifetime");
        return version;
    }

private:
    summary_bytes() = default;

    std::vector<std::uint8_t> bytes_;
    summary_descriptor descriptor_{};
    std::uint8_t version_ = current_version;
    std::uint8_t minor_version_ = current_minor_version;
};

// --- the codec ---------------------------------------------------------------

/// The one friend through which the envelope reads and restores private
/// summary state (counter tables, offsets, policy clocks). Everything here
/// is an implementation detail of envelope_save / envelope_load.
struct summary_serde_access {
    // -- config access --------------------------------------------------------

    template <typename S>
    static const sketch_config& config_of(const S& s) {
        return s.config();
    }

    // -- weights on the wire --------------------------------------------------

    /// A weight's wire image: u64 as is, double as its IEEE-754 bits.
    template <typename W>
    static std::uint64_t weight_bits(W v) noexcept {
        if constexpr (std::is_floating_point_v<W>) {
            return std::bit_cast<std::uint64_t>(static_cast<double>(v));
        } else {
            return static_cast<std::uint64_t>(v);
        }
    }

    template <typename W>
    static W weight_from_bits(std::uint64_t bits) noexcept {
        if constexpr (std::is_floating_point_v<W>) {
            return static_cast<W>(std::bit_cast<double>(bits));
        } else {
            return static_cast<W>(bits);
        }
    }

    template <typename W>
    static void put_weight(byte_writer& w, W v) {
        w.put_u64(weight_bits(v));
    }

    template <typename W>
    static W get_weight(byte_reader& r) {
        const W v = weight_from_bits<W>(r.get_u64());
        if constexpr (std::is_floating_point_v<W>) {
            FREQ_REQUIRE(std::isfinite(v), "envelope weight is not finite");
        }
        return v;
    }

    // -- the flat counter body (shared by every non-windowed core) -----------

    /// Bytes of one (key, counter) row of a flat counter body.
    static constexpr std::size_t counter_row_bytes = 2 * sizeof(std::uint64_t);

    /// Writes offset | total | n | sorted (key, counter) rows. Sorting makes
    /// the encoding canonical: the hash table's slot order (a function of
    /// insertion history) never reaches the wire, so save → restore → save
    /// is byte-identical. Keys are distinct, so the LSD radix sort yields
    /// the one ascending order a comparison sort would. The rows are sized
    /// once and stored field by field with store_le.
    template <typename Core>
    static void put_counters(byte_writer& w, const Core& s) {
        using W = typename Core::weight_type;
        put_weight<W>(w, s.offset_);
        put_weight<W>(w, s.total_weight_);
        std::vector<std::pair<std::uint64_t, W>> rows;
        rows.reserve(s.num_counters());
        s.for_each([&](auto key, W c) {
            rows.emplace_back(static_cast<std::uint64_t>(key), c);
        });
        std::vector<std::pair<std::uint64_t, W>> scratch;
        radix_sort_by_key(rows, scratch, [](const auto& row) { return row.first; });
        w.put_u32(static_cast<std::uint32_t>(rows.size()));
        std::uint8_t* out = w.extend(rows.size() * counter_row_bytes);
        for (const auto& [key, c] : rows) {
            store_le(out, key);
            store_le(out + sizeof(std::uint64_t), weight_bits(c));
            out += counter_row_bytes;
        }
    }

    /// A row's key check: strictly ascending (canonical order doubles as
    /// the duplicate check).
    static void check_row_key(bool first, std::uint64_t prev_key, std::uint64_t key) {
        FREQ_REQUIRE(first || key > prev_key,
                     "envelope counter rows must be strictly ascending by key");
    }

    /// A row's counter check: finite and positive.
    template <typename W>
    static void check_row_counter(W c) {
        if constexpr (std::is_floating_point_v<W>) {
            FREQ_REQUIRE(std::isfinite(c), "envelope weight is not finite");
        }
        FREQ_REQUIRE(c > W{0}, "envelope contains a non-positive counter");
    }

    /// Reads one flat counter body into an empty core via \p insert_row.
    /// Rows must be strictly ascending by key — which also proves the keys
    /// distinct, so \p insert_row may skip the key compare — and positive;
    /// count is bounded by capacity before anything is inserted.
    ///
    /// The rows are decoded as one block: the bytes of every complete row
    /// present are bounds-checked once, then each row is two load_le calls.
    /// The errors are those of decoding field by field: a row that breaks a
    /// check throws std::invalid_argument, and when the body is cut short
    /// the first missing field throws std::out_of_range — after every row
    /// before it (and the cut row's key, when it is whole) has been checked.
    template <typename W, typename InsertRow>
    static void get_counters(byte_reader& r, std::uint32_t max_counters, W& offset,
                             W& total_weight, InsertRow&& insert_row) {
        const W off = get_weight<W>(r);
        const W total = get_weight<W>(r);
        if constexpr (std::is_floating_point_v<W>) {
            FREQ_REQUIRE(off >= W{0}, "envelope offset is negative");
            FREQ_REQUIRE(total >= W{0}, "envelope total weight is negative");
        }
        const std::uint32_t n = r.get_u32();
        FREQ_REQUIRE(n <= max_counters, "envelope counter count exceeds capacity");
        const auto whole = static_cast<std::uint32_t>(
            std::min<std::size_t>(n, r.remaining() / counter_row_bytes));
        const std::uint8_t* row = r.get_block(whole * counter_row_bytes);
        std::uint64_t prev_key = 0;
        for (std::uint32_t i = 0; i < whole; ++i, row += counter_row_bytes) {
            const std::uint64_t key = load_le<std::uint64_t>(row);
            const W c = weight_from_bits<W>(load_le<std::uint64_t>(row + sizeof(key)));
            check_row_key(i == 0, prev_key, key);
            check_row_counter(c);
            prev_key = key;
            insert_row(key, c);
        }
        if (whole < n) {
            // The body ends inside row `whole`: its key is checked when it
            // is whole, then the missing bytes throw std::out_of_range.
            check_row_key(whole == 0, prev_key, r.get_u64());
            static_cast<void>(r.get_u64());
        }
        offset = off;
        total_weight = total;
    }

    // -- table-backed u64 core (plain / fading) -------------------------------

    template <typename K, typename W, typename P>
    static void put_summary(byte_writer& w, const basic_frequent_items<K, W, P>& s) {
        if constexpr (P::decaying) {
            w.put_u64(s.policy_.now());
            w.put_f64(s.policy_.inflation());
        }
        put_counters(w, s);
    }

    template <typename K, typename W, typename P>
    static void get_summary(byte_reader& r, basic_frequent_items<K, W, P>& s) {
        if constexpr (P::decaying) {
            const std::uint64_t now = r.get_u64();
            const double inflation = r.get_f64();
            s.policy_.restore(now, inflation);
        }
        get_counters<W>(r, s.cfg_.max_counters, s.offset_, s.total_weight_,
                        [&](std::uint64_t key, W c) {
                            s.table_.insert_absent(static_cast<K>(key), c);
                        });
    }

    // -- epoch_window ring (the windowed serde the ROADMAP asked for) --------

    template <typename K, typename W>
    static void put_summary(byte_writer& w,
                            const basic_frequent_items<K, W, epoch_window>& s) {
        using windowed = basic_frequent_items<K, W, epoch_window>;
        using epoch_sketch = typename windowed::epoch_sketch;
        const std::uint64_t window = s.ring_.size();
        const std::uint64_t now = s.now_;
        w.put_u64(now);
        // Live epochs in ascending absolute order; empty ones are omitted
        // (decode reconstructs them deterministically from the config).
        const std::uint64_t lo = now + 1 >= window ? now + 1 - window : 0;
        std::vector<std::uint64_t> live;
        for (std::uint64_t a = lo; a <= now; ++a) {
            const epoch_sketch& e = s.ring_[a % window];
            if (s.slot_epoch_[a % window] == a && e.total_weight() > W{0}) {
                live.push_back(a);
            }
        }
        w.put_u32(static_cast<std::uint32_t>(live.size()));
        for (const std::uint64_t a : live) {
            w.put_u64(a);
            put_counters(w, s.ring_[a % window]);
        }
    }

    template <typename K, typename W>
    static void get_summary(byte_reader& r, basic_frequent_items<K, W, epoch_window>& s) {
        using windowed = basic_frequent_items<K, W, epoch_window>;
        using epoch_sketch = typename windowed::epoch_sketch;
        const std::uint64_t now = r.get_u64();
        if (now > 0) {
            s.tick(now);  // relabels the ring to the live epochs of `now`
        }
        const std::uint64_t window = s.ring_.size();
        const std::uint64_t lo = now + 1 >= window ? now + 1 - window : 0;
        const std::uint32_t count = r.get_u32();
        FREQ_REQUIRE(count <= window, "envelope window epoch count exceeds the ring");
        std::uint64_t prev = 0;
        for (std::uint32_t i = 0; i < count; ++i) {
            const std::uint64_t a = r.get_u64();
            FREQ_REQUIRE(a >= lo && a <= now, "envelope epoch outside the live window");
            FREQ_REQUIRE(i == 0 || a > prev,
                         "envelope epochs must be strictly ascending");
            prev = a;
            epoch_sketch e(s.epoch_cfg(a));
            get_summary(r, e);
            s.ring_[a % window] = std::move(e);
        }
    }

    // -- map-backed core ------------------------------------------------------

    template <typename W, typename H, typename E, typename L>
    static void put_summary(byte_writer& w,
                            const generic_frequent_items<std::uint64_t, W, H, E, L>& s) {
        if constexpr (L::decaying) {
            w.put_u64(s.policy_.now());
            w.put_f64(s.policy_.inflation());
        }
        put_counters(w, s);
    }

    template <typename W, typename H, typename E, typename L>
    static void get_summary(byte_reader& r,
                            generic_frequent_items<std::uint64_t, W, H, E, L>& s) {
        if constexpr (L::decaying) {
            const std::uint64_t now = r.get_u64();
            const double inflation = r.get_f64();
            s.policy_.restore(now, inflation);
        }
        get_counters<W>(r, s.cfg_.max_counters, s.offset_, s.total_weight_,
                        [&](std::uint64_t key, W c) { s.counters_.emplace(key, c); });
    }

    // -- baseline adapters (src/baselines/backend_summaries.h) ----------------

    /// Candidate ids sorted ascending: n | n × id u64. Only the ids reach
    /// the wire — the tracker's keys are rebuilt from the restored cells on
    /// load, so the encoding stays canonical (the tracker's internal heap
    /// order, a function of arrival history, never leaks into the bytes).
    template <typename Tracker>
    static void put_candidates(byte_writer& w, const Tracker& t) {
        std::vector<std::uint64_t> ids;
        ids.reserve(t.size());
        t.for_each_id([&](std::uint64_t id) { ids.push_back(id); });
        std::sort(ids.begin(), ids.end());
        w.put_u32(static_cast<std::uint32_t>(ids.size()));
        for (const std::uint64_t id : ids) {
            w.put_u64(id);
        }
    }

    template <typename NoteId>
    static void get_candidates(byte_reader& r, std::size_t capacity, NoteId&& note) {
        const std::uint32_t n = r.get_u32();
        FREQ_REQUIRE(n <= capacity, "envelope candidate count exceeds capacity");
        std::uint64_t prev = 0;
        for (std::uint32_t i = 0; i < n; ++i) {
            const std::uint64_t id = r.get_u64();
            FREQ_REQUIRE(i == 0 || id > prev,
                         "envelope candidate ids must be strictly ascending");
            prev = id;
            note(id);
        }
    }

    template <typename W, typename L>
    static void put_summary(byte_writer& w, const count_min_summary<W, L>& s) {
        if constexpr (L::decaying) {
            w.put_u64(s.policy_.now());
            w.put_f64(s.policy_.inflation());
        }
        put_weight<W>(w, s.cm_.total_weight());
        for (const W c : s.cm_.cells()) {
            put_weight<W>(w, c);
        }
        put_candidates(w, s.tracker_);
    }

    template <typename W, typename L>
    static void get_summary(byte_reader& r, count_min_summary<W, L>& s) {
        if constexpr (L::decaying) {
            const std::uint64_t now = r.get_u64();
            const double inflation = r.get_f64();
            s.policy_.restore(now, inflation);
        }
        const W total = get_weight<W>(r);
        std::vector<W> cells(s.cm_.cells().size());
        for (W& c : cells) {
            c = get_weight<W>(r);
            if constexpr (std::is_floating_point_v<W>) {
                FREQ_REQUIRE(c >= W{0}, "envelope contains a negative count-min cell");
            }
        }
        if constexpr (std::is_floating_point_v<W>) {
            FREQ_REQUIRE(total >= W{0}, "envelope total weight is negative");
        }
        s.cm_.restore_cells(cells, total);
        get_candidates(r, s.tracker_.capacity(), [&](std::uint64_t id) {
            s.tracker_.note(id, s.cm_.estimate(id));
        });
    }

    static void put_summary(byte_writer& w, const count_sketch_summary& s) {
        w.put_u64(s.cs_.total_weight());
        // Cells are signed; they travel as two's-complement u64 bit images.
        for (const std::int64_t c : s.cs_.cells()) {
            w.put_u64(static_cast<std::uint64_t>(c));
        }
        put_candidates(w, s.tracker_);
    }

    static void get_summary(byte_reader& r, count_sketch_summary& s) {
        const std::uint64_t total = r.get_u64();
        std::vector<std::int64_t> cells(s.cs_.cells().size());
        for (std::int64_t& c : cells) {
            c = static_cast<std::int64_t>(r.get_u64());
        }
        s.cs_.restore_cells(cells, total);
        get_candidates(r, s.tracker_.capacity(), [&](std::uint64_t id) {
            s.tracker_.note(id, s.cs_.estimate(id));
        });
    }

    template <typename W, typename L>
    static void put_summary(byte_writer& w, const space_saving_summary<W, L>& s) {
        using entry = typename space_saving_heap<std::uint64_t, W>::entry;
        if constexpr (L::decaying) {
            w.put_u64(s.policy_.now());
            w.put_f64(s.policy_.inflation());
        }
        put_weight<W>(w, s.ss_.total_weight());
        std::vector<entry> rows;
        rows.reserve(s.ss_.num_counters());
        s.ss_.for_each_entry([&](std::uint64_t id, W count, W error) {
            if (count > W{0}) {
                rows.push_back(entry{id, count, error});
            }
        });
        std::sort(rows.begin(), rows.end(),
                  [](const entry& a, const entry& b) { return a.id < b.id; });
        w.put_u32(static_cast<std::uint32_t>(rows.size()));
        for (const entry& e : rows) {
            w.put_u64(e.id);
            put_weight<W>(w, e.count);
            put_weight<W>(w, e.error);
        }
    }

    template <typename W, typename L>
    static void get_summary(byte_reader& r, space_saving_summary<W, L>& s) {
        using entry = typename space_saving_heap<std::uint64_t, W>::entry;
        if constexpr (L::decaying) {
            const std::uint64_t now = r.get_u64();
            const double inflation = r.get_f64();
            s.policy_.restore(now, inflation);
        }
        const W total = get_weight<W>(r);
        if constexpr (std::is_floating_point_v<W>) {
            FREQ_REQUIRE(total >= W{0}, "envelope total weight is negative");
        }
        const std::uint32_t n = r.get_u32();
        FREQ_REQUIRE(n <= s.ss_.capacity(), "envelope counter count exceeds capacity");
        std::vector<entry> rows;
        rows.reserve(n);
        std::uint64_t prev = 0;
        for (std::uint32_t i = 0; i < n; ++i) {
            const std::uint64_t id = r.get_u64();
            FREQ_REQUIRE(i == 0 || id > prev,
                         "envelope counter rows must be strictly ascending by key");
            prev = id;
            const W count = get_weight<W>(r);
            const W error = get_weight<W>(r);
            FREQ_REQUIRE(count > W{0}, "envelope contains a non-positive counter");
            if constexpr (std::is_floating_point_v<W>) {
                FREQ_REQUIRE(error >= W{0},
                             "envelope space-saving error bound out of range");
            }
            FREQ_REQUIRE(error <= count,
                         "envelope space-saving error bound out of range");
            rows.push_back(entry{id, count, error});
        }
        s.ss_.assign(rows, total);
    }

    // -- text keys: inner summary + spelling dictionary segments --------------

    static constexpr std::uint32_t max_spelling_bytes = 1u << 20;
    /// Segment count bound = the engine's shard-count bound: a per-shard
    /// image can carry at most one segment per shard.
    static constexpr std::uint32_t max_dictionary_segments = 4096;

    /// One canonically-sorted dictionary segment: dict_n | (fp, len, bytes).
    /// Generic over the dictionary backend (heap Items or arena views —
    /// spelling_dictionary.h): both expose spellings convertible to
    /// string_view, and the canonical fingerprint sort makes the emitted
    /// bytes independent of backend and map iteration order.
    template <typename Dict>
    static void put_dictionary_segment(byte_writer& w, const Dict& dict) {
        std::vector<std::pair<std::uint64_t, std::string_view>> entries;
        entries.reserve(dict.size());
        dict.for_each([&](std::uint64_t fp, std::string_view spelling) {
            entries.emplace_back(fp, spelling);
        });
        std::sort(entries.begin(), entries.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        w.put_u32(static_cast<std::uint32_t>(entries.size()));
        for (const auto& [fp, spelling] : entries) {
            w.put_u64(fp);
            w.put_u32(static_cast<std::uint32_t>(spelling.size()));
            w.put_bytes(spelling.data(), spelling.size());
        }
    }

    /// Reads one segment into \p s's dictionary (first spelling per
    /// fingerprint wins across segments — the union rule of the engine's
    /// snapshot merge). Fingerprints must be strictly ascending *within*
    /// the segment (canonical order doubles as the duplicate check), and a
    /// genuine per-source dictionary never exceeds the prune bound.
    template <typename W, typename L, typename T, typename D>
    static void get_dictionary_segment(
        byte_reader& r, fingerprint_frequent_items<std::string, W, L, T, D>& s) {
        const std::uint32_t n = r.get_u32();
        FREQ_REQUIRE(n <= s.dict_.prune_limit() + 1,
                     "envelope dictionary exceeds the prune bound");
        std::uint64_t prev = 0;
        for (std::uint32_t i = 0; i < n; ++i) {
            const std::uint64_t fp = r.get_u64();
            FREQ_REQUIRE(i == 0 || fp > prev,
                         "envelope dictionary must be strictly ascending");
            prev = fp;
            const std::uint32_t len = r.get_u32();
            FREQ_REQUIRE(len <= max_spelling_bytes, "envelope spelling too long");
            FREQ_REQUIRE(len <= r.remaining(), "envelope spelling overruns the buffer");
            std::string spelling(len, '\0');
            r.get_bytes(spelling.data(), len);
            s.dict_.note(fp, std::move(spelling));
        }
    }

    /// Counters-only write (the shard-preserving saver frames the
    /// dictionary itself).
    template <typename W, typename L, typename T, typename D>
    static void put_inner_summary(
        byte_writer& w, const fingerprint_frequent_items<std::string, W, L, T, D>& s) {
        put_summary(w, s.sketch_);
    }

    template <typename W, typename L, typename T, typename D>
    static const D& dict_of(const fingerprint_frequent_items<std::string, W, L, T, D>& s) {
        return s.dict_;
    }

    template <typename W, typename L, typename T, typename D>
    static void put_summary(byte_writer& w,
                            const fingerprint_frequent_items<std::string, W, L, T, D>& s) {
        put_summary(w, s.sketch_);
        w.put_u32(1);  // the canonical image is a single unioned segment
        put_dictionary_segment(w, s.dict_);
    }

    template <typename W, typename L, typename T, typename D>
    static void get_summary(byte_reader& r,
                            fingerprint_frequent_items<std::string, W, L, T, D>& s,
                            std::uint8_t minor) {
        get_summary(r, s.sketch_);
        if (minor == 0) {
            // Legacy (pre-segment) image: a single unframed dictionary.
            get_dictionary_segment(r, s);
            return;
        }
        const std::uint32_t segments = r.get_u32();
        FREQ_REQUIRE(segments <= max_dictionary_segments,
                     "envelope dictionary segment count exceeds the shard bound");
        for (std::uint32_t seg = 0; seg < segments; ++seg) {
            get_dictionary_segment(r, s);
        }
        // A multi-source union can exceed one source's budget; re-apply the
        // owner's prune discipline so restored state matches what the
        // engine's own snapshot merge would have kept.
        if (s.dict_.over_budget()) {
            s.prune();
        }
    }
};

// --- public entry points -----------------------------------------------------

/// Serializes \p s into the unified envelope. Works on any summary the
/// traits above cover — including engine snapshots, which are ordinary
/// summaries of their engine's merged state.
namespace detail {

/// Writes the 48-byte envelope header for \p Summary's tags + \p cfg.
/// Each writer emits the *lowest* minor whose layout it needs — paper/u64
/// images write 0, paper/text images write 1 (segmented dictionary),
/// baseline-algorithm images write 2 (algorithm tag) — so paper envelopes
/// stay readable by pre-bump peers in a mixed-version fleet (the §3
/// architecture ships summaries between machines that upgrade
/// independently).
template <typename Summary>
void put_envelope_header(byte_writer& w, const sketch_config& cfg) {
    using traits = summary_traits<Summary>;
    constexpr std::uint8_t minor =
        traits::algorithm != algo::paper   ? summary_bytes::current_minor_version
        : traits::keys == key_kind::text ? summary_bytes::text_dictionary_minor
                                         : std::uint8_t{0};
    w.reserve(summary_bytes::header_size + 64);
    w.put_u32(summary_bytes::magic);
    w.put_u8(summary_bytes::current_version);
    w.put_u8(static_cast<std::uint8_t>(traits::keys));
    w.put_u8(static_cast<std::uint8_t>(traits::weights));
    w.put_u8(static_cast<std::uint8_t>(traits::lifetime));
    w.put_u8(static_cast<std::uint8_t>(traits::backend));
    w.put_u8(minor);
    w.put_u8(static_cast<std::uint8_t>(traits::algorithm));
    w.put_u8(0);
    w.put_u32(cfg.max_counters);
    w.put_u32(cfg.sample_size);
    w.put_f64(cfg.decrement_quantile);
    w.put_u64(cfg.seed);
    w.put_f64(cfg.decay);
    w.put_u32(cfg.window_epochs);
}

}  // namespace detail

template <typename Summary>
summary_bytes envelope_save(const Summary& s) {
    byte_writer w;
    detail::put_envelope_header<Summary>(w, summary_serde_access::config_of(s));
    summary_serde_access::put_summary(w, s);
    return summary_bytes::wrap(std::move(w).take());
}

/// Shard-preserving save of a sharded text summary: counters come from the
/// folded summary \p folded (the engine's merged snapshot), while the
/// spelling dictionary ships as one segment per shard clone — skipping the
/// writer-side union. Restoring unions the segments (first spelling wins)
/// and normalizes back to the canonical single-segment image on the next
/// save. \p shard_clones views must outlive the call; an empty span writes
/// the canonical image of \p folded instead.
template <typename W, typename L, typename T, typename D>
summary_bytes envelope_save_sharded_text(
    const fingerprint_frequent_items<std::string, W, L, T, D>& folded,
    std::span<const fingerprint_frequent_items<std::string, W, L, T, D>* const>
        shard_clones) {
    using summary_type = fingerprint_frequent_items<std::string, W, L, T, D>;
    if (shard_clones.empty()) {
        return envelope_save(folded);
    }
    FREQ_REQUIRE(shard_clones.size() <= summary_serde_access::max_dictionary_segments,
                 "more shard dictionaries than the envelope's segment bound");
    byte_writer w;
    detail::put_envelope_header<summary_type>(w, summary_serde_access::config_of(folded));
    summary_serde_access::put_inner_summary(w, folded);
    w.put_u32(static_cast<std::uint32_t>(shard_clones.size()));
    for (const auto* clone : shard_clones) {
        summary_serde_access::put_dictionary_segment(w,
                                                     summary_serde_access::dict_of(*clone));
    }
    return summary_bytes::wrap(std::move(w).take());
}

/// Reconstructs a summary of static type \p Summary from envelope bytes.
/// Throws std::invalid_argument when the envelope's tags name a different
/// instantiation. \p max_accepted_counters guards resource consumption for
/// untrusted bytes: an image whose declared capacity exceeds the bound is
/// rejected before any table allocation.
template <typename Summary>
Summary envelope_load(const summary_bytes& b,
                      std::uint32_t max_accepted_counters = 1u << 28) {
    using traits = summary_traits<Summary>;
    const summary_descriptor& d = b.descriptor();
    FREQ_REQUIRE(detail::descriptor_names<Summary>(d),
                 "envelope holds a different summary instantiation");
    FREQ_REQUIRE(d.sketch.max_counters <= max_accepted_counters,
                 "envelope capacity exceeds the caller's acceptance bound");
    byte_reader r(b.bytes());
    summary_descriptor reparsed;  // advances r past the header
    std::uint8_t minor = 0;
    summary_bytes::parse_header(r, reparsed, minor);
    Summary s(d.sketch);
    if constexpr (traits::keys == key_kind::text) {
        // The dictionary-section layout is minor-versioned (segments).
        summary_serde_access::get_summary(r, s, minor);
    } else {
        summary_serde_access::get_summary(r, s);
    }
    FREQ_REQUIRE(r.remaining() == 0, "envelope has trailing bytes");
    return s;
}

/// Convenience overload for raw bytes fresh off the wire.
template <typename Summary>
Summary envelope_load(std::vector<std::uint8_t> bytes,
                      std::uint32_t max_accepted_counters = 1u << 28) {
    return envelope_load<Summary>(summary_bytes::wrap(std::move(bytes)),
                                  max_accepted_counters);
}

}  // namespace freq

#endif  // FREQ_API_SUMMARY_BYTES_H
