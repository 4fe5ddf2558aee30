/// The flat counter body decoder against a reference. The envelope decodes
/// each body as one bounds-checked block; the reference here is the
/// field-by-field decoder it replaced (one byte-assembled read and one
/// bounds check per field). For u64 and double bodies of every core that
/// ships one (plain, fading, windowed epochs, text, map) the two must agree:
///   - valid images restore to the same slot digest: the restored core's
///     for_each order equals that of a table (or map) the reference fills
///     with its rows one by one, in wire order;
///   - a cut at every byte of a body throws the same exception, with the
///     same message, as the reference;
///   - a non-ascending, duplicate, zero, negative, NaN or ±inf row at the
///     first, a middle and the last position does the same, also when the
///     body is cut at every byte before, inside and after the bad row.
/// Cut images are zero-filled past the cut before they shrink, so a
/// decoder that reads past the end rejects zeros instead of finding the
/// original rows there.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/summary_bytes.h"
#include "core/basic_frequent_items.h"
#include "core/generic_frequent_items.h"
#include "core/lifetime_policy.h"
#include "core/string_frequent_items.h"
#include "random/xoshiro.h"
#include "table/counter_table.h"

namespace freq {
namespace {

constexpr std::uint32_t k = 40;
constexpr std::uint32_t window = 3;

// --- the reference decoder -------------------------------------------------

/// Field-by-field reader: every field is bounds-checked on its own and
/// assembled one byte at a time.
class reference_reader {
public:
    explicit reference_reader(const std::vector<std::uint8_t>& bytes)
        : data_(bytes.data()), size_(bytes.size()) {}

    void skip(std::size_t n) {
        if (size_ - pos_ < n) {
            throw std::out_of_range("libfreq: truncated input: need " + std::to_string(n) +
                                    " bytes, have " + std::to_string(size_ - pos_));
        }
        pos_ += n;
    }
    /// An n-byte (n <= 8) little-endian field.
    std::uint64_t get(std::size_t n) {
        skip(n);
        std::uint64_t v = 0;
        for (std::size_t i = 0; i < n; ++i) {
            v |= static_cast<std::uint64_t>(data_[pos_ - n + i]) << (8 * i);
        }
        return v;
    }
    std::uint32_t get_u32() { return static_cast<std::uint32_t>(get(4)); }
    std::uint64_t get_u64() { return get(8); }
    double get_f64() { return std::bit_cast<double>(get(8)); }
    std::size_t position() const noexcept { return pos_; }

private:
    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

template <typename W>
W reference_weight(reference_reader& r) {
    if constexpr (std::is_floating_point_v<W>) {
        const double v = r.get_f64();
        FREQ_REQUIRE(std::isfinite(v), "envelope weight is not finite");
        return v;
    } else {
        return r.get_u64();
    }
}

/// One counter body as the reference read it: where it lies in the image
/// and the rows in wire order.
template <typename W>
struct reference_body {
    std::uint64_t epoch = 0;   ///< absolute epoch (windowed images)
    std::size_t begin = 0;     ///< offset of the body's offset field
    std::size_t rows_at = 0;   ///< offset of row 0
    std::vector<std::pair<std::uint64_t, W>> rows;
};

/// The field-by-field counter body decoder.
template <typename W>
void reference_counter_body(reference_reader& r, reference_body<W>& body) {
    body.begin = r.position();
    const W off = reference_weight<W>(r);
    const W total = reference_weight<W>(r);
    if constexpr (std::is_floating_point_v<W>) {
        FREQ_REQUIRE(off >= W{0}, "envelope offset is negative");
        FREQ_REQUIRE(total >= W{0}, "envelope total weight is negative");
    }
    const std::uint32_t n = r.get_u32();
    FREQ_REQUIRE(n <= k, "envelope counter count exceeds capacity");
    body.rows_at = r.position();
    std::uint64_t prev_key = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint64_t key = r.get_u64();
        FREQ_REQUIRE(i == 0 || key > prev_key,
                     "envelope counter rows must be strictly ascending by key");
        prev_key = key;
        const W c = reference_weight<W>(r);
        FREQ_REQUIRE(c > W{0}, "envelope contains a non-positive counter");
        body.rows.emplace_back(key, c);
    }
}

enum class shape { flat, fading, windowed };

/// Walks an image up to the end of its last counter body (text images'
/// dictionaries follow and are not read).
template <typename W>
std::vector<reference_body<W>> reference_decode(const std::vector<std::uint8_t>& bytes,
                                                shape sh) {
    reference_reader r(bytes);
    r.skip(summary_bytes::header_size);
    std::vector<reference_body<W>> bodies;
    if (sh == shape::fading) {
        r.get_u64();
        r.get_f64();
    }
    if (sh != shape::windowed) {
        reference_counter_body(r, bodies.emplace_back());
        return bodies;
    }
    const std::uint64_t now = r.get_u64();
    const std::uint64_t lo = now + 1 >= window ? now + 1 - window : 0;
    const std::uint32_t count = r.get_u32();
    FREQ_REQUIRE(count <= window, "envelope window epoch count exceeds the ring");
    std::uint64_t prev = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint64_t a = r.get_u64();
        FREQ_REQUIRE(a >= lo && a <= now, "envelope epoch outside the live window");
        FREQ_REQUIRE(i == 0 || a > prev, "envelope epochs must be strictly ascending");
        prev = a;
        reference_body<W>& body = bodies.emplace_back();
        body.epoch = a;
        reference_counter_body(r, body);
    }
    return bodies;
}

// --- outcomes and digests --------------------------------------------------

/// "ok", or the exception's type and message. A requirement's message
/// ends with the failed expression in parentheses, which names the
/// decoder's code, not the rule; it is cut off.
template <typename F>
std::string outcome(F&& f) {
    try {
        f();
        return "ok";
    } catch (const std::out_of_range& e) {
        return std::string("out_of_range: ") + e.what();
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        return "invalid_argument: " + what.substr(0, what.rfind(" ("));
    } catch (const std::exception& e) {
        return std::string("other: ") + e.what();
    }
}

/// (key, counter bits) in visiting order.
using digest = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

template <typename W>
std::uint64_t bits_of(W c) {
    if constexpr (std::is_floating_point_v<W>) {
        return std::bit_cast<std::uint64_t>(static_cast<double>(c));
    } else {
        return static_cast<std::uint64_t>(c);
    }
}

template <typename W, typename Summary>
digest digest_of(const Summary& s) {
    digest d;
    s.for_each([&](std::uint64_t key, W c) { d.emplace_back(key, bits_of(c)); });
    return d;
}

/// The slot order a counter_table seeded like the restored one reaches
/// when the reference's rows are upserted in wire order.
template <typename W>
digest table_digest(const reference_body<W>& body, std::uint64_t seed) {
    counter_table<std::uint64_t, W> t(k, seed);
    for (const auto& [key, c] : body.rows) {
        t.upsert(key, c);
    }
    digest d;
    t.for_each([&](std::uint64_t key, W c) { d.emplace_back(key, bits_of(c)); });
    return d;
}

// --- the cases -------------------------------------------------------------

/// A restore through the envelope (the code under test).
template <typename Summary>
void load(std::vector<std::uint8_t> bytes) {
    static_cast<void>(envelope_load<Summary>(std::move(bytes)));
}

/// \p image cut to \p len bytes, zero-filled past the cut first.
std::vector<std::uint8_t> cut_to(std::vector<std::uint8_t> image, std::size_t len) {
    std::fill(image.begin() + static_cast<std::ptrdiff_t>(len), image.end(), 0);
    image.resize(len);
    return image;
}

template <typename Summary, typename W>
void expect_same_outcome(const std::vector<std::uint8_t>& image, shape sh,
                         const std::string& what) {
    // The reference stops before a text image's dictionary; images here
    // differ from valid ones only inside the bodies, so where the
    // reference's bodies pass the whole restore must pass.
    const std::string want = outcome([&] { reference_decode<W>(image, sh); });
    ASSERT_EQ(outcome([&] { load<Summary>(image); }), want) << what;
}

/// Row defects: each writes one row's key or counter bits.
enum class defect { descending, duplicate, zero, negative, nan, pos_inf, neg_inf };

template <typename W>
std::vector<defect> defects() {
    if constexpr (std::is_floating_point_v<W>) {
        return {defect::descending, defect::duplicate, defect::zero, defect::negative,
                defect::nan, defect::pos_inf, defect::neg_inf};
    } else {
        return {defect::descending, defect::duplicate, defect::zero};
    }
}

void store_u64(std::vector<std::uint8_t>& image, std::size_t at, std::uint64_t v) {
    for (std::size_t i = 0; i < 8; ++i) {
        image[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
}

/// Applies \p d to row \p i of \p body. Key defects on row 0 change row 0
/// against row 1, so the first failing check is row 1's.
template <typename W>
void apply_defect(std::vector<std::uint8_t>& image, const reference_body<W>& body,
                  std::size_t i, defect d) {
    const std::size_t at = body.rows_at + 16 * i;
    switch (d) {
        case defect::descending:
            store_u64(image, at, i == 0 ? body.rows[1].first + 1 : body.rows[i - 1].first - 1);
            break;
        case defect::duplicate:
            store_u64(image, at, i == 0 ? body.rows[1].first : body.rows[i - 1].first);
            break;
        case defect::zero: store_u64(image, at + 8, 0); break;
        case defect::negative: store_u64(image, at + 8, std::bit_cast<std::uint64_t>(-1.0)); break;
        case defect::nan:
            store_u64(image, at + 8,
                      std::bit_cast<std::uint64_t>(std::numeric_limits<double>::quiet_NaN()));
            break;
        case defect::pos_inf:
            store_u64(image, at + 8,
                      std::bit_cast<std::uint64_t>(std::numeric_limits<double>::infinity()));
            break;
        case defect::neg_inf:
            store_u64(image, at + 8,
                      std::bit_cast<std::uint64_t>(-std::numeric_limits<double>::infinity()));
            break;
    }
}

/// Runs the whole comparison on \p s's envelope. \p reference_digest maps
/// the reference's bodies to the digest the restored summary must show;
/// \p restored_digest reads it from the restored summary.
template <typename Summary, typename W, typename RefDigest, typename GotDigest>
void check_against_reference(const Summary& s, shape sh, RefDigest&& reference_digest,
                             GotDigest&& restored_digest) {
    const std::vector<std::uint8_t> image = envelope_save(s).bytes();
    const auto bodies = reference_decode<W>(image, sh);
    ASSERT_FALSE(bodies.empty());

    // Valid image: same slots.
    const Summary restored = envelope_load<Summary>(image);
    ASSERT_EQ(restored_digest(restored), reference_digest(bodies));

    for (std::size_t b = 0; b < bodies.size(); ++b) {
        const reference_body<W>& body = bodies[b];
        ASSERT_GE(body.rows.size(), 3u) << "body " << b << " too small to place defects";
        const std::size_t end = body.rows_at + 16 * body.rows.size();

        // A cut at every byte of the body.
        for (std::size_t len = body.begin; len < end; ++len) {
            ASSERT_NO_FATAL_FAILURE((expect_same_outcome<Summary, W>(
                cut_to(image, len), sh,
                "body " + std::to_string(b) + " cut at " + std::to_string(len))));
        }

        // Each defect at the first, a middle and the last row, whole and
        // cut at every byte from the row before the defect to the end.
        const std::size_t last = body.rows.size() - 1;
        for (const std::size_t i : {std::size_t{0}, last / 2, last}) {
            for (const defect d : defects<W>()) {
                std::vector<std::uint8_t> bad = image;
                apply_defect(bad, body, i, d);
                const std::string what = "body " + std::to_string(b) + " row " +
                                         std::to_string(i) + " defect " +
                                         std::to_string(static_cast<int>(d));
                ASSERT_NO_FATAL_FAILURE((expect_same_outcome<Summary, W>(bad, sh, what)));
                const std::size_t from = body.rows_at + 16 * (i == 0 ? 0 : i - 1);
                for (std::size_t len = from; len < end; ++len) {
                    ASSERT_NO_FATAL_FAILURE((expect_same_outcome<Summary, W>(
                        cut_to(bad, len), sh, what + " cut at " + std::to_string(len))));
                }
            }
        }
    }
}

sketch_config cfg() {
    return sketch_config{.max_counters = k, .seed = 5, .decay = 0.75, .window_epochs = window};
}

/// A stream over 4k keys with weights 1..40, split over three ticks when
/// \p ticks is set.
template <typename Summary, typename Update>
void feed(Summary& s, bool ticks, Update&& update) {
    xoshiro256ss rng(9);
    for (int epoch = 0; epoch < 3; ++epoch) {
        for (int i = 0; i < 1'500; ++i) {
            update(s, rng.below(4 * k) * 0x9e37'79b9'7f4a'7c15ULL, 1 + rng.below(40));
        }
        if (ticks && epoch < 2) {
            s.tick(1);
        }
    }
}

template <typename W, typename P>
void table_case() {
    using summary = basic_frequent_items<std::uint64_t, W, P>;
    summary s(cfg());
    feed(s, P::decaying, [](summary& x, std::uint64_t id, std::uint64_t w) {
        x.update(id, static_cast<W>(w));
    });
    check_against_reference<summary, W>(
        s, P::decaying ? shape::fading : shape::flat,
        [](const std::vector<reference_body<W>>& bodies) {
            return table_digest(bodies.front(), cfg().seed);
        },
        [](const summary& x) { return digest_of<W>(x); });
}

template <typename W>
void windowed_case() {
    using summary = basic_frequent_items<std::uint64_t, W, epoch_window>;
    summary s(cfg());
    feed(s, true, [](summary& x, std::uint64_t id, std::uint64_t w) {
        x.update(id, static_cast<W>(w));
    });
    // The ring visits epoch a's table at slot a % window; each epoch's
    // table is seeded like basic_frequent_items::epoch_cfg seeds it.
    const auto reference = [](const std::vector<reference_body<W>>& bodies) {
        std::vector<const reference_body<W>*> ring(window, nullptr);
        for (const auto& b : bodies) {
            ring[b.epoch % window] = &b;
        }
        digest d;
        for (const auto* b : ring) {
            if (b != nullptr) {
                const auto part =
                    table_digest(*b, cfg().seed + 0x9e37'79b9'7f4a'7c15ULL * b->epoch);
                d.insert(d.end(), part.begin(), part.end());
            }
        }
        return d;
    };
    check_against_reference<summary, W>(s, shape::windowed, reference,
                                        [](const summary& x) { return digest_of<W>(x); });
}

template <typename W, typename P>
void map_case() {
    using summary = generic_frequent_items<std::uint64_t, W, std::hash<std::uint64_t>,
                                           std::equal_to<std::uint64_t>, P>;
    summary s(cfg());
    feed(s, P::decaying, [](summary& x, std::uint64_t id, std::uint64_t w) {
        x.update(id, static_cast<W>(w));
    });
    // The map's iteration order after emplacing the rows in wire order
    // into a map reserved like the core's.
    const auto reference = [](const std::vector<reference_body<W>>& bodies) {
        std::unordered_map<std::uint64_t, W> m;
        m.reserve(k + 1);
        for (const auto& [key, c] : bodies.front().rows) {
            m.emplace(key, c);
        }
        digest d;
        for (const auto& [key, c] : m) {
            d.emplace_back(key, bits_of(c));
        }
        return d;
    };
    check_against_reference<summary, W>(s, P::decaying ? shape::fading : shape::flat,
                                        reference,
                                        [](const summary& x) { return digest_of<W>(x); });
}

/// Text summaries expose no slot walk; their counter body is the inner
/// u64 core's, covered slot by slot above. Here the restored summary must
/// keep every row: its own canonical image carries the reference's rows.
template <typename W, typename P>
void text_case() {
    using summary = string_frequent_items<W, P>;
    const shape sh = P::decaying ? shape::fading : shape::flat;
    summary s(cfg());
    feed(s, P::decaying, [](summary& x, std::uint64_t id, std::uint64_t w) {
        x.update("item" + std::to_string(id % 997), static_cast<W>(w));
    });
    const auto rows = [](const std::vector<reference_body<W>>& bodies) {
        digest d;
        for (const auto& [key, c] : bodies.front().rows) {
            d.emplace_back(key, bits_of(c));
        }
        return d;
    };
    check_against_reference<summary, W>(s, sh, rows, [&](const summary& x) {
        return rows(reference_decode<W>(envelope_save(x).bytes(), sh));
    });
}

TEST(EnvelopeDecode, PlainU64MatchesFieldByFieldReference) {
    table_case<std::uint64_t, plain_lifetime>();
}
TEST(EnvelopeDecode, PlainDoubleMatchesFieldByFieldReference) {
    table_case<double, plain_lifetime>();
}
TEST(EnvelopeDecode, FadingMatchesFieldByFieldReference) {
    table_case<double, exponential_fading>();
}
TEST(EnvelopeDecode, WindowedU64MatchesFieldByFieldReference) { windowed_case<std::uint64_t>(); }
TEST(EnvelopeDecode, WindowedDoubleMatchesFieldByFieldReference) { windowed_case<double>(); }
TEST(EnvelopeDecode, TextU64MatchesFieldByFieldReference) {
    text_case<std::uint64_t, plain_lifetime>();
}
TEST(EnvelopeDecode, TextDoubleMatchesFieldByFieldReference) {
    text_case<double, plain_lifetime>();
}
TEST(EnvelopeDecode, TextFadingMatchesFieldByFieldReference) {
    text_case<double, exponential_fading>();
}
TEST(EnvelopeDecode, MapU64MatchesFieldByFieldReference) {
    map_case<std::uint64_t, plain_lifetime>();
}
TEST(EnvelopeDecode, MapFadingMatchesFieldByFieldReference) {
    map_case<double, exponential_fading>();
}

}  // namespace
}  // namespace freq
