#ifndef FREQ_COMMON_BYTES_H
#define FREQ_COMMON_BYTES_H

/// \file bytes.h
/// Endian-stable (little-endian on the wire) byte buffer reader/writer used
/// by the sketch serialization code and the binary trace format.

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/contracts.h"

namespace freq {

/// Stores \p v at \p out as little-endian bytes: one memcpy on
/// little-endian hosts, one byte at a time on others.
template <typename T>
inline void store_le(std::uint8_t* out, T v) noexcept {
    static_assert(std::is_unsigned_v<T>, "wire fields are unsigned bit images");
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(out, &v, sizeof(T));
    } else {
        for (std::size_t i = 0; i < sizeof(T); ++i) {
            out[i] = static_cast<std::uint8_t>(v >> (8 * i));
        }
    }
}

/// Loads the little-endian field at \p in (the inverse of store_le).
template <typename T>
inline T load_le(const std::uint8_t* in) noexcept {
    static_assert(std::is_unsigned_v<T>, "wire fields are unsigned bit images");
    T v{};
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&v, in, sizeof(T));
    } else {
        for (std::size_t i = 0; i < sizeof(T); ++i) {
            v = static_cast<T>(v | (static_cast<T>(in[i]) << (8 * i)));
        }
    }
    return v;
}

/// Append-only byte sink producing a portable little-endian encoding.
class byte_writer {
public:
    byte_writer() = default;

    /// Reserve capacity up front to avoid reallocation in hot serialization loops.
    void reserve(std::size_t n) { buf_.reserve(n); }

    void put_u8(std::uint8_t v) { buf_.push_back(v); }

    void put_u16(std::uint16_t v) { put_le(v); }
    void put_u32(std::uint32_t v) { put_le(v); }
    void put_u64(std::uint64_t v) { put_le(v); }

    void put_i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }

    /// Doubles travel as their IEEE-754 bit pattern.
    void put_f64(double v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        put_u64(bits);
    }

    void put_bytes(const void* data, std::size_t n) {
        const auto* p = static_cast<const std::uint8_t*>(data);
        buf_.insert(buf_.end(), p, p + n);
    }

    /// Grows the buffer by \p n bytes and returns where they start, for a
    /// caller that sizes a block of fields once and fills it with store_le.
    /// The pointer is valid until the next write.
    std::uint8_t* extend(std::size_t n) {
        const std::size_t at = buf_.size();
        buf_.resize(at + n);
        return buf_.data() + at;
    }

    const std::vector<std::uint8_t>& bytes() const noexcept { return buf_; }
    std::vector<std::uint8_t> take() && { return std::move(buf_); }
    std::size_t size() const noexcept { return buf_.size(); }

private:
    template <typename T>
    void put_le(T v) {
        store_le(extend(sizeof(T)), v);
    }

    std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader over a byte span written by byte_writer.
/// Throws std::out_of_range on truncated input — malformed sketches must
/// never crash the process.
class byte_reader {
public:
    byte_reader(const std::uint8_t* data, std::size_t size) noexcept
        : data_(data), size_(size) {}

    explicit byte_reader(const std::vector<std::uint8_t>& v) noexcept
        : byte_reader(v.data(), v.size()) {}

    std::uint8_t get_u8() { return get_le<std::uint8_t>(); }
    std::uint16_t get_u16() { return get_le<std::uint16_t>(); }
    std::uint32_t get_u32() { return get_le<std::uint32_t>(); }
    std::uint64_t get_u64() { return get_le<std::uint64_t>(); }
    std::int64_t get_i64() { return static_cast<std::int64_t>(get_le<std::uint64_t>()); }

    double get_f64() {
        const std::uint64_t bits = get_u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    void get_bytes(void* out, std::size_t n) {
        std::memcpy(out, get_block(n), n);
    }

    /// Bounds-checks the next \p n bytes once and returns where they start,
    /// for a caller that decodes a block of fields with load_le.
    const std::uint8_t* get_block(std::size_t n) {
        check(n);
        const std::uint8_t* at = data_ + pos_;
        pos_ += n;
        return at;
    }

    std::size_t remaining() const noexcept { return size_ - pos_; }
    std::size_t position() const noexcept { return pos_; }

private:
    void check(std::size_t n) const {
        if (size_ - pos_ < n) {
            throw std::out_of_range("libfreq: truncated input: need " + std::to_string(n) +
                                    " bytes, have " + std::to_string(size_ - pos_));
        }
    }

    template <typename T>
    T get_le() {
        return load_le<T>(get_block(sizeof(T)));
    }

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

}  // namespace freq

#endif  // FREQ_COMMON_BYTES_H
