/**
 * @file
 * Little-endian ByteWriter/ByteReader plus LEB128-style varints.
 * All bounds violations on the read side surface as util::Error,
 * never as out-of-range memory access.
 */

#include "util/bytes.hpp"

#include <cstring>

#include "util/error.hpp"

namespace fcc::util {

namespace {

/** All-continuation-bit mask: a clear byte is a complete varint. */
constexpr uint64_t swarContMask = 0x8080808080808080ull;

/**
 * Encode one varint at @p dst (>= 10 writable bytes); returns the
 * encoded length. Unrolled against varintLen so the common 1-2 byte
 * cases retire in a handful of instructions.
 */
inline size_t
encodeOneVarint(uint8_t *dst, uint64_t v)
{
    size_t n = 0;
    while (v >= 0x80) {
        dst[n++] = static_cast<uint8_t>(v) | 0x80;
        v >>= 7;
    }
    dst[n++] = static_cast<uint8_t>(v);
    return n;
}

[[noreturn]] void
throwTruncated()
{
    throw Error("ByteReader: truncated input");
}

/**
 * Decode one varint from @p p with at least 10 readable bytes;
 * advances @p p. Kept branch-light: no per-byte bounds checks.
 */
inline uint64_t
decodeOneVarintFast(const uint8_t *&p)
{
    uint64_t v = 0;
    int shift = 0;
    for (;;) {
        uint8_t b = *p++;
        if (shift == 63 && (b & 0x7e))
            throw Error("ByteReader: varint overflows 64 bits");
        v |= static_cast<uint64_t>(b & 0x7f) << shift;
        if (!(b & 0x80))
            return v;
        shift += 7;
        if (shift > 63)
            throw Error("ByteReader: varint too long");
    }
}

/** Bounds-checked tail variant for the last < 10 bytes of a buffer. */
inline uint64_t
decodeOneVarintChecked(const uint8_t *&p, const uint8_t *end)
{
    uint64_t v = 0;
    int shift = 0;
    for (;;) {
        if (p == end)
            throwTruncated();
        uint8_t b = *p++;
        if (shift == 63 && (b & 0x7e))
            throw Error("ByteReader: varint overflows 64 bits");
        v |= static_cast<uint64_t>(b & 0x7f) << shift;
        if (!(b & 0x80))
            return v;
        shift += 7;
        if (shift > 63)
            throw Error("ByteReader: varint too long");
    }
}

} // namespace

uint64_t
varintLenSum(std::span<const uint64_t> values)
{
    // Pure arithmetic per element — auto-vectorizes; exact by the
    // same bit_width identity varintLen() uses.
    uint64_t bytes = 0;
    for (uint64_t v : values)
        bytes += varintLen(v);
    return bytes;
}

void
varintEncodeBatch(std::span<const uint64_t> values,
                  std::vector<uint8_t> &out)
{
    // Block-wise: grow the output once per block to its worst case
    // (10 bytes/value), write through a raw pointer, then trim. The
    // eight-value fast path covers the dominant case of the FCC3
    // columns — runs of sub-128 values — with one load, one test and
    // one store per eight values.
    constexpr size_t blockValues = 4096;
    const uint64_t *v = values.data();
    size_t remaining = values.size();
    while (remaining > 0) {
        size_t block = remaining < blockValues ? remaining
                                               : blockValues;
        size_t base = out.size();
        out.resize(base + block * 10);
        uint8_t *dst = out.data() + base;
        size_t i = 0;
        while (i + 8 <= block) {
            uint64_t any = v[i] | v[i + 1] | v[i + 2] | v[i + 3] |
                           v[i + 4] | v[i + 5] | v[i + 6] | v[i + 7];
            if (any < 0x80) {
                uint64_t packed = v[i] | (v[i + 1] << 8) |
                                  (v[i + 2] << 16) |
                                  (v[i + 3] << 24) |
                                  (v[i + 4] << 32) |
                                  (v[i + 5] << 40) |
                                  (v[i + 6] << 48) |
                                  (v[i + 7] << 56);
                if constexpr (std::endian::native ==
                              std::endian::big)
                    packed = byteSwap64(packed);
                std::memcpy(dst, &packed, 8);
                dst += 8;
                i += 8;
                continue;
            }
            for (size_t k = 0; k < 8; ++k)
                dst += encodeOneVarint(dst, v[i + k]);
            i += 8;
        }
        for (; i < block; ++i)
            dst += encodeOneVarint(dst, v[i]);
        out.resize(static_cast<size_t>(dst - out.data()));
        v += block;
        remaining -= block;
    }
}

size_t
varintDecodeBatch(const uint8_t *data, size_t len, uint64_t *out,
                  size_t count)
{
    const uint8_t *p = data;
    const uint8_t *end = data + len;
    size_t i = 0;
    while (i < count) {
        // Eight single-byte varints at once: one load, one SWAR test.
        if (i + 8 <= count && end - p >= 8) {
            uint64_t word = loadLe64(p);
            if ((word & swarContMask) == 0) {
                out[i + 0] = word & 0xff;
                out[i + 1] = (word >> 8) & 0xff;
                out[i + 2] = (word >> 16) & 0xff;
                out[i + 3] = (word >> 24) & 0xff;
                out[i + 4] = (word >> 32) & 0xff;
                out[i + 5] = (word >> 40) & 0xff;
                out[i + 6] = (word >> 48) & 0xff;
                out[i + 7] = (word >> 56) & 0xff;
                p += 8;
                i += 8;
                continue;
            }
        }
        if (end - p >= 10)
            out[i++] = decodeOneVarintFast(p);
        else
            out[i++] = decodeOneVarintChecked(p, end);
    }
    return static_cast<size_t>(p - data);
}

void
ByteWriter::u16(uint16_t v)
{
    buf_.push_back(static_cast<uint8_t>(v));
    buf_.push_back(static_cast<uint8_t>(v >> 8));
}

void
ByteWriter::u32(uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
ByteWriter::u64(uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
ByteWriter::varint(uint64_t v)
{
    while (v >= 0x80) {
        buf_.push_back(static_cast<uint8_t>(v) | 0x80);
        v >>= 7;
    }
    buf_.push_back(static_cast<uint8_t>(v));
}

void
ByteWriter::bytes(const uint8_t *data, size_t len)
{
    buf_.insert(buf_.end(), data, data + len);
}

void
ByteWriter::bytes(std::span<const uint8_t> data)
{
    buf_.insert(buf_.end(), data.begin(), data.end());
}

void
ByteWriter::blob(std::span<const uint8_t> data)
{
    varint(data.size());
    bytes(data);
}

void
ByteReader::need(size_t n) const
{
    if (len_ - pos_ < n)
        throw Error("ByteReader: truncated input");
}

uint8_t
ByteReader::u8()
{
    need(1);
    return data_[pos_++];
}

uint16_t
ByteReader::u16()
{
    need(2);
    uint16_t v = static_cast<uint16_t>(data_[pos_]) |
                 static_cast<uint16_t>(data_[pos_ + 1]) << 8;
    pos_ += 2;
    return v;
}

uint32_t
ByteReader::u32()
{
    need(4);
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
}

uint64_t
ByteReader::u64()
{
    need(8);
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
}

uint64_t
ByteReader::varint()
{
    uint64_t v = 0;
    int shift = 0;
    for (;;) {
        uint8_t b = u8();
        if (shift == 63 && (b & 0x7e))
            throw Error("ByteReader: varint overflows 64 bits");
        v |= static_cast<uint64_t>(b & 0x7f) << shift;
        if (!(b & 0x80))
            return v;
        shift += 7;
        if (shift > 63)
            throw Error("ByteReader: varint too long");
    }
}

void
ByteReader::bytes(uint8_t *out, size_t len)
{
    need(len);
    std::memcpy(out, data_ + pos_, len);
    pos_ += len;
}

std::span<const uint8_t>
ByteReader::blobView()
{
    uint64_t len = varint();
    need(len);
    std::span<const uint8_t> out(data_ + pos_,
                                 static_cast<size_t>(len));
    pos_ += len;
    return out;
}

void
ByteReader::skip(size_t len)
{
    need(len);
    pos_ += len;
}

} // namespace fcc::util
