/**
 * @file
 * LSB-first bit streams as used by the DEFLATE wire format (RFC 1951).
 *
 * Bits are packed into bytes starting at the least significant bit;
 * Huffman codes are written most-significant-bit-first via putHuff(),
 * or pre-reversed once per code table (reverseBits()) and written
 * with put().
 */

#ifndef FCC_UTIL_BITSTREAM_HPP
#define FCC_UTIL_BITSTREAM_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace fcc::util {

/** The low @p nbits bits of @p code in reverse order. */
inline uint32_t
reverseBits(uint32_t code, int nbits)
{
    uint32_t rev = 0;
    for (int i = 0; i < nbits; ++i)
        rev |= ((code >> i) & 1u) << (nbits - 1 - i);
    return rev;
}

/**
 * LSB-first bit writer producing a byte vector. Bits gather in a
 * 64-bit buffer that is appended eight bytes at a time.
 */
class BitWriter
{
  public:
    /** Append the low @p nbits (0..32) bits of @p value, LSB first. */
    void put(uint32_t value, int nbits);

    /**
     * Append a Huffman code: @p code holds the code with its first
     * (most significant) bit in bit position nbits-1. DEFLATE streams
     * Huffman codes MSB-first, so the bit order is reversed here.
     */
    void putHuff(uint32_t code, int nbits);

    /** Pad with zero bits to the next byte boundary. */
    void alignToByte();

    /** Append a raw byte; the stream must be byte-aligned. */
    void byte(uint8_t v);

    /** Flush any partial byte and move the buffer out. */
    std::vector<uint8_t> take();

  private:
    std::vector<uint8_t> buf_;
    uint64_t bitbuf_ = 0;
    int nbits_ = 0;  ///< pending bits in bitbuf_, always < 64
};

/** LSB-first bit reader over an immutable byte buffer. */
class BitReader
{
  public:
    explicit BitReader(std::span<const uint8_t> data)
        : data_(data.data()), len_(data.size())
    {}

    /** Read @p nbits bits (0..24), LSB first. @throws Error */
    uint32_t get(int nbits);

    /** Peek up to @p nbits bits without consuming (zero padded). */
    uint32_t peek(int nbits);

    /** Consume @p nbits bits previously peeked. */
    void consume(int nbits);

    /** Discard bits up to the next byte boundary. */
    void alignToByte();

    /** Read a raw byte; the stream must be byte-aligned. @throws Error */
    uint8_t byte();

    /** Bytes wholly or partially unread. */
    size_t remainingBytes() const { return len_ - pos_ + (nbits_ + 7) / 8; }

    /** True when every bit has been consumed. */
    bool exhausted() const { return pos_ == len_ && nbits_ == 0; }

  private:
    void fill();

    const uint8_t *data_;
    size_t len_;
    size_t pos_ = 0;
    uint64_t bitbuf_ = 0;
    int nbits_ = 0;
};

} // namespace fcc::util

#endif // FCC_UTIL_BITSTREAM_HPP
