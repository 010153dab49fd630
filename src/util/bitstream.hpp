/**
 * @file
 * LSB-first bit writing as used by the DEFLATE wire format (RFC 1951).
 * The inflater reads with its own bit buffer
 * (codec/deflate/inflate_stream).
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

} // namespace fcc::util

#endif // FCC_UTIL_BITSTREAM_HPP
