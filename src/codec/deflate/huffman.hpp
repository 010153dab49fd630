/**
 * @file
 * Canonical, length-limited Huffman coding as required by DEFLATE
 * (RFC 1951): optimal code-length construction via the package-merge
 * algorithm, canonical code assignment, and a table-driven decoder.
 */

#ifndef FCC_CODEC_DEFLATE_HUFFMAN_HPP
#define FCC_CODEC_DEFLATE_HUFFMAN_HPP

#include <cstdint>
#include <span>
#include <vector>

namespace fcc::codec::deflate {

/**
 * Compute optimal code lengths bounded by @p maxBits for the given
 * symbol frequencies (package-merge / coin-collector algorithm).
 *
 * Symbols with zero frequency get length 0 (not coded). A single
 * used symbol gets length 1, as DEFLATE requires at least one bit.
 *
 * @throws fcc::util::Error if the used symbols cannot fit in
 *         @p maxBits (i.e. count > 2^maxBits).
 */
std::vector<uint8_t>
buildCodeLengths(std::span<const uint64_t> freqs, int maxBits);

/**
 * Assign canonical codes (RFC 1951 §3.2.2): shorter codes first,
 * ties broken by symbol order. lengths[i] == 0 yields code 0.
 */
std::vector<uint16_t>
canonicalCodes(std::span<const uint8_t> lengths);

/**
 * Table-driven canonical Huffman decoder. A primary table indexed by
 * the next stream bits (primaryBits, or fewer for short codes) resolves
 * every code that fits in it with one lookup; longer codes go through
 * one second-level subtable per shared primary prefix.
 */
class HuffmanDecoder
{
  public:
    /** Longest code DEFLATE allows. */
    static constexpr int maxCodeBits = 15;
    /** Upper bound on the primary table's index width. */
    static constexpr int primaryBits = 10;

    /** One decoded symbol; length 0 marks a pattern no code maps to. */
    struct Symbol
    {
        unsigned symbol;
        unsigned length;
        unsigned extra;  ///< extra bits that follow the code
    };

    /**
     * Build from code lengths. Verifies the code is neither over-
     * nor under-subscribed; the only incomplete codes accepted are
     * the empty code and a single one-bit code, as in zlib and puff
     * (RFC 1951 §3.2.7 sends a lone distance code with one bit).
     * Symbol @p extraFirst + i is followed by @p extra[i] extra bits
     * (at most 15), as DEFLATE's length and distance symbols are;
     * lookup() returns the count with the code, so a decoder needs
     * no second table before it reads them.
     *
     * @throws fcc::util::Error on an invalid code description.
     */
    explicit HuffmanDecoder(std::span<const uint8_t> lengths,
                            unsigned extraFirst = 0,
                            std::span<const uint8_t> extra = {});

    /**
     * Look up the code at the front of @p bits (stream order, LSB
     * first; at least maxCodeBits bits, zero padded past the end of
     * the input). The caller checks the length against the bits it
     * really holds and consumes them.
     */
    Symbol lookup(uint64_t bits) const
    {
        uint32_t e = table_[bits & primaryMask_];
        if (e & subtableFlag) [[unlikely]] {
            uint32_t subMask = (1u << ((e >> 8) & 0xf)) - 1;
            e = table_[(e >> 16) +
                       ((bits >> tableBits_) & subMask)];
        }
        return {e >> 16, e & lengthMask, (e >> 8) & extraMask};
    }

    /** Number of symbols with non-zero length. */
    size_t usedSymbols() const { return used_; }

  private:
    // Entry layout: bits 0..4 code length (0 = invalid pattern);
    // bit 5 subtable pointer, whose bits 8..11 are the subtable's
    // index width and bits 16..31 its offset; otherwise bits 8..11
    // are the symbol's extra bits and bits 16..31 the symbol.
    static constexpr uint32_t lengthMask = 0x1f;
    static constexpr uint32_t subtableFlag = 0x20;
    static constexpr uint32_t extraMask = 0xf;

    std::vector<uint32_t> table_;  // primary table, then subtables
    int tableBits_ = 0;
    uint32_t primaryMask_ = 0;
    size_t used_ = 0;
};

} // namespace fcc::codec::deflate

#endif // FCC_CODEC_DEFLATE_HUFFMAN_HPP
