/**
 * @file
 * LZ77 string matching for DEFLATE: a hash-chain matcher over a 32 KiB
 * sliding window producing literal / (length, distance) tokens, with
 * one-step lazy matching as in zlib.
 */

#ifndef FCC_CODEC_DEFLATE_LZ77_HPP
#define FCC_CODEC_DEFLATE_LZ77_HPP

#include <cstdint>
#include <span>
#include <vector>

namespace fcc::codec::deflate {

/** DEFLATE matching limits (RFC 1951). */
constexpr size_t windowSize = 32768;
constexpr size_t minMatch = 3;
constexpr size_t maxMatch = 258;

/**
 * One LZ77 token: a literal byte (distance == 0) or a back-reference
 * of @c length bytes at @c distance.
 */
struct Lz77Token
{
    uint16_t length = 0;    ///< literal value when distance == 0
    uint16_t distance = 0;  ///< 0 for literals, else 1..32768

    bool isLiteral() const { return distance == 0; }

    static Lz77Token
    literal(uint8_t byte)
    {
        return {byte, 0};
    }

    static Lz77Token
    match(uint16_t length, uint16_t distance)
    {
        return {length, distance};
    }
};

/** Max hash-chain entries the matcher probes per position. */
inline constexpr uint32_t lz77MaxChainLength = 128;
/** The matcher stops probing, and skips the one-step lazy lookahead,
 *  once a match at least this long is found. */
inline constexpr uint16_t lz77GoodEnoughLength = 64;

/**
 * Tokenize @p data. Concatenating the tokens (literals plus window
 * copies) reproduces @p data exactly; every distance respects the
 * 32 KiB window.
 */
std::vector<Lz77Token> lz77Tokenize(std::span<const uint8_t> data);

} // namespace fcc::codec::deflate

#endif // FCC_CODEC_DEFLATE_LZ77_HPP
