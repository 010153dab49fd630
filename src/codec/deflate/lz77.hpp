/**
 * @file
 * LZ77 string matching for DEFLATE: a hash-chain matcher over a 32 KiB
 * sliding window producing literal / (length, distance) tokens, with
 * one-step lazy matching as in zlib, and a segmented form of the same
 * parse whose segments run on any threads and stitch into exactly
 * the serial token stream.
 */

#ifndef FCC_CODEC_DEFLATE_LZ77_HPP
#define FCC_CODEC_DEFLATE_LZ77_HPP

#include <cstdint>
#include <cstddef>
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

/** Bytes a segment's parse runs past its end, looking for a token
 *  start that the next segment's parse also makes. */
inline constexpr size_t lz77SegmentOverrun = 4096;

/** A token stream as consecutive pieces, in stream order. */
using Lz77Pieces = std::vector<std::span<const Lz77Token>>;

/**
 * @p segments starts spread evenly over @p size bytes: the first is
 * 0, all are distinct and below @p size (one start when @p size is 0,
 * at most @p size starts otherwise).
 */
std::vector<size_t> lz77EvenStarts(size_t size, size_t segments);

/**
 * lz77Tokenize() cut into segments that parse independently and
 * stitch back into exactly its token stream.
 *
 * The token chosen at a position depends only on that position and
 * the input: the chains then hold every position below it (those
 * within one window are all the walk reads). So a parse that starts
 * at a segment start, with the window before it indexed first, makes
 * the serial tokens from the first token start it shares with the
 * serial parse. Each segment parses up to @c overrun bytes past the
 * next segment's start; the stitch takes the earlier segment's tokens
 * up to the first start both make, and the later segment's from
 * there. A seam without a shared start in the overrun sends the
 * whole input through lz77Tokenize(): slower, never different.
 *
 * parseSegment() may run for distinct segments on any threads at
 * once; stitch() runs after all of them.
 */
class Lz77SegmentedParse
{
  public:
    /**
     * Plan the parse of @p data from the segment @p starts:
     * increasing, the first 0, every one below data.size() (or the
     * single start 0 of an empty input). An @p overrun of 0 always
     * falls back to the serial parse.
     */
    Lz77SegmentedParse(std::span<const uint8_t> data,
                       std::vector<size_t> starts,
                       size_t overrun = lz77SegmentOverrun);

    std::span<const uint8_t> data() const { return data_; }
    size_t segments() const { return segments_.size(); }

    /** Parse segment @p k. */
    void parseSegment(size_t k);

    /**
     * The serial token stream, as pieces of the segments' token
     * lists (or of the fallback's one list); valid while this object
     * lives.
     */
    Lz77Pieces stitch();

  private:
    struct Segment
    {
        size_t start = 0;
        std::vector<Lz77Token> tokens;
        /** First token that starts at or past the next segment's
         *  start, and where it starts. */
        size_t overrunToken = 0;
        size_t overrunPos = 0;
    };

    std::span<const uint8_t> data_;
    size_t overrun_;
    std::vector<Segment> segments_;
    std::vector<Lz77Token> fallback_;
};

} // namespace fcc::codec::deflate

#endif // FCC_CODEC_DEFLATE_LZ77_HPP
