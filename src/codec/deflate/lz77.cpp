/**
 * @file
 * Hash-chain LZ77 matcher: 3-byte hash heads, chain walking with a
 * depth budget, and zlib-style one-step lazy matching over the
 * 32 KiB window.
 */

#include "codec/deflate/lz77.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/error.hpp"

namespace fcc::codec::deflate {

namespace {

constexpr uint32_t hashBits = 15;
constexpr uint32_t hashSize = 1u << hashBits;

/** Hash of the 3 bytes at @p p. */
inline uint32_t
hash3(const uint8_t *p)
{
    uint32_t v = static_cast<uint32_t>(p[0]) |
                 static_cast<uint32_t>(p[1]) << 8 |
                 static_cast<uint32_t>(p[2]) << 16;
    return (v * 2654435761u) >> (32 - hashBits);
}

/** The 4 bytes at @p p, for equality tests only. */
inline uint32_t
load32(const uint8_t *p)
{
    uint32_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

/**
 * Longest common prefix length of a and b, up to limit, compared
 * eight bytes at a time.
 */
inline size_t
matchLength(const uint8_t *a, const uint8_t *b, size_t limit)
{
    size_t len = 0;
    for (; len + 8 <= limit; len += 8) {
        uint64_t x, y;
        std::memcpy(&x, a + len, 8);
        std::memcpy(&y, b + len, 8);
        if (uint64_t diff = x ^ y) {
            int sameBits = std::endian::native == std::endian::little
                ? std::countr_zero(diff)
                : std::countl_zero(diff);
            return len + static_cast<size_t>(sameBits / 8);
        }
    }
    while (len < limit && a[len] == b[len])
        ++len;
    return len;
}

/**
 * Hash-chain index over input positions. The chain links live in a
 * ring of at most one window (zlib's prev[] under w_mask): the link
 * of position p sits in slot p % windowSize until position
 * p + windowSize overwrites it. The walk reads a link only for a
 * candidate still inside the window of a position not yet indexed,
 * so the slot it reads was never overwritten. Inputs shorter than a
 * window get a ring just large enough for them.
 *
 * Entries are 32-bit offsets from base_. Before an offset would
 * reach the empty marker, rebase() moves base_ up to one window
 * behind the position being indexed and empties every entry older
 * than that: the walk would stop at such an entry anyway, as it is
 * outside the window of every position still to come.
 */
class Chains
{
  public:
    explicit Chains(size_t size)
        : head_(hashSize, empty),
          prev_(std::min(windowSize, std::bit_ceil(size)), empty),
          mask_(prev_.size() - 1)
    {}

    void
    insert(const uint8_t *base, size_t pos)
    {
        if (pos - base_ >= empty) [[unlikely]]
            rebase(pos);
        uint32_t h = hash3(base + pos);
        prev_[pos & mask_] = head_[h];
        head_[h] = static_cast<uint32_t>(pos - base_);
    }

    /**
     * Best match for @p pos. Returns length (0 when below minMatch)
     * and sets @p distOut.
     */
    size_t
    bestMatch(const uint8_t *base, size_t pos, size_t avail,
              uint16_t &distOut) const
    {
        size_t limit = std::min(avail, maxMatch);
        if (limit < minMatch)
            return 0;

        const uint8_t *cur = base + pos;
        size_t bestLen = 0;
        uint16_t bestDist = 0;
        uint32_t chain = lz77MaxChainLength;
        uint32_t candidate = head_[hash3(cur)];
        while (candidate != empty && chain-- > 0) {
            size_t cpos = base_ + candidate;
            if (pos - cpos > windowSize)
                break;
            // Exact reject: a match longer than bestLen equals the
            // current bytes on [0, bestLen], so once bestLen reaches
            // minMatch, on the 4 bytes ending at bestLen and on its
            // first 4. bestLen < limit here, so both are in range.
            const uint8_t *cand = base + cpos;
            if (bestLen < minMatch ||
                (load32(cand + bestLen - 3) ==
                     load32(cur + bestLen - 3) &&
                 load32(cand) == load32(cur))) {
                size_t len = matchLength(cand, cur, limit);
                if (len > bestLen) {
                    bestLen = len;
                    bestDist = static_cast<uint16_t>(pos - cpos);
                    if (len >= lz77GoodEnoughLength || len == limit)
                        break;
                }
            }
            candidate = prev_[cpos & mask_];
        }
        if (bestLen < minMatch)
            return 0;
        distOut = bestDist;
        return bestLen;
    }

  private:
    static constexpr uint32_t empty = UINT32_MAX;

    void
    rebase(size_t pos)
    {
        size_t shift = pos - base_ - windowSize;
        auto move = [shift](uint32_t &e) {
            e = e != empty && e >= shift
                ? static_cast<uint32_t>(e - shift) : empty;
        };
        std::for_each(head_.begin(), head_.end(), move);
        std::for_each(prev_.begin(), prev_.end(), move);
        base_ += shift;
    }

    std::vector<uint32_t> head_;
    std::vector<uint32_t> prev_;
    size_t mask_;
    size_t base_ = 0;  ///< input position of offset 0
};

/**
 * The one parse loop. It starts at a position with the window before
 * it indexed, so at every position it reaches the chains hold what
 * the serial parse's hold there, and each run() resumes where the
 * last one stopped.
 */
class Parser
{
  public:
    Parser(std::span<const uint8_t> data, size_t from)
        : base_(data.data()), n_(data.size()), chains_(n_), pos_(from)
    {
        for (size_t p = from - std::min(from, windowSize);
             p < from && p + minMatch <= n_; ++p)
            chains_.insert(base_, p);
    }

    /** Position of the next token. */
    size_t pos() const { return pos_; }

    /** Append the tokens that start below @p until. */
    void run(size_t until, std::vector<Lz77Token> &tokens);

  private:
    const uint8_t *base_;
    size_t n_;
    Chains chains_;
    size_t pos_;
    // A lazy lookahead that deferred a match is the search at the
    // next position: nothing is indexed in between, so it is reused.
    size_t carriedLen_ = 0;  // 0: no search carried
    uint16_t carriedDist_ = 0;
};

void
Parser::run(size_t until, std::vector<Lz77Token> &tokens)
{
    const uint8_t *base = base_;
    size_t n = n_;
    size_t pos = pos_;
    size_t carriedLen = carriedLen_;
    uint16_t carriedDist = carriedDist_;
    until = std::min(until, n);
    while (pos < until) {
        if (n - pos < minMatch) {
            tokens.push_back(Lz77Token::literal(base[pos]));
            ++pos;
            continue;
        }

        uint16_t dist = carriedDist;
        size_t len = carriedLen > 0
            ? carriedLen
            : chains_.bestMatch(base, pos, n - pos, dist);
        carriedLen = 0;

        // One-step lazy evaluation: prefer a strictly longer match
        // starting at the next byte.
        if (len >= minMatch && len < lz77GoodEnoughLength &&
            n - pos > len) {
            chains_.insert(base, pos);
            uint16_t nextDist = 0;
            size_t nextLen =
                n - (pos + 1) >= minMatch
                    ? chains_.bestMatch(base, pos + 1, n - pos - 1,
                                        nextDist)
                    : 0;
            if (nextLen > len) {
                tokens.push_back(Lz77Token::literal(base[pos]));
                ++pos;
                carriedLen = nextLen;
                carriedDist = nextDist;
                continue;
            }
            // Keep the current match; pos was indexed above.
            tokens.push_back(Lz77Token::match(
                static_cast<uint16_t>(len), dist));
            for (size_t k = 1; k < len && pos + k + minMatch <= n; ++k)
                chains_.insert(base, pos + k);
            pos += len;
            continue;
        }

        if (len >= minMatch) {
            tokens.push_back(Lz77Token::match(
                static_cast<uint16_t>(len), dist));
            for (size_t k = 0; k < len && pos + k + minMatch <= n; ++k)
                chains_.insert(base, pos + k);
            pos += len;
        } else {
            tokens.push_back(Lz77Token::literal(base[pos]));
            if (pos + minMatch <= n)
                chains_.insert(base, pos);
            ++pos;
        }
    }
    pos_ = pos;
    carriedLen_ = carriedLen;
    carriedDist_ = carriedDist;
}

/** Input bytes @p tok covers. */
inline size_t
tokenBytes(const Lz77Token &tok)
{
    return tok.isLiteral() ? 1 : tok.length;
}

} // namespace

std::vector<Lz77Token>
lz77Tokenize(std::span<const uint8_t> data)
{
    std::vector<Lz77Token> tokens;
    if (data.empty())
        return tokens;
    tokens.reserve(data.size() / 4);
    Parser(data, 0).run(data.size(), tokens);
    return tokens;
}

std::vector<size_t>
lz77EvenStarts(size_t size, size_t segments)
{
    size_t count = std::clamp<size_t>(segments, 1, std::max<size_t>(size, 1));
    // floor(k * size / count), without the product overflowing.
    size_t quot = size / count, rem = size % count;
    std::vector<size_t> starts(count);
    for (size_t k = 0; k < count; ++k)
        starts[k] = k * quot + k * rem / count;
    return starts;
}

Lz77SegmentedParse::Lz77SegmentedParse(std::span<const uint8_t> data,
                                       std::vector<size_t> starts,
                                       size_t overrun)
    : data_(data), overrun_(overrun)
{
    FCC_ASSERT(!starts.empty() && starts[0] == 0,
               "lz77: the first segment starts at 0");
    segments_.resize(starts.size());
    for (size_t k = 0; k < starts.size(); ++k) {
        FCC_ASSERT(k == 0 || (starts[k] > starts[k - 1] &&
                              starts[k] < data.size()),
                   "lz77: segment starts must increase inside the input");
        segments_[k].start = starts[k];
    }
}

void
Lz77SegmentedParse::parseSegment(size_t k)
{
    Segment &seg = segments_[k];
    size_t n = data_.size();
    if (n == 0)
        return;
    size_t end = k + 1 < segments_.size() ? segments_[k + 1].start : n;
    seg.tokens.reserve((end - seg.start) / 4);
    Parser parser(data_, seg.start);
    parser.run(end, seg.tokens);
    seg.overrunToken = seg.tokens.size();
    seg.overrunPos = parser.pos();
    parser.run(end + std::min(overrun_, n - end), seg.tokens);
}

Lz77Pieces
Lz77SegmentedParse::stitch()
{
    Lz77Pieces pieces;
    const Segment *prev = &segments_[0];
    size_t from = 0;      // prev's first token still to take
    size_t syncPos = 0;   // where it starts; prev is serial from there
    for (size_t k = 1; k < segments_.size(); ++k) {
        const Segment &cur = segments_[k];
        // The first start at or past syncPos that both parses make:
        // a merge walk of prev's overrun starts and cur's starts.
        size_t ia = prev->overrunToken, a = prev->overrunPos;
        size_t ib = 0, b = cur.start;
        bool synced = false;
        while (ia < prev->tokens.size() && ib < cur.tokens.size()) {
            if (a < syncPos || a < b) {
                a += tokenBytes(prev->tokens[ia++]);
            } else if (b < a) {
                b += tokenBytes(cur.tokens[ib++]);
            } else {
                synced = true;
                break;
            }
        }
        if (!synced) {
            fallback_ = lz77Tokenize(data_);
            return {fallback_};
        }
        if (ia > from)
            pieces.emplace_back(prev->tokens.data() + from, ia - from);
        prev = &cur;
        from = ib;
        syncPos = a;
    }
    if (prev->tokens.size() > from)
        pieces.emplace_back(prev->tokens.data() + from,
                            prev->tokens.size() - from);
    return pieces;
}

} // namespace fcc::codec::deflate
