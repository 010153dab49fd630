/**
 * @file
 * DEFLATE encoder/decoder: per-block choice among stored, fixed-
 * and dynamic-Huffman encodings (including the RFC 1951 code-
 * length-code machinery), plus the zlib and gzip containers with
 * Adler-32 / CRC-32 trailers.
 */

#include "codec/deflate/deflate.hpp"

#include <algorithm>
#include <array>
#include <ranges>

#include "codec/deflate/huffman.hpp"
#include "codec/deflate/inflate_stream.hpp"
#include "codec/deflate/lz77.hpp"
#include "codec/deflate/rfc1951.hpp"
#include "trace/tsh.hpp"
#include "util/bitstream.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"

namespace fcc::codec::deflate {

namespace {

/** Length code index (0..28) of every match length 0..258. */
constexpr std::array<uint8_t, maxMatch + 1> lengthCodeTable = [] {
    std::array<uint8_t, maxMatch + 1> table{};
    for (int i = 0; i < 29; ++i)
        for (size_t len = lengthBase[i]; len <= maxMatch; ++len)
            table[len] = static_cast<uint8_t>(i);
    return table;
}();

/**
 * Distance code (0..29) by distance - 1: entries 0..255 hold
 * distances 1..256, entries 256..511 distances 257..32768 in steps
 * of 128 (codes from 16 up have at least 7 extra bits), as zlib's
 * _dist_code.
 */
constexpr std::array<uint8_t, 512> distCodeTable = [] {
    std::array<uint8_t, 512> table{};
    for (int i = 0; i < 30; ++i) {
        for (uint32_t d = distBase[i] - 1u; d < 256; ++d)
            table[d] = static_cast<uint8_t>(i);
        for (uint32_t d = std::max(distBase[i] - 1u, 256u); d < windowSize;
             d += 128)
            table[256 + (d >> 7)] = static_cast<uint8_t>(i);
    }
    return table;
}();

/** Map a match length (3..258) to its length code index (0..28). */
inline int
lengthCodeIndex(uint16_t len)
{
    return lengthCodeTable[len];
}

/** Map a distance (1..32768) to its distance code (0..29). */
inline int
distCodeIndex(uint16_t dist)
{
    uint32_t d = dist - 1u;
    return distCodeTable[d < 256 ? d : 256 + (d >> 7)];
}

// ---- encoder --------------------------------------------------------

/** Code-length sequence RLE item (RFC 1951 §3.2.7). */
struct ClcItem
{
    uint8_t symbol;   // 0..18
    uint8_t extra;    // repeat count payload
    uint8_t extraBits;
};

/** RLE-encode the concatenated lit+dist code-length sequence. */
std::vector<ClcItem>
rleCodeLengths(std::span<const uint8_t> lens)
{
    std::vector<ClcItem> items;
    size_t i = 0;
    while (i < lens.size()) {
        uint8_t value = lens[i];
        size_t run = 1;
        while (i + run < lens.size() && lens[i + run] == value)
            ++run;
        if (value == 0) {
            size_t left = run;
            while (left >= 11) {
                size_t take = std::min<size_t>(left, 138);
                items.push_back({18,
                                 static_cast<uint8_t>(take - 11), 7});
                left -= take;
            }
            if (left >= 3) {
                items.push_back({17,
                                 static_cast<uint8_t>(left - 3), 3});
                left = 0;
            }
            for (; left > 0; --left)
                items.push_back({0, 0, 0});
        } else {
            items.push_back({value, 0, 0});
            size_t left = run - 1;
            while (left >= 3) {
                size_t take = std::min<size_t>(left, 6);
                items.push_back({16,
                                 static_cast<uint8_t>(take - 3), 2});
                left -= take;
            }
            for (; left > 0; --left)
                items.push_back({value, 0, 0});
        }
        i += run;
    }
    return items;
}

/**
 * Everything needed to emit one block under a code pair; the codes
 * are stored bit-reversed, ready for BitWriter::put().
 */
struct BlockCodes
{
    std::vector<uint8_t> litLens, distLens;
    std::vector<uint16_t> litCodes, distCodes;
};

/** Canonical codes of @p lengths, each reversed to stream order. */
std::vector<uint16_t>
streamCodes(std::span<const uint8_t> lengths)
{
    std::vector<uint16_t> codes = canonicalCodes(lengths);
    for (size_t sym = 0; sym < codes.size(); ++sym)
        codes[sym] = static_cast<uint16_t>(
            util::reverseBits(codes[sym], lengths[sym]));
    return codes;
}

/** Bit cost of the token payload under the given lengths. */
uint64_t
payloadCost(std::span<const uint64_t> litFreq,
            std::span<const uint64_t> distFreq,
            std::span<const uint8_t> litLens,
            std::span<const uint8_t> distLens)
{
    uint64_t bits = 0;
    for (int sym = 0; sym < numLitCodes; ++sym) {
        bits += litFreq[sym] * litLens[sym];
        if (sym >= 257)
            bits += litFreq[sym] * lengthExtra[sym - 257];
    }
    for (int sym = 0; sym < numDistCodes; ++sym)
        bits += distFreq[sym] * (distLens[sym] + distExtra[sym]);
    return bits;
}

/**
 * Emit the token payload plus end-of-block. A code and its extra
 * bits go out in one put(): at most 15 + 5 bits for a length, 15 + 13
 * for a distance.
 */
void
emitTokens(util::BitWriter &out, const Lz77Pieces &tokens,
           const BlockCodes &codes)
{
    for (const auto &tok : tokens | std::views::join) {
        if (tok.isLiteral()) {
            out.put(codes.litCodes[tok.length],
                    codes.litLens[tok.length]);
        } else {
            int li = lengthCodeIndex(tok.length);
            int sym = 257 + li;
            out.put(codes.litCodes[sym] |
                        static_cast<uint32_t>(tok.length - lengthBase[li])
                            << codes.litLens[sym],
                    codes.litLens[sym] + lengthExtra[li]);
            int di = distCodeIndex(tok.distance);
            out.put(codes.distCodes[di] |
                        static_cast<uint32_t>(tok.distance - distBase[di])
                            << codes.distLens[di],
                    codes.distLens[di] + distExtra[di]);
        }
    }
    out.put(codes.litCodes[endOfBlock], codes.litLens[endOfBlock]);
}

/** One encoder block: tokens plus the raw bytes they cover. */
void
emitBlock(util::BitWriter &out, const Lz77Pieces &tokens,
          std::span<const uint8_t> raw, bool final)
{
    // Token frequencies (end-of-block included once).
    std::vector<uint64_t> litFreq(numLitCodes, 0);
    std::vector<uint64_t> distFreq(numDistCodes, 0);
    litFreq[endOfBlock] = 1;
    for (const auto &tok : tokens | std::views::join) {
        if (tok.isLiteral()) {
            ++litFreq[tok.length];
        } else {
            ++litFreq[257 + lengthCodeIndex(tok.length)];
            ++distFreq[distCodeIndex(tok.distance)];
        }
    }

    // Dynamic code construction.
    BlockCodes dyn;
    dyn.litLens = buildCodeLengths(litFreq, 15);
    dyn.distLens = buildCodeLengths(distFreq, 15);
    dyn.litLens.resize(numLitCodes);
    dyn.distLens.resize(numDistCodes);

    int hlit = numLitCodes;
    while (hlit > 257 && dyn.litLens[hlit - 1] == 0)
        --hlit;
    int hdist = numDistCodes;
    while (hdist > 1 && dyn.distLens[hdist - 1] == 0)
        --hdist;

    std::vector<uint8_t> seq(dyn.litLens.begin(),
                             dyn.litLens.begin() + hlit);
    seq.insert(seq.end(), dyn.distLens.begin(),
               dyn.distLens.begin() + hdist);
    auto rle = rleCodeLengths(seq);

    std::vector<uint64_t> clcFreq(19, 0);
    for (const auto &item : rle)
        ++clcFreq[item.symbol];
    auto clcLens = buildCodeLengths(clcFreq, 7);
    clcLens.resize(19);
    auto clcCodes = streamCodes(clcLens);

    int hclen = 19;
    while (hclen > 4 && clcLens[clcOrder[hclen - 1]] == 0)
        --hclen;

    uint64_t dynHeaderBits = 5 + 5 + 4 + 3ull * hclen;
    for (const auto &item : rle)
        dynHeaderBits += clcLens[item.symbol] + item.extraBits;
    uint64_t dynCost = dynHeaderBits +
                       payloadCost(litFreq, distFreq, dyn.litLens,
                                   dyn.distLens);

    // Fixed-code cost.
    BlockCodes fixed;
    fixed.litLens = fixedLitLengths();
    fixed.distLens = fixedDistLengths();
    uint64_t fixedCost = payloadCost(
        litFreq, distFreq,
        std::span<const uint8_t>(fixed.litLens.data(), numLitCodes),
        std::span<const uint8_t>(fixed.distLens.data(),
                                 numDistCodes));

    // Stored cost (only possible for blocks within the 64 KiB limit).
    uint64_t storedCost = raw.size() <= 0xffff
        ? 7 + 32 + 8ull * raw.size()
        : ~0ull;

    out.put(final ? 1 : 0, 1);
    if (storedCost < dynCost + 3 && storedCost < fixedCost + 3) {
        out.put(0, 2);  // BTYPE=00
        out.alignToByte();
        out.byte(static_cast<uint8_t>(raw.size()));
        out.byte(static_cast<uint8_t>(raw.size() >> 8));
        out.byte(static_cast<uint8_t>(~raw.size()));
        out.byte(static_cast<uint8_t>(~raw.size() >> 8));
        for (uint8_t b : raw)
            out.byte(b);
        return;
    }
    if (fixedCost <= dynCost) {
        out.put(1, 2);  // BTYPE=01
        fixed.litCodes = streamCodes(fixed.litLens);
        fixed.distCodes = streamCodes(fixed.distLens);
        emitTokens(out, tokens, fixed);
        return;
    }
    out.put(2, 2);  // BTYPE=10
    out.put(hlit - 257, 5);
    out.put(hdist - 1, 5);
    out.put(hclen - 4, 4);
    for (int i = 0; i < hclen; ++i)
        out.put(clcLens[clcOrder[i]], 3);
    for (const auto &item : rle) {
        out.put(clcCodes[item.symbol] |
                    static_cast<uint32_t>(item.extra)
                        << clcLens[item.symbol],
                clcLens[item.symbol] + item.extraBits);
    }
    dyn.litCodes = streamCodes(dyn.litLens);
    dyn.distCodes = streamCodes(dyn.distLens);
    emitTokens(out, tokens, dyn);
}

/**
 * The raw DEFLATE stream of @p data from its token stream, given as
 * pieces in stream order. The tokens split into blocks of
 * tokensPerBlock, so each gets Huffman codes fitted to its local
 * statistics; a block may span pieces.
 */
std::vector<uint8_t>
deflateTokens(std::span<const uint8_t> data, const Lz77Pieces &tokens)
{
    util::BitWriter out;
    if (data.empty()) {
        // A single empty stored block.
        out.put(1, 1);
        out.put(0, 2);
        out.alignToByte();
        out.byte(0);
        out.byte(0);
        out.byte(0xff);
        out.byte(0xff);
        return out.take();
    }

    constexpr size_t tokensPerBlock = 32768;
    size_t rawStart = 0;
    size_t part = 0, at = 0;  // next token: tokens[part][at]
    Lz77Pieces block;
    while (part < tokens.size()) {
        block.clear();
        size_t count = 0, rawLen = 0;
        while (count < tokensPerBlock && part < tokens.size()) {
            std::span<const Lz77Token> piece = tokens[part].subspan(
                at, std::min(tokens[part].size() - at,
                             tokensPerBlock - count));
            for (const Lz77Token &tok : piece)
                rawLen += tok.isLiteral() ? 1 : tok.length;
            block.push_back(piece);
            count += piece.size();
            at += piece.size();
            if (at == tokens[part].size()) {
                ++part;
                at = 0;
            }
        }
        bool final = part == tokens.size();
        emitBlock(out, block, data.subspan(rawStart, rawLen), final);
        rawStart += rawLen;
    }
    FCC_ASSERT(rawStart == data.size(),
               "token stream does not cover the input");
    return out.take();
}

/** The zlib container around @p body, the raw stream of @p data. */
std::vector<uint8_t>
zlibWrap(std::span<const uint8_t> data, std::span<const uint8_t> body)
{
    std::vector<uint8_t> out;
    out.reserve(body.size() + 6);
    out.push_back(0x78);  // CM=8, CINFO=7 (32K window)
    out.push_back(0x9c);  // FCHECK making the pair % 31 == 0
    out.insert(out.end(), body.begin(), body.end());
    uint32_t adler = util::Adler32::of(data);
    out.push_back(static_cast<uint8_t>(adler >> 24));
    out.push_back(static_cast<uint8_t>(adler >> 16));
    out.push_back(static_cast<uint8_t>(adler >> 8));
    out.push_back(static_cast<uint8_t>(adler));
    return out;
}

} // namespace

std::vector<uint8_t>
deflateCompress(std::span<const uint8_t> data)
{
    std::vector<Lz77Token> tokens = lz77Tokenize(data);
    return deflateTokens(data, {tokens});
}

std::vector<uint8_t>
inflate(std::span<const uint8_t> data, size_t sizeHint)
{
    return InflateStream(data).readAll(sizeHint);
}

namespace {

/** gzipDecompress's first output allocation, per payload byte. */
constexpr size_t gzipFirstExpansion = 16;

/**
 * Inflate a container payload that must end exactly where the
 * DEFLATE stream does (the checksum trailer follows it).
 */
std::vector<uint8_t>
inflateExact(std::span<const uint8_t> payload, size_t sizeHint,
             const char *trailingMessage)
{
    InflateStream stream(payload);
    auto out = stream.readAll(sizeHint);
    util::require(stream.compressedBytesConsumed() == payload.size(),
                  trailingMessage);
    return out;
}

} // namespace

std::vector<uint8_t>
zlibCompress(std::span<const uint8_t> data)
{
    return zlibWrap(data, deflateCompress(data));
}

std::vector<uint8_t>
zlibCompress(Lz77SegmentedParse &parse)
{
    return zlibWrap(parse.data(),
                    deflateTokens(parse.data(), parse.stitch()));
}

std::vector<uint8_t>
zlibDecompress(std::span<const uint8_t> data, size_t sizeHint)
{
    util::require(data.size() >= 6, "zlib: stream too short");
    uint8_t cmf = data[0], flg = data[1];
    util::require((cmf & 0x0f) == 8, "zlib: not deflate");
    util::require((static_cast<unsigned>(cmf) * 256 + flg) % 31 == 0,
                  "zlib: bad header check");
    util::require(!(flg & 0x20), "zlib: preset dictionary unsupported");
    auto body = inflateExact(data.subspan(2, data.size() - 6), sizeHint,
                             "zlib: data between stream and trailer");
    const uint8_t *t = data.data() + data.size() - 4;
    uint32_t expect = static_cast<uint32_t>(t[0]) << 24 |
                      static_cast<uint32_t>(t[1]) << 16 |
                      static_cast<uint32_t>(t[2]) << 8 | t[3];
    util::require(util::Adler32::of(body) == expect,
                  "zlib: Adler-32 mismatch");
    return body;
}

std::vector<uint8_t>
gzipCompress(std::span<const uint8_t> data)
{
    std::vector<uint8_t> out = {
        0x1f, 0x8b,  // magic
        8,           // CM = deflate
        0,           // FLG
        0, 0, 0, 0,  // MTIME
        0,           // XFL
        255,         // OS = unknown
    };
    auto body = deflateCompress(data);
    out.insert(out.end(), body.begin(), body.end());
    uint32_t crc = util::Crc32::of(data);
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<uint8_t>(crc >> (8 * i)));
    uint32_t isize = static_cast<uint32_t>(data.size());
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<uint8_t>(isize >> (8 * i)));
    return out;
}

std::vector<uint8_t>
gzipDecompress(std::span<const uint8_t> data)
{
    util::require(data.size() >= 18, "gzip: stream too short");
    size_t pos = gzipHeaderSize(data);
    util::require(data.size() >= pos + 8, "gzip: truncated member");

    const uint8_t *t = data.data() + data.size() - 8;
    uint32_t crc = 0, isize = 0;
    for (int i = 0; i < 4; ++i) {
        crc |= static_cast<uint32_t>(t[i]) << (8 * i);
        isize |= static_cast<uint32_t>(t[4 + i]) << (8 * i);
    }
    // ISIZE is whatever 4 bytes end the input until the stream checks
    // out: a cut or corrupt member must not size (and zero-fill) an
    // output of up to 1032 times its length. The first allocation
    // stops at gzipFirstExpansion times the payload; a member that
    // expands further grows its output as it decodes.
    std::span<const uint8_t> payload =
        data.subspan(pos, data.size() - pos - 8);
    size_t hint = std::min<size_t>(
        isize, gzipFirstExpansion * payload.size() + 65536);
    auto body = inflateExact(payload, hint,
                             "gzip: data between stream and trailer");
    util::require(util::Crc32::of(body) == crc,
                  "gzip: CRC-32 mismatch");
    util::require(static_cast<uint32_t>(body.size()) == isize,
                  "gzip: length mismatch");
    return body;
}

std::vector<uint8_t>
GzipTraceCompressor::compress(const trace::Trace &trace) const
{
    return gzipCompress(trace::writeTsh(trace));
}

trace::Trace
GzipTraceCompressor::decompress(std::span<const uint8_t> data) const
{
    return trace::readTsh(gzipDecompress(data));
}

} // namespace fcc::codec::deflate
