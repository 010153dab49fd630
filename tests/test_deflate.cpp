/**
 * @file
 * DEFLATE / zlib / gzip codec tests: round trips over adversarial
 * inputs, cross-validation against system zlib in both directions,
 * conformance of the inflater on zlib streams of every level,
 * strategy and window size and on hand-built edge-case blocks,
 * streaming reads, container integrity checks, and corrupt- and
 * truncated-stream handling checked against zlib's verdicts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "codec/deflate/deflate.hpp"
#include "codec/deflate/huffman.hpp"
#include "codec/deflate/inflate_stream.hpp"
#include "codec/deflate/lz77.hpp"
#include "codec/deflate/rfc1951.hpp"
#include "trace/pcapng.hpp"
#include "trace/scenario_gen.hpp"
#include "trace/tsh.hpp"
#include "trace/web_gen.hpp"
#include "util/bytes.hpp"
#include "util/bitstream.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/io.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include "test_common.hpp"

#if __has_include(<zlib.h>)
#include <zlib.h>
#define FCC_HAVE_ZLIB 1
#endif

namespace fd = fcc::codec::deflate;

namespace {

std::vector<uint8_t>
bytesOf(const std::string &s)
{
    return std::vector<uint8_t>(s.begin(), s.end());
}

/** Deterministic pseudo-random buffer. */
std::vector<uint8_t>
randomBytes(size_t n, uint32_t seed, int alphabet = 256)
{
    std::mt19937 gen(seed);
    std::uniform_int_distribution<int> dist(0, alphabet - 1);
    std::vector<uint8_t> out(n);
    for (auto &b : out)
        b = static_cast<uint8_t>(dist(gen));
    return out;
}

/**
 * The bits of @p bytes from stream bit @p pos on, LSB first and zero
 * padded past the end: the window HuffmanDecoder::lookup() decodes.
 */
uint64_t
streamBitsFrom(const std::vector<uint8_t> &bytes, size_t pos)
{
    uint64_t bits = 0;
    for (size_t i = 0; i < 56 && (pos + i) / 8 < bytes.size(); ++i) {
        size_t bit = pos + i;
        bits |= uint64_t{(bytes[bit / 8] >> (bit % 8)) & 1u} << i;
    }
    return bits;
}

/** Decode @p count symbols of @p bytes, one lookup() each, and
 *  check that they use up the stream's whole bytes. */
std::vector<int>
lookupAll(const fd::HuffmanDecoder &decoder,
          const std::vector<uint8_t> &bytes, size_t count)
{
    std::vector<int> out;
    size_t pos = 0;
    for (size_t k = 0; k < count; ++k) {
        fd::HuffmanDecoder::Symbol s =
            decoder.lookup(streamBitsFrom(bytes, pos));
        EXPECT_NE(s.length, 0u) << "invalid code at bit " << pos;
        if (s.length == 0)
            break;
        out.push_back(static_cast<int>(s.symbol));
        pos += s.length;
    }
    EXPECT_EQ((pos + 7) / 8, bytes.size());
    return out;
}

/** Text-like compressible buffer. */
std::vector<uint8_t>
repetitiveBytes(size_t n)
{
    static const std::string phrase =
        "the quick brown fox jumps over the lazy dog. ";
    std::vector<uint8_t> out;
    out.reserve(n);
    while (out.size() < n)
        out.push_back(
            static_cast<uint8_t>(phrase[out.size() % phrase.size()]));
    return out;
}

void
expectRoundTrip(const std::vector<uint8_t> &data)
{
    auto compressed = fd::deflateCompress(data);
    auto restored = fd::inflate(compressed);
    ASSERT_EQ(restored.size(), data.size());
    EXPECT_EQ(restored, data);
}

} // namespace

// ---- LZ77 ------------------------------------------------------------

TEST(Lz77, EmptyInputYieldsNoTokens)
{
    EXPECT_TRUE(fd::lz77Tokenize({}).empty());
}

TEST(Lz77, AllLiteralsForShortInput)
{
    auto data = bytesOf("ab");
    auto tokens = fd::lz77Tokenize(data);
    ASSERT_EQ(tokens.size(), 2u);
    EXPECT_TRUE(tokens[0].isLiteral());
    EXPECT_TRUE(tokens[1].isLiteral());
}

TEST(Lz77, FindsRepetition)
{
    auto data = bytesOf("abcabcabcabcabc");
    auto tokens = fd::lz77Tokenize(data);
    bool sawMatch = false;
    for (const auto &tok : tokens)
        sawMatch |= !tok.isLiteral();
    EXPECT_TRUE(sawMatch);
}

TEST(Lz77, TokensReconstructInput)
{
    auto data = randomBytes(5000, 42, 4);  // small alphabet: matches
    auto tokens = fd::lz77Tokenize(data);
    std::vector<uint8_t> rebuilt;
    for (const auto &tok : tokens) {
        if (tok.isLiteral()) {
            rebuilt.push_back(static_cast<uint8_t>(tok.length));
        } else {
            ASSERT_GE(tok.distance, 1);
            ASSERT_LE(tok.distance, rebuilt.size());
            ASSERT_GE(tok.length, fd::minMatch);
            ASSERT_LE(tok.length, fd::maxMatch);
            size_t from = rebuilt.size() - tok.distance;
            for (size_t i = 0; i < tok.length; ++i)
                rebuilt.push_back(rebuilt[from + i]);
        }
    }
    EXPECT_EQ(rebuilt, data);
}

TEST(Lz77, RunOfOneByteUsesOverlappingMatch)
{
    std::vector<uint8_t> data(1000, 'x');
    auto tokens = fd::lz77Tokenize(data);
    // 1 literal plus a few long overlapping matches.
    EXPECT_LT(tokens.size(), 10u);
}

namespace {

/** Tokens as comparable (length, distance) pairs. */
std::vector<std::pair<uint16_t, uint16_t>>
tokenPairs(std::span<const fd::Lz77Token> tokens)
{
    std::vector<std::pair<uint16_t, uint16_t>> out;
    out.reserve(tokens.size());
    for (const fd::Lz77Token &tok : tokens)
        out.emplace_back(tok.length, tok.distance);
    return out;
}

/** The stitched token stream of a segmented parse of @p data. */
std::vector<std::pair<uint16_t, uint16_t>>
segmentedTokens(const std::vector<uint8_t> &data,
                std::vector<size_t> starts,
                size_t overrun = fd::lz77SegmentOverrun)
{
    fd::Lz77SegmentedParse parse(data, std::move(starts), overrun);
    // Last segment first: the stitch must not depend on parse order.
    for (size_t k = parse.segments(); k-- > 0;)
        parse.parseSegment(k);
    std::vector<std::pair<uint16_t, uint16_t>> out;
    for (std::span<const fd::Lz77Token> piece : parse.stitch()) {
        auto pairs = tokenPairs(piece);
        out.insert(out.end(), pairs.begin(), pairs.end());
    }
    return out;
}

/** Inputs for the segmented-parse tests, by name. */
std::vector<std::pair<std::string, std::vector<uint8_t>>>
segmentInputs()
{
    std::vector<std::pair<std::string, std::vector<uint8_t>>> in;
    in.emplace_back("empty", std::vector<uint8_t>{});
    in.emplace_back("1 byte", bytesOf("a"));
    in.emplace_back("2 bytes", bytesOf("ab"));
    in.emplace_back("3 bytes", bytesOf("aaa"));
    std::vector<uint8_t> runs(3000, 'x');
    runs.push_back('y');
    runs.insert(runs.end(), 70000, 'z');
    in.emplace_back("runs past 258", runs);
    in.emplace_back("random", randomBytes(100000, 7));
    in.emplace_back("small alphabet", randomBytes(100000, 8, 4));
    in.emplace_back("text", repetitiveBytes(80000));
    for (size_t period : {fd::windowSize - 1, fd::windowSize,
                          fd::windowSize + 1}) {
        std::vector<uint8_t> block = randomBytes(period, 9);
        std::vector<uint8_t> periodic;
        for (int copy = 0; copy < 3; ++copy)
            periodic.insert(periodic.end(), block.begin(), block.end());
        in.emplace_back("period " + std::to_string(period), periodic);
    }
    return in;
}

} // namespace

TEST(Lz77, EvenStartsSpreadOverTheInput)
{
    EXPECT_EQ(fd::lz77EvenStarts(0, 4), std::vector<size_t>{0});
    EXPECT_EQ(fd::lz77EvenStarts(3, 16), (std::vector<size_t>{0, 1, 2}));
    EXPECT_EQ(fd::lz77EvenStarts(10, 0), std::vector<size_t>{0});
    EXPECT_EQ(fd::lz77EvenStarts(10, 4),
              (std::vector<size_t>{0, 2, 5, 7}));
    size_t huge = SIZE_MAX - 1;
    std::vector<size_t> starts = fd::lz77EvenStarts(huge, 7);
    ASSERT_EQ(starts.size(), 7u);
    for (size_t k = 1; k < starts.size(); ++k)
        EXPECT_GT(starts[k], starts[k - 1]);
    EXPECT_LT(starts.back(), huge);
}

TEST(Lz77, SegmentedParseMatchesSerial)
{
    // Smoke mode (the TSan job) keeps every fourth segment count.
    size_t step = fcc::test::smokeTests() ? 4 : 1;
    for (const auto &[name, data] : segmentInputs()) {
        auto serial = tokenPairs(fd::lz77Tokenize(data));
        for (size_t segments = 1; segments <= 16; segments += step) {
            SCOPED_TRACE(name + ", " + std::to_string(segments) +
                         " segments");
            EXPECT_EQ(segmentedTokens(
                          data, fd::lz77EvenStarts(data.size(), segments)),
                      serial);
            // A short overrun syncs some seams and falls back on
            // others; the tokens stay the serial ones either way.
            EXPECT_EQ(segmentedTokens(
                          data, fd::lz77EvenStarts(data.size(), segments),
                          64),
                      serial);
        }
    }
}

TEST(Lz77, SegmentSeamsInsideMatchesAndAtTheEnd)
{
    for (const auto &[name, data] : segmentInputs()) {
        size_t n = data.size();
        if (n < 8)
            continue;
        SCOPED_TRACE(name);
        std::vector<fd::Lz77Token> tokens = fd::lz77Tokenize(data);
        auto serial = tokenPairs(tokens);
        // Seams at the start of every 97th match (the segment's
        // first token must see the whole window before it) and one
        // byte into every 97th other (the segments must resync),
        // plus seams at n - 2 and n - 1.
        std::vector<size_t> starts{0};
        size_t pos = 0, matches = 0;
        for (const fd::Lz77Token &tok : tokens) {
            if (!tok.isLiteral()) {
                size_t at = matches % 97 == 0    ? pos
                            : matches % 97 == 48 ? pos + 1
                                                 : 0;
                if (at > starts.back() && at < n - 2)
                    starts.push_back(at);
                ++matches;
            }
            pos += tok.isLiteral() ? 1 : tok.length;
        }
        starts.push_back(n - 2);
        starts.push_back(n - 1);
        EXPECT_EQ(segmentedTokens(data, starts), serial);
        EXPECT_EQ(segmentedTokens(data, {0, n - 1}), serial);
        EXPECT_EQ(segmentedTokens(data, {0, n - 2}), serial);
        // A seam at a match reaching back a whole window: the
        // segment must index the window's first position too.
        pos = 0;
        for (const fd::Lz77Token &tok : tokens) {
            if (tok.distance == fd::windowSize) {
                EXPECT_EQ(segmentedTokens(data, {0, pos}), serial);
                break;
            }
            pos += tok.isLiteral() ? 1 : tok.length;
        }
    }
}

TEST(Lz77, SegmentJoinsTheSerialStreamAfterItsPredecessor)
{
    // Segment 1 starts inside a run's first match, so its 258-byte
    // matches sit one byte off the serial ones until the run ends.
    // Segment 2 starts on segment 1's own off-serial path: the two
    // share starts at once, but the stitch may switch to segment 2
    // only where segment 1 has joined the serial stream.
    std::vector<uint8_t> data = randomBytes(1000, 11);
    data.insert(data.end(), 5000, 'z');
    std::vector<uint8_t> tail = randomBytes(3000, 12);
    data.insert(data.end(), tail.begin(), tail.end());
    auto serial = tokenPairs(fd::lz77Tokenize(data));
    EXPECT_EQ(segmentedTokens(data, {0, 1002, 1002 + fd::maxMatch}, 8192),
              serial);
}

TEST(Lz77, SegmentFallbackKeepsSerialTokens)
{
    // No overrun: no seam can find a shared start, so every
    // segmented parse with a seam takes the serial fallback.
    for (const auto &[name, data] : segmentInputs()) {
        auto serial = tokenPairs(fd::lz77Tokenize(data));
        for (size_t segments : {2u, 16u}) {
            SCOPED_TRACE(name + ", " + std::to_string(segments) +
                         " segments");
            EXPECT_EQ(segmentedTokens(
                          data, fd::lz77EvenStarts(data.size(), segments),
                          0),
                      serial);
        }
    }
}

TEST(Lz77, SegmentedZlibMatchesSerialBytes)
{
    // The segments parse concurrently, as the columnar encoder runs
    // them.
    fcc::util::ThreadPool pool(4);
    for (const auto &[name, data] : segmentInputs()) {
        std::vector<uint8_t> serial = fd::zlibCompress(data);
        for (size_t segments : {1u, 3u, 4u, 16u}) {
            for (size_t overrun : {fd::lz77SegmentOverrun, size_t{0}}) {
                SCOPED_TRACE(name + ", " + std::to_string(segments) +
                             " segments, overrun " +
                             std::to_string(overrun));
                fd::Lz77SegmentedParse parse(
                    data, fd::lz77EvenStarts(data.size(), segments),
                    overrun);
                pool.parallelFor(parse.segments(), [&](size_t k) {
                    parse.parseSegment(k);
                });
                EXPECT_EQ(fd::zlibCompress(parse), serial);
            }
        }
    }
}

// ---- Huffman ---------------------------------------------------------

TEST(Huffman, SingleSymbolGetsOneBit)
{
    std::vector<uint64_t> freq(10, 0);
    freq[3] = 100;
    auto lens = fd::buildCodeLengths(freq, 15);
    EXPECT_EQ(lens[3], 1);
    for (size_t i = 0; i < lens.size(); ++i) {
        if (i != 3) {
            EXPECT_EQ(lens[i], 0) << i;
        }
    }
}

TEST(Huffman, KraftEqualityForCompleteCode)
{
    std::vector<uint64_t> freq = {50, 30, 10, 5, 3, 2, 1, 1};
    auto lens = fd::buildCodeLengths(freq, 15);
    double kraft = 0;
    for (uint8_t len : lens)
        if (len)
            kraft += std::pow(2.0, -static_cast<double>(len));
    EXPECT_DOUBLE_EQ(kraft, 1.0);
}

TEST(Huffman, RespectsMaxBits)
{
    // Fibonacci-ish frequencies force deep unconstrained trees.
    std::vector<uint64_t> freq;
    uint64_t a = 1, b = 1;
    for (int i = 0; i < 30; ++i) {
        freq.push_back(a);
        uint64_t next = a + b;
        a = b;
        b = next;
    }
    auto lens = fd::buildCodeLengths(freq, 9);
    for (uint8_t len : lens) {
        EXPECT_GE(len, 1);
        EXPECT_LE(len, 9);
    }
    double kraft = 0;
    for (uint8_t len : lens)
        kraft += std::pow(2.0, -static_cast<double>(len));
    EXPECT_LE(kraft, 1.0 + 1e-12);
}

TEST(Huffman, OptimalityMatchesEntropyOrdering)
{
    // More frequent symbols never get longer codes.
    std::vector<uint64_t> freq = {100, 50, 25, 12, 6, 3, 1};
    auto lens = fd::buildCodeLengths(freq, 15);
    for (size_t i = 1; i < freq.size(); ++i)
        EXPECT_LE(lens[i - 1], lens[i]);
}

TEST(Huffman, CanonicalCodesAreGapFree)
{
    std::vector<uint8_t> lens = {3, 3, 3, 3, 3, 2, 4, 4};
    auto codes = fd::canonicalCodes(lens);
    // RFC 1951 example: verify prefix-freeness via decode table.
    fd::HuffmanDecoder decoder(lens);
    EXPECT_EQ(decoder.usedSymbols(), 8u);
}

TEST(Huffman, DecoderRejectsOversubscribed)
{
    std::vector<uint8_t> lens = {1, 1, 1};
    EXPECT_THROW(fd::HuffmanDecoder d(lens), fcc::util::Error);
}

TEST(Huffman, DecoderRejectsIncompleteExceptSingleOneBitCode)
{
    std::vector<uint8_t> lens = {2, 2, 2};  // one slot missing
    EXPECT_THROW(fd::HuffmanDecoder d(lens), fcc::util::Error);
    std::vector<uint8_t> lone = {0, 2, 0};
    EXPECT_THROW(fd::HuffmanDecoder d(lone), fcc::util::Error);
    std::vector<uint8_t> oneBit = {0, 1, 0};
    EXPECT_NO_THROW(fd::HuffmanDecoder d(oneBit));
    std::vector<uint8_t> empty = {0, 0};
    EXPECT_NO_THROW(fd::HuffmanDecoder d(empty));
}

TEST(Huffman, RoundTripThroughBitstream)
{
    std::vector<uint64_t> freq = {40, 30, 20, 10, 5, 5, 3, 2, 1};
    auto lens = fd::buildCodeLengths(freq, 15);
    auto codes = fd::canonicalCodes(lens);
    fd::HuffmanDecoder decoder(lens);

    std::vector<int> message = {0, 1, 2, 8, 7, 3, 0, 0, 5, 4, 6, 2};
    fcc::util::BitWriter w;
    for (int sym : message)
        w.putHuff(codes[sym], lens[sym]);
    auto bits = w.take();
    EXPECT_EQ(lookupAll(decoder, bits, message.size()), message);
}

TEST(Huffman, TiedWeightsKeepTheirLengths)
{
    // Package-merge breaks ties by the order std::sort and
    // std::merge leave equal weights in, so the lengths below pin
    // that order, not just optimality. Recorded from the encoder
    // that built each package as a copied vector of its leaves.
    std::vector<uint64_t> small = {3, 1, 1, 0, 3, 1, 1, 3, 0, 1,
                                   1, 3, 1, 1, 0, 1, 3, 1, 1};
    const std::vector<uint8_t> smallLens = {3, 5, 5, 0, 3, 5, 5, 3, 0, 5,
                                           5, 3, 5, 5, 0, 5, 3, 5, 4};
    EXPECT_EQ(fd::buildCodeLengths(small, 7), smallLens);

    // The literal/length alphabet with four weights and gaps, at
    // the limit the encoder uses (15) and a binding one (9).
    std::vector<uint64_t> wide(fd::numLitCodes);
    for (size_t sym = 0; sym < wide.size(); ++sym)
        wide[sym] = sym % 11 == 0  ? 0
                    : sym % 5 == 0 ? 4096
                                   : 1 + sym % 3;
    auto crcOf = [](const std::vector<uint8_t> &lens) {
        return fcc::util::Crc32::of(lens);
    };
    auto wide15 = fd::buildCodeLengths(wide, 15);
    auto wide9 = fd::buildCodeLengths(wide, 9);
    EXPECT_GT(*std::max_element(wide15.begin(), wide15.end()), 9);
    EXPECT_EQ(crcOf(wide15), 0x001A3B12u);
    EXPECT_EQ(crcOf(wide9), 0xB839153Eu);
}

// ---- deflate round trips ----------------------------------------------

TEST(Deflate, EmptyInput)
{
    expectRoundTrip({});
}

TEST(Deflate, OneByte)
{
    expectRoundTrip({0x42});
}

TEST(Deflate, ShortText)
{
    expectRoundTrip(bytesOf("hello, deflate"));
}

TEST(Deflate, AllByteValues)
{
    std::vector<uint8_t> data(256);
    for (int i = 0; i < 256; ++i)
        data[i] = static_cast<uint8_t>(i);
    expectRoundTrip(data);
}

TEST(Deflate, LongRun)
{
    expectRoundTrip(std::vector<uint8_t>(100000, 0xaa));
}

TEST(Deflate, RepetitiveTextCompressesWell)
{
    auto data = repetitiveBytes(50000);
    auto compressed = fd::deflateCompress(data);
    EXPECT_LT(compressed.size(), data.size() / 10);
    EXPECT_EQ(fd::inflate(compressed), data);
}

TEST(Deflate, IncompressibleRandomData)
{
    auto data = randomBytes(65536, 7);
    auto compressed = fd::deflateCompress(data);
    // Stored blocks keep the expansion tiny.
    EXPECT_LT(compressed.size(), data.size() + 64);
    EXPECT_EQ(fd::inflate(compressed), data);
}

TEST(Deflate, MultiBlockInput)
{
    auto data = randomBytes(1 << 20, 13, 16);
    expectRoundTrip(data);
}

TEST(Deflate, MatchesAcrossBlockBoundary)
{
    // Repetition straddling the 32768-token block split.
    auto head = randomBytes(300000, 5, 8);
    std::vector<uint8_t> data = head;
    data.insert(data.end(), head.begin(), head.begin() + 20000);
    expectRoundTrip(data);
}

struct DeflateSweepParam
{
    size_t size;
    int alphabet;
};

class DeflateSweep
    : public ::testing::TestWithParam<DeflateSweepParam>
{};

TEST_P(DeflateSweep, RoundTrip)
{
    auto [size, alphabet] = GetParam();
    auto data = randomBytes(size, static_cast<uint32_t>(size + alphabet),
                            alphabet);
    expectRoundTrip(data);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndAlphabets, DeflateSweep,
    ::testing::Values(DeflateSweepParam{1, 2},
                      DeflateSweepParam{2, 2},
                      DeflateSweepParam{3, 2},
                      DeflateSweepParam{257, 2},
                      DeflateSweepParam{1000, 2},
                      DeflateSweepParam{1000, 3},
                      DeflateSweepParam{4096, 5},
                      DeflateSweepParam{32768, 7},
                      DeflateSweepParam{32769, 7},
                      DeflateSweepParam{65535, 11},
                      DeflateSweepParam{65536, 17},
                      DeflateSweepParam{65537, 31},
                      DeflateSweepParam{200000, 64},
                      DeflateSweepParam{200000, 250}));

// ---- corrupt stream handling -------------------------------------------

TEST(Deflate, RejectsTruncatedStream)
{
    auto compressed = fd::deflateCompress(repetitiveBytes(10000));
    compressed.resize(compressed.size() / 2);
    EXPECT_THROW(fd::inflate(compressed), fcc::util::Error);
}

TEST(Deflate, RejectsReservedBlockType)
{
    // BFINAL=1, BTYPE=3 (reserved).
    std::vector<uint8_t> bad = {0x07};
    EXPECT_THROW(fd::inflate(bad), fcc::util::Error);
}

TEST(Deflate, RejectsBadStoredLength)
{
    // Stored block whose NLEN is not ~LEN.
    std::vector<uint8_t> bad = {0x01, 0x05, 0x00, 0x00, 0x00};
    EXPECT_THROW(fd::inflate(bad), fcc::util::Error);
}

// ---- containers --------------------------------------------------------

TEST(Zlib, RoundTrip)
{
    auto data = repetitiveBytes(20000);
    EXPECT_EQ(fd::zlibDecompress(fd::zlibCompress(data)), data);
}

TEST(Zlib, DetectsCorruptChecksum)
{
    auto stream = fd::zlibCompress(bytesOf("payload"));
    stream.back() ^= 0xff;
    EXPECT_THROW(fd::zlibDecompress(stream), fcc::util::Error);
}

TEST(Gzip, RoundTrip)
{
    auto data = randomBytes(30000, 21, 40);
    EXPECT_EQ(fd::gzipDecompress(fd::gzipCompress(data)), data);
}

TEST(Gzip, DetectsCorruptCrc)
{
    auto stream = fd::gzipCompress(bytesOf("payload"));
    stream[stream.size() - 5] ^= 0xff;
    EXPECT_THROW(fd::gzipDecompress(stream), fcc::util::Error);
}

TEST(Gzip, RejectsBadMagic)
{
    auto stream = fd::gzipCompress(bytesOf("payload"));
    stream[0] = 0;
    EXPECT_THROW(fd::gzipDecompress(stream), fcc::util::Error);
}

#ifdef FCC_HAVE_ZLIB
// ---- cross-validation against system zlib ------------------------------

TEST(ZlibInterop, SystemZlibInflatesOurStreams)
{
    auto data = repetitiveBytes(150000);
    auto ours = fd::zlibCompress(data);

    std::vector<uint8_t> out(data.size());
    uLongf outLen = out.size();
    int rc = ::uncompress(out.data(), &outLen, ours.data(),
                          static_cast<uLong>(ours.size()));
    ASSERT_EQ(rc, Z_OK);
    out.resize(outLen);
    EXPECT_EQ(out, data);
}

TEST(ZlibInterop, WeInflateSystemZlibStreams)
{
    auto data = randomBytes(150000, 99, 30);
    uLongf bound = ::compressBound(static_cast<uLong>(data.size()));
    std::vector<uint8_t> theirs(bound);
    int rc = ::compress2(theirs.data(), &bound, data.data(),
                         static_cast<uLong>(data.size()), 9);
    ASSERT_EQ(rc, Z_OK);
    theirs.resize(bound);
    EXPECT_EQ(fd::zlibDecompress(theirs), data);
}

TEST(ZlibInterop, RandomBuffersBothDirections)
{
    for (uint32_t seed = 1; seed <= 6; ++seed) {
        auto data = randomBytes(20000 + seed * 7777, seed,
                                seed % 2 ? 5 : 200);

        auto ours = fd::zlibCompress(data);
        std::vector<uint8_t> out(data.size());
        uLongf outLen = out.size();
        ASSERT_EQ(::uncompress(out.data(), &outLen, ours.data(),
                               static_cast<uLong>(ours.size())),
                  Z_OK);
        out.resize(outLen);
        EXPECT_EQ(out, data) << "seed " << seed;

        uLongf bound = ::compressBound(
            static_cast<uLong>(data.size()));
        std::vector<uint8_t> theirs(bound);
        ASSERT_EQ(::compress2(theirs.data(), &bound, data.data(),
                              static_cast<uLong>(data.size()), 6),
                  Z_OK);
        theirs.resize(bound);
        EXPECT_EQ(fd::zlibDecompress(theirs), data)
            << "seed " << seed;
    }
}

// ---- conformance against system zlib -----------------------------------

namespace {

enum class Wrap
{
    Raw,
    Zlib,
    Gzip
};

/** Compress with system zlib; windowBits 9..15. */
std::vector<uint8_t>
zlibDeflate(const std::vector<uint8_t> &data, int level, int strategy,
            int windowBits, Wrap wrap)
{
    z_stream zs{};
    int wb = wrap == Wrap::Raw    ? -windowBits
             : wrap == Wrap::Gzip ? windowBits + 16
                                  : windowBits;
    EXPECT_EQ(::deflateInit2(&zs, level, Z_DEFLATED, wb, 8, strategy),
              Z_OK);
    std::vector<uint8_t> out(
        ::deflateBound(&zs, static_cast<uLong>(data.size())) + 64);
    zs.next_in = const_cast<Bytef *>(data.data());
    zs.avail_in = static_cast<uInt>(data.size());
    zs.next_out = out.data();
    zs.avail_out = static_cast<uInt>(out.size());
    EXPECT_EQ(::deflate(&zs, Z_FINISH), Z_STREAM_END);
    out.resize(zs.total_out);
    ::deflateEnd(&zs);
    return out;
}

/**
 * Decompress with system zlib. Accepts only a stream that ends
 * exactly at the end of @p data — the same contract as ours.
 */
std::optional<std::vector<uint8_t>>
zlibInflate(std::span<const uint8_t> data, Wrap wrap)
{
    z_stream zs{};
    int wb = wrap == Wrap::Raw ? -15 : wrap == Wrap::Gzip ? 31 : 15;
    if (::inflateInit2(&zs, wb) != Z_OK)
        return std::nullopt;
    std::vector<uint8_t> out;
    uint8_t buf[1 << 14];
    zs.next_in = const_cast<Bytef *>(data.data());
    zs.avail_in = static_cast<uInt>(data.size());
    int rc;
    do {
        zs.next_out = buf;
        zs.avail_out = sizeof(buf);
        rc = ::inflate(&zs, Z_NO_FLUSH);
        out.insert(out.end(), buf, buf + (sizeof(buf) - zs.avail_out));
    } while (rc == Z_OK);
    bool ok = rc == Z_STREAM_END && zs.avail_in == 0;
    ::inflateEnd(&zs);
    if (!ok)
        return std::nullopt;
    return out;
}

/** Our decoder for @p wrap; nullopt when it throws util::Error. */
std::optional<std::vector<uint8_t>>
ourInflate(std::span<const uint8_t> data, Wrap wrap)
{
    try {
        switch (wrap) {
          case Wrap::Raw:
            return fd::inflate(data);
          case Wrap::Zlib:
            return fd::zlibDecompress(data);
          case Wrap::Gzip:
            return fd::gzipDecompress(data);
        }
    } catch (const fcc::util::Error &) {
    }
    return std::nullopt;
}

/** Mixed corpus: text, small-alphabet noise, runs, raw noise. */
std::vector<uint8_t>
conformanceCorpus()
{
    auto out = repetitiveBytes(40000);
    auto noisy = randomBytes(30000, 5, 6);
    out.insert(out.end(), noisy.begin(), noisy.end());
    out.insert(out.end(), 5000, 0);
    auto raw = randomBytes(8000, 6);
    out.insert(out.end(), raw.begin(), raw.end());
    auto text = repetitiveBytes(20000);
    out.insert(out.end(), text.begin(), text.end());
    return out;
}

/**
 * Final dynamic-Huffman block header for the given code lengths. All
 * code lengths go out as 4-bit code-length literals (no repeats).
 */
void
putDynamicHeader(fcc::util::BitWriter &w, const std::vector<uint8_t> &litLens,
                 const std::vector<uint8_t> &distLens)
{
    w.put(1, 1);  // BFINAL
    w.put(2, 2);  // BTYPE=10
    w.put(static_cast<uint32_t>(litLens.size() - 257), 5);
    w.put(static_cast<uint32_t>(distLens.size() - 1), 5);
    w.put(19 - 4, 4);  // HCLEN
    // Code-length code: symbols 0..15 at 4 bits each (complete).
    std::vector<uint8_t> clcLens(19, 0);
    for (int sym = 0; sym < 16; ++sym)
        clcLens[sym] = 4;
    auto clcCodes = fd::canonicalCodes(clcLens);
    for (int i = 0; i < 19; ++i)
        w.put(clcLens[fd::clcOrder[i]], 3);
    for (uint8_t len : litLens)
        w.putHuff(clcCodes[len], 4);
    for (uint8_t len : distLens)
        w.putHuff(clcCodes[len], 4);
}

/** Bit-level builder of fixed-Huffman DEFLATE blocks. */
class FixedBlockWriter
{
  public:
    FixedBlockWriter()
        : litLens_(fd::fixedLitLengths()),
          litCodes_(fd::canonicalCodes(litLens_)),
          distCodes_(fd::canonicalCodes(fd::fixedDistLengths()))
    {
        out_.put(1, 1);  // BFINAL
        out_.put(1, 2);  // BTYPE=01
    }

    void literal(uint8_t b)
    {
        out_.putHuff(litCodes_[b], litLens_[b]);
        expect_.push_back(b);
    }

    void match(uint32_t len, uint32_t dist)
    {
        int li = 28;
        while (fd::lengthBase[li] > len)
            --li;
        out_.putHuff(litCodes_[257 + li], litLens_[257 + li]);
        out_.put(len - fd::lengthBase[li], fd::lengthExtra[li]);
        int di = 29;
        while (fd::distBase[di] > dist)
            --di;
        out_.putHuff(distCodes_[di], 5);
        out_.put(dist - fd::distBase[di], fd::distExtra[di]);
        for (uint32_t i = 0; i < len; ++i)
            expect_.push_back(expect_[expect_.size() - dist]);
    }

    /** End the block; returns the stream and the bytes it encodes. */
    std::pair<std::vector<uint8_t>, std::vector<uint8_t>> finish()
    {
        out_.putHuff(litCodes_[fd::endOfBlock],
                     litLens_[fd::endOfBlock]);
        return {out_.take(), expect_};
    }

  private:
    std::vector<uint8_t> litLens_;
    std::vector<uint16_t> litCodes_, distCodes_;
    fcc::util::BitWriter out_;
    std::vector<uint8_t> expect_;
};

/** Inflate from an exactly sized heap copy so ASan sees over-reads. */
std::optional<std::vector<uint8_t>>
inflateExactCopy(std::span<const uint8_t> data, Wrap wrap)
{
    std::unique_ptr<uint8_t[]> heap(new uint8_t[data.size()]);
    std::copy(data.begin(), data.end(), heap.get());
    return ourInflate({heap.get(), data.size()}, wrap);
}

} // namespace

TEST(InflateConformance, ZlibLevelsStrategiesAndWindows)
{
    const auto data = conformanceCorpus();
    const int levels[] = {0, 1, 6, 9};
    const int strategies[] = {Z_DEFAULT_STRATEGY, Z_FIXED,
                              Z_HUFFMAN_ONLY, Z_RLE};
    for (int level : levels) {
        for (int strategy : strategies) {
            for (int wb = 9; wb <= 15; ++wb) {
                auto raw = zlibDeflate(data, level, strategy, wb,
                                       Wrap::Raw);
                auto theirs = zlibInflate(raw, Wrap::Raw);
                ASSERT_TRUE(theirs.has_value());
                ASSERT_EQ(*theirs, data);
                EXPECT_EQ(fd::inflate(raw), data)
                    << "level " << level << " strategy " << strategy
                    << " windowBits " << wb;
                EXPECT_EQ(fd::zlibDecompress(zlibDeflate(
                              data, level, strategy, wb, Wrap::Zlib)),
                          data);
            }
        }
    }
}

TEST(InflateConformance, GzipMembersFromZlib)
{
    const auto data = conformanceCorpus();
    for (int level : {0, 1, 6, 9}) {
        auto gz = zlibDeflate(data, level, Z_DEFAULT_STRATEGY, 15,
                              Wrap::Gzip);
        EXPECT_EQ(fd::gzipDecompress(gz), data) << "level " << level;
    }
}

TEST(InflateConformance, FifteenBitLiteralCodeUsesSubtable)
{
    // Dynamic block whose literal/length code is 13 literals of
    // lengths 1..13, a length symbol of 14 bits and two 15-bit codes
    // (one literal, end-of-block): complete, and the deepest codes
    // are longer than the decoder's primary table.
    std::vector<uint8_t> litLens(258, 0);
    for (int i = 0; i < 13; ++i)
        litLens['A' + i] = static_cast<uint8_t>(i + 1);
    litLens[257] = 14;  // match length 3
    litLens['Z'] = 15;
    litLens[fd::endOfBlock] = 15;
    auto litCodes = fd::canonicalCodes(litLens);
    ASSERT_GT(15, fd::HuffmanDecoder::primaryBits);

    fcc::util::BitWriter w;
    // One distance code (symbol 0, distance 1) of one bit.
    putDynamicHeader(w, litLens, {1});

    std::vector<uint8_t> expect;
    for (int i = 0; i < 13; ++i) {
        w.putHuff(litCodes['A' + i], litLens['A' + i]);
        expect.push_back(static_cast<uint8_t>('A' + i));
    }
    w.putHuff(litCodes['Z'], 15);
    expect.push_back('Z');
    w.putHuff(litCodes[257], 14);  // length 3, no extra bits
    w.putHuff(0, 1);               // distance code 0
    expect.insert(expect.end(), 3, 'Z');
    w.putHuff(litCodes['Z'], 15);
    expect.push_back('Z');
    w.putHuff(litCodes[fd::endOfBlock], 15);
    auto stream = w.take();

    auto theirs = zlibInflate(stream, Wrap::Raw);
    ASSERT_TRUE(theirs.has_value());
    EXPECT_EQ(*theirs, expect);
    EXPECT_EQ(fd::inflate(stream), expect);

    // The same code through the decoder's table lookup.
    fd::HuffmanDecoder decoder(litLens);
    fcc::util::BitWriter sw;
    const std::vector<int> message = {'Z', 'A', fd::endOfBlock, 257,
                                      'M', 'Z'};
    for (int sym : message)
        sw.putHuff(litCodes[sym], litLens[sym]);
    auto bits = sw.take();
    EXPECT_EQ(lookupAll(decoder, bits, message.size()), message);
}

TEST(InflateConformance, OverlappingMatchesAndFarthestDistance)
{
    FixedBlockWriter fw;
    auto noise = randomBytes(32768, 11);
    for (uint8_t b : noise)
        fw.literal(b);
    fw.match(258, 32768);  // exactly the window
    for (uint32_t dist = 1; dist <= 8; ++dist) {
        fw.literal(static_cast<uint8_t>(0xa0 + dist));
        fw.match(258, dist);  // source overlaps destination
        fw.match(3, dist);
    }
    fw.match(258, 9);
    fw.match(258, 32768);
    auto [stream, expect] = fw.finish();

    auto theirs = zlibInflate(stream, Wrap::Raw);
    ASSERT_TRUE(theirs.has_value());
    ASSERT_EQ(*theirs, expect);
    EXPECT_EQ(fd::inflate(stream), expect);

    // The same stream through decode() in steps of about 333 bytes:
    // matches resume across the calls' caps.
    fd::InflateStream chunked(stream);
    std::vector<uint8_t> got(expect.size() + fd::InflateStream::symbolRoom);
    size_t pos = 0;
    while (!chunked.finished() && !chunked.error())
        pos = chunked.decode(
            got.data(), pos,
            std::min(got.size(), pos + 333 + fd::InflateStream::symbolRoom));
    EXPECT_FALSE(chunked.error());
    got.resize(pos);
    EXPECT_EQ(got, expect);
}

TEST(InflateConformance, DistanceBeyondOutputRejected)
{
    FixedBlockWriter fw;
    for (int i = 0; i < 10; ++i)
        fw.literal('x');
    fw.match(3, 10);  // fine: reaches the first byte
    auto ok = fw.finish().first;
    EXPECT_NO_THROW(fd::inflate(ok));

    // Hand-encode distance 11 (one past the output) with the fixed
    // code: symbol 6 (base 9, 2 extra bits) + extra 2.
    fcc::util::BitWriter w;
    auto lits = fd::canonicalCodes(fd::fixedLitLengths());
    auto litLens = fd::fixedLitLengths();
    w.put(1, 1);
    w.put(1, 2);
    for (int i = 0; i < 10; ++i)
        w.putHuff(lits['x'], litLens['x']);
    w.putHuff(lits[257], litLens[257]);  // length 3
    w.putHuff(6, 5);
    w.put(2, 2);
    w.putHuff(lits[fd::endOfBlock], litLens[fd::endOfBlock]);
    std::vector<uint8_t> bad = w.take();
    EXPECT_THROW(fd::inflate(bad), fcc::util::Error);

    // With 32 bytes of input after it, the match is decoded by the
    // fast symbol loop, which must reject it too.
    bad.resize(bad.size() + 32);
    EXPECT_THROW(fd::inflate(bad), fcc::util::Error);
}

TEST(InflateConformance, FixedCodeReservedSymbolsRejected)
{
    // Each symbol followed by 2 bytes of padding (decoded by the
    // checked loop) and by 32 (decoded by the fast symbol loop).
    auto litLens = fd::fixedLitLengths();
    auto lits = fd::canonicalCodes(litLens);
    for (int padBytes : {2, 32}) {
        for (int sym : {286, 287}) {
            fcc::util::BitWriter w;
            w.put(1, 1);
            w.put(1, 2);
            w.putHuff(lits['a'], litLens['a']);
            w.putHuff(lits[sym], litLens[sym]);
            for (int i = 0; i < padBytes; ++i)
                w.put(0, 8);
            EXPECT_THROW(fd::inflate(w.take()), fcc::util::Error)
                << sym << " pad " << padBytes;
        }
        for (int dsym : {30, 31}) {
            fcc::util::BitWriter w;
            w.put(1, 1);
            w.put(1, 2);
            w.putHuff(lits['a'], litLens['a']);
            w.putHuff(lits[257], litLens[257]);
            w.putHuff(static_cast<uint32_t>(dsym), 5);
            for (int i = 0; i < padBytes; ++i)
                w.put(0, 8);
            EXPECT_THROW(fd::inflate(w.take()), fcc::util::Error)
                << dsym << " pad " << padBytes;
        }
    }
}

TEST(InflateConformance, IncompleteCodesFollowZlib)
{
    // Literal/length code: 'a' (1 bit), end-of-block and length 3
    // (2 bits each). Only a single one-bit distance code may be
    // incomplete; zlib and puff reject every other incomplete code.
    std::vector<uint8_t> litLens(258, 0);
    litLens['a'] = 1;
    litLens[fd::endOfBlock] = 2;
    litLens[257] = 2;
    auto litCodes = fd::canonicalCodes(litLens);
    struct Case
    {
        std::vector<uint8_t> distLens;
        bool valid;
    };
    const Case cases[] = {
        {{1}, true},      // single one-bit code
        {{0}, true},      // no distance codes (literals only)
        {{2}, false},     // single two-bit code
        {{1, 2}, false},  // two codes, one slot unused
        {{2, 2, 2}, false},
    };
    for (const auto &c : cases) {
        fcc::util::BitWriter w;
        putDynamicHeader(w, litLens, c.distLens);
        w.putHuff(litCodes['a'], 1);
        w.putHuff(litCodes[fd::endOfBlock], 2);
        auto stream = w.take();
        EXPECT_EQ(zlibInflate(stream, Wrap::Raw).has_value(), c.valid);
        EXPECT_EQ(ourInflate(stream, Wrap::Raw).has_value(), c.valid)
            << "distance code of " << c.distLens.size() << " lengths";
    }

    // The unused pattern of an accepted one-bit code is an invalid
    // code: a distance '1' after 'a' and length 3, and a literal '1'
    // when end-of-block is the only literal/length code. With 32
    // bytes after it the fast symbol loop decodes it.
    std::vector<uint8_t> eobOnly(257, 0);
    eobOnly[fd::endOfBlock] = 1;
    for (int padBytes : {0, 32}) {
        fcc::util::BitWriter dist, lit;
        putDynamicHeader(dist, litLens, {1});
        dist.putHuff(litCodes['a'], 1);
        dist.putHuff(litCodes[257], 2);
        dist.put(1, 1);
        putDynamicHeader(lit, eobOnly, {0});
        lit.put(1, 1);
        for (int i = 0; i < padBytes; ++i) {
            dist.put(0, 8);
            lit.put(0, 8);
        }
        for (const auto &stream : {dist.take(), lit.take()}) {
            EXPECT_FALSE(zlibInflate(stream, Wrap::Raw).has_value());
            EXPECT_FALSE(ourInflate(stream, Wrap::Raw).has_value())
                << "pad " << padBytes;
        }
    }
}

TEST(InflateConformance, ContainerChecksFollowZlib)
{
    const auto data = repetitiveBytes(5000);
    // Reserved gzip flag bits (RFC 1952: must be rejected).
    for (int bit = 5; bit < 8; ++bit) {
        auto gz = fd::gzipCompress(data);
        gz[3] |= static_cast<uint8_t>(1u << bit);
        EXPECT_FALSE(zlibInflate(gz, Wrap::Gzip).has_value());
        EXPECT_FALSE(ourInflate(gz, Wrap::Gzip).has_value()) << bit;
    }
    // A byte between the end of the DEFLATE stream and the trailer.
    auto z = fd::zlibCompress(data);
    z.insert(z.end() - 4, 0);
    EXPECT_FALSE(zlibInflate(z, Wrap::Zlib).has_value());
    EXPECT_FALSE(ourInflate(z, Wrap::Zlib).has_value());
    auto gz = fd::gzipCompress(data);
    gz.insert(gz.end() - 8, 0);
    EXPECT_FALSE(zlibInflate(gz, Wrap::Gzip).has_value());
    EXPECT_FALSE(ourInflate(gz, Wrap::Gzip).has_value());
}

// ---- streaming reads ------------------------------------------------------

namespace {

std::vector<uint8_t>
drainGzip(const std::vector<uint8_t> &gz, size_t readSize)
{
    fd::GzipInflateSource src(
        std::make_unique<fcc::util::BufferByteSource>(
            std::span<const uint8_t>(gz)));
    std::vector<uint8_t> out, buf(readSize);
    size_t n;
    while ((n = src.read(buf.data(), readSize)) > 0)
        out.insert(out.end(), buf.begin(), buf.begin() + n);
    return out;
}

} // namespace

TEST(InflateStreaming, ReadSizesMatchOneShot)
{
    const auto data = conformanceCorpus();
    std::vector<std::vector<uint8_t>> members = {
        fd::gzipCompress(data),
        zlibDeflate(data, 0, Z_DEFAULT_STRATEGY, 15, Wrap::Gzip),
        zlibDeflate(data, 1, Z_FIXED, 12, Wrap::Gzip),
        zlibDeflate(data, 9, Z_DEFAULT_STRATEGY, 15, Wrap::Gzip),
    };
    for (const auto &gz : members) {
        auto oneShot = fd::gzipDecompress(gz);
        ASSERT_EQ(oneShot, data);
        for (size_t readSize : {1, 7, 4096, 65536})
            EXPECT_EQ(drainGzip(gz, readSize), oneShot)
                << "read size " << readSize;
    }
}

TEST(InflateStreaming, ConcatenatedMembersSplitAcrossReads)
{
    auto a = conformanceCorpus();
    auto b = randomBytes(70001, 3, 9);
    std::vector<uint8_t> c = {'!'};
    std::vector<std::vector<uint8_t>> parts = {
        fd::gzipCompress(a),
        zlibDeflate(b, 6, Z_DEFAULT_STRATEGY, 15, Wrap::Gzip),
        zlibDeflate(c, 0, Z_DEFAULT_STRATEGY, 15, Wrap::Gzip),
        fd::gzipCompress({}),
        zlibDeflate(a, 9, Z_RLE, 15, Wrap::Gzip),
    };
    std::vector<uint8_t> gz, expect;
    for (const auto &member : parts) {
        gz.insert(gz.end(), member.begin(), member.end());
        auto body = fd::gzipDecompress(member);
        expect.insert(expect.end(), body.begin(), body.end());
    }
    for (size_t readSize : {1, 7, 4096, 65536})
        EXPECT_EQ(drainGzip(gz, readSize), expect)
            << "read size " << readSize;
}

// ---- robustness: truncation and bit flips vs zlib's verdict -------------

namespace {

struct MutationStream
{
    std::vector<uint8_t> bytes;
    Wrap wrap;
};

std::vector<MutationStream>
mutationStreams()
{
    auto data = repetitiveBytes(3000);
    auto noise = randomBytes(2500, 17, 12);
    data.insert(data.end(), noise.begin(), noise.end());
    data.insert(data.end(), 300, 'z');
    return {
        {zlibDeflate(data, 6, Z_DEFAULT_STRATEGY, 15, Wrap::Zlib),
         Wrap::Zlib},
        {zlibDeflate(data, 1, Z_FIXED, 15, Wrap::Zlib), Wrap::Zlib},
        {zlibDeflate(data, 0, Z_DEFAULT_STRATEGY, 15, Wrap::Zlib),
         Wrap::Zlib},
        {zlibDeflate(data, 9, Z_HUFFMAN_ONLY, 15, Wrap::Gzip),
         Wrap::Gzip},
        {fd::gzipCompress(data), Wrap::Gzip},
        {fd::zlibCompress(data), Wrap::Zlib},
    };
}

} // namespace

TEST(InflateRobustness, EveryTruncationIsAnError)
{
    // Each prefix sits in an exactly sized heap block, so the input
    // ends at every possible offset of a refill; under ASan any read
    // past it fails the test.
    auto streams = mutationStreams();
    for (size_t i = 0, n = streams.size(); i < n; ++i) {
        // The bare DEFLATE stream too: no checksum to fall back on.
        if (streams[i].wrap == Wrap::Zlib) {
            const auto &z = streams[i].bytes;
            streams.push_back(
                {std::vector<uint8_t>(z.begin() + 2, z.end() - 4),
                 Wrap::Raw});
        }
    }
    for (const auto &s : streams) {
        ASSERT_TRUE(inflateExactCopy(s.bytes, s.wrap).has_value());
        for (size_t len = 0; len < s.bytes.size(); ++len) {
            std::span<const uint8_t> prefix(s.bytes.data(), len);
            ASSERT_FALSE(zlibInflate(prefix, s.wrap).has_value());
            EXPECT_FALSE(inflateExactCopy(prefix, s.wrap).has_value())
                << "prefix " << len << " of " << s.bytes.size();
        }
    }
}

TEST(InflateRobustness, BitFlipsMatchZlibVerdict)
{
    auto streams = mutationStreams();
    std::mt19937 rng(20051);
    int accepted = 0;
    for (int trial = 0; trial < 2000; ++trial) {
        const auto &s = streams[trial % streams.size()];
        auto bytes = s.bytes;
        size_t bit = rng() % (8 * bytes.size());
        bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        auto theirs = zlibInflate(bytes, s.wrap);
        auto ours = inflateExactCopy(bytes, s.wrap);
        ASSERT_EQ(ours.has_value(), theirs.has_value())
            << "trial " << trial << " bit " << bit;
        if (ours) {
            EXPECT_EQ(*ours, *theirs) << "trial " << trial;
            ++accepted;
        }
    }
    // Header fields no checksum covers (gzip MTIME/XFL/OS) flip
    // harmlessly; everything else must fail a check.
    EXPECT_LT(accepted, 200);
}

TEST(InflateRobustness, LastByteMidRefill)
{
    // Streams of every length class mod 8 read from exactly sized
    // heap blocks: the bit buffer's word loads must stop short of
    // the end and finish byte by byte.
    for (size_t n = 1; n <= 64; ++n) {
        auto data = randomBytes(n * 37, static_cast<uint32_t>(n), 7);
        for (int level : {0, 1, 9}) {
            auto raw = zlibDeflate(data, level, Z_DEFAULT_STRATEGY, 15,
                                   Wrap::Raw);
            auto ours = inflateExactCopy(raw, Wrap::Raw);
            ASSERT_TRUE(ours.has_value()) << n << " level " << level;
            EXPECT_EQ(*ours, data);
        }
    }
}

TEST(Deflate, EncoderKnownAnswerBytes)
{
    // Size and CRC-32 of the encoder's raw, zlib and gzip output,
    // recorded from the encoder before its per-block code tables,
    // 64-bit bit buffer and one-window chain ring. A failure here is
    // an output change, not a speed regression. System zlib must
    // inflate every stream back to its input.
    fcc::util::Rng rng(0x5EED);
    auto randomOf = [&rng](size_t n) {
        std::vector<uint8_t> out(n);
        for (auto &b : out)
            b = static_cast<uint8_t>(rng.next());
        return out;
    };

    std::vector<uint8_t> incompressible = randomOf(100000);
    std::vector<uint8_t> window = randomOf(fd::windowSize);
    std::vector<uint8_t> repeated;
    for (int copy = 0; copy < 3; ++copy)
        repeated.insert(repeated.end(), window.begin(), window.end());

    std::vector<uint8_t> manyTokens(256 * 1024);
    for (auto &b : manyTokens)
        b = static_cast<uint8_t>("acgt"[rng.next() & 3]);

    fcc::trace::WebGenConfig web;
    web.seed = 20;
    web.durationSec = 4.0;
    std::vector<uint8_t> tsh = fcc::trace::writeTsh(
        fcc::trace::WebTrafficGenerator(web).generate());
    ASSERT_GE(tsh.size(), 200000u);
    tsh.resize(200000);

    struct Answer
    {
        const char *name;
        std::vector<uint8_t> data;
        size_t deflateBytes;
        uint32_t deflateCrc;
        size_t zlibBytes;
        uint32_t zlibCrc;
        size_t gzipBytes;
        uint32_t gzipCrc;
    };
    const Answer answers[] = {
        {"empty", {},
         5, 0x4564CC52u, 11, 0xBA2D22A8u, 23, 0xA5E050F2u},
        {"one byte", {0x5a},
         3, 0x20174FF1u, 9, 0x8ED482F3u, 21, 0xAC10EA51u},
        {"100 KB incompressible", incompressible,
         100020, 0xDF2AD07Bu, 100026, 0x9A1AAEB3u, 100038, 0xCDA265ADu},
        {"1 MB of zeros", std::vector<uint8_t>(1 << 20, 0),
         1032, 0xB5189D96u, 1038, 0x8A36AC4Cu, 1050, 0xDCC16017u},
        {"32 KiB random, three times", repeated,
         33367, 0xCE97C6DEu, 33373, 0xE0C48FF8u, 33385, 0x8075D6BBu},
        {"over 32768 tokens", manyTokens,
         77090, 0x37780F02u, 77096, 0xB2A36058u, 77108, 0x0283F0BBu},
        {"web TSH slice", tsh,
         91726, 0x6784B8E2u, 91732, 0x3C594DB6u, 91744, 0x1956DFF4u},
    };

    // The inputs reach the edges they are named for: a match at
    // distance 32768 (the ring's edge) and more than one block.
    auto farthest = fd::lz77Tokenize(repeated);
    EXPECT_TRUE(std::any_of(farthest.begin(), farthest.end(),
                            [](const fd::Lz77Token &t) {
                                return t.distance == fd::windowSize;
                            }));
    EXPECT_GT(fd::lz77Tokenize(manyTokens).size(), 32768u);

    for (const Answer &a : answers) {
        SCOPED_TRACE(a.name);
        auto raw = fd::deflateCompress(a.data);
        auto zlib = fd::zlibCompress(a.data);
        auto gzip = fd::gzipCompress(a.data);
        EXPECT_EQ(raw.size(), a.deflateBytes);
        EXPECT_EQ(fcc::util::Crc32::of(raw), a.deflateCrc);
        EXPECT_EQ(zlib.size(), a.zlibBytes);
        EXPECT_EQ(fcc::util::Crc32::of(zlib), a.zlibCrc);
        EXPECT_EQ(gzip.size(), a.gzipBytes);
        EXPECT_EQ(fcc::util::Crc32::of(gzip), a.gzipCrc);
        EXPECT_EQ(zlibInflate(raw, Wrap::Raw), a.data);
        EXPECT_EQ(zlibInflate(zlib, Wrap::Zlib), a.data);
        EXPECT_EQ(zlibInflate(gzip, Wrap::Gzip), a.data);
    }
}
// ---- gzip source: differential against the serial decoder ---------------

namespace {

/**
 * The serial reference for GzipInflateSource: each member's deflate
 * stream decoded in order by one InflateStream into one growing
 * buffer, then its trailer checked. Returns every byte decoded before
 * the first error, whose message lands in @p error (empty when the
 * input is good).
 */
std::vector<uint8_t>
serialGunzip(std::span<const uint8_t> gz, std::string &error)
{
    std::vector<uint8_t> out;
    error.clear();
    try {
        size_t pos = fd::gzipHeaderSize(gz);
        for (;;) {
            fd::InflateStream in(gz.subspan(pos));
            const size_t begin = out.size();
            size_t end = begin;
            while (!in.finished() && !in.error()) {
                out.resize(std::max<size_t>(2 * out.size(), end + 65536));
                end = begin + in.decode(out.data() + begin, end - begin,
                                        out.size() - begin);
            }
            out.resize(end);
            if (in.error())
                std::rethrow_exception(in.error());
            pos += in.compressedBytesConsumed();
            fcc::util::require(gz.size() - pos >= 8,
                               "gzip: truncated member trailer");
            std::span<const uint8_t> body(out.data() + begin, end - begin);
            fcc::util::require(fcc::util::Crc32::of(body) ==
                                   fcc::util::loadLe32(gz.data() + pos),
                               "gzip: CRC-32 mismatch");
            fcc::util::require(static_cast<uint32_t>(body.size()) ==
                                   fcc::util::loadLe32(gz.data() + pos + 4),
                               "gzip: length mismatch");
            pos += 8;
            if (pos == gz.size())
                break;
            pos += fd::gzipHeaderSize(gz.subspan(pos));
        }
    } catch (const fcc::util::Error &e) {
        error = e.what();
    }
    return out;
}

/** Drain the source in @p readSize reads; the error lands in @p error. */
std::vector<uint8_t>
drainGzipUntilError(const std::vector<uint8_t> &gz, size_t readSize,
                    std::string &error)
{
    std::vector<uint8_t> out, buf(readSize);
    error.clear();
    try {
        fd::GzipInflateSource src(
            std::make_unique<fcc::util::BufferByteSource>(
                std::span<const uint8_t>(gz)));
        size_t n;
        while ((n = src.read(buf.data(), readSize)) > 0)
            out.insert(out.end(), buf.begin(), buf.begin() + n);
    } catch (const fcc::util::Error &e) {
        error = e.what();
    }
    return out;
}

/** An elephants-style capture of @p flows long flows as pcapng. */
std::vector<uint8_t>
elephantsPcapng(uint32_t flows)
{
    fcc::trace::ScenarioConfig cfg = fcc::trace::scenarioDefaults(
        fcc::trace::ScenarioKind::Elephants, 2005);
    cfg.flows = flows;
    cfg.durationSec = 10.0;
    return fcc::trace::writePcapng(
        fcc::trace::ScenarioGenerator(cfg).generate());
}

/** A web trace as TSH. */
std::vector<uint8_t>
webTsh(double seconds)
{
    fcc::trace::WebGenConfig cfg;
    cfg.seed = 2005;
    cfg.durationSec = seconds;
    cfg.flowsPerSec = 200.0;
    return fcc::trace::writeTsh(
        fcc::trace::WebTrafficGenerator(cfg).generate());
}

/**
 * Random bytes where every byte but one in sixteen repeats the byte
 * 32768 back: matches at the farthest distance, across every slot
 * boundary of the read-ahead ring.
 */
std::vector<uint8_t>
farMatches(size_t n)
{
    auto out = randomBytes(n, 77);
    for (size_t i = fd::windowSize; i < n; ++i)
        if (i % 16 != 0)
            out[i] = out[i - fd::windowSize];
    return out;
}

/** GzipInflateSource's read-ahead ring: 4 slots of 256 KiB decoded. */
constexpr size_t slotBytes = size_t{1} << 18;
constexpr size_t ringBytes = 4 * slotBytes;

} // namespace

TEST(GzipSource, MultiSlotMembersMatchOneShot)
{
    const bool smoke = fcc::test::smokeTests();
    // Several times the ring, so every slot is reused.
    const auto pcapng = elephantsPcapng(smoke ? 300 : 600);
    const auto tsh = webTsh(smoke ? 8.0 : 20.0);
    const auto far =
        farMatches(smoke ? (size_t{3} << 20) : (size_t{6} << 20));
    struct Member
    {
        std::string name;
        std::vector<uint8_t> gz;
    };
    std::vector<Member> members = {
        {"ours pcapng", fd::gzipCompress(pcapng)},
        {"ours tsh", fd::gzipCompress(tsh)},
        {"zlib 1",
         zlibDeflate(pcapng, 1, Z_DEFAULT_STRATEGY, 15, Wrap::Gzip)},
        {"zlib 6",
         zlibDeflate(pcapng, 6, Z_DEFAULT_STRATEGY, 15, Wrap::Gzip)},
        {"zlib 9", zlibDeflate(tsh, 9, Z_DEFAULT_STRATEGY, 15, Wrap::Gzip)},
        {"zlib fixed", zlibDeflate(tsh, 6, Z_FIXED, 15, Wrap::Gzip)},
        {"zlib huffman only",
         zlibDeflate(tsh, 6, Z_HUFFMAN_ONLY, 15, Wrap::Gzip)},
        {"zlib rle", zlibDeflate(pcapng, 6, Z_RLE, 15, Wrap::Gzip)},
        {"stored", zlibDeflate(tsh, 0, Z_DEFAULT_STRATEGY, 15, Wrap::Gzip)},
        {"far matches",
         zlibDeflate(far, 6, Z_DEFAULT_STRATEGY, 15, Wrap::Gzip)},
    };
    for (const Member &m : members) {
        SCOPED_TRACE(m.name);
        const auto oneShot = fd::gzipDecompress(m.gz);
        ASSERT_GT(oneShot.size(), 3 * slotBytes);
        for (size_t readSize : {size_t{1}, size_t{4096}, size_t{1} << 20}) {
            if (readSize == 1 && smoke && oneShot.size() > 4 * ringBytes)
                continue;
            EXPECT_TRUE(drainGzip(m.gz, readSize) == oneShot)
                << "read size " << readSize;
        }
    }

    // Concatenated members of mixed sizes: members of many slots, and
    // members that start and end inside one slot.
    std::vector<uint8_t> gz, expect;
    auto append = [&](const std::vector<uint8_t> &member) {
        gz.insert(gz.end(), member.begin(), member.end());
        auto body = fd::gzipDecompress(member);
        expect.insert(expect.end(), body.begin(), body.end());
    };
    append(members[0].gz);
    append(fd::gzipCompress(randomBytes(5000, 3, 9)));
    append(fd::gzipCompress({}));
    append(members[4].gz);
    append(zlibDeflate(randomBytes(70001, 4, 12), 6, Z_DEFAULT_STRATEGY, 15,
                       Wrap::Gzip));
    append(members[9].gz);
    for (size_t readSize : {size_t{4096}, size_t{1} << 20})
        EXPECT_TRUE(drainGzip(gz, readSize) == expect)
            << "read size " << readSize;
}

TEST(GzipSource, DeflateStreamsInStoredDataKeepTheBytes)
{
    // Stored blocks whose payload is one dynamic-block DEFLATE stream
    // after another: plausible block headers that are not block
    // starts of this member.
    auto text = repetitiveBytes(200000);
    auto noise = randomBytes(50000, 5, 20);
    text.insert(text.end(), noise.begin(), noise.end());
    auto payload = zlibDeflate(text, 9, Z_DEFAULT_STRATEGY, 15, Wrap::Raw);
    std::vector<uint8_t> data;
    while (data.size() < 3 * ringBytes)
        data.insert(data.end(), payload.begin(), payload.end());
    auto gz = zlibDeflate(data, 0, Z_DEFAULT_STRATEGY, 15, Wrap::Gzip);
    auto oneShot = fd::gzipDecompress(gz);
    ASSERT_EQ(oneShot, data);
    for (size_t readSize : {size_t{4096}, size_t{1} << 20})
        EXPECT_TRUE(drainGzip(gz, readSize) == oneShot)
            << "read size " << readSize;

    // The same inside our own member, between its dynamic blocks.
    auto mixed = repetitiveBytes(300000);
    mixed.insert(mixed.end(), data.begin(), data.end());
    auto ours = fd::gzipCompress(mixed);
    EXPECT_TRUE(drainGzip(ours, size_t{1} << 16) == mixed);
}

TEST(GzipSource, MutationsMatchTheSerialDecoder)
{
    // Bit flips, truncations and splices of a multi-slot member. The
    // source must read exactly what the serial decoder reads: the same
    // bytes and no error, or the bytes before the serial decoder's
    // error and then that error. gzipDecompress must agree on the
    // verdict.
    const bool smoke = fcc::test::smokeTests();
    const auto base = fd::gzipCompress(elephantsPcapng(140));
    std::string error;
    const auto plain = serialGunzip(base, error);
    ASSERT_EQ(error, "");
    ASSERT_GT(plain.size(), ringBytes);  // past every slot of the ring
    ASSERT_EQ(plain, fd::gzipDecompress(base));

    std::mt19937 rng(20050);
    const int trials = smoke ? 200 : 2000;
    int failures = 0;
    for (int trial = 0; trial < trials; ++trial) {
        std::vector<uint8_t> gz = base;
        switch (trial % 3) {
          case 0:  // one to three bit flips
            for (unsigned f = 0, n = 1 + rng() % 3; f < n; ++f) {
                size_t bit = rng() % (8 * gz.size());
                gz[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
            }
            break;
          case 1:  // a cut
            gz.resize(rng() % gz.size());
            break;
          default: {  // a run of the member copied over another place
            size_t len = 1 + rng() % 4096;
            size_t from = rng() % (gz.size() - len);
            size_t to = rng() % (gz.size() - len);
            std::copy(base.begin() + static_cast<long>(from),
                      base.begin() + static_cast<long>(from + len),
                      gz.begin() + static_cast<long>(to));
            break;
          }
        }
        std::string want, got;
        auto serial = serialGunzip(gz, want);
        auto streamed = drainGzipUntilError(gz, 65536, got);
        ASSERT_EQ(got, want) << "trial " << trial;
        ASSERT_TRUE(streamed == serial)
            << "trial " << trial << ": " << streamed.size() << " vs "
            << serial.size() << " bytes";
        failures += !want.empty();
        if (trial % 3 == 1) {
            ASSERT_NE(want, "") << "trial " << trial;  // a cut fails
        }
        auto oneShot = ourInflate(gz, Wrap::Gzip);
        ASSERT_EQ(oneShot.has_value(), want.empty()) << "trial " << trial;
        if (oneShot) {
            ASSERT_TRUE(*oneShot == serial) << "trial " << trial;
        }
    }
    // Most mutations must fail a check.
    EXPECT_GT(failures, trials / 2);
}

#endif  // FCC_HAVE_ZLIB
