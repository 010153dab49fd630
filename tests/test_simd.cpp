/**
 * @file
 * The byte-level hot paths against independent references: varint
 * batches against ByteWriter/ByteReader, the column codecs against
 * varints written one at a time, CRC-32 against zlib's crc32(), each
 * range-coder lane against rangeCompress() of its slice, plus
 * known-answer constants for the range coder's bytes and the Bloom
 * build's no-false-negative guarantee — across random, boundary
 * (u64-max, maximum-length varints) and malformed inputs, and the
 * full compressor at 1/2/4/8 worker threads.
 */

#include <gtest/gtest.h>
#include <zlib.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "codec/backend/range_coder.hpp"
#include "codec/fcc/fcc_codec.hpp"
#include "codec/fcc/index.hpp"
#include "codec/field/field_codec.hpp"
#include "trace/scenario_gen.hpp"
#include "util/bytes.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

using namespace fcc;
namespace fccc = fcc::codec::fcc;
namespace field = fcc::codec::field;
namespace backend = fcc::codec::backend;

namespace {

/** A value whose varint length is drawn uniformly from 1..10. */
uint64_t
randomVarintValue(util::Rng &rng)
{
    unsigned bits = static_cast<unsigned>(rng.uniformInt(0, 63));
    uint64_t v = rng.next();
    return bits == 63 ? v : v & ((uint64_t{1} << (bits + 1)) - 1);
}

/** Reference varint encoding through the serial ByteWriter. */
std::vector<uint8_t>
referenceVarint(const std::vector<uint64_t> &values)
{
    util::ByteWriter w;
    for (uint64_t v : values)
        w.varint(v);
    return w.take();
}

/** "ok:<consumed>,<values>" or "error:<message>" of one decode. */
template <typename Decode>
std::string
outcome(size_t count, Decode decode)
{
    std::vector<uint64_t> out(count);
    try {
        size_t used = decode(out.data());
        std::string s("ok:");
        s.append(std::to_string(used));
        for (uint64_t v : out)
            s.append(",").append(std::to_string(v));
        return s;
    } catch (const util::Error &e) {
        return std::string("error:") + e.what();
    }
}

/** What varintDecodeBatch does with @p data. */
std::string
batchOutcome(const std::vector<uint8_t> &data, size_t count)
{
    return outcome(count, [&](uint64_t *out) {
        return util::varintDecodeBatch(data.data(), data.size(), out,
                                       count);
    });
}

/** What @p count ByteReader::varint() calls do with @p data. */
std::string
readerOutcome(const std::vector<uint8_t> &data, size_t count)
{
    return outcome(count, [&](uint64_t *out) {
        util::ByteReader r(data);
        for (size_t i = 0; i < count; ++i)
            out[i] = r.varint();
        return r.position();
    });
}

void
expectBatchMatchesReference(const std::vector<uint64_t> &values)
{
    std::vector<uint8_t> encoded;
    util::varintEncodeBatch(values, encoded);
    ASSERT_EQ(encoded, referenceVarint(values));
    EXPECT_EQ(encoded.size(), util::varintLenSum(values));

    // Appends after existing bytes, never over them.
    std::vector<uint8_t> appended{0xaa};
    util::varintEncodeBatch(values, appended);
    ASSERT_EQ(appended.size(), encoded.size() + 1);
    EXPECT_EQ(appended[0], 0xaa);
    EXPECT_TRUE(std::equal(encoded.begin(), encoded.end(),
                           appended.begin() + 1));

    std::vector<uint64_t> decoded(values.size());
    size_t used = util::varintDecodeBatch(
        encoded.data(), encoded.size(), decoded.data(), values.size());
    EXPECT_EQ(used, encoded.size());
    EXPECT_EQ(decoded, values);
}

/**
 * Field-codec bytes built one varint at a time, straight from the
 * FORMAT.md §4.2 codec table.
 */
std::vector<uint8_t>
referenceColumn(const std::vector<uint64_t> &values,
                field::FieldCodec codec)
{
    util::ByteWriter w;
    switch (codec) {
      case field::FieldCodec::Plain:
        for (uint64_t v : values)
            w.varint(v);
        break;
      case field::FieldCodec::ZigzagDelta: {
        uint64_t prev = 0;
        for (uint64_t v : values) {
            int64_t d = static_cast<int64_t>(v - prev);
            w.varint((static_cast<uint64_t>(d) << 1) ^
                     static_cast<uint64_t>(d >> 63));
            prev = v;
        }
        break;
      }
      case field::FieldCodec::Dict: {
        std::vector<uint64_t> dict;
        std::vector<uint64_t> refs;
        for (uint64_t v : values) {
            size_t k = 0;
            while (k < dict.size() && dict[k] != v)
                ++k;
            if (k == dict.size())
                dict.push_back(v);
            refs.push_back(k);
        }
        w.varint(dict.size());
        for (uint64_t v : dict)
            w.varint(v);
        for (uint64_t k : refs)
            w.varint(k);
        break;
      }
      case field::FieldCodec::Rle:
        ADD_FAILURE() << "no reference for rle";
        break;
    }
    return w.take();
}

/** Seeded, skewed bytes: the coder's model has something to learn. */
std::vector<uint8_t>
skewedBytes(size_t size, uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<uint8_t> data(size);
    for (auto &b : data)
        b = static_cast<uint8_t>(rng.uniformInt(0, 255) >>
                                 rng.uniformInt(0, 7));
    return data;
}

uint32_t
zlibCrc(std::span<const uint8_t> s)
{
    return static_cast<uint32_t>(
        crc32(0L, s.data(), static_cast<uInt>(s.size())));
}

} // namespace

// ---------------------------------------------------------------
// Varint batches
// ---------------------------------------------------------------

TEST(SimdVarint, BoundaryValues)
{
    expectBatchMatchesReference({});
    expectBatchMatchesReference({0});
    expectBatchMatchesReference({0x7f});
    expectBatchMatchesReference({0x80});
    expectBatchMatchesReference({0x3fff, 0x4000});
    expectBatchMatchesReference({UINT64_MAX});
    expectBatchMatchesReference({uint64_t{1} << 63});
    // Long runs of single-byte values hit the 8-at-a-time SWAR
    // paths; the +3 tail exercises the cleanup loop.
    std::vector<uint64_t> small(67, 0x42);
    expectBatchMatchesReference(small);
    // Max-length varints back to back, and mixed with tiny ones at
    // every alignment within the 8-value window.
    std::vector<uint64_t> mixed;
    for (size_t i = 0; i < 64; ++i)
        mixed.push_back(i % 9 == 0 ? UINT64_MAX : i % 7);
    expectBatchMatchesReference(mixed);
    // More than one 4096-value encode block.
    std::vector<uint64_t> blocks;
    for (size_t i = 0; i < 9000; ++i)
        blocks.push_back(i % 1000 == 999 ? UINT64_MAX : i % 100);
    expectBatchMatchesReference(blocks);
}

TEST(SimdVarint, RandomFuzz)
{
    util::Rng rng(0x51D0FEED);
    for (int round = 0; round < 50; ++round) {
        size_t n = static_cast<size_t>(rng.uniformInt(0, 300));
        std::vector<uint64_t> values;
        values.reserve(n);
        for (size_t i = 0; i < n; ++i) {
            // Mostly small (the SWAR sweet spot), sometimes huge.
            if (rng.uniformInt(0, 3) == 0)
                values.push_back(randomVarintValue(rng));
            else
                values.push_back(rng.uniformInt(0, 0x7f));
        }
        expectBatchMatchesReference(values);
    }
}

TEST(SimdVarint, MalformedRejectionParity)
{
    // The batch decoder and ByteReader::varint() must agree on
    // accept/reject, on the error text and on the decoded values —
    // including reads that end right at the buffer edge, where the
    // SWAR fast path must bail out.
    std::vector<std::pair<std::vector<uint8_t>, size_t>> cases;
    cases.push_back({{}, 1});              // empty, want one value
    cases.push_back({{0x80}, 1});          // truncated continuation
    cases.push_back({{0xff, 0xff}, 1});    // truncated longer
    // 10 continuation bytes and more: "varint too long".
    cases.push_back(
        {{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
          0x80, 0x01},
         1});
    // 10-byte varint whose top byte overflows 64 bits.
    cases.push_back(
        {{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
          0x02},
         1});
    // Exactly u64-max: valid, must decode on both.
    cases.push_back(
        {{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
          0x01},
         1});
    // 7 single-byte values then a truncated multi-byte one: the
    // 8-wide fast path sees no continuation bit only for the first
    // window, then the tail must fail identically.
    {
        std::vector<uint8_t> tail(7, 0x01);
        tail.push_back(0x80);
        cases.push_back({tail, 8});
    }
    // Trailing garbage after the requested count is NOT an error for
    // the batch API (it reports bytes consumed); parity still holds.
    cases.push_back({{0x05, 0x06, 0x07}, 2});

    util::Rng rng(0xBADC0DE5);
    for (int round = 0; round < 40; ++round) {
        std::vector<uint8_t> junk(
            static_cast<size_t>(rng.uniformInt(0, 40)));
        for (auto &b : junk)
            b = static_cast<uint8_t>(rng.uniformInt(0, 255));
        cases.push_back(
            {junk, static_cast<size_t>(rng.uniformInt(1, 12))});
    }

    for (const auto &[data, count] : cases)
        EXPECT_EQ(batchOutcome(data, count),
                  readerOutcome(data, count))
            << "input size " << data.size() << " count " << count;
}

// ---------------------------------------------------------------
// Field codecs (zigzag-delta, plain, dict through the batch paths)
// ---------------------------------------------------------------

TEST(SimdFieldCodec, MatchesOneVarintAtATimeReference)
{
    util::Rng rng(0x2005);
    const field::FieldCodec codecs[] = {field::FieldCodec::Plain,
                                        field::FieldCodec::ZigzagDelta,
                                        field::FieldCodec::Dict};
    for (int round = 0; round < 30; ++round) {
        size_t n = static_cast<size_t>(rng.uniformInt(0, 500));
        std::vector<uint64_t> values;
        values.reserve(n);
        uint64_t walk = rng.next();
        for (size_t i = 0; i < n; ++i) {
            // A random walk (zigzag's home turf) with occasional
            // wild jumps to u64 extremes.
            switch (rng.uniformInt(0, 9)) {
              case 0: walk = rng.next(); break;
              case 1: walk = UINT64_MAX; break;
              case 2: walk = 0; break;
              default: walk += rng.uniformInt(0, 1000) - 500; break;
            }
            values.push_back(walk);
        }
        for (field::FieldCodec fc : codecs) {
            auto encoded = field::encodeColumn(values, fc);
            ASSERT_EQ(encoded, referenceColumn(values, fc))
                << field::fieldCodecName(fc);
            EXPECT_EQ(field::encodedSize(values, fc), encoded.size())
                << field::fieldCodecName(fc);
            EXPECT_EQ(field::decodeColumn(encoded, fc, values.size()),
                      values)
                << field::fieldCodecName(fc);
        }
    }
}

TEST(SimdFieldCodec, TrailingBytesRejected)
{
    std::vector<uint64_t> values{1, 2, 3, 2};
    for (field::FieldCodec fc :
         {field::FieldCodec::Plain, field::FieldCodec::ZigzagDelta,
          field::FieldCodec::Dict}) {
        auto encoded = field::encodeColumn(values, fc);
        encoded.push_back(0x00);
        EXPECT_THROW(field::decodeColumn(encoded, fc, values.size()),
                     util::Error)
            << field::fieldCodecName(fc);
    }
}

// ---------------------------------------------------------------
// Range coder and its lane split
// ---------------------------------------------------------------

TEST(SimdRangeLanes, KnownAnswerBytes)
{
    // Size and CRC-32 of both range payloads, recorded from the
    // two-coder implementation this one replaced (BitWriter-based
    // tag 2, interleaved tag 3). Sizes cross every rangeLaneCount()
    // threshold: 1 lane, 4 lanes, 8 lanes.
    struct Answer
    {
        size_t size;
        size_t serialBytes;
        uint32_t serialCrc;
        size_t lanesBytes;
        uint32_t lanesCrc;
    };
    const Answer answers[] = {
        {1, 2, 0x9454EB98u, 3, 0x2B0E4A42u},
        {4095, 3090, 0x1238C29Fu, 3091, 0x7D249479u},
        {4096, 3049, 0x1EDFC0C4u, 3074, 0xD3B1666Cu},
        {100000, 74692, 0xC24D127Bu, 74705, 0x39132E34u},
        {1048577, 785049, 0x111DB433u, 785072, 0xE55E4DC5u},
    };
    for (const Answer &a : answers) {
        std::vector<uint8_t> data = skewedBytes(a.size, 0x4B41 + a.size);
        auto serial = backend::rangeCompress(data);
        auto lanes = backend::rangeCompressLanes(data);
        EXPECT_EQ(serial.size(), a.serialBytes) << "size " << a.size;
        EXPECT_EQ(util::Crc32::of(serial), a.serialCrc)
            << "size " << a.size;
        EXPECT_EQ(lanes.size(), a.lanesBytes) << "size " << a.size;
        EXPECT_EQ(util::Crc32::of(lanes), a.lanesCrc)
            << "size " << a.size;
    }
}

TEST(SimdRangeLanes, EachLaneIsTheSerialStreamOfItsSlice)
{
    util::Rng rng(0xA1B2C3);
    // Sizes straddle every lane-count threshold of
    // rangeLaneCount(): 1 lane (< 4 KiB), 4 lanes, and the 8-lane
    // regime, plus the remainder-lane edge cases.
    const size_t sizes[] = {0,    1,    7,      4095,   4096,
                            4097, 8191, 100000, 1048577};
    for (size_t size : sizes) {
        std::vector<uint8_t> data(size);
        for (auto &b : data)
            b = static_cast<uint8_t>(rng.uniformInt(0, 255));

        auto packed = backend::rangeCompressLanes(data);
        EXPECT_EQ(backend::rangeDecompressLanes(packed, size), data)
            << "size " << size;
        if (size == 0) {
            EXPECT_TRUE(packed.empty());
            continue;
        }

        // Parse the FORMAT.md §4.2 payload by hand and re-derive
        // every lane from the serial coder.
        util::ByteReader r(packed);
        const size_t lanes = r.u8();
        ASSERT_EQ(lanes, backend::rangeLaneCount(size));
        std::vector<size_t> laneBytes;
        for (size_t l = 0; l + 1 < lanes; ++l)
            laneBytes.push_back(r.varint());
        size_t pos = r.position();
        size_t off = 0;
        for (size_t l = 0; l < lanes; ++l) {
            size_t len = size / lanes + (l < size % lanes ? 1 : 0);
            auto expect = backend::rangeCompress(
                std::span<const uint8_t>(data).subspan(off, len));
            size_t coded =
                l + 1 < lanes ? laneBytes[l] : packed.size() - pos;
            ASSERT_EQ(coded, expect.size())
                << "size " << size << " lane " << l;
            EXPECT_TRUE(std::equal(expect.begin(), expect.end(),
                                   packed.begin() +
                                       static_cast<ptrdiff_t>(pos)))
                << "size " << size << " lane " << l;
            pos += coded;
            off += len;
        }
    }
}

TEST(SimdRangeLanes, SingleLanePayloadMatchesSerialCoder)
{
    // Below the 4 KiB threshold the lane payload is exactly one
    // serial range-coder stream behind the 1-byte header.
    std::vector<uint8_t> data(1000, 0x5a);
    auto lanes = backend::rangeCompressLanes(data);
    auto serial = backend::rangeCompress(data);
    ASSERT_GE(lanes.size(), 1u);
    EXPECT_EQ(lanes[0], 1);
    EXPECT_EQ(std::vector<uint8_t>(lanes.begin() + 1, lanes.end()),
              serial);
}

TEST(SimdRangeLanes, MalformedPayloadsRejected)
{
    std::vector<uint8_t> data(8192, 0x11);
    auto packed = backend::rangeCompressLanes(data);
    // Bad lane counts.
    for (uint8_t laneByte : {uint8_t{0}, uint8_t{9}, uint8_t{200}}) {
        auto bad = packed;
        bad[0] = laneByte;
        EXPECT_THROW(backend::rangeDecompressLanes(bad, data.size()),
                     util::Error);
    }
    // Truncated header / lane-length table.
    EXPECT_THROW(backend::rangeDecompressLanes({}, data.size()),
                 util::Error);
    std::vector<uint8_t> onlyCount{4};
    EXPECT_THROW(backend::rangeDecompressLanes(onlyCount, data.size()),
                 util::Error);
    // Lane length pointing past the payload.
    {
        util::ByteWriter w;
        w.u8(2);
        w.varint(1000);  // lane 0 claims 1000 bytes...
        w.u8(0x00);      // ...but only one byte follows
        auto bad = w.take();
        EXPECT_THROW(backend::rangeDecompressLanes(bad, data.size()),
                     util::Error);
    }
    // Non-empty payload for an empty stream, and for an empty lane
    // (3 raw bytes over 4 lanes leave lane 3 empty).
    std::vector<uint8_t> stray{1, 2, 3};
    EXPECT_THROW(backend::rangeDecompressLanes(stray, 0), util::Error);
    {
        util::ByteWriter w;
        w.u8(4);
        for (int l = 0; l < 3; ++l)
            w.varint(0);
        w.u8(0x00);  // lane 3 covers no raw byte but has a stream
        auto bad = w.take();
        EXPECT_THROW(backend::rangeDecompressLanes(bad, 3),
                     util::Error);
    }
}

// ---------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------

TEST(SimdCrc32, KnownVector)
{
    const char *check = "123456789";
    std::span<const uint8_t> bytes(
        reinterpret_cast<const uint8_t *>(check), 9);
    EXPECT_EQ(util::Crc32::of(bytes), 0xCBF43926u);
}

TEST(SimdCrc32, MatchesZlibAcrossLengthsOffsetsAndChunking)
{
    util::Rng rng(0xC4C32);
    std::vector<uint8_t> buf(100000);
    for (auto &b : buf)
        b = static_cast<uint8_t>(rng.uniformInt(0, 255));

    std::vector<size_t> lens{0,  1,  7,  8,  9,    15,
                             16, 17, 31, 32, 33,   63,
                             8191, buf.size() - 15};
    for (int i = 0; i < 40; ++i)
        lens.push_back(
            static_cast<size_t>(rng.uniformInt(0, buf.size() - 16)));
    for (size_t len : lens) {
        // Unaligned starts stress the slice-by-16 word loads.
        for (size_t off = 0; off < 16; ++off) {
            std::span<const uint8_t> s(buf.data() + off, len);
            const uint32_t want = zlibCrc(s);
            EXPECT_EQ(util::Crc32::of(s), want)
                << "len " << len << " off " << off;

            // Feeding the same bytes in ragged chunks must not
            // change the digest.
            util::Crc32 chunked;
            size_t pos = 0;
            while (pos < len) {
                size_t take = std::min<size_t>(
                    len - pos, rng.uniformInt(0, 97));
                chunked.update(s.subspan(pos, take));
                pos += take;
            }
            EXPECT_EQ(chunked.value(), want)
                << "len " << len << " off " << off;
        }
    }
}

// ---------------------------------------------------------------
// Bloom filter build/probe
// ---------------------------------------------------------------

TEST(SimdBloom, NoFalseNegatives)
{
    util::Rng rng(0xB100);
    for (int round = 0; round < 20; ++round) {
        size_t n = static_cast<size_t>(rng.uniformInt(0, 400));
        std::vector<uint32_t> servers;
        servers.reserve(n);
        for (size_t i = 0; i < n; ++i)
            servers.push_back(
                static_cast<uint32_t>(rng.uniformInt(0, UINT32_MAX)));

        uint32_t bits = 64;
        while (bits < servers.size() * fccc::bloomBitsPerServer)
            bits *= 2;

        fccc::ChunkSummary summary;
        summary.bloomBits = bits;
        summary.bloom = fccc::bloomBuild(servers, bits);
        ASSERT_EQ(summary.bloom.size(), bits / 8);
        for (uint32_t ip : servers)
            EXPECT_TRUE(
                summary.mayContain(fccc::serverFingerprint(ip)));
    }
}

// ---------------------------------------------------------------
// Whole-compressor byte identity across worker-thread counts
// ---------------------------------------------------------------

TEST(SimdThreads, RangeLanesArchiveBytesThreadInvariant)
{
    // The lane count derives only from the column size, never from
    // scheduling, so the full FCC3 archive must be byte-identical at
    // any thread count — on adversarial inputs, not just web traffic.
    const trace::ScenarioKind kinds[] = {
        trace::ScenarioKind::SynFlood,
        trace::ScenarioKind::Reordering,
    };
    for (trace::ScenarioKind kind : kinds) {
        SCOPED_TRACE(trace::scenarioName(kind));
        trace::ScenarioConfig cfg =
            trace::scenarioDefaults(kind, 0x515D);
        cfg.durationSec = 3.0;
        cfg.flows = 300;
        trace::ScenarioGenerator gen(cfg);
        trace::Trace trace = gen.generate();

        std::vector<uint8_t> reference;
        for (uint32_t threads : {1u, 2u, 4u, 8u}) {
            fccc::FccConfig fcfg;
            fcfg.container = fccc::ContainerFormat::Fcc3;
            fcfg.backend = backend::EntropyBackend::RangeLanes;
            fcfg.chunkRecords = 256;
            fcfg.threads = threads;
            fccc::FccTraceCompressor codec(fcfg);
            auto compressed = codec.compress(trace);
            if (threads == 1) {
                reference = compressed;
                // The archive must survive its own decompressor.
                auto out = codec.decompress(compressed);
                EXPECT_GT(out.size(), 0u);
            } else {
                EXPECT_EQ(compressed, reference)
                    << "threads=" << threads;
            }
        }
    }
}
