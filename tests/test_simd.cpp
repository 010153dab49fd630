/**
 * @file
 * Differential fuzz suite for the scalar/accelerated dispatch pairs
 * (util/simd.hpp): every SWAR or interleaved hot path must produce
 * bytes identical to its scalar reference — varint batches, the
 * zigzag-delta column codec, the lane-split range coder, slice-by-8
 * CRC-32 and batched Bloom build/probe — across random, boundary
 * (u64-max, maximum-length varints) and adversarial-scenario inputs,
 * including malformed streams (both paths must reject identically)
 * and the full compressor at 1/2/4/8 worker threads.
 *
 * Explicit Dispatch::Scalar / Dispatch::Accel bypass the
 * FCC_FORCE_SCALAR environment override, so the comparisons below
 * exercise both implementations even in the CI scalar cell.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
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
#include "util/simd.hpp"

using namespace fcc;
namespace fccc = fcc::codec::fcc;
namespace field = fcc::codec::field;
namespace backend = fcc::codec::backend;

namespace {

constexpr util::Dispatch kScalar = util::Dispatch::Scalar;
constexpr util::Dispatch kAccel = util::Dispatch::Accel;

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

/** What decoding @p data as @p count varints does, per dispatch. */
std::string
decodeOutcome(const std::vector<uint8_t> &data, size_t count,
              util::Dispatch d)
{
    std::vector<uint64_t> out(count);
    try {
        size_t used = util::varintDecodeBatch(data.data(),
                                              data.size(),
                                              out.data(), count, d);
        std::string s = "ok:" + std::to_string(used);
        for (uint64_t v : out)
            s += "," + std::to_string(v);
        return s;
    } catch (const util::Error &e) {
        return std::string("error:") + e.what();
    }
}

void
expectBatchIdentity(const std::vector<uint64_t> &values)
{
    std::vector<uint8_t> scalar;
    std::vector<uint8_t> accel;
    util::varintEncodeBatch(values, scalar, kScalar);
    util::varintEncodeBatch(values, accel, kAccel);
    ASSERT_EQ(scalar, accel);
    EXPECT_EQ(scalar, referenceVarint(values));
    EXPECT_EQ(scalar.size(), util::varintLenSum(values));

    std::vector<uint64_t> outScalar(values.size());
    std::vector<uint64_t> outAccel(values.size());
    size_t usedScalar = util::varintDecodeBatch(
        scalar.data(), scalar.size(), outScalar.data(),
        values.size(), kScalar);
    size_t usedAccel = util::varintDecodeBatch(
        scalar.data(), scalar.size(), outAccel.data(), values.size(),
        kAccel);
    EXPECT_EQ(usedScalar, scalar.size());
    EXPECT_EQ(usedAccel, scalar.size());
    EXPECT_EQ(outScalar, values);
    EXPECT_EQ(outAccel, values);
}

} // namespace

// ---------------------------------------------------------------
// Varint batches
// ---------------------------------------------------------------

TEST(SimdVarint, BoundaryValues)
{
    expectBatchIdentity({});
    expectBatchIdentity({0});
    expectBatchIdentity({0x7f});
    expectBatchIdentity({0x80});
    expectBatchIdentity({0x3fff, 0x4000});
    expectBatchIdentity({UINT64_MAX});
    expectBatchIdentity({uint64_t{1} << 63});
    // Long runs of single-byte values hit the 8-at-a-time SWAR
    // paths; the +3 tail exercises the cleanup loop.
    std::vector<uint64_t> small(67, 0x42);
    expectBatchIdentity(small);
    // Max-length varints back to back, and mixed with tiny ones at
    // every alignment within the 8-value window.
    std::vector<uint64_t> mixed;
    for (size_t i = 0; i < 64; ++i)
        mixed.push_back(i % 9 == 0 ? UINT64_MAX : i % 7);
    expectBatchIdentity(mixed);
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
        expectBatchIdentity(values);
    }
}

TEST(SimdVarint, MalformedRejectionParity)
{
    // Both dispatches must agree on accept/reject AND on the error
    // text and decoded values — including reads that end right at
    // the buffer edge, where the SWAR fast path must bail out.
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
    // Exactly u64-max: valid, must decode on both paths.
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
        EXPECT_EQ(decodeOutcome(data, count, kScalar),
                  decodeOutcome(data, count, kAccel))
            << "input size " << data.size() << " count " << count;
}

// ---------------------------------------------------------------
// Field codecs (zigzag-delta, plain, dict through the batch paths)
// ---------------------------------------------------------------

TEST(SimdFieldCodec, DispatchIdentity)
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
            auto scalar = field::encodeColumn(values, fc, kScalar);
            auto accel = field::encodeColumn(values, fc, kAccel);
            ASSERT_EQ(scalar, accel) << field::fieldCodecName(fc);
            EXPECT_EQ(field::decodeColumn(scalar, fc, values.size(),
                                          kScalar),
                      values);
            EXPECT_EQ(field::decodeColumn(scalar, fc, values.size(),
                                          kAccel),
                      values);
        }
    }
}

TEST(SimdFieldCodec, TrailingBytesRejectedBothPaths)
{
    std::vector<uint64_t> values{1, 2, 3};
    auto encoded =
        field::encodeColumn(values, field::FieldCodec::Plain);
    encoded.push_back(0x00);
    EXPECT_THROW(field::decodeColumn(encoded,
                                     field::FieldCodec::Plain,
                                     values.size(), kScalar),
                 util::Error);
    EXPECT_THROW(field::decodeColumn(encoded,
                                     field::FieldCodec::Plain,
                                     values.size(), kAccel),
                 util::Error);
}

// ---------------------------------------------------------------
// Lane-split range coder
// ---------------------------------------------------------------

TEST(SimdRangeLanes, RoundTripAllSizes)
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

        auto scalar = backend::rangeCompressLanes(data, kScalar);
        auto accel = backend::rangeCompressLanes(data, kAccel);
        ASSERT_EQ(scalar, accel) << "size " << size;

        EXPECT_EQ(backend::rangeDecompressLanes(scalar, size,
                                                kScalar),
                  data)
            << "size " << size;
        EXPECT_EQ(backend::rangeDecompressLanes(scalar, size,
                                                kAccel),
                  data)
            << "size " << size;
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
    for (util::Dispatch d : {kScalar, kAccel}) {
        // Bad lane counts.
        for (uint8_t laneByte : {uint8_t{0}, uint8_t{9},
                                 uint8_t{200}}) {
            auto bad = packed;
            bad[0] = laneByte;
            EXPECT_THROW(backend::rangeDecompressLanes(
                             bad, data.size(), d),
                         util::Error);
        }
        // Truncated header / lane-length table.
        EXPECT_THROW(backend::rangeDecompressLanes({}, data.size(),
                                                   d),
                     util::Error);
        std::vector<uint8_t> onlyCount{4};
        EXPECT_THROW(backend::rangeDecompressLanes(
                         onlyCount, data.size(), d),
                     util::Error);
        // Lane length pointing past the payload.
        {
            util::ByteWriter w;
            w.u8(2);
            w.varint(1000);  // lane 0 claims 1000 bytes...
            w.u8(0x00);      // ...but only one byte follows
            auto bad = w.take();
            EXPECT_THROW(backend::rangeDecompressLanes(
                             bad, data.size(), d),
                         util::Error);
        }
        // Non-empty payload for an empty stream.
        std::vector<uint8_t> stray{1, 2, 3};
        EXPECT_THROW(backend::rangeDecompressLanes(stray, 0, d),
                     util::Error);
    }
}

// ---------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------

TEST(SimdCrc32, KnownVectorBothPaths)
{
    const char *check = "123456789";
    std::span<const uint8_t> bytes(
        reinterpret_cast<const uint8_t *>(check), 9);
    EXPECT_EQ(util::Crc32::of(bytes, kScalar), 0xCBF43926u);
    EXPECT_EQ(util::Crc32::of(bytes, kAccel), 0xCBF43926u);
}

TEST(SimdCrc32, ScalarSlice8IdentityAndChunking)
{
    util::Rng rng(0xC4C32);
    std::vector<uint8_t> buf(100000);
    for (auto &b : buf)
        b = static_cast<uint8_t>(rng.uniformInt(0, 255));

    for (size_t len : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                       size_t{9}, size_t{63}, size_t{8191},
                       buf.size()}) {
        // Unaligned starts stress the slice-by-8 word loads.
        for (size_t off : {size_t{0}, size_t{1}, size_t{5}}) {
            if (off + len > buf.size())
                continue;
            std::span<const uint8_t> s(buf.data() + off, len);
            uint32_t scalar = util::Crc32::of(s, kScalar);
            uint32_t accel = util::Crc32::of(s, kAccel);
            EXPECT_EQ(scalar, accel)
                << "len " << len << " off " << off;

            // Feeding the same bytes in ragged chunks must not
            // change the digest on either path.
            util::Crc32 chunked(kAccel);
            size_t pos = 0;
            uint64_t step = 1;
            while (pos < len) {
                size_t take = std::min<size_t>(
                    len - pos, (step = step * 7 + 3) % 97 + 1);
                chunked.update(s.subspan(pos, take));
                pos += take;
            }
            EXPECT_EQ(chunked.value(), scalar)
                << "len " << len << " off " << off;
        }
    }
}

// ---------------------------------------------------------------
// Bloom filter build/probe
// ---------------------------------------------------------------

TEST(SimdBloom, BuildIdentityAndNoFalseNegatives)
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

        auto scalar = fccc::bloomBuild(servers, bits, kScalar);
        auto accel = fccc::bloomBuild(servers, bits, kAccel);
        ASSERT_EQ(scalar, accel) << "n " << n;

        fccc::ChunkSummary summary;
        summary.bloomBits = bits;
        summary.bloom = scalar;
        for (uint32_t ip : servers) {
            // No false negatives, and the precomputed-fingerprint
            // probe must agree with the hash-on-the-spot one.
            EXPECT_TRUE(summary.mayContainServer(ip));
            EXPECT_TRUE(
                summary.mayContain(fccc::serverFingerprint(ip)));
        }
        for (int probe = 0; probe < 100; ++probe) {
            uint32_t ip =
                static_cast<uint32_t>(rng.uniformInt(0, UINT32_MAX));
            EXPECT_EQ(summary.mayContainServer(ip),
                      summary.mayContain(
                          fccc::serverFingerprint(ip)));
        }
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
