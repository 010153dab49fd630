/**
 * @file
 * Columnar codec-layer tests: field codecs (plain, zigzag-delta,
 * dictionary, run-length), entropy backends (store, deflate, range
 * coder), and a property/fuzz-style generator of random valid
 * Datasets asserting encode→decode identity across all three
 * containers and all backends — including empty columns, single-flow
 * datasets, u32/u64 boundary values and maximum-length varints.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "codec/backend/backend.hpp"
#include "codec/backend/range_coder.hpp"
#include "codec/fcc/datasets.hpp"
#include "codec/fcc/fcc_codec.hpp"
#include "codec/field/field_codec.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

using namespace fcc;
namespace fccc = fcc::codec::fcc;
namespace field = fcc::codec::field;
namespace backend = fcc::codec::backend;

namespace {

const field::FieldCodec allCodecs[] = {
    field::FieldCodec::Plain,
    field::FieldCodec::ZigzagDelta,
    field::FieldCodec::Dict,
    field::FieldCodec::Rle,
};

const backend::EntropyBackend allBackends[] = {
    backend::EntropyBackend::Store,
    backend::EntropyBackend::Deflate,
    backend::EntropyBackend::Range,
    backend::EntropyBackend::RangeLanes,
};

/** Round-trip @p values through every codec and check the chooser. */
void
roundTripAllCodecs(const std::vector<uint64_t> &values)
{
    for (field::FieldCodec codec : allCodecs) {
        auto encoded = field::encodeColumn(values, codec);
        EXPECT_EQ(encoded.size(),
                  field::encodedSize(values, codec))
            << fieldCodecName(codec);
        auto decoded =
            field::decodeColumn(encoded, codec, values.size());
        EXPECT_EQ(decoded, values) << fieldCodecName(codec);
    }
    // The chooser must pick a codec no worse than any other.
    field::FieldCodec best = field::chooseCodec(values);
    uint64_t bestSize = field::encodedSize(values, best);
    for (field::FieldCodec codec : allCodecs)
        EXPECT_LE(bestSize, field::encodedSize(values, codec));
}

std::vector<uint64_t>
randomColumn(util::Rng &rng, size_t n)
{
    std::vector<uint64_t> values;
    values.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        switch (rng.uniformInt(0, 4)) {
          case 0:
            values.push_back(rng.uniformInt(0, 3));
            break;
          case 1:
            values.push_back(rng.uniformInt(0, 0xffff));
            break;
          case 2:
            values.push_back(rng.next());  // full u64 range
            break;
          case 3:
            values.push_back(~0ull);  // max varint (10 bytes)
            break;
          default:
            values.push_back(0);
            break;
        }
    }
    return values;
}

} // namespace

TEST(FieldCodec, RoundTripsShapedColumns)
{
    roundTripAllCodecs({});
    roundTripAllCodecs({0});
    roundTripAllCodecs({~0ull});
    roundTripAllCodecs({5, 5, 5, 5, 5, 5, 5, 5});
    roundTripAllCodecs({1, 2, 3, 4, 5, 6, 7, 8, 9});
    // Deltas that wrap the u64 range both ways.
    roundTripAllCodecs({~0ull, 0, ~0ull, 1, ~0ull});
    // Low cardinality, high repetition.
    roundTripAllCodecs({80, 443, 80, 80, 443, 8080, 80, 443});
}

TEST(FieldCodec, RoundTripsRandomColumns)
{
    util::Rng rng(0xc01d);
    for (int iter = 0; iter < 24; ++iter)
        roundTripAllCodecs(
            randomColumn(rng, rng.uniformInt(0, 600)));
}

TEST(FieldCodec, ChooserMatchesColumnShape)
{
    // Sorted near-linear values: zigzag deltas win.
    std::vector<uint64_t> timestamps;
    for (uint64_t i = 0; i < 500; ++i)
        timestamps.push_back(1700000000000000ull + i * 1300);
    EXPECT_EQ(field::chooseCodec(timestamps),
              field::FieldCodec::ZigzagDelta);

    // A constant run: RLE wins.
    std::vector<uint64_t> flags(500, 1);
    EXPECT_EQ(field::chooseCodec(flags), field::FieldCodec::Rle);

    // Few distinct large values, no runs, no order: dict wins.
    std::vector<uint64_t> rtts;
    const uint64_t pool[] = {0x123456789abull, 0xfedcba98765ull,
                             0xa5a5a5a5a5a5ull};
    for (size_t i = 0; i < 600; ++i)
        rtts.push_back(pool[i % 3]);
    EXPECT_EQ(field::chooseCodec(rtts), field::FieldCodec::Dict);
}

TEST(FieldCodec, ChooserIsTheArgminOfEncodedSize)
{
    // chooseCodec() skips and cuts short some sizings; its pick must
    // still be the smallest encodedSize(), the lowest tag on a tie.
    // Short columns over a small alphabet, with runs or without,
    // reach every winner and many ties; n = 0 and n = 1 come up
    // often.
    util::Rng rng(0x5eed);
    const uint64_t alphabet[] = {0, 1, 127, 128, 300, 70000, ~0ull};
    size_t wins[field::fieldCodecCount] = {};
    size_t ties = 0;
    for (int iter = 0; iter < 4000; ++iter) {
        std::vector<uint64_t> values;
        size_t n = rng.uniformInt(0, iter % 4 == 0 ? 2 : 60);
        size_t distinct = rng.uniformInt(1, 7);
        while (values.size() < n) {
            uint64_t v = alphabet[rng.uniformInt(0, distinct - 1)];
            if (rng.uniformInt(0, 5) == 0)
                v += values.size();  // a sorted stretch
            size_t run = iter % 3 == 1 ? 1 : rng.uniformInt(1, 12);
            for (size_t r = 0; r < run && values.size() < n; ++r)
                values.push_back(v);
        }
        field::FieldCodec want = field::FieldCodec::Plain;
        uint64_t wantSize = field::encodedSize(values, want);
        size_t tied = 0;
        for (field::FieldCodec codec : allCodecs) {
            uint64_t size = field::encodedSize(values, codec);
            if (size < wantSize) {
                want = codec;
                wantSize = size;
                tied = 0;
            } else if (size == wantSize && codec != want) {
                ++tied;
            }
        }
        ASSERT_EQ(field::chooseCodec(values), want)
            << "iteration " << iter << ", n " << values.size();
        ++wins[static_cast<size_t>(want)];
        ties += tied > 0;
    }
    for (field::FieldCodec codec : allCodecs)
        EXPECT_GT(wins[static_cast<size_t>(codec)], 0u)
            << fieldCodecName(codec);
    EXPECT_GT(ties, 0u);

    // An empty column sizes 0 under Plain, ZigzagDelta and Rle.
    EXPECT_EQ(field::chooseCodec({}), field::FieldCodec::Plain);
}

TEST(FieldCodec, RejectsMalformedColumns)
{
    std::vector<uint64_t> values = {1, 2, 3};
    auto encoded =
        field::encodeColumn(values, field::FieldCodec::Plain);
    // Trailing bytes must be flagged.
    auto padded = encoded;
    padded.push_back(0);
    EXPECT_THROW(field::decodeColumn(padded,
                                     field::FieldCodec::Plain, 3),
                 util::Error);
    // Truncation must be flagged.
    auto cut = encoded;
    cut.pop_back();
    EXPECT_THROW(
        field::decodeColumn(cut, field::FieldCodec::Plain, 3),
        util::Error);
    // A dictionary index past the dictionary must be flagged.
    std::vector<uint8_t> badDict = {1, 7, 1};  // dict {7}, ref 1
    EXPECT_THROW(field::decodeColumn(badDict,
                                     field::FieldCodec::Dict, 1),
                 util::Error);
    // A run longer than the column must be flagged.
    std::vector<uint8_t> badRun = {9, 5};  // value 9, run 5
    EXPECT_THROW(
        field::decodeColumn(badRun, field::FieldCodec::Rle, 3),
        util::Error);
}

TEST(RangeCoder, RoundTripsByteStreams)
{
    util::Rng rng(0xace);
    std::vector<std::vector<uint8_t>> cases = {
        {},
        {0},
        {0xff},
        std::vector<uint8_t>(1000, 0),
        std::vector<uint8_t>(1000, 0xa5),
    };
    // Random and skewed streams.
    std::vector<uint8_t> random(8192);
    for (auto &b : random)
        b = static_cast<uint8_t>(rng.next());
    cases.push_back(random);
    std::vector<uint8_t> skewed(8192);
    for (auto &b : skewed)
        b = rng.chance(0.9) ? 0 : static_cast<uint8_t>(rng.next());
    cases.push_back(skewed);

    for (const auto &data : cases) {
        auto packed = backend::rangeCompress(data);
        auto unpacked =
            backend::rangeDecompress(packed, data.size());
        EXPECT_EQ(unpacked, data);
        // Deterministic: same input, same bits.
        EXPECT_EQ(packed, backend::rangeCompress(data));
    }

    // The adaptive model must actually compress a skewed stream.
    auto packed = backend::rangeCompress(skewed);
    EXPECT_LT(packed.size(), skewed.size() / 2);
}

TEST(Backend, DispatchRoundTripsAndValidates)
{
    util::Rng rng(0xbac);
    std::vector<uint8_t> data(4096);
    for (auto &b : data)
        b = static_cast<uint8_t>(rng.uniformInt(0, 15));
    for (backend::EntropyBackend b : allBackends) {
        auto packed = backend::entropyCompress(data, b);
        auto unpacked =
            backend::entropyDecompress(packed, b, data.size());
        EXPECT_EQ(unpacked, data) << backendName(b);
        // Store and deflate know their own output size, so a wrong
        // raw size must be flagged. The range coders produce
        // exactly as many bytes as asked by construction (the
        // container's encodedBytes is its only length source).
        if (b != backend::EntropyBackend::Range &&
            b != backend::EntropyBackend::RangeLanes) {
            EXPECT_THROW(backend::entropyDecompress(
                             packed, b, data.size() + 1),
                         util::Error)
                << backendName(b);
        }
    }
}

namespace {

/**
 * Random valid Datasets: empty datasets, single-flow datasets,
 * u32/u64 boundary values and max-length varints all appear with
 * fair probability.
 */
fccc::Datasets
randomDatasets(util::Rng &rng)
{
    fccc::Datasets d;

    auto boundaryU64 = [&rng]() -> uint64_t {
        switch (rng.uniformInt(0, 3)) {
          case 0:
            return 0;
          case 1:
            return ~0ull;  // max varint
          case 2:
            return rng.uniformInt(0, 0xffffffffull);
          default:
            return rng.next();
        }
    };
    auto boundaryU32 = [&rng]() -> uint32_t {
        switch (rng.uniformInt(0, 2)) {
          case 0:
            return 0;
          case 1:
            return 0xffffffffu;
          default:
            return static_cast<uint32_t>(
                rng.uniformInt(0, 0xffffffffull));
        }
    };

    size_t shortCount = rng.uniformInt(0, 6);
    for (size_t i = 0; i < shortCount; ++i) {
        flow::SfVector sf;
        size_t n = rng.uniformInt(1, 50);
        for (size_t k = 0; k < n; ++k)
            sf.values.push_back(static_cast<uint16_t>(
                rng.uniformInt(0, 0xff)));
        d.shortTemplates.push_back(std::move(sf));
    }

    size_t longCount = rng.uniformInt(0, 3);
    for (size_t i = 0; i < longCount; ++i) {
        fccc::LongTemplate tmpl;
        size_t n = rng.uniformInt(1, 120);
        for (size_t k = 0; k < n; ++k) {
            tmpl.sValues.push_back(static_cast<uint16_t>(
                rng.uniformInt(0, 0xff)));
            tmpl.iptUs.push_back(boundaryU64());
        }
        d.longTemplates.push_back(std::move(tmpl));
    }

    size_t addrCount = rng.uniformInt(0, 40);
    bool anyTemplates = shortCount + longCount > 0;
    size_t flowCount = (addrCount > 0 && anyTemplates)
        ? rng.uniformInt(0, 300)
        : 0;
    for (size_t i = 0; i < addrCount; ++i)
        d.addresses.push_back(boundaryU32());

    uint64_t timestamp = 0;
    for (size_t i = 0; i < flowCount; ++i) {
        fccc::TimeSeqRecord rec;
        // Sorted timestamps with occasional huge (varint-boundary)
        // jumps, capped so the sequence never wraps; the first
        // record may sit at 0.
        if (i > 0 || rng.chance(0.5)) {
            uint64_t headroom = ~0ull - timestamp;
            uint64_t cap = rng.chance(0.05) ? ~0ull >> 1
                                            : uint64_t{100000};
            timestamp += rng.uniformInt(0, std::min(headroom, cap));
        }
        rec.firstTimestampUs = timestamp;
        bool canLong = longCount > 0;
        bool canShort = shortCount > 0;
        rec.isLong = canLong && (!canShort || rng.chance(0.3));
        rec.templateIndex = static_cast<uint32_t>(rng.uniformInt(
            0, (rec.isLong ? longCount : shortCount) - 1));
        if (!rec.isLong)
            rec.rttUs = boundaryU32();
        rec.addressIndex = static_cast<uint32_t>(
            rng.uniformInt(0, addrCount - 1));
        d.timeSeq.push_back(rec);
    }
    return d;
}

/** Field-by-field equality (chunkSizes compared separately). */
void
expectSameDatasets(const fccc::Datasets &a, const fccc::Datasets &b)
{
    EXPECT_EQ(a.weights.w1, b.weights.w1);
    EXPECT_EQ(a.weights.w2, b.weights.w2);
    EXPECT_EQ(a.weights.w3, b.weights.w3);
    EXPECT_EQ(a.shortTemplates, b.shortTemplates);
    EXPECT_EQ(a.longTemplates, b.longTemplates);
    EXPECT_EQ(a.addresses, b.addresses);
    EXPECT_EQ(a.timeSeq, b.timeSeq);
}

} // namespace

TEST(ColumnarFuzz, RandomDatasetsRoundTripAllContainersAllBackends)
{
    util::Rng rng(20050713);
    for (int iter = 0; iter < 40; ++iter) {
        fccc::Datasets d = randomDatasets(rng);
        // A random layout: up to three time cuts, then record-count
        // slicing inside each segment.
        uint32_t chunkRecords =
            static_cast<uint32_t>(rng.uniformInt(1, 64));
        std::vector<size_t> cuts(rng.uniformInt(0, 3));
        for (size_t &cut : cuts)
            cut = rng.uniformInt(0, d.timeSeq.size());
        std::sort(cuts.begin(), cuts.end());
        d.chunkSizes =
            fccc::chunkLayout(d.timeSeq.size(), chunkRecords, cuts);
        fccc::SizeBreakdown sizes;

        // FCC2.
        auto v2 = fccc::serializeChunked(d, sizes);
        fccc::Datasets d2 = fccc::deserialize(v2);
        expectSameDatasets(d, d2);
        EXPECT_EQ(d2.chunkSizes, d.chunkSizes);

        // FCC3 under every backend.
        for (backend::EntropyBackend b : allBackends) {
            auto v3 = fccc::serializeColumnar(d, b, sizes);
            fccc::Datasets d3 = fccc::deserialize(v3);
            expectSameDatasets(d, d3);
            EXPECT_EQ(d3.chunkSizes, d.chunkSizes)
                << backendName(b);
            // The breakdown accounts for every stored byte.
            EXPECT_EQ(sizes.total(), v3.size()) << backendName(b);
        }
    }
}

TEST(ColumnarFuzz, ColumnStatsDescribeTheWireBytes)
{
    util::Rng rng(77);
    fccc::Datasets d = randomDatasets(rng);
    d.chunkSizes = fccc::chunkLayout(d.timeSeq.size(), 64);
    fccc::SizeBreakdown sizes;
    std::vector<fccc::ColumnStat> columns;
    auto bytes = fccc::serializeColumnar(
        d, backend::EntropyBackend::Deflate, sizes, nullptr,
        &columns);
    ASSERT_EQ(columns.size(), 12u);

    fccc::ContainerStat stat;
    fccc::Datasets back = fccc::deserialize(bytes, nullptr, &stat);
    expectSameDatasets(d, back);
    EXPECT_EQ(stat.version, 3);
    EXPECT_EQ(stat.sizes.total(), bytes.size());
    ASSERT_EQ(stat.columns.size(), columns.size());
    for (size_t c = 0; c < columns.size(); ++c) {
        EXPECT_EQ(stat.columns[c].name, columns[c].name);
        EXPECT_EQ(stat.columns[c].codec, columns[c].codec);
        EXPECT_EQ(stat.columns[c].backend, columns[c].backend);
        EXPECT_EQ(stat.columns[c].values, columns[c].values);
        EXPECT_EQ(stat.columns[c].encodedBytes,
                  columns[c].encodedBytes);
        EXPECT_EQ(stat.columns[c].storedBytes,
                  columns[c].storedBytes);
    }
}

TEST(ColumnarFuzz, PoolAndPoolFreeBytesIdentical)
{
    util::Rng rng(1234);
    util::ThreadPool pool(4);
    for (int iter = 0; iter < 8; ++iter) {
        fccc::Datasets d = randomDatasets(rng);
        d.chunkSizes = fccc::chunkLayout(d.timeSeq.size(), 16);
        fccc::SizeBreakdown sizes;
        auto solo = fccc::serializeColumnar(
            d, backend::EntropyBackend::Deflate, sizes);
        auto pooled = fccc::serializeColumnar(
            d, backend::EntropyBackend::Deflate, sizes, &pool);
        EXPECT_EQ(solo, pooled);
        expectSameDatasets(fccc::deserialize(solo),
                           fccc::deserialize(pooled, &pool));
    }
}

TEST(ColumnarFuzz, CorruptAndTruncatedContainersThrowCleanly)
{
    util::Rng rng(0xbad);
    fccc::Datasets d = randomDatasets(rng);
    d.chunkSizes = fccc::chunkLayout(d.timeSeq.size(), 32);
    fccc::SizeBreakdown sizes;
    auto bytes = fccc::serializeColumnar(
        d, backend::EntropyBackend::Deflate, sizes);

    // Every proper prefix must be rejected, never crash.
    for (size_t len = 0; len < bytes.size();
         len += 1 + len / 16) {
        std::span<const uint8_t> cut(bytes.data(), len);
        EXPECT_THROW(fccc::deserialize(cut), util::Error)
            << "prefix " << len;
    }

    // Single-byte corruption must either throw or decode to
    // *something* — malformed constructs may not crash. (The
    // entropy payloads have no checksum, so a flipped payload byte
    // can legally decode to different, still-valid columns.)
    for (size_t pos = 0; pos < bytes.size();
         pos += 1 + pos / 32) {
        auto bad = bytes;
        bad[pos] ^= 0x5a;
        try {
            fccc::deserialize(bad);
        } catch (const util::Error &) {
            // expected for most positions
        }
    }
}

TEST(Columnar, CompressorWritesAndReadsFcc3)
{
    // End-to-end through the FccTraceCompressor config surface.
    fccc::FccConfig cfg;
    cfg.container = fccc::ContainerFormat::Fcc3;
    cfg.backend = backend::EntropyBackend::Range;
    fccc::FccTraceCompressor codec(cfg);

    util::Rng rng(99);
    fccc::Datasets d = randomDatasets(rng);
    d.weights = cfg.weights;
    fccc::SizeBreakdown sizes;
    auto bytes =
        fccc::serializeDatasets(d, cfg, sizes);
    ASSERT_GE(bytes.size(), 4u);
    EXPECT_EQ(bytes[3], '3');
    expectSameDatasets(d, fccc::deserialize(bytes));
}
