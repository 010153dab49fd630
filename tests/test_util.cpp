/**
 * @file
 * Unit tests of the util substrate: byte/bit I/O, checksums, RNG,
 * distributions and statistics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "util/bitstream.hpp"
#include "util/bytes.hpp"
#include "util/checksum.hpp"
#include "util/distributions.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace fcc::util;

// ---- bytes -------------------------------------------------------------

TEST(Bytes, PrimitivesRoundTrip)
{
    ByteWriter w;
    w.u8(0xab);
    w.u16(0x1234);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefull);
    auto buf = w.take();
    ASSERT_EQ(buf.size(), 1u + 2 + 4 + 8);

    ByteReader r(buf);
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0x1234);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, LittleEndianLayout)
{
    ByteWriter w;
    w.u32(0x01020304);
    auto buf = w.take();
    EXPECT_EQ(buf[0], 0x04);
    EXPECT_EQ(buf[3], 0x01);
}

TEST(Bytes, VarintBoundaries)
{
    for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
                       0xffffffffull, ~0ull}) {
        ByteWriter w;
        w.varint(v);
        auto buf = w.take();
        ByteReader r(buf);
        EXPECT_EQ(r.varint(), v) << v;
        EXPECT_TRUE(r.exhausted());
    }
}

TEST(Bytes, VarintSizes)
{
    auto size = [](uint64_t v) {
        ByteWriter w;
        w.varint(v);
        return w.size();
    };
    EXPECT_EQ(size(0), 1u);
    EXPECT_EQ(size(127), 1u);
    EXPECT_EQ(size(128), 2u);
    EXPECT_EQ(size(16383), 2u);
    EXPECT_EQ(size(~0ull), 10u);
}

TEST(Bytes, ReaderThrowsOnTruncation)
{
    ByteWriter w;
    w.u16(7);
    auto buf = w.take();
    ByteReader r(buf);
    r.u8();
    EXPECT_THROW(r.u16(), Error);
}

TEST(Bytes, VarintRejectsOverlong)
{
    // 11 continuation bytes cannot encode a 64-bit value.
    std::vector<uint8_t> bad(11, 0x80);
    ByteReader r(bad);
    EXPECT_THROW(r.varint(), Error);
}

TEST(Bytes, BlobRoundTrip)
{
    std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
    ByteWriter w;
    w.blob(payload);
    auto buf = w.take();
    ByteReader r(buf);
    auto view = r.blobView();
    EXPECT_EQ(std::vector<uint8_t>(view.begin(), view.end()), payload);
}

TEST(Bytes, SkipValidatesBounds)
{
    std::vector<uint8_t> buf(4, 0);
    ByteReader r(buf);
    r.skip(4);
    EXPECT_THROW(r.skip(1), Error);
}

// ---- bitstream -----------------------------------------------------------

TEST(Bitstream, LsbFirstPacking)
{
    BitWriter w;
    w.put(0b1, 1);
    w.put(0b01, 2);
    w.put(0b10101, 5);
    auto buf = w.take();
    ASSERT_EQ(buf.size(), 1u);
    // bit0=1, bits1-2=01, bits3-7=10101 -> 1010_1011
    EXPECT_EQ(buf[0], 0xab);
}

TEST(Bitstream, WriterRoundTripsAgainstTheBitOrder)
{
    // RFC 1951 §3.1.1: stream bit k is bit k % 8 of byte k / 8, and a
    // value's least significant bit goes first. Read each value back
    // by that definition.
    auto value = [](int i) {
        return static_cast<uint32_t>(i * 2654435761u) &
               ((1u << (i % 24 + 1)) - 1);
    };
    BitWriter w;
    for (int i = 0; i < 1000; ++i)
        w.put(value(i), i % 24 + 1);
    auto buf = w.take();
    size_t pos = 0;
    for (int i = 0; i < 1000; ++i) {
        uint32_t got = 0;
        for (int b = 0; b < i % 24 + 1; ++b, ++pos)
            got |= ((buf[pos / 8] >> (pos % 8)) & 1u) << b;
        EXPECT_EQ(got, value(i)) << i;
    }
    EXPECT_EQ(buf.size(), (pos + 7) / 8);
}

TEST(Bitstream, HuffCodeBitOrderMatchesRfc)
{
    // RFC 1951: Huffman codes are packed starting with the MSB of
    // the code. Code 0b011 (3 bits) must appear as bits 0,1,2 = 0,1,1.
    BitWriter w;
    w.putHuff(0b011, 3);
    auto buf = w.take();
    EXPECT_EQ(buf[0] & 0x7, 0b110);
}

TEST(Bitstream, AlignToByte)
{
    BitWriter w;
    w.put(1, 3);
    w.alignToByte();
    w.byte(0x42);
    auto buf = w.take();
    ASSERT_EQ(buf.size(), 2u);
    EXPECT_EQ(buf[0], 0x01);  // the three bits, zero padded
    EXPECT_EQ(buf[1], 0x42);
}

// ---- checksums -----------------------------------------------------------

TEST(Checksum, Crc32KnownVectors)
{
    // Standard test vector: "123456789" -> 0xCBF43926.
    const char *digits = "123456789";
    EXPECT_EQ(Crc32::of({reinterpret_cast<const uint8_t *>(digits), 9}),
              0xcbf43926u);
    EXPECT_EQ(Crc32::of({}), 0u);
}

TEST(Checksum, Adler32KnownVectors)
{
    // RFC 1950: Adler-32 of "Wikipedia" is 0x11E60398.
    const char *word = "Wikipedia";
    EXPECT_EQ(Adler32::of({reinterpret_cast<const uint8_t *>(word), 9}),
              0x11e60398u);
    EXPECT_EQ(Adler32::of({}), 1u);
}

TEST(Checksum, IncrementalEqualsOneShot)
{
    std::vector<uint8_t> data(10000);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(i * 31);

    Crc32 crc;
    Adler32 adler;
    crc.update({data.data(), 3000});
    crc.update({data.data() + 3000, data.size() - 3000});
    adler.update({data.data(), 7001});
    adler.update({data.data() + 7001, data.size() - 7001});
    EXPECT_EQ(crc.value(), Crc32::of(data));
    EXPECT_EQ(adler.value(), Adler32::of(data));
}

TEST(Checksum, Crc32MatchesBitwiseReference)
{
    // Every length up to a few folding steps, at every alignment, and
    // a few long inputs: whichever path update() takes (carry-less
    // folding where the CPU has it, slicing tables otherwise, the
    // byte loop for tails) gives the bit-at-a-time CRC.
    auto reference = [](const uint8_t *p, size_t n) {
        uint32_t c = 0xffffffffu;
        for (size_t i = 0; i < n; ++i) {
            c ^= p[i];
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        }
        return ~c;
    };
    Rng rng(2005);
    std::vector<uint8_t> data((size_t{1} << 20) + 77);
    for (auto &b : data)
        b = static_cast<uint8_t>(rng.next());
    for (size_t offset = 0; offset < 16; ++offset)
        for (size_t n = 0; n <= 300; ++n)
            ASSERT_EQ(Crc32::of({data.data() + offset, n}),
                      reference(data.data() + offset, n))
                << offset << " + " << n;
    for (size_t n : {size_t{4096}, size_t{65535}, data.size() - 5})
        EXPECT_EQ(Crc32::of({data.data() + 5, n}),
                  reference(data.data() + 5, n))
            << n;
    std::vector<uint8_t> zeros(1000, 0), ones(1000, 0xff);
    EXPECT_EQ(Crc32::of(zeros), reference(zeros.data(), zeros.size()));
    EXPECT_EQ(Crc32::of(ones), reference(ones.data(), ones.size()));
}

// ---- rng -----------------------------------------------------------------

TEST(Rng, DeterministicBySeed)
{
    Rng a(7), b(7), c(8);
    for (int i = 0; i < 100; ++i) {
        uint64_t va = a.next();
        EXPECT_EQ(va, b.next());
        (void)c;
    }
    Rng d(8);
    bool anyDiff = false;
    Rng e(7);
    for (int i = 0; i < 100; ++i)
        anyDiff |= d.next() != e.next();
    EXPECT_TRUE(anyDiff);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(1);
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntRespectsRange)
{
    Rng rng(2);
    for (int i = 0; i < 10000; ++i) {
        uint64_t v = rng.uniformInt(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Rng, UniformIntCoversRangeUniformly)
{
    Rng rng(3);
    std::vector<int> counts(8, 0);
    const int draws = 80000;
    for (int i = 0; i < draws; ++i)
        ++counts[rng.uniformInt(0, 7)];
    for (int count : counts)
        EXPECT_NEAR(count, draws / 8, draws / 8 * 0.1);
}

TEST(Rng, MeanNearHalf)
{
    Rng rng(4);
    double sum = 0;
    const int draws = 100000;
    for (int i = 0; i < draws; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / draws, 0.5, 0.01);
}

// ---- distributions ----------------------------------------------------

TEST(Distributions, ExponentialMean)
{
    Rng rng(5);
    Exponential dist(4.0);
    double sum = 0;
    const int draws = 200000;
    for (int i = 0; i < draws; ++i)
        sum += dist.sample(rng);
    EXPECT_NEAR(sum / draws, 0.25, 0.01);
}

TEST(Distributions, ExponentialRejectsBadRate)
{
    EXPECT_THROW(Exponential(0.0), Error);
    EXPECT_THROW(Exponential(-1.0), Error);
}

TEST(Distributions, BoundedParetoStaysInRange)
{
    Rng rng(6);
    BoundedPareto dist(1.2, 10.0, 1000.0);
    for (int i = 0; i < 50000; ++i) {
        double x = dist.sample(rng);
        EXPECT_GE(x, 10.0);
        EXPECT_LE(x, 1000.0);
    }
}

TEST(Distributions, BoundedParetoIsHeavyTailed)
{
    Rng rng(7);
    BoundedPareto dist(1.1, 1.0, 10000.0);
    int below10 = 0, above1000 = 0;
    const int draws = 100000;
    for (int i = 0; i < draws; ++i) {
        double x = dist.sample(rng);
        below10 += x < 10.0;
        above1000 += x > 1000.0;
    }
    EXPECT_GT(below10, draws * 8 / 10);  // mass at the head
    EXPECT_GT(above1000, 10);            // but a real tail
}

TEST(Distributions, LogNormalMedian)
{
    Rng rng(8);
    auto dist = LogNormal::fromMedian(0.08, 0.5);
    std::vector<double> sample(50001);
    for (auto &x : sample)
        x = dist.sample(rng);
    std::sort(sample.begin(), sample.end());
    EXPECT_NEAR(sample[sample.size() / 2], 0.08, 0.005);
}

TEST(Distributions, ZipfFavorsLowRanks)
{
    Rng rng(9);
    Zipf dist(1000, 1.1);
    std::vector<int> counts(1001, 0);
    for (int i = 0; i < 100000; ++i)
        ++counts[dist.sample(rng)];
    EXPECT_GT(counts[1], counts[10]);
    EXPECT_GT(counts[10], counts[100] / 2);
    int top10 = 0, total = 0;
    for (size_t r = 1; r <= 1000; ++r) {
        total += counts[r];
        if (r <= 10)
            top10 += counts[r];
    }
    EXPECT_GT(static_cast<double>(top10) / total, 0.3);
}

TEST(Distributions, ZipfZeroExponentIsUniform)
{
    Rng rng(10);
    Zipf dist(4, 0.0);
    std::vector<int> counts(5, 0);
    const int draws = 40000;
    for (int i = 0; i < draws; ++i)
        ++counts[dist.sample(rng)];
    for (size_t r = 1; r <= 4; ++r)
        EXPECT_NEAR(counts[r], draws / 4, draws / 4 * 0.1);
}

TEST(Distributions, DiscreteMatchesWeights)
{
    Rng rng(11);
    Discrete dist({10, 20, 30}, {1.0, 2.0, 7.0});
    int c30 = 0;
    const int draws = 50000;
    for (int i = 0; i < draws; ++i)
        c30 += dist.sample(rng) == 30;
    EXPECT_NEAR(c30, draws * 0.7, draws * 0.7 * 0.05);
}

TEST(Distributions, DiscreteRejectsDegenerate)
{
    EXPECT_THROW(Discrete({}, {}), Error);
    EXPECT_THROW(Discrete({1}, {0.0}), Error);
    EXPECT_THROW(Discrete({1, 2}, {1.0}), Error);
    EXPECT_THROW(Discrete({1, 2}, {1.0, -1.0}), Error);
}

// ---- stats ---------------------------------------------------------------

TEST(Stats, EcdfEvaluation)
{
    Ecdf e;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        e.add(x);
    EXPECT_DOUBLE_EQ(e.at(0.5), 0.0);
    EXPECT_DOUBLE_EQ(e.at(1.0), 0.25);
    EXPECT_DOUBLE_EQ(e.at(2.5), 0.5);
    EXPECT_DOUBLE_EQ(e.at(10.0), 1.0);
    EXPECT_DOUBLE_EQ(e.quantile(0.5), 2.0);
    EXPECT_DOUBLE_EQ(e.quantile(1.0), 4.0);
}

TEST(Stats, KsDistanceIdenticalIsZero)
{
    Ecdf a, b;
    for (int i = 0; i < 100; ++i) {
        a.add(i);
        b.add(i);
    }
    EXPECT_DOUBLE_EQ(a.ksDistance(b), 0.0);
}

TEST(Stats, KsDistanceDisjointIsOne)
{
    Ecdf a, b;
    for (int i = 0; i < 50; ++i) {
        a.add(i);
        b.add(i + 1000);
    }
    EXPECT_DOUBLE_EQ(a.ksDistance(b), 1.0);
}

TEST(Stats, KsDistanceDetectsShift)
{
    Rng rng(12);
    Exponential d1(1.0), d2(2.0);
    Ecdf a, b, c;
    for (int i = 0; i < 5000; ++i) {
        a.add(d1.sample(rng));
        b.add(d1.sample(rng));
        c.add(d2.sample(rng));
    }
    EXPECT_LT(a.ksDistance(b), 0.05);  // same distribution
    EXPECT_GT(a.ksDistance(c), 0.2);   // different rate
}

// ---- hash ----------------------------------------------------------------

TEST(Hash, Fnv1aKnownVector)
{
    // FNV-1a 64 of "a" is 0xaf63dc4c8601ec8c.
    const uint8_t a = 'a';
    EXPECT_EQ(fnv1a64({&a, 1}), 0xaf63dc4c8601ec8cull);
}

TEST(Hash, Mix64IsBijectiveish)
{
    // Distinct inputs produce distinct outputs in a small sweep.
    std::vector<uint64_t> seen;
    for (uint64_t i = 0; i < 1000; ++i)
        seen.push_back(mix64(i));
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()),
              seen.end());
}
