/**
 * @file
 * Tests of the trace substrate: packet model, TSH and pcap formats,
 * trace container operations, the synthetic Web workload generator
 * (including the paper's §3 aggregates) and the comparison-trace
 * transforms.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <set>

#include "flow/flow_stats.hpp"
#include "flow/flow_table.hpp"
#include "trace/packet.hpp"
#include "trace/pcap.hpp"
#include "trace/scenario_gen.hpp"
#include "trace/transforms.hpp"
#include "trace/trace.hpp"
#include "trace/tsh.hpp"
#include "trace/web_gen.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

#include "test_common.hpp"

using namespace fcc;
using namespace fcc::trace;

namespace {

PacketRecord
samplePacket(uint64_t tUs = 1234567)
{
    PacketRecord pkt;
    pkt.timestampNs = tUs * 1000;
    pkt.srcIp = parseIp("192.168.1.10");
    pkt.dstIp = parseIp("10.0.0.1");
    pkt.srcPort = 49152;
    pkt.dstPort = 80;
    pkt.tcpFlags = tcp_flags::Syn;
    pkt.payloadBytes = 0;
    pkt.seq = 1000;
    pkt.ack = 0;
    pkt.window = 65535;
    pkt.ipId = 42;
    return pkt;
}

Trace
smallWebTrace(uint64_t seed = 11, double seconds = 5.0)
{
    WebGenConfig cfg;
    cfg.seed = seed;
    cfg.durationSec = seconds;
    cfg.flowsPerSec = 60;
    WebTrafficGenerator gen(cfg);
    return gen.generate();
}

} // namespace

// ---- packet model -------------------------------------------------------

TEST(Packet, IpFormatting)
{
    EXPECT_EQ(formatIp(0x01020304), "1.2.3.4");
    EXPECT_EQ(formatIp(0xffffffff), "255.255.255.255");
    EXPECT_EQ(parseIp("1.2.3.4"), 0x01020304u);
    EXPECT_EQ(parseIp(formatIp(0xc0a80101)), 0xc0a80101u);
}

TEST(Packet, IpParseRejectsGarbage)
{
    EXPECT_THROW(parseIp("1.2.3"), util::Error);
    EXPECT_THROW(parseIp("1.2.3.4.5"), util::Error);
    EXPECT_THROW(parseIp("256.1.1.1"), util::Error);
    EXPECT_THROW(parseIp("hello"), util::Error);
}

TEST(Packet, FlagFormatting)
{
    EXPECT_EQ(formatTcpFlags(tcp_flags::Syn | tcp_flags::Ack),
              "SYN|ACK");
    EXPECT_EQ(formatTcpFlags(0), "-");
}

TEST(Packet, DerivedFields)
{
    PacketRecord pkt = samplePacket();
    pkt.payloadBytes = 100;
    EXPECT_EQ(pkt.ipTotalLength(), 140);
    EXPECT_EQ(pkt.timestampUs(), 1234567u);
    EXPECT_TRUE(pkt.hasSyn());
    EXPECT_FALSE(pkt.hasFin());
}

// ---- canonical run merge -------------------------------------------------

namespace {

/**
 * Canonical-sorted runs of the given lengths drawn from a narrow
 * key space, so equal timestamps — and fully equal packets — occur
 * within and across runs.
 */
std::vector<std::vector<PacketRecord>>
randomRuns(const std::vector<size_t> &lengths, uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<std::vector<PacketRecord>> runs;
    for (size_t length : lengths) {
        std::vector<PacketRecord> run(length);
        for (PacketRecord &pkt : run) {
            pkt.timestampNs = rng.uniformInt(0, 40) * 1000;
            pkt.srcIp = static_cast<uint32_t>(rng.uniformInt(1, 3));
            pkt.srcPort = static_cast<uint16_t>(rng.uniformInt(0, 2));
            pkt.tcpFlags = static_cast<uint8_t>(rng.uniformInt(0, 1));
            pkt.seq = static_cast<uint32_t>(rng.uniformInt(0, 2));
            pkt.ipId = static_cast<uint16_t>(rng.uniformInt(0, 1));
        }
        std::sort(run.begin(), run.end(), packetCanonicalLess);
        runs.push_back(std::move(run));
    }
    return runs;
}

/** The reference: std::sort of the runs' concatenation. */
std::vector<PacketRecord>
sortedConcatenation(const std::vector<std::vector<PacketRecord>> &runs)
{
    std::vector<PacketRecord> all;
    for (const auto &run : runs)
        all.insert(all.end(), run.begin(), run.end());
    std::sort(all.begin(), all.end(), packetCanonicalLess);
    return all;
}

/**
 * The whole merge of @p runs: the streaming form with limit 0, which
 * emits nothing and leaves every packet in its rest.
 */
std::vector<PacketRecord>
mergeAll(std::vector<std::vector<PacketRecord>> runs)
{
    std::vector<PacketRecord> merged;
    mergeCanonicalRuns(
        std::move(runs), 0,
        [](std::span<const PacketRecord>) {
            ADD_FAILURE() << "emitted below a limit of 0";
        },
        merged);
    return merged;
}

} // namespace

TEST(CanonicalMerge, EmptyRuns)
{
    EXPECT_TRUE(mergeAll({}).empty());
    EXPECT_TRUE(mergeAll({{}, {}, {}}).empty());
}

TEST(CanonicalMerge, SingleRunMovesThrough)
{
    auto runs = randomRuns({0, 300, 0}, 7);
    std::vector<PacketRecord> expected = runs[1];
    const PacketRecord *buffer = runs[1].data();
    std::vector<PacketRecord> merged =
        mergeAll(std::move(runs));
    EXPECT_TRUE(fcc::test::samePackets(merged, expected));
    EXPECT_EQ(merged.data(), buffer) << "single run was copied";
}

TEST(CanonicalMerge, UnequalLengthsEqualSortedConcatenation)
{
    const std::vector<std::vector<size_t>> shapes = {
        {1, 1},
        {0, 1, 7, 1000, 3, 250, 0, 64},
        {500, 2},
        {5, 5, 5, 5, 5, 5, 5, 5, 5},
        {17, 0, 900, 33, 1, 1, 128, 60, 2, 0, 11, 300, 4, 9, 70, 3, 5},
    };
    for (uint64_t seed = 1; seed <= 5; ++seed) {
        for (const auto &lengths : shapes) {
            auto runs = randomRuns(lengths, seed);
            std::vector<PacketRecord> expected =
                sortedConcatenation(runs);
            EXPECT_TRUE(fcc::test::samePackets(
                mergeAll(std::move(runs)), expected))
                << "seed " << seed << ", " << lengths.size()
                << " runs";
        }
    }
}

TEST(CanonicalMerge, AllEqualKeys)
{
    PacketRecord pkt = samplePacket();
    std::vector<std::vector<PacketRecord>> runs = {
        std::vector<PacketRecord>(3, pkt),
        std::vector<PacketRecord>(1, pkt),
        {},
        std::vector<PacketRecord>(40, pkt),
    };
    std::vector<PacketRecord> merged =
        mergeAll(std::move(runs));
    EXPECT_TRUE(fcc::test::samePackets(
        merged, std::vector<PacketRecord>(44, pkt)));
}

TEST(CanonicalMerge, TimestampTiesOrderedByEveryField)
{
    // Equal timestamps: the later fields decide, whichever run
    // holds which packet.
    PacketRecord a = samplePacket(), b = samplePacket(),
                 c = samplePacket();
    b.ipId = a.ipId + 1;
    c.srcIp = a.srcIp + 1;
    std::vector<PacketRecord> merged =
        mergeAll({{c}, {b}, {a}});
    EXPECT_TRUE(fcc::test::samePackets(merged, {a, b, c}));
}

namespace {

/**
 * @p n packets stamped by @p stamp, with header fields from narrow
 * ranges so timestamp ties — and fully equal packets — occur.
 */
template <class Stamp>
std::vector<PacketRecord>
stampedPackets(size_t n, uint64_t seed, Stamp stamp)
{
    util::Rng rng(seed);
    std::vector<PacketRecord> packets(n);
    for (PacketRecord &pkt : packets) {
        pkt.timestampNs = stamp(rng);
        pkt.srcIp = static_cast<uint32_t>(rng.uniformInt(1, 3));
        pkt.srcPort = static_cast<uint16_t>(rng.uniformInt(0, 2));
        pkt.tcpFlags = static_cast<uint8_t>(rng.uniformInt(0, 1));
        pkt.seq = static_cast<uint32_t>(rng.uniformInt(0, 2));
        pkt.ipId = static_cast<uint16_t>(rng.uniformInt(0, 1));
    }
    return packets;
}

/**
 * sortCanonicalBucket over the whole input (base its minimum
 * timestamp, bits the key's width) agrees with std::sort under the
 * comparator.
 */
::testing::AssertionResult
sortsLikeComparisonSort(std::vector<PacketRecord> packets)
{
    std::vector<PacketRecord> expected = packets;
    std::sort(expected.begin(), expected.end(), packetCanonicalLess);
    uint64_t base = 0;
    unsigned bits = 0;
    if (!packets.empty()) {
        auto [lo, hi] = std::minmax_element(
            packets.begin(), packets.end(),
            [](const PacketRecord &a, const PacketRecord &b) {
                return a.timestampNs < b.timestampNs;
            });
        base = lo->timestampNs;
        bits = static_cast<unsigned>(
            std::bit_width(hi->timestampNs - base));
    }
    sortCanonicalBucket(packets, base, bits);
    return fcc::test::samePackets(packets, expected);
}

} // namespace

TEST(Trace, SortCanonicalMatchesComparisonSort)
{
    // Every field is a key, so agreeing packet by packet under
    // samePackets means the two outputs match field for field.
    const size_t cutoff = canonicalRadixMinPackets;
    const uint64_t minuteNs = 60'000'000'000ull;
    auto wholeUs = [&](util::Rng &rng) {
        return rng.uniformInt(0, minuteNs / 1000) * 1000;
    };
    for (size_t n : {size_t{0}, size_t{1}, cutoff - 1, cutoff,
                     cutoff + 1, size_t{200'000}}) {
        SCOPED_TRACE(n);
        EXPECT_TRUE(sortsLikeComparisonSort(stampedPackets(n, n, wholeUs)));
    }

    const size_t n = 3 * cutoff + 7;
    EXPECT_TRUE(sortsLikeComparisonSort(stampedPackets(
        n, 1, [](util::Rng &) { return uint64_t{1'234'567}; })))
        << "all timestamps equal";

    // Five timestamps, every other field equal but ipId: the radix
    // uses its key bits up and the comparator's last field decides.
    const uint64_t few[] = {0, 7, 1000, uint64_t{1} << 40,
                            (uint64_t{1} << 40) + 1};
    std::vector<PacketRecord> ties = stampedPackets(
        n, 2, [&](util::Rng &rng) { return few[rng.uniformInt(0, 4)]; });
    util::Rng idRng(3);
    for (PacketRecord &pkt : ties) {
        pkt.srcIp = 1;
        pkt.srcPort = 0;
        pkt.tcpFlags = 0;
        pkt.seq = 0;
        pkt.ipId = static_cast<uint16_t>(idRng.next());
    }
    EXPECT_TRUE(sortsLikeComparisonSort(ties)) << "ipId ties";

    std::vector<PacketRecord> full = stampedPackets(
        n, 4, [](util::Rng &rng) { return rng.next(); });
    full[0].timestampNs = 0;
    full[1].timestampNs = UINT64_MAX;
    full[2].timestampNs = UINT64_MAX;
    EXPECT_TRUE(sortsLikeComparisonSort(full)) << "0 .. UINT64_MAX";

    EXPECT_TRUE(sortsLikeComparisonSort(stampedPackets(
        n, 5, [&](util::Rng &rng) {
            return rng.uniformInt(0, minuteNs) | 1;
        })))
        << "timestamps off the microsecond grid";

    // Web's long-flow tail: nearly everything in 3 % of the span.
    EXPECT_TRUE(sortsLikeComparisonSort(stampedPackets(
        50'000, 6, [&](util::Rng &rng) {
            return rng.uniformInt(0, 99) < 97
                ? rng.uniformInt(0, minuteNs * 3 / 100)
                : rng.uniformInt(0, minuteNs);
        })))
        << "skewed span";
}

TEST(Trace, SortCanonicalBucketFinishesOneBucket)
{
    // Keys timestampNs - base that agree above bit 20, as in one top
    // bucket of a split chunk: the bucket finish alone must give the
    // comparator's order, radix recursion (4096 and more packets),
    // std::sort and insertion sort alike.
    const uint64_t base = 5'000'000'000ull;
    const uint64_t bucket = base + (uint64_t{37} << 20);
    for (size_t n : {size_t{2}, size_t{200}, size_t{20'000}}) {
        SCOPED_TRACE(n);
        std::vector<PacketRecord> packets =
            stampedPackets(n, n, [&](util::Rng &rng) {
                return bucket + rng.uniformInt(0, (uint64_t{1} << 20) - 1);
            });
        std::vector<PacketRecord> expected = packets;
        std::sort(expected.begin(), expected.end(), packetCanonicalLess);
        sortCanonicalBucket(packets, base, 20);
        EXPECT_TRUE(fcc::test::samePackets(packets, expected));
    }
}

TEST(CanonicalMerge, StreamingFormSplitsAtTheLimit)
{
    // Two interleaved runs with timestamps 0, 1, 2, ... µs: exactly
    // `limit` packets lie below a limit of `limit` µs, so the limits
    // put the block edge at, just before and just after a multiple
    // of canonicalMergeBlock; the last one leaves one run to drain
    // without the heap.
    const size_t block = canonicalMergeBlock;
    const size_t half = block + 100;
    for (size_t limit : {size_t{0}, size_t{1}, block - 1, block,
                         block + 1, 2 * block, 2 * half - 50}) {
        SCOPED_TRACE(limit);
        std::vector<std::vector<PacketRecord>> runs(2);
        for (size_t i = 0; i < 2 * half; ++i) {
            PacketRecord pkt = samplePacket();
            pkt.timestampNs = i * 1000;
            runs[i < 2 * half - 100 ? i % 2 : 1].push_back(pkt);
        }
        std::vector<PacketRecord> expected = sortedConcatenation(runs);

        std::vector<PacketRecord> emitted, rest;
        std::vector<size_t> calls;
        mergeCanonicalRuns(
            std::move(runs), limit * 1000,
            [&](std::span<const PacketRecord> packets) {
                calls.push_back(packets.size());
                emitted.insert(emitted.end(), packets.begin(),
                               packets.end());
            },
            rest);
        ASSERT_EQ(emitted.size(), limit);
        for (size_t size : calls) {
            EXPECT_GT(size, 0u);
            EXPECT_LE(size, block);
        }
        if (limit % block == 0) {
            EXPECT_EQ(calls.size(), limit / block);
        }
        emitted.insert(emitted.end(), rest.begin(), rest.end());
        EXPECT_TRUE(fcc::test::samePackets(emitted, expected));
    }
}

TEST(CanonicalMerge, StreamingSingleRunEmitsWithoutCopy)
{
    auto runs = randomRuns({0, 3 * canonicalMergeBlock + 5, 0}, 9);
    std::vector<PacketRecord> expected = runs[1];
    const PacketRecord *buffer = runs[1].data();
    uint64_t limitNs = expected[expected.size() / 2].timestampNs;
    size_t below = static_cast<size_t>(std::partition_point(
        expected.begin(), expected.end(),
        [&](const PacketRecord &p) { return p.timestampNs < limitNs; }) -
        expected.begin());

    std::vector<PacketRecord> emitted, rest;
    mergeCanonicalRuns(std::move(runs), limitNs,
                       [&](std::span<const PacketRecord> packets) {
                           EXPECT_EQ(packets.data(),
                                     buffer + emitted.size())
                               << "span was copied";
                           emitted.insert(emitted.end(),
                                          packets.begin(),
                                          packets.end());
                       },
                       rest);
    EXPECT_EQ(emitted.size(), below);
    EXPECT_EQ(rest.size(), expected.size() - below);
    emitted.insert(emitted.end(), rest.begin(), rest.end());
    EXPECT_TRUE(fcc::test::samePackets(emitted, expected));
}

// ---- trace container -----------------------------------------------------

TEST(TraceContainer, SortAndOrderCheck)
{
    Trace t;
    PacketRecord a = samplePacket(300), b = samplePacket(100),
                 c = samplePacket(200);
    t.add(a);
    t.add(b);
    t.add(c);
    EXPECT_FALSE(t.isTimeOrdered());
    t.sortByTime();
    EXPECT_TRUE(t.isTimeOrdered());
    EXPECT_EQ(t[0].timestampUs(), 100u);
    EXPECT_EQ(t[2].timestampUs(), 300u);
}

TEST(TraceContainer, DurationAndBytes)
{
    Trace t;
    PacketRecord a = samplePacket(0);
    a.payloadBytes = 10;
    PacketRecord b = samplePacket(2500000);
    b.payloadBytes = 0;
    t.add(a);
    t.add(b);
    EXPECT_NEAR(t.durationSec(), 2.5, 1e-9);
    EXPECT_EQ(t.totalWireBytes(), 50u + 40u);
}

TEST(TraceContainer, SliceSeconds)
{
    Trace t;
    for (int i = 0; i < 100; ++i)
        t.add(samplePacket(static_cast<uint64_t>(i) * 1000000));
    Trace slice = t.sliceSeconds(10.0, 20.0);
    EXPECT_EQ(slice.size(), 20u);
    EXPECT_EQ(slice[0].timestampUs(), 10000000u);
}

// ---- TSH format -----------------------------------------------------------

TEST(Tsh, RecordSizeIs44)
{
    Trace t;
    t.add(samplePacket());
    EXPECT_EQ(writeTsh(t).size(), 44u);
    EXPECT_EQ(tshRecordBytes, 44u);
}

TEST(Tsh, RoundTripPreservesEverything)
{
    Trace t = smallWebTrace();
    auto bytes = writeTsh(t);
    Trace back = readTsh(bytes);
    ASSERT_EQ(back.size(), t.size());
    for (size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(back[i].timestampUs(), t[i].timestampUs());
        EXPECT_EQ(back[i].srcIp, t[i].srcIp);
        EXPECT_EQ(back[i].dstIp, t[i].dstIp);
        EXPECT_EQ(back[i].srcPort, t[i].srcPort);
        EXPECT_EQ(back[i].dstPort, t[i].dstPort);
        EXPECT_EQ(back[i].tcpFlags, t[i].tcpFlags);
        EXPECT_EQ(back[i].payloadBytes, t[i].payloadBytes);
        EXPECT_EQ(back[i].seq, t[i].seq);
        EXPECT_EQ(back[i].ack, t[i].ack);
        EXPECT_EQ(back[i].window, t[i].window);
        EXPECT_EQ(back[i].ipId, t[i].ipId);
    }
}

TEST(Tsh, ValidIpChecksum)
{
    Trace t;
    t.add(samplePacket());
    auto bytes = writeTsh(t);
    // Verifying the checksum over the IP header must give 0.
    uint32_t sum = 0;
    for (int i = 8; i < 28; i += 2)
        sum += static_cast<uint32_t>(bytes[i]) << 8 | bytes[i + 1];
    while (sum >> 16)
        sum = (sum & 0xffff) + (sum >> 16);
    EXPECT_EQ(sum, 0xffffu);
}

TEST(Tsh, RejectsPartialRecord)
{
    std::vector<uint8_t> bad(43, 0);
    EXPECT_THROW(readTsh(bad), util::Error);
}

TEST(Tsh, RejectsNonIpv4)
{
    Trace t;
    t.add(samplePacket());
    auto bytes = writeTsh(t);
    bytes[8] = 0x65;  // version 6
    EXPECT_THROW(readTsh(bytes), util::Error);
}

TEST(Tsh, FileRoundTrip)
{
    Trace t = smallWebTrace(3, 2.0);
    std::string path = fcc::test::tempPath("roundtrip.tsh");
    writeTshFile(t, path);
    Trace back = readTshFile(path);
    EXPECT_EQ(back.size(), t.size());
    std::remove(path.c_str());
}

TEST(Tsh, EmptyFileRoundTrip)
{
    // Nothing to write: the file is created empty and reads back as
    // an empty trace.
    std::string path = fcc::test::tempPath("empty.tsh");
    writeTshFile(Trace{}, path);
    EXPECT_EQ(readTshFile(path).size(), 0u);
    std::remove(path.c_str());
}

// ---- pcap format -----------------------------------------------------------

TEST(Pcap, RoundTripPreservesHeaders)
{
    Trace t = smallWebTrace(17, 3.0);
    auto bytes = writePcap(t);
    Trace back = readPcap(bytes);
    ASSERT_EQ(back.size(), t.size());
    for (size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(back[i].timestampUs(), t[i].timestampUs());
        EXPECT_EQ(back[i].srcIp, t[i].srcIp);
        EXPECT_EQ(back[i].dstIp, t[i].dstIp);
        EXPECT_EQ(back[i].srcPort, t[i].srcPort);
        EXPECT_EQ(back[i].dstPort, t[i].dstPort);
        EXPECT_EQ(back[i].tcpFlags, t[i].tcpFlags);
        EXPECT_EQ(back[i].payloadBytes, t[i].payloadBytes);
        EXPECT_EQ(back[i].seq, t[i].seq);
    }
}

TEST(Pcap, RejectsBadMagic)
{
    std::vector<uint8_t> bad(24, 0);
    EXPECT_THROW(readPcap(bad), util::Error);
}

TEST(Pcap, RejectsTruncatedBody)
{
    Trace t;
    t.add(samplePacket());
    auto bytes = writePcap(t);
    bytes.resize(bytes.size() - 10);
    EXPECT_THROW(readPcap(bytes), util::Error);
}

TEST(Pcap, FileRoundTrip)
{
    Trace t = smallWebTrace(5, 2.0);
    std::string path = fcc::test::tempPath("roundtrip.pcap");
    writePcapFile(t, path);
    Trace back = readPcapFile(path);
    EXPECT_EQ(back.size(), t.size());
    std::remove(path.c_str());
}

// ---- web generator ----------------------------------------------------

TEST(WebGen, DeterministicBySeed)
{
    Trace a = smallWebTrace(42, 3.0);
    Trace b = smallWebTrace(42, 3.0);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].timestampNs, b[i].timestampNs);
        EXPECT_EQ(a[i].srcIp, b[i].srcIp);
        EXPECT_EQ(a[i].seq, b[i].seq);
    }
    Trace c = smallWebTrace(43, 3.0);
    EXPECT_NE(a.size(), c.size());
}

TEST(WebGen, OutputIsTimeOrdered)
{
    EXPECT_TRUE(smallWebTrace(1).isTimeOrdered());
}

TEST(WebGen, FlowInfoMatchesTrace)
{
    WebGenConfig cfg;
    cfg.seed = 9;
    cfg.durationSec = 4.0;
    cfg.flowsPerSec = 50;
    WebTrafficGenerator gen(cfg);
    Trace t = gen.generate();
    uint64_t total = 0;
    for (const auto &info : gen.flowInfos())
        total += info.packets;
    EXPECT_EQ(total, t.size());
}

TEST(WebGen, ConnectionsAreWellFormedTcp)
{
    Trace t = smallWebTrace(2, 4.0);
    flow::FlowTable table;
    auto flows = table.assemble(t);
    size_t synStarts = 0;
    for (const auto &f : flows) {
        const auto &first = t[f.packetIndex.front()];
        if (first.hasSyn() && !first.hasAck())
            ++synStarts;
        // Server port is always 80 in the web workload.
        EXPECT_EQ(f.serverPort, 80);
        EXPECT_NE(f.clientPort, 80);
    }
    // Every flow the generator makes starts with a client SYN.
    EXPECT_EQ(synStarts, flows.size());
}

TEST(WebGen, PaperAggregatesHold)
{
    // §3: 98 % of flows < 51 packets; short flows ~75 % of packets
    // and ~80 % of bytes. Generator tolerances are deliberately wide
    // (sampling noise at this trace size).
    WebGenConfig cfg;
    cfg.seed = 1234;
    cfg.durationSec = 40.0;
    cfg.flowsPerSec = 120;
    WebTrafficGenerator gen(cfg);
    Trace t = gen.generate();
    flow::FlowTable table;
    auto flows = table.assemble(t);
    auto stats = flow::computeFlowStats(flows, t);

    EXPECT_NEAR(stats.shortFlowShare(), 0.98, 0.01);
    EXPECT_NEAR(stats.shortPacketShare(), 0.75, 0.06);
    EXPECT_NEAR(stats.shortByteShare(), 0.80, 0.08);
}

TEST(WebGen, SequenceNumbersProgress)
{
    Trace t = smallWebTrace(21, 3.0);
    flow::FlowTable table;
    auto flows = table.assemble(t);
    for (const auto &f : flows) {
        uint32_t prevSeq = 0;
        bool first = true;
        for (size_t i = 0; i < f.size(); ++i) {
            if (!f.fromClient[i])
                continue;
            const auto &pkt = t[f.packetIndex[i]];
            if (!first) {
                EXPECT_GE(pkt.seq - prevSeq, 0u);
            }
            prevSeq = pkt.seq;
            first = false;
        }
    }
}

TEST(WebGen, RejectsBadConfig)
{
    WebGenConfig cfg;
    cfg.durationSec = 0;
    EXPECT_THROW(WebTrafficGenerator{cfg}, util::Error);
    cfg = WebGenConfig{};
    cfg.longLenMax = 50;
    EXPECT_THROW(WebTrafficGenerator{cfg}, util::Error);
}

// ---- transforms -------------------------------------------------------

TEST(Transforms, RandomizeAddressesPreservesTiming)
{
    Trace t = smallWebTrace(6, 2.0);
    Trace r = trace::randomizeAddresses(t, 99);
    ASSERT_EQ(r.size(), t.size());
    size_t changed = 0;
    for (size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(r[i].timestampNs, t[i].timestampNs);
        EXPECT_EQ(r[i].payloadBytes, t[i].payloadBytes);
        EXPECT_EQ(r[i].srcIp, t[i].srcIp);
        changed += r[i].dstIp != t[i].dstIp;
    }
    EXPECT_GT(changed, t.size() * 9 / 10);
}

TEST(Transforms, RandomAddressesAreDiverse)
{
    Trace t = smallWebTrace(6, 2.0);
    Trace r = trace::randomizeAddresses(t, 99);
    std::set<uint32_t> unique;
    for (const auto &pkt : r)
        unique.insert(pkt.dstIp);
    // Uniform addresses: nearly every packet gets its own.
    EXPECT_GT(unique.size(), r.size() * 9 / 10);
}

TEST(TransformsAdversarial, RandomizeAddressesOnLossyTrace)
{
    trace::ScenarioConfig cfg =
        trace::scenarioDefaults(trace::ScenarioKind::LossStorm, 17);
    cfg.durationSec = 2.0;
    cfg.flows = 30;
    Trace lossy = trace::ScenarioGenerator(cfg).generate();
    Trace randomized = trace::randomizeAddresses(lossy, 99);
    ASSERT_EQ(randomized.size(), lossy.size());
    size_t dstChanged = 0;
    for (size_t i = 0; i < lossy.size(); ++i) {
        const auto &a = lossy.packets()[i];
        const auto &b = randomized.packets()[i];
        // Timing and every non-destination field survive.
        EXPECT_EQ(b.timestampNs, a.timestampNs);
        EXPECT_EQ(b.srcIp, a.srcIp);
        EXPECT_EQ(b.srcPort, a.srcPort);
        EXPECT_EQ(b.dstPort, a.dstPort);
        EXPECT_EQ(b.tcpFlags, a.tcpFlags);
        EXPECT_EQ(b.payloadBytes, a.payloadBytes);
        dstChanged += b.dstIp != a.dstIp;
    }
    // Uniformly random destinations: nearly all must move.
    EXPECT_GT(dstChanged, lossy.size() * 9 / 10);

    // Deterministic per seed.
    Trace again = trace::randomizeAddresses(lossy, 99);
    for (size_t i = 0; i < lossy.size(); ++i)
        EXPECT_EQ(again.packets()[i].dstIp,
                  randomized.packets()[i].dstIp);
}

TEST(Transforms, FracExpHasExponentialTimes)
{
    FracExpConfig cfg;
    cfg.seed = 3;
    cfg.packetCount = 20000;
    cfg.meanIptUs = 100.0;
    Trace t = generateFracExp(cfg);
    ASSERT_EQ(t.size(), cfg.packetCount);
    EXPECT_TRUE(t.isTimeOrdered());
    double meanUs = t.durationSec() * 1e6 /
                    static_cast<double>(t.size() - 1);
    EXPECT_NEAR(meanUs, 100.0, 5.0);
}

TEST(Transforms, FracExpShowsTemporalLocality)
{
    FracExpConfig cfg;
    cfg.seed = 4;
    cfg.packetCount = 30000;
    Trace t = generateFracExp(cfg);
    // Reuse probability 0.72 means far fewer unique destinations
    // than packets.
    std::set<uint32_t> unique;
    for (const auto &pkt : t)
        unique.insert(pkt.dstIp);
    EXPECT_LT(unique.size(), t.size() / 2);
    EXPECT_GT(unique.size(), t.size() / 20);
}

TEST(Transforms, FracExpAddressBitsAreBiased)
{
    FracExpConfig cfg;
    cfg.seed = 5;
    cfg.packetCount = 20000;
    Trace t = generateFracExp(cfg);
    // The multiplicative cascade biases every bit towards 1.
    size_t ones = 0;
    for (const auto &pkt : t)
        ones += __builtin_popcount(pkt.dstIp);
    double fraction =
        static_cast<double>(ones) / (32.0 * t.size());
    EXPECT_GT(fraction, 0.6);
}

TEST(Transforms, FracExpRejectsBadConfig)
{
    FracExpConfig cfg;
    cfg.packetCount = 0;
    EXPECT_THROW(generateFracExp(cfg), util::Error);
    cfg = FracExpConfig{};
    cfg.reuseProbability = 1.0;
    EXPECT_THROW(generateFracExp(cfg), util::Error);
}
