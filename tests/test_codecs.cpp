/**
 * @file
 * Codec tests: Van Jacobson (lossless round trip, minimum record
 * size), Peuhkuri (preserved vs resynthesized fields, LRU cache
 * eviction), the proposed FCC codec (structure preservation,
 * statistical fidelity, dataset format robustness) and the §5
 * analytical models, plus the cross-codec ratio ordering of Figure 1.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "codec/compressor.hpp"
#include "codec/fcc/datasets.hpp"
#include "codec/fcc/fcc_codec.hpp"
#include "codec/models.hpp"
#include "codec/peuhkuri/flow_cache.hpp"
#include "codec/peuhkuri/peuhkuri.hpp"
#include "codec/vj/vj.hpp"
#include "flow/flow_stats.hpp"
#include "flow/flow_table.hpp"
#include "trace/tsh.hpp"
#include "trace/web_gen.hpp"
#include "util/error.hpp"

namespace codec = fcc::codec;
namespace fccc = fcc::codec::fcc;
namespace vj = fcc::codec::vj;
namespace peuhkuri = fcc::codec::peuhkuri;
namespace flow = fcc::flow;
namespace trace = fcc::trace;
namespace util = fcc::util;
using fcc::trace::Trace;

namespace {

Trace
webTrace(uint64_t seed = 7, double seconds = 8.0, double rate = 80.0)
{
    trace::WebGenConfig cfg;
    cfg.seed = seed;
    cfg.durationSec = seconds;
    cfg.flowsPerSec = rate;
    trace::WebTrafficGenerator gen(cfg);
    return gen.generate();
}

/** Packet-level equality at TSH (microsecond) resolution. */
void
expectTshEqual(const Trace &a, const Trace &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].timestampUs(), b[i].timestampUs()) << i;
        EXPECT_EQ(a[i].srcIp, b[i].srcIp) << i;
        EXPECT_EQ(a[i].dstIp, b[i].dstIp) << i;
        EXPECT_EQ(a[i].srcPort, b[i].srcPort) << i;
        EXPECT_EQ(a[i].dstPort, b[i].dstPort) << i;
        EXPECT_EQ(a[i].tcpFlags, b[i].tcpFlags) << i;
        EXPECT_EQ(a[i].payloadBytes, b[i].payloadBytes) << i;
        EXPECT_EQ(a[i].seq, b[i].seq) << i;
        EXPECT_EQ(a[i].ack, b[i].ack) << i;
        EXPECT_EQ(a[i].window, b[i].window) << i;
        EXPECT_EQ(a[i].ipId, b[i].ipId) << i;
    }
}

/** Microsecond-quantized copy (the codecs' reference precision). */
Trace
quantizeUs(const Trace &t)
{
    Trace out;
    for (auto pkt : t) {
        pkt.timestampNs = pkt.timestampUs() * 1000;
        out.add(pkt);
    }
    return out;
}

} // namespace

// ---- Van Jacobson ---------------------------------------------------------

TEST(Vj, LosslessRoundTrip)
{
    Trace t = quantizeUs(webTrace(1));
    vj::VjTraceCompressor codec;
    EXPECT_TRUE(codec.lossless());
    Trace back = codec.decompress(codec.compress(t));
    expectTshEqual(t, back);
}

TEST(Vj, EmptyTrace)
{
    vj::VjTraceCompressor codec;
    Trace empty;
    Trace back = codec.decompress(codec.compress(empty));
    EXPECT_EQ(back.size(), 0u);
}

TEST(Vj, SteadyFlowHitsMinimumRecordSize)
{
    // A long one-directional flow with perfectly predictable headers:
    // all packets after the first should cost exactly 6 bytes.
    Trace t;
    trace::PacketRecord pkt;
    pkt.srcIp = 1;
    pkt.dstIp = 2;
    pkt.srcPort = 100;
    pkt.dstPort = 80;
    pkt.tcpFlags = trace::tcp_flags::Ack;
    pkt.payloadBytes = 1000;
    pkt.window = 65535;
    for (int i = 0; i < 1000; ++i) {
        pkt.timestampNs = static_cast<uint64_t>(i) * 1000000;  // 1ms
        t.add(pkt);
        pkt.seq += 1000;
        ++pkt.ipId;
    }
    vj::VjTraceCompressor codec;
    auto bytes = codec.compress(t);
    // 4 B magic + 2 B varint count + 40 B full record, then every
    // later packet at exactly the 6-byte minimum.
    EXPECT_EQ(bytes.size(), 4u + 2u + 40u +
                                999u * vj::minEncodedBytes);
    expectTshEqual(t, codec.decompress(bytes));
}

TEST(Vj, RatioNearPaperEstimate)
{
    Trace t = webTrace(2, 12.0, 100.0);
    vj::VjTraceCompressor codec;
    double ratio = codec::measure(codec, t).ratio();
    // Paper: ~30 % for web flow-length mixes.
    EXPECT_GT(ratio, 0.20);
    EXPECT_LT(ratio, 0.40);
}

TEST(Vj, RejectsCorruptStream)
{
    vj::VjTraceCompressor codec;
    auto bytes = codec.compress(quantizeUs(webTrace(3, 2.0)));
    bytes[0] ^= 0xff;  // magic
    EXPECT_THROW(codec.decompress(bytes), util::Error);

    auto bytes2 = codec.compress(quantizeUs(webTrace(3, 2.0)));
    bytes2.resize(bytes2.size() / 3);  // truncation
    EXPECT_THROW(codec.decompress(bytes2), util::Error);
}

TEST(Vj, RejectsUnknownCid)
{
    vj::VjTraceCompressor codec;
    Trace t;
    trace::PacketRecord pkt;
    pkt.timestampNs = 0;
    t.add(pkt);
    auto bytes = codec.compress(t);
    // Append a compressed record for CID 5 (never announced).
    bytes.push_back(0x00);
    bytes.push_back(5);
    bytes.push_back(0);
    bytes.push_back(0);
    bytes.push_back(0);
    bytes.push_back(0);
    // Count says 1 packet, so the extra bytes must be rejected as
    // trailing garbage.
    EXPECT_THROW(codec.decompress(bytes), util::Error);
}

// ---- Peuhkuri --------------------------------------------------------------

TEST(Peuhkuri, PreservesTupleTimingFlagsSizes)
{
    Trace t = quantizeUs(webTrace(4));
    peuhkuri::PeuhkuriTraceCompressor codec;
    EXPECT_FALSE(codec.lossless());
    Trace back = codec.decompress(codec.compress(t));
    ASSERT_EQ(back.size(), t.size());
    for (size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(back[i].timestampUs(), t[i].timestampUs());
        EXPECT_EQ(back[i].srcIp, t[i].srcIp);
        EXPECT_EQ(back[i].dstIp, t[i].dstIp);
        EXPECT_EQ(back[i].srcPort, t[i].srcPort);
        EXPECT_EQ(back[i].dstPort, t[i].dstPort);
        EXPECT_EQ(back[i].tcpFlags, t[i].tcpFlags);
        EXPECT_EQ(back[i].payloadBytes, t[i].payloadBytes);
    }
}

TEST(Peuhkuri, CacheEvictionStillDecodesCorrectly)
{
    // Capacity 2 with 3 interleaved flows forces constant recycling;
    // the announced-on-reappearance protocol must stay correct.
    Trace t;
    for (int round = 0; round < 50; ++round) {
        for (uint16_t f = 0; f < 3; ++f) {
            trace::PacketRecord pkt;
            pkt.timestampNs =
                (static_cast<uint64_t>(round) * 3 + f) * 1000000;
            pkt.srcIp = 10 + f;
            pkt.dstIp = 20;
            pkt.srcPort = static_cast<uint16_t>(1000 + f);
            pkt.dstPort = 80;
            pkt.tcpFlags = trace::tcp_flags::Ack;
            pkt.payloadBytes = static_cast<uint16_t>(f * 100);
            t.add(pkt);
        }
    }
    peuhkuri::PeuhkuriTraceCompressor codec(2);
    Trace back = codec.decompress(codec.compress(t));
    ASSERT_EQ(back.size(), t.size());
    for (size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(back[i].srcIp, t[i].srcIp);
        EXPECT_EQ(back[i].timestampUs(), t[i].timestampUs());
        EXPECT_EQ(back[i].payloadBytes, t[i].payloadBytes);
    }
}

TEST(Peuhkuri, RatioBetweenFccAndVj)
{
    Trace t = webTrace(5, 12.0, 100.0);
    peuhkuri::PeuhkuriTraceCompressor codec;
    double ratio = codec::measure(codec, t).ratio();
    // Paper bound is 16 %; our faithful re-encoding lands nearby.
    EXPECT_GT(ratio, 0.10);
    EXPECT_LT(ratio, 0.25);
}

TEST(Peuhkuri, RejectsCorruptStream)
{
    peuhkuri::PeuhkuriTraceCompressor codec;
    auto bytes = codec.compress(quantizeUs(webTrace(6, 2.0)));
    bytes[1] ^= 0xff;
    EXPECT_THROW(codec.decompress(bytes), util::Error);
}

TEST(Peuhkuri, RejectsBadCapacity)
{
    EXPECT_THROW(peuhkuri::PeuhkuriTraceCompressor c(0), util::Error);
    EXPECT_THROW(peuhkuri::PeuhkuriTraceCompressor c(0xffff),
                 util::Error);
}

TEST(FlowCache, LruEvictionOrder)
{
    peuhkuri::FlowCache cache(2);
    auto a = cache.touch(1);
    auto b = cache.touch(2);
    EXPECT_TRUE(a.isNew);
    EXPECT_TRUE(b.isNew);
    EXPECT_FALSE(cache.touch(1).isNew);  // 1 now MRU
    auto c = cache.touch(3);             // evicts 2 (LRU)
    EXPECT_TRUE(c.isNew);
    EXPECT_EQ(c.slot, b.slot);
    EXPECT_FALSE(cache.touch(1).isNew);  // 1 survived
    EXPECT_TRUE(cache.touch(2).isNew);   // 2 was evicted
}

TEST(FlowCache, SingleSlotDegenerate)
{
    peuhkuri::FlowCache cache(1);
    EXPECT_TRUE(cache.touch(1).isNew);
    EXPECT_FALSE(cache.touch(1).isNew);
    EXPECT_TRUE(cache.touch(2).isNew);
    EXPECT_TRUE(cache.touch(1).isNew);
}

// ---- FCC (the proposed method) ------------------------------------------

TEST(Fcc, PreservesFlowAndPacketStructure)
{
    Trace t = webTrace(8);
    fccc::FccTraceCompressor codec;
    EXPECT_FALSE(codec.lossless());
    Trace back = codec.decompress(codec.compress(t));

    // Same number of packets: template matching only pairs flows of
    // identical length.
    EXPECT_EQ(back.size(), t.size());

    flow::FlowTable table;
    auto origStats = flow::computeFlowStats(table.assemble(t), t);
    auto backStats =
        flow::computeFlowStats(table.assemble(back), back);
    EXPECT_EQ(backStats.flows, origStats.flows);
    // Flow length distribution preserved exactly.
    EXPECT_EQ(backStats.lengthCounts, origStats.lengthCounts);
}

TEST(Fcc, ReconstructionFollowsPaperRules)
{
    Trace t = webTrace(9, 4.0);
    fccc::FccTraceCompressor codec;
    Trace back = codec.decompress(codec.compress(t));

    std::set<uint32_t> origServers;
    flow::FlowTable table;
    for (const auto &f : table.assemble(t))
        origServers.insert(f.serverIp);

    for (const auto &pkt : back) {
        // §4: client port random in [1024, 65000], server port 80.
        bool toServer = pkt.dstPort == 80;
        bool fromServer = pkt.srcPort == 80;
        EXPECT_TRUE(toServer != fromServer);
        uint16_t clientPort = toServer ? pkt.srcPort : pkt.dstPort;
        EXPECT_GE(clientPort, 1024);
        EXPECT_LE(clientPort, 65000);
        // The server side of every packet comes from the address
        // dataset (original server addresses).
        uint32_t serverIp = toServer ? pkt.dstIp : pkt.srcIp;
        EXPECT_TRUE(origServers.count(serverIp)) << serverIp;
    }
}

TEST(Fcc, StatisticalFidelityOfClassDistributions)
{
    Trace t = webTrace(10, 10.0, 100.0);
    fccc::FccTraceCompressor codec;
    Trace back = codec.decompress(codec.compress(t));
    ASSERT_EQ(back.size(), t.size());

    auto classCounts = [](const Trace &tr) {
        std::map<int, double> flags;
        std::map<int, double> sizes;
        for (const auto &pkt : tr) {
            ++flags[static_cast<int>(
                flow::flagClass(pkt.tcpFlags))];
            ++sizes[static_cast<int>(
                flow::sizeClass(pkt.payloadBytes))];
        }
        for (auto &[k, v] : flags)
            v /= static_cast<double>(tr.size());
        for (auto &[k, v] : sizes)
            v /= static_cast<double>(tr.size());
        return std::pair(flags, sizes);
    };

    auto [origFlags, origSizes] = classCounts(t);
    auto [backFlags, backSizes] = classCounts(back);
    for (const auto &[cls, share] : origFlags)
        EXPECT_NEAR(backFlags[cls], share, 0.02) << "flag " << cls;
    for (const auto &[cls, share] : origSizes)
        EXPECT_NEAR(backSizes[cls], share, 0.02) << "size " << cls;
}

TEST(Fcc, TimestampsStayCloseToOriginal)
{
    Trace t = webTrace(11, 6.0);
    fccc::FccTraceCompressor codec;
    Trace back = codec.decompress(codec.compress(t));
    EXPECT_TRUE(back.isTimeOrdered());
    // Flow start times are exact; within-flow timing is modeled, so
    // the overall spans must agree closely.
    EXPECT_EQ(back[0].timestampUs(), t[0].timestampUs());
    EXPECT_NEAR(back.durationSec(), t.durationSec(),
                t.durationSec() * 0.2 + 1.0);
}

TEST(Fcc, RatioNearPaperEstimate)
{
    Trace t = webTrace(12, 15.0, 120.0);
    fccc::FccTraceCompressor codec;
    double ratio = codec::measure(codec, t).ratio();
    // Paper: ~3 %.
    EXPECT_GT(ratio, 0.01);
    EXPECT_LT(ratio, 0.06);
}

TEST(Fcc, TimeSeqIsAboutEightBytesPerFlow)
{
    Trace t = webTrace(13, 15.0, 120.0);
    fccc::FccTraceCompressor codec;
    fccc::FccCompressStats stats;
    codec.compressWithStats(t, stats);
    double perFlow = static_cast<double>(stats.sizes.timeSeqBytes) /
                     static_cast<double>(stats.flows);
    // §5: "8 bytes are sufficient to represent each flow".
    EXPECT_GT(perFlow, 5.0);
    EXPECT_LT(perFlow, 11.0);
}

TEST(Fcc, ClusterCountIsSmall)
{
    Trace t = webTrace(14, 15.0, 120.0);
    fccc::FccTraceCompressor codec;
    fccc::FccCompressStats stats;
    codec.compressWithStats(t, stats);
    EXPECT_GT(stats.hitRate(), 0.85);
    EXPECT_LT(stats.shortTemplatesCreated, stats.shortFlows / 10);
    EXPECT_EQ(stats.flows, stats.shortFlows + stats.longFlows);
}

TEST(Fcc, LongFlowsKeepExactTiming)
{
    // One long flow (> 50 packets): inter-packet times must be
    // reproduced exactly (the long-flows-template stores them).
    Trace t;
    trace::PacketRecord pkt;
    pkt.srcIp = 1;
    pkt.dstIp = 2;
    pkt.srcPort = 1234;
    pkt.dstPort = 80;
    pkt.tcpFlags = trace::tcp_flags::Ack;
    pkt.payloadBytes = 800;
    uint64_t ts = 0;
    for (int i = 0; i < 80; ++i) {
        ts += 1000 + static_cast<uint64_t>(i) * 37;
        pkt.timestampNs = ts * 1000;
        t.add(pkt);
    }
    fccc::FccTraceCompressor codec;
    Trace back = codec.decompress(codec.compress(t));
    ASSERT_EQ(back.size(), t.size());
    for (size_t i = 1; i < t.size(); ++i) {
        EXPECT_EQ(back[i].timestampUs() - back[i - 1].timestampUs(),
                  t[i].timestampUs() - t[i - 1].timestampUs());
    }
}

TEST(Fcc, CustomWeightsRoundTrip)
{
    fccc::FccConfig cfg;
    cfg.weights = flow::Weights{32, 8, 2};
    fccc::FccTraceCompressor codec(cfg);
    Trace t = webTrace(15, 3.0);
    Trace back = codec.decompress(codec.compress(t));
    EXPECT_EQ(back.size(), t.size());
}

TEST(Fcc, RejectsBadWeights)
{
    fccc::FccConfig cfg;
    cfg.weights = flow::Weights{4, 4, 4};
    EXPECT_THROW(fccc::FccTraceCompressor{cfg}, util::Error);
    // Weights whose max S exceeds one byte are rejected eagerly.
    cfg.weights = flow::Weights{100, 20, 5};
    EXPECT_THROW(fccc::FccTraceCompressor{cfg}, util::Error);
}

TEST(Fcc, DatasetSerializationRoundTrip)
{
    Trace t = webTrace(16, 4.0);
    fccc::FccTraceCompressor codec;
    fccc::FccCompressStats stats;
    fccc::Datasets d = codec.buildDatasets(t, stats);
    fccc::SizeBreakdown sizes;
    auto bytes = fccc::serializeChunked(d, sizes);
    fccc::Datasets back = fccc::deserialize(bytes);
    EXPECT_EQ(back.chunkSizes, d.chunkSizes);
    EXPECT_EQ(back.shortTemplates.size(), d.shortTemplates.size());
    EXPECT_EQ(back.longTemplates.size(), d.longTemplates.size());
    EXPECT_EQ(back.addresses, d.addresses);
    ASSERT_EQ(back.timeSeq.size(), d.timeSeq.size());
    for (size_t i = 0; i < d.timeSeq.size(); ++i) {
        EXPECT_EQ(back.timeSeq[i].firstTimestampUs,
                  d.timeSeq[i].firstTimestampUs);
        EXPECT_EQ(back.timeSeq[i].isLong, d.timeSeq[i].isLong);
        EXPECT_EQ(back.timeSeq[i].templateIndex,
                  d.timeSeq[i].templateIndex);
        EXPECT_EQ(back.timeSeq[i].rttUs, d.timeSeq[i].rttUs);
        EXPECT_EQ(back.timeSeq[i].addressIndex,
                  d.timeSeq[i].addressIndex);
    }
    // Templates compare element-wise.
    for (size_t i = 0; i < d.shortTemplates.size(); ++i)
        EXPECT_EQ(back.shortTemplates[i].values,
                  d.shortTemplates[i].values);
    for (size_t i = 0; i < d.longTemplates.size(); ++i) {
        EXPECT_EQ(back.longTemplates[i].sValues,
                  d.longTemplates[i].sValues);
        EXPECT_EQ(back.longTemplates[i].iptUs,
                  d.longTemplates[i].iptUs);
    }
}

TEST(Fcc, RejectsCorruptStreams)
{
    Trace t = webTrace(17, 2.0);
    fccc::FccTraceCompressor codec;
    auto bytes = codec.compress(t);

    auto bad = bytes;
    bad[0] ^= 0xff;  // magic
    EXPECT_THROW(codec.decompress(bad), util::Error);

    bad = bytes;
    bad.resize(bad.size() - 5);  // truncated
    EXPECT_THROW(codec.decompress(bad), util::Error);

    bad = bytes;
    bad.push_back(0);  // trailing garbage
    EXPECT_THROW(codec.decompress(bad), util::Error);
}

TEST(Fcc, RecompressionIsStable)
{
    // Compressing the reconstruction again must not blow up: the
    // reconstruction is itself a well-formed web trace.
    Trace t = webTrace(18, 6.0);
    fccc::FccTraceCompressor codec;
    auto first = codec.compress(t);
    Trace back = codec.decompress(first);
    auto second = codec.compress(back);
    EXPECT_LT(second.size(), first.size() * 2);
    EXPECT_GT(second.size(), first.size() / 4);
}

TEST(Fcc, EmptyTrace)
{
    fccc::FccTraceCompressor codec;
    Trace empty;
    Trace back = codec.decompress(codec.compress(empty));
    EXPECT_EQ(back.size(), 0u);
}

// ---- analytical models (§5) ---------------------------------------------

TEST(Models, VjEquation)
{
    // eq. 5: r(1) = 1 (full header); large n tends to 6/50 = 12 %.
    EXPECT_DOUBLE_EQ(codec::vjRatio(1), 1.0);
    EXPECT_NEAR(codec::vjRatio(1000), 0.12, 0.002);
    EXPECT_DOUBLE_EQ(codec::vjRatio(2), (50.0 + 6.0) / 100.0);
}

TEST(Models, FccEquation)
{
    // eq. 7: r(n) = 8 / (50 n).
    EXPECT_DOUBLE_EQ(codec::fccRatio(1), 8.0 / 50.0);
    EXPECT_DOUBLE_EQ(codec::fccRatio(10), 8.0 / 500.0);
}

TEST(Models, PeuhkuriBound)
{
    EXPECT_DOUBLE_EQ(codec::peuhkuriRatio(), 0.16);
}

TEST(Models, AggregateOverPaperLikeDistribution)
{
    // A web-like flow-length mix gives the paper's headline numbers:
    // VJ ~30 %, proposed ~3 %.
    Trace t = webTrace(19, 20.0, 120.0);
    flow::FlowTable table;
    auto stats = flow::computeFlowStats(table.assemble(t), t);
    auto dist = stats.lengthDistribution();

    // Our generator's connection-length mix is somewhat longer than
    // the paper's traces (the model is evaluated per bidirectional
    // connection here), so the VJ aggregate lands slightly below the
    // paper's 30 %; the proposed method's ~1-3 % and the 10x gap
    // between them are the shape under test.
    double vj = codec::aggregateRatio(dist, codec::vjRatio);
    double prop = codec::aggregateRatio(dist, codec::fccRatio);
    EXPECT_GT(vj, 0.12);
    EXPECT_LT(vj, 0.45);
    EXPECT_GT(prop, 0.005);
    EXPECT_LT(prop, 0.05);
    EXPECT_GT(vj / prop, 8.0);
}

TEST(Models, AggregateValidatesInput)
{
    EXPECT_THROW(codec::aggregateRatio({}, codec::vjRatio), util::Error);
    EXPECT_THROW(codec::aggregateRatio({{1, -0.5}}, codec::vjRatio), util::Error);
}

// ---- cross-codec ordering (Figure 1) -------------------------------------

TEST(AllCodecs, RegistryHasFourMethods)
{
    auto codecs = codec::makeAllCodecs();
    ASSERT_EQ(codecs.size(), 4u);
    EXPECT_EQ(codecs[0]->name(), "gzip");
    EXPECT_EQ(codecs[1]->name(), "vj");
    EXPECT_EQ(codecs[2]->name(), "peuhkuri");
    EXPECT_EQ(codecs[3]->name(), "fcc");
}

TEST(AllCodecs, Figure1Ordering)
{
    // The paper's Figure 1: original > gzip > vj > peuhkuri >
    // proposed, at every trace length.
    Trace t = webTrace(20, 16.0, 100.0);
    std::map<std::string, double> ratio;
    for (const auto &codec : codec::makeAllCodecs())
        ratio[codec->name()] = codec::measure(*codec, t).ratio();

    EXPECT_LT(ratio["gzip"], 1.0);
    EXPECT_LT(ratio["vj"], ratio["gzip"]);
    EXPECT_LT(ratio["peuhkuri"], ratio["vj"]);
    EXPECT_LT(ratio["fcc"], ratio["peuhkuri"]);
    // Headline magnitudes.
    EXPECT_NEAR(ratio["gzip"], 0.50, 0.12);
    EXPECT_NEAR(ratio["vj"], 0.30, 0.06);
    EXPECT_NEAR(ratio["fcc"], 0.03, 0.02);
}

TEST(AllCodecs, MeasureUsesTshBaseline)
{
    Trace t = webTrace(21, 2.0);
    vj::VjTraceCompressor codec;
    auto report = codec::measure(codec, t);
    EXPECT_EQ(report.originalTshBytes,
              t.size() * trace::tshRecordBytes);
    EXPECT_EQ(report.codec, "vj");
    EXPECT_GT(report.ratio(), 0.0);
}

TEST(AllCodecs, LosslessCodecsRoundTripViaTsh)
{
    // The lossless codecs must commute with TSH serialization.
    Trace t = quantizeUs(webTrace(22, 3.0));
    for (const auto &codec : codec::makeAllCodecs()) {
        if (!codec->lossless())
            continue;
        Trace back = codec->decompress(codec->compress(t));
        EXPECT_EQ(trace::writeTsh(back), trace::writeTsh(t))
            << codec->name();
    }
}

// ---- deflate on top of the datasets ------------------------------------
//
// The whole-blob zlib hybrid of the row containers is no longer
// written; FCC3 with the deflate backend is its successor, and
// Golden.ArchivesDecodeByteExact pins the hybrid reader.

TEST(FccHybrid, CompressesFurtherAndRoundTrips)
{
    Trace original = webTrace(76, 8.0);

    fccc::FccTraceCompressor plain;
    fccc::FccConfig deflateCfg;
    deflateCfg.container = fccc::ContainerFormat::Fcc3;
    deflateCfg.backend = codec::backend::EntropyBackend::Deflate;
    fccc::FccTraceCompressor deflated(deflateCfg);

    auto plainBytes = plain.compress(original);
    auto deflatedBytes = deflated.compress(original);
    EXPECT_LT(deflatedBytes.size(), plainBytes.size());

    // Either codec instance decodes either container.
    Trace a = plain.decompress(deflatedBytes);
    Trace b = deflated.decompress(plainBytes);
    EXPECT_EQ(a.size(), original.size());
    EXPECT_EQ(b.size(), original.size());
    // Same datasets and chunk layout underneath: identical
    // reconstructions.
    EXPECT_EQ(trace::writeTsh(a), trace::writeTsh(b));
}

TEST(FccHybrid, RatioBelowThreePercent)
{
    Trace original = webTrace(77, 12.0);
    fccc::FccConfig cfg;
    cfg.container = fccc::ContainerFormat::Fcc3;
    cfg.backend = codec::backend::EntropyBackend::Deflate;
    fccc::FccTraceCompressor fcc3(cfg);
    double ratio =
        static_cast<double>(fcc3.compress(original).size()) /
        static_cast<double>(original.size() *
                            trace::tshRecordBytes);
    EXPECT_LT(ratio, 0.03);
}
