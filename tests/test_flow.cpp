/**
 * @file
 * Tests of the flow layer: canonical keys, connection assembly, the
 * paper's S-value characterization (mixed-radix decodability, f1/f2/f3
 * semantics), the similarity rule (eq. 4), the template store and the
 * clustering study tools.
 */

#include <gtest/gtest.h>

#include "codec/fcc/session.hpp"
#include "flow/characterize.hpp"
#include "flow/clustering.hpp"
#include "flow/flow_key.hpp"
#include "flow/flow_stats.hpp"
#include "flow/flow_table.hpp"
#include "flow/template_store.hpp"
#include "trace/scenario_gen.hpp"
#include "trace/web_gen.hpp"
#include "util/error.hpp"

using namespace fcc;
using namespace fcc::flow;
using fcc::trace::PacketRecord;
using fcc::trace::Trace;
namespace tf = fcc::trace::tcp_flags;

namespace {

PacketRecord
mkPacket(uint32_t srcIp, uint16_t srcPort, uint32_t dstIp,
         uint16_t dstPort, uint8_t flags, uint16_t payload,
         uint64_t tUs)
{
    PacketRecord pkt;
    pkt.timestampNs = tUs * 1000;
    pkt.srcIp = srcIp;
    pkt.dstIp = dstIp;
    pkt.srcPort = srcPort;
    pkt.dstPort = dstPort;
    pkt.tcpFlags = flags;
    pkt.payloadBytes = payload;
    return pkt;
}

/** A canonical 7-packet HTTP exchange between client C and server S. */
Trace
tinyConnection(uint32_t clientIp = 0x0a000001,
               uint16_t clientPort = 5000,
               uint32_t serverIp = 0xc0a80001, uint64_t baseUs = 0,
               uint64_t rttUs = 10000)
{
    Trace t;
    uint64_t ts = baseUs;
    t.add(mkPacket(clientIp, clientPort, serverIp, 80, tf::Syn, 0,
                   ts));
    ts += rttUs;
    t.add(mkPacket(serverIp, 80, clientIp, clientPort,
                   tf::Syn | tf::Ack, 0, ts));
    ts += rttUs;
    t.add(mkPacket(clientIp, clientPort, serverIp, 80, tf::Ack, 0,
                   ts));
    ts += 200;
    t.add(mkPacket(clientIp, clientPort, serverIp, 80,
                   tf::Ack | tf::Psh, 300, ts));
    ts += rttUs;
    t.add(mkPacket(serverIp, 80, clientIp, clientPort,
                   tf::Ack | tf::Psh, 1200, ts));
    ts += rttUs;
    t.add(mkPacket(clientIp, clientPort, serverIp, 80,
                   tf::Fin | tf::Ack, 0, ts));
    ts += rttUs;
    t.add(mkPacket(serverIp, 80, clientIp, clientPort,
                   tf::Fin | tf::Ack, 0, ts));
    return t;
}

/**
 * Analysis (FlowTable) and compression (CompressSession) split @p t
 * into the same flows: as many flows as time-seq records, and flow i
 * starts when record i does and has record i's server address (both
 * lists are in canonical flow order).
 */
void
expectSameFlowsAsCompressor(const Trace &t)
{
    std::vector<AssembledFlow> flows = FlowTable().assemble(t);

    codec::fcc::CompressSession session(codec::fcc::FccConfig{});
    session.feed({t.packets().data(), t.size()});
    codec::fcc::Datasets ds = session.sealDatasets();

    ASSERT_EQ(flows.size(), session.stats().flows);
    ASSERT_EQ(ds.timeSeq.size(), flows.size());
    for (size_t i = 0; i < flows.size(); ++i) {
        const codec::fcc::TimeSeqRecord &rec = ds.timeSeq[i];
        EXPECT_EQ(flows[i].firstTimestampNs / 1000, rec.firstTimestampUs)
            << "flow " << i;
        ASSERT_LT(rec.addressIndex, ds.addresses.size());
        EXPECT_EQ(flows[i].serverIp, ds.addresses[rec.addressIndex])
            << "flow " << i;
    }
}

/**
 * @p t with every timestamp scaled by flowIdleTimeoutNs / 1 ms: a gap
 * above 1 ms becomes one above the idle timeout, so the stretched
 * trace splits into the flows a 1 ms timeout would cut @p t into.
 */
Trace
stretched(const Trace &t)
{
    constexpr uint64_t factor = flowIdleTimeoutNs / 1000000;
    Trace out;
    for (PacketRecord pkt : t) {
        pkt.timestampNs *= factor;
        out.add(pkt);
    }
    return out;
}

} // namespace

// ---- FlowKey -------------------------------------------------------------

TEST(FlowKey, BothDirectionsShareOneKey)
{
    auto fwd = mkPacket(1, 100, 2, 200, tf::Ack, 0, 0);
    auto rev = mkPacket(2, 200, 1, 100, tf::Ack, 0, 0);
    EXPECT_EQ(FlowKey::fromPacket(fwd), FlowKey::fromPacket(rev));
    EXPECT_EQ(FlowKey::fromPacket(fwd).hash(),
              FlowKey::fromPacket(rev).hash());
}

TEST(FlowKey, DirectionIsRecoverable)
{
    auto fwd = mkPacket(1, 100, 2, 200, tf::Ack, 0, 0);
    auto rev = mkPacket(2, 200, 1, 100, tf::Ack, 0, 0);
    FlowKey key = FlowKey::fromPacket(fwd);
    EXPECT_NE(key.packetFromA(fwd), key.packetFromA(rev));
}

TEST(FlowKey, DistinctFlowsDiffer)
{
    auto a = mkPacket(1, 100, 2, 200, tf::Ack, 0, 0);
    auto b = mkPacket(1, 101, 2, 200, tf::Ack, 0, 0);
    EXPECT_NE(FlowKey::fromPacket(a), FlowKey::fromPacket(b));
}

TEST(FlowKey, SameIpDifferentPorts)
{
    // Packets between the same host pair on swapped ports must
    // canonicalize consistently.
    auto a = mkPacket(5, 80, 5, 443, tf::Ack, 0, 0);
    auto b = mkPacket(5, 443, 5, 80, tf::Ack, 0, 0);
    EXPECT_EQ(FlowKey::fromPacket(a), FlowKey::fromPacket(b));
}

// ---- FlowTable -------------------------------------------------------------

TEST(FlowTable, AssemblesOneConnection)
{
    Trace t = tinyConnection();
    FlowTable table;
    auto flows = table.assemble(t);
    ASSERT_EQ(flows.size(), 1u);
    EXPECT_EQ(flows[0].size(), 7u);
    EXPECT_EQ(flows[0].clientIp, 0x0a000001u);
    EXPECT_EQ(flows[0].serverIp, 0xc0a80001u);
    EXPECT_EQ(flows[0].serverPort, 80);
}

TEST(FlowTable, DirectionBitsMatchInitiator)
{
    Trace t = tinyConnection();
    FlowTable table;
    auto flows = table.assemble(t);
    ASSERT_EQ(flows.size(), 1u);
    std::vector<bool> expect = {true, false, true, true,
                                false, true, false};
    EXPECT_EQ(flows[0].fromClient, expect);
}

TEST(FlowTable, SeparatesInterleavedConnections)
{
    Trace a = tinyConnection(0x0a000001, 5000, 0xc0a80001, 0);
    Trace b = tinyConnection(0x0a000002, 6000, 0xc0a80002, 500);
    Trace merged;
    for (const auto &pkt : a)
        merged.add(pkt);
    for (const auto &pkt : b)
        merged.add(pkt);
    merged.sortByTime();

    FlowTable table;
    auto flows = table.assemble(merged);
    ASSERT_EQ(flows.size(), 2u);
    EXPECT_EQ(flows[0].size(), 7u);
    EXPECT_EQ(flows[1].size(), 7u);
    // Ordered by first timestamp.
    EXPECT_LE(flows[0].firstTimestampNs, flows[1].firstTimestampNs);
}

TEST(FlowTable, RstClosesFlowImmediately)
{
    Trace t;
    t.add(mkPacket(1, 100, 2, 80, tf::Syn, 0, 0));
    t.add(mkPacket(2, 80, 1, 100, tf::Syn | tf::Ack, 0, 100));
    t.add(mkPacket(1, 100, 2, 80, tf::Rst, 0, 200));
    // Same 5-tuple reused later: must become a second flow.
    t.add(mkPacket(1, 100, 2, 80, tf::Syn, 0, 5000));
    t.add(mkPacket(2, 80, 1, 100, tf::Syn | tf::Ack, 0, 5100));

    FlowTable table;
    auto flows = table.assemble(t);
    ASSERT_EQ(flows.size(), 2u);
    EXPECT_EQ(flows[0].size(), 3u);
    EXPECT_EQ(flows[1].size(), 2u);
}

TEST(FlowTable, GracefulCloseEndsAfterFinalAck)
{
    Trace t;
    t.add(mkPacket(1, 100, 2, 80, tf::Syn, 0, 0));
    t.add(mkPacket(2, 80, 1, 100, tf::Syn | tf::Ack, 0, 100));
    t.add(mkPacket(1, 100, 2, 80, tf::Ack, 0, 200));
    t.add(mkPacket(2, 80, 1, 100, tf::Fin | tf::Ack, 0, 300));
    // An ACK after a FIN in one direction only: a half-close, the
    // connection stays open.
    t.add(mkPacket(1, 100, 2, 80, tf::Ack, 0, 350));
    t.add(mkPacket(1, 100, 2, 80, tf::Fin | tf::Ack, 0, 400));
    t.add(mkPacket(2, 80, 1, 100, tf::Ack, 0, 500));
    // New connection on the same tuple.
    t.add(mkPacket(1, 100, 2, 80, tf::Syn, 0, 600));

    FlowTable table;
    auto flows = table.assemble(t);
    ASSERT_EQ(flows.size(), 2u);
    EXPECT_EQ(flows[0].size(), 7u);
    EXPECT_EQ(flows[1].size(), 1u);
}

TEST(FlowTable, IdleTimeoutSplitsFlows)
{
    constexpr uint64_t timeoutUs = flowIdleTimeoutNs / 1000;
    Trace t;
    t.add(mkPacket(1, 100, 2, 80, tf::Ack, 10, 0));
    t.add(mkPacket(1, 100, 2, 80, tf::Ack, 10, 100));
    t.add(mkPacket(1, 100, 2, 80, tf::Ack, 10, 100 + timeoutUs + 4900));
    FlowTable table;
    auto flows = table.assemble(t);
    ASSERT_EQ(flows.size(), 2u);
    EXPECT_EQ(flows[0].size(), 2u);
    EXPECT_EQ(flows[1].size(), 1u);
}

TEST(FlowTable, SynAckFirstIdentifiesReceiverAsClient)
{
    // Capture that starts mid-handshake.
    Trace t;
    t.add(mkPacket(2, 80, 1, 100, tf::Syn | tf::Ack, 0, 0));
    t.add(mkPacket(1, 100, 2, 80, tf::Ack, 0, 100));
    FlowTable table;
    auto flows = table.assemble(t);
    ASSERT_EQ(flows.size(), 1u);
    EXPECT_EQ(flows[0].clientIp, 1u);
    EXPECT_EQ(flows[0].serverIp, 2u);
}

TEST(FlowTable, RequiresTimeOrderedInput)
{
    Trace t;
    t.add(mkPacket(1, 100, 2, 80, tf::Ack, 0, 1000));
    t.add(mkPacket(1, 100, 2, 80, tf::Ack, 0, 0));
    FlowTable table;
    EXPECT_THROW(table.assemble(t), util::Error);
}

TEST(FlowTable, EveryPacketAssignedExactlyOnce)
{
    trace::WebGenConfig cfg;
    cfg.seed = 77;
    cfg.durationSec = 5;
    cfg.flowsPerSec = 80;
    trace::WebTrafficGenerator gen(cfg);
    Trace t = gen.generate();
    FlowTable table;
    auto flows = table.assemble(t);
    std::vector<bool> seen(t.size(), false);
    for (const auto &f : flows) {
        for (uint32_t idx : f.packetIndex) {
            ASSERT_LT(idx, t.size());
            EXPECT_FALSE(seen[idx]);
            seen[idx] = true;
        }
    }
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(FlowTable, SplitsLikeTheCompressor)
{
    // Each trace as generated, then stretched so that its gaps above
    // 1 ms pass the idle timeout (port reuse churns the table).
    trace::WebGenConfig webCfg;
    webCfg.seed = 78;
    webCfg.durationSec = 5;
    webCfg.flowsPerSec = 80;
    Trace web = trace::WebTrafficGenerator(webCfg).generate();
    expectSameFlowsAsCompressor(web);
    expectSameFlowsAsCompressor(stretched(web));
    EXPECT_GT(FlowTable().assemble(stretched(web)).size(),
              FlowTable().assemble(web).size());

    for (trace::ScenarioKind kind :
         {trace::ScenarioKind::LossStorm, trace::ScenarioKind::Reordering,
          trace::ScenarioKind::SynFlood}) {
        SCOPED_TRACE(trace::scenarioName(kind));
        trace::ScenarioConfig cfg = trace::scenarioDefaults(kind, 2005);
        cfg.durationSec = 2.0;
        cfg.flows = 200;
        Trace t = trace::ScenarioGenerator(cfg).generate();
        expectSameFlowsAsCompressor(t);
        expectSameFlowsAsCompressor(stretched(t));
    }

    // Port reuse after the idle timeout, a capture that starts at the
    // SYN+ACK, an RST close, a 5-tuple reused in the nanosecond its
    // RST closed it, and two flows that start together.
    Trace hand;
    hand.add(mkPacket(1, 100, 2, 80, tf::Ack, 10, 0));
    hand.add(mkPacket(2, 80, 3, 200, tf::Syn | tf::Ack, 0, 50));
    hand.add(mkPacket(1, 100, 2, 80, tf::Ack, 10, 100));
    hand.add(mkPacket(3, 200, 2, 80, tf::Ack, 0, 150));
    hand.add(mkPacket(4, 300, 5, 443, tf::Syn, 0, 400));
    hand.add(mkPacket(6, 301, 5, 443, tf::Syn, 0, 400));
    hand.add(mkPacket(5, 443, 4, 300, tf::Rst, 0, 900));
    hand.add(mkPacket(5, 443, 4, 310, tf::Rst, 0, 900));
    hand.add(mkPacket(4, 310, 5, 443, tf::Ack, 0, 900));
    hand.add(mkPacket(1, 100, 2, 80, tf::Ack, 10, 5000));  // reuse
    hand.add(mkPacket(2, 80, 1, 100, tf::Rst, 0, 5100));
    Trace tiny = tinyConnection(7, 5000, 8, 6000);
    for (const PacketRecord &pkt : tiny)
        hand.add(pkt);
    expectSameFlowsAsCompressor(stretched(hand));
    expectSameFlowsAsCompressor(hand);  // no gap reaches the timeout
    EXPECT_GT(FlowTable().assemble(stretched(hand)).size(),
              FlowTable().assemble(hand).size());
}

// ---- characterization -------------------------------------------------

TEST(Characterize, FlagClasses)
{
    EXPECT_EQ(flagClass(tf::Syn), FlagClass::Syn);
    EXPECT_EQ(flagClass(tf::Syn | tf::Ack), FlagClass::SynAck);
    EXPECT_EQ(flagClass(tf::Ack), FlagClass::Ack);
    EXPECT_EQ(flagClass(tf::Ack | tf::Psh), FlagClass::Ack);
    EXPECT_EQ(flagClass(tf::Fin | tf::Ack), FlagClass::FinRst);
    EXPECT_EQ(flagClass(tf::Rst), FlagClass::FinRst);
    EXPECT_EQ(flagClass(0), FlagClass::Ack);
}

TEST(Characterize, SizeClasses)
{
    EXPECT_EQ(sizeClass(0), SizeClass::Empty);
    EXPECT_EQ(sizeClass(1), SizeClass::Small);
    EXPECT_EQ(sizeClass(500), SizeClass::Small);
    EXPECT_EQ(sizeClass(501), SizeClass::Large);
    EXPECT_EQ(sizeClass(1460), SizeClass::Large);
}

TEST(Characterize, DefaultWeightsAreThePapers)
{
    Weights w;
    EXPECT_EQ(w.w1, 16);
    EXPECT_EQ(w.w2, 4);
    EXPECT_EQ(w.w3, 1);
    EXPECT_TRUE(w.decodable());
}

TEST(Characterize, EncodeDecodeBijection)
{
    Characterizer chi;
    for (int f1 = 0; f1 <= 3; ++f1) {
        for (int dep = 0; dep <= 1; ++dep) {
            for (int f3 = 0; f3 <= 2; ++f3) {
                PacketClass cls;
                cls.flag = static_cast<FlagClass>(f1);
                cls.dependent = dep == 1;
                cls.size = static_cast<SizeClass>(f3);
                uint16_t s = chi.encode(cls);
                EXPECT_LE(s, chi.maxValue());
                EXPECT_EQ(chi.decode(s), cls);
            }
        }
    }
}

TEST(Characterize, PaperEncodingValues)
{
    // With weights {16,4,1}: a SYN (independent, empty) scores 4;
    // a dependent SYN+ACK scores 16; a dependent large data packet
    // scores 2*16 + 0 + 2 = 34.
    Characterizer chi;
    PacketClass syn{FlagClass::Syn, false, SizeClass::Empty};
    EXPECT_EQ(chi.encode(syn), 4);
    PacketClass synack{FlagClass::SynAck, true, SizeClass::Empty};
    EXPECT_EQ(chi.encode(synack), 16);
    PacketClass data{FlagClass::Ack, true, SizeClass::Large};
    EXPECT_EQ(chi.encode(data), 34);
    EXPECT_EQ(chi.maxValue(), 16 * 3 + 4 + 2);
}

TEST(Characterize, RejectsNonDecodableWeights)
{
    Weights w;
    w.w1 = 4;  // w1 must exceed w2 + 2*w3 = 6
    EXPECT_THROW(Characterizer{w}, util::Error);
    w = Weights{};
    w.w2 = 2;  // w2 must exceed 2*w3 = 2
    EXPECT_THROW(Characterizer{w}, util::Error);
    w = Weights{};
    w.w3 = 0;
    EXPECT_THROW(Characterizer{w}, util::Error);
}

TEST(Characterize, AlternativeWeightsWork)
{
    Weights w{32, 8, 2};
    Characterizer chi(w);
    PacketClass cls{FlagClass::FinRst, false, SizeClass::Large};
    EXPECT_EQ(chi.decode(chi.encode(cls)), cls);
}

TEST(Characterize, DecodeRejectsInvalidS)
{
    Characterizer chi;
    EXPECT_THROW(chi.decode(55), util::Error);   // beyond max
    EXPECT_THROW(chi.decode(15), util::Error);   // f2=3 impossible
}

TEST(Characterize, DependenceFollowsDirectionChanges)
{
    Trace t = tinyConnection();
    FlowTable table;
    auto flows = table.assemble(t);
    ASSERT_EQ(flows.size(), 1u);
    Characterizer chi;
    SfVector sf = chi.characterize(flows[0], t);
    ASSERT_EQ(sf.size(), 7u);

    // Packet 0 (SYN, independent): f1=0,f2=1,f3=0 -> 4.
    EXPECT_EQ(sf.values[0], 4);
    // Packet 1 (SYN+ACK, dependent): 16.
    EXPECT_EQ(sf.values[1], 16);
    // Packet 2 (handshake ACK, dependent): 2*16 + 0 = 32.
    EXPECT_EQ(sf.values[2], 32);
    // Packet 3 (request 300 B, same direction -> independent):
    // 2*16 + 4 + 1 = 37.
    EXPECT_EQ(sf.values[3], 37);
    // Packet 4 (response 1200 B, dependent): 2*16 + 2 = 34.
    EXPECT_EQ(sf.values[4], 34);
    // Packet 5 (client FIN, dependent): 3*16 = 48.
    EXPECT_EQ(sf.values[5], 48);
    // Packet 6 (server FIN, dependent): 48.
    EXPECT_EQ(sf.values[6], 48);
}

// ---- similarity / distance ----------------------------------------------

TEST(Similarity, DistanceIsL1)
{
    SfVector a{{4, 16, 32}};
    SfVector b{{4, 20, 30}};
    EXPECT_EQ(sfDistance(a, b), 6u);
    EXPECT_EQ(sfDistance(a, a), 0u);
}

TEST(Similarity, DistanceRequiresSameLength)
{
    SfVector a{{1, 2}};
    SfVector b{{1, 2, 3}};
    EXPECT_THROW(sfDistance(a, b), util::Error);
}

TEST(Similarity, EarlyExitAtLimit)
{
    SfVector a{{0, 0, 0}};
    SfVector b{{50, 50, 50}};
    EXPECT_GE(sfDistance(a, b, 10), 10u);
}

TEST(Similarity, PaperThresholdEquation)
{
    // eq. 4: d_sim = n * 50 * 2 / 100 = n.
    SimilarityRule rule;
    EXPECT_EQ(rule.threshold(1), 1u);
    EXPECT_EQ(rule.threshold(10), 10u);
    EXPECT_EQ(rule.threshold(50), 50u);
    SimilarityRule loose;
    loose.percent = 10.0;
    EXPECT_EQ(loose.threshold(10), 50u);
}

// ---- template store -----------------------------------------------------

TEST(TemplateStore, FirstFlowCreatesCluster)
{
    TemplateStore store;
    SfVector v{{4, 16, 32, 37}};
    auto m = store.findOrInsert(v);
    EXPECT_TRUE(m.isNew);
    EXPECT_EQ(m.index, 0u);
    EXPECT_EQ(store.size(), 1u);
}

TEST(TemplateStore, IdenticalFlowMatches)
{
    TemplateStore store;
    SfVector v{{4, 16, 32, 37}};
    store.findOrInsert(v);
    auto m = store.findOrInsert(v);
    EXPECT_FALSE(m.isNew);
    EXPECT_EQ(m.index, 0u);
    EXPECT_EQ(m.distance, 0u);
    EXPECT_EQ(store.size(), 1u);
}

TEST(TemplateStore, SimilarWithinThresholdMatches)
{
    TemplateStore store;
    SfVector centre{{4, 16, 32, 37, 34}};  // n=5 -> d_sim=5
    store.findOrInsert(centre);
    SfVector near{{4, 16, 32, 37, 38}};  // distance 4 < 5
    auto m = store.findOrInsert(near);
    EXPECT_FALSE(m.isNew);
    EXPECT_EQ(m.distance, 4u);
}

TEST(TemplateStore, DistanceAtThresholdIsNewCluster)
{
    TemplateStore store;
    SfVector centre{{4, 16, 32, 37, 34}};
    store.findOrInsert(centre);
    SfVector edge{{4, 16, 32, 37, 39}};  // distance 5 == d_sim
    auto m = store.findOrInsert(edge);
    EXPECT_TRUE(m.isNew);
    EXPECT_EQ(store.size(), 2u);
}

TEST(TemplateStore, DifferentLengthsNeverMatch)
{
    TemplateStore store;
    store.findOrInsert(SfVector{{4, 16}});
    auto m = store.findOrInsert(SfVector{{4, 16, 32}});
    EXPECT_TRUE(m.isNew);
}

TEST(TemplateStore, PicksClosestTemplate)
{
    SimilarityRule loose;
    loose.percent = 20.0;  // d_sim = 10n
    TemplateStore store(loose);
    store.insert(SfVector{{10, 10}});
    store.insert(SfVector{{14, 14}});
    auto m = store.find(SfVector{{13, 14}});
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->index, 1u);  // distance 1 beats distance 7
}

TEST(TemplateStore, PopulationsTracked)
{
    TemplateStore store;
    SfVector v{{4, 16, 32}};
    store.findOrInsert(v);
    store.findOrInsert(v);
    store.findOrInsert(v);
    EXPECT_EQ(store.populations()[0], 3u);
}

TEST(TemplateStore, AtValidatesIndex)
{
    TemplateStore store;
    EXPECT_THROW(store.at(0), util::Error);
}

// ---- clustering study ---------------------------------------------------

TEST(Clustering, FewClustersForSimilarWebFlows)
{
    // The §2.1 claim: many web flows, few clusters.
    trace::WebGenConfig cfg;
    cfg.seed = 100;
    cfg.durationSec = 20;
    cfg.flowsPerSec = 100;
    trace::WebTrafficGenerator gen(cfg);
    Trace t = gen.generate();
    FlowTable table;
    auto flows = table.assemble(t);
    Characterizer chi;
    std::vector<SfVector> vectors;
    for (const auto &f : flows)
        if (f.size() <= 50)
            vectors.push_back(chi.characterize(f, t));

    auto summary = summarizeDiversity(vectors);
    EXPECT_GT(summary.flows, 1500u);
    // Orders of magnitude fewer clusters than flows.
    EXPECT_LT(summary.clusters,
              summary.flows / 10);
    EXPECT_GT(summary.top10Share, 0.4);
}

TEST(Clustering, KMedoidsSeparatesObviousClusters)
{
    // Two tight groups of length-4 vectors.
    std::vector<SfVector> vectors;
    for (int i = 0; i < 20; ++i)
        vectors.push_back(SfVector{
            {static_cast<uint16_t>(4 + i % 2), 16, 32, 34}});
    for (int i = 0; i < 20; ++i)
        vectors.push_back(SfVector{
            {48, static_cast<uint16_t>(36 + i % 2), 6, 20}});

    util::Rng rng(5);
    auto result = kMedoids(vectors, 2, rng);
    EXPECT_EQ(result.medoids.size(), 2u);
    // All of group one together, all of group two together.
    for (int i = 1; i < 20; ++i)
        EXPECT_EQ(result.assignment[i], result.assignment[0]);
    for (int i = 21; i < 40; ++i)
        EXPECT_EQ(result.assignment[i], result.assignment[20]);
    EXPECT_NE(result.assignment[0], result.assignment[20]);

    double s = silhouette(vectors, result.assignment);
    EXPECT_GT(s, 0.8);
}

TEST(Clustering, KMedoidsValidatesArguments)
{
    util::Rng rng(1);
    std::vector<SfVector> empty;
    EXPECT_THROW(kMedoids(empty, 1, rng), util::Error);
    std::vector<SfVector> one = {SfVector{{1}}};
    EXPECT_THROW(kMedoids(one, 2, rng), util::Error);
    std::vector<SfVector> mixed = {SfVector{{1}}, SfVector{{1, 2}}};
    EXPECT_THROW(kMedoids(mixed, 1, rng), util::Error);
}

TEST(Clustering, KMedoidsCostDecreasesWithMoreClusters)
{
    util::Rng rng(7);
    std::vector<SfVector> vectors;
    for (int i = 0; i < 60; ++i)
        vectors.push_back(SfVector{
            {static_cast<uint16_t>(i % 5 * 10),
             static_cast<uint16_t>(i % 7 * 5), 20, 30}});
    auto r1 = kMedoids(vectors, 1, rng);
    auto r4 = kMedoids(vectors, 4, rng);
    EXPECT_LE(r4.totalCost, r1.totalCost);
}

// ---- flow stats -----------------------------------------------------------

TEST(FlowStats, SharesAndDistribution)
{
    Trace t = tinyConnection();
    FlowTable table;
    auto flows = table.assemble(t);
    auto stats = computeFlowStats(flows, t);
    EXPECT_EQ(stats.flows, 1u);
    EXPECT_EQ(stats.packets, 7u);
    EXPECT_EQ(stats.shortFlows, 1u);
    EXPECT_DOUBLE_EQ(stats.shortFlowShare(), 1.0);
    EXPECT_DOUBLE_EQ(stats.meanFlowLength(), 7.0);

    auto dist = stats.lengthDistribution();
    ASSERT_EQ(dist.size(), 1u);
    EXPECT_EQ(dist[0].first, 7u);
    EXPECT_DOUBLE_EQ(dist[0].second, 1.0);
}

TEST(FlowStats, ShortLimitBoundary)
{
    // Build one 50-packet and one 51-packet flow.
    Trace t;
    for (int i = 0; i < 50; ++i)
        t.add(mkPacket(1, 100, 2, 80, tf::Ack, 10,
                       static_cast<uint64_t>(i) * 100));
    for (int i = 0; i < 51; ++i)
        t.add(mkPacket(1, 101, 2, 80, tf::Ack, 10,
                       static_cast<uint64_t>(i) * 100 + 10));
    t.sortByTime();
    FlowTable table;
    auto flows = table.assemble(t);
    auto stats = computeFlowStats(flows, t);
    EXPECT_EQ(stats.flows, 2u);
    EXPECT_EQ(stats.shortFlows, 1u);
    EXPECT_EQ(stats.shortPackets, 50u);
}
