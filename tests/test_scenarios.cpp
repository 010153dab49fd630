/**
 * @file
 * Property-based round-trip harness over the adversarial scenario
 * matrix (trace/scenario_gen.hpp).
 *
 * For every scenario the core property is cross-cell byte
 * exactness: the codec is lossy, so the invariant is not original ≡
 * reconstructed but that every (container × backend × index ×
 * thread-count) cell reconstructs the *same* TSH bytes — FCC2 and
 * FCC3 with equal chunkRecords, any entropy backend, indexed or
 * not, at 1/2/4/8 threads. On top of that: compression itself is
 * thread-count invariant, indexed queries match full decodes
 * bit-exactly, and a seeded fuzz sweep drives every generator
 * through its parameter edges (0 flows, 1 flow, max rate,
 * pathological tails).
 *
 * Set FCC_TEST_SMOKE=1 to shrink trace sizes and fuzz seeds (used
 * by the sanitizer CI jobs).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <tuple>
#include <vector>

#include "analysis/complexity.hpp"
#include "codec/backend/backend.hpp"
#include "codec/fcc/fcc_codec.hpp"
#include "codec/fcc/stream.hpp"
#include "query/query.hpp"
#include "trace/scenario_gen.hpp"
#include "trace/tsh.hpp"
#include "util/error.hpp"

#include "test_common.hpp"

using namespace fcc;
namespace fccc = fcc::codec::fcc;
using backendEnum = fcc::codec::backend::EntropyBackend;

namespace {

/** Explicit TSH spec for the raw 44-byte record fixtures. */
const trace::TraceFormatSpec kTsh =
    trace::parseTraceFormatSpec("tsh");

using fcc::test::smokeTests;
using fcc::test::tempPath;

std::vector<uint8_t>
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
}

/**
 * Test-sized scenario config: the per-kind shape from
 * scenarioDefaults() with flow counts small enough that the full
 * 5-cell × 4-thread matrix stays fast.
 */
trace::ScenarioConfig
scenarioTestConfig(trace::ScenarioKind kind, uint64_t seed)
{
    trace::ScenarioConfig cfg = trace::scenarioDefaults(kind, seed);
    cfg.durationSec = 4.0;
    switch (kind) {
    case trace::ScenarioKind::SynFlood: cfg.flows = 1200; break;
    case trace::ScenarioKind::PortScan: cfg.flows = 800; break;
    case trace::ScenarioKind::Elephants:
        cfg.flows = 48;
        cfg.maxFlowLen = 600;
        break;
    case trace::ScenarioKind::Incast:
        cfg.flows = 24;
        cfg.incastRounds = 5;
        break;
    case trace::ScenarioKind::Reordering: cfg.flows = 300; break;
    case trace::ScenarioKind::LossStorm: cfg.flows = 120; break;
    case trace::ScenarioKind::MixedTail:
        cfg.flows = 400;
        cfg.maxFlowLen = 300;
        break;
    }
    if (smokeTests())
        cfg.flows = std::max<uint32_t>(1, cfg.flows / 8);
    return cfg;
}

bool
samePacket(const trace::PacketRecord &a, const trace::PacketRecord &b)
{
    auto key = [](const trace::PacketRecord &p) {
        return std::tuple(p.timestampNs, p.srcIp, p.dstIp, p.srcPort,
                          p.dstPort, p.protocol, p.tcpFlags,
                          p.payloadBytes, p.seq, p.ack, p.window,
                          p.ipId);
    };
    return key(a) == key(b);
}

bool
sameTrace(const trace::Trace &a, const trace::Trace &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (!samePacket(a.packets()[i], b.packets()[i]))
            return false;
    return true;
}

/** One compression cell of the matrix. */
struct Cell
{
    const char *name;
    fccc::ContainerFormat container;
    backendEnum backend;
    bool index;
};

std::vector<Cell>
matrixCells()
{
    return {
        {"fcc2", fccc::ContainerFormat::Fcc2, backendEnum::Deflate,
         false},
        {"fcc3-store", fccc::ContainerFormat::Fcc3,
         backendEnum::Store, false},
        {"fcc3-deflate", fccc::ContainerFormat::Fcc3,
         backendEnum::Deflate, false},
        {"fcc3-range", fccc::ContainerFormat::Fcc3,
         backendEnum::Range, false},
        {"fcc3-indexed", fccc::ContainerFormat::Fcc3,
         backendEnum::Deflate, true},
    };
}

fccc::FccConfig
cellConfig(const Cell &cell, uint32_t threads)
{
    fccc::FccConfig cfg;
    cfg.container = cell.container;
    cfg.backend = cell.backend;
    cfg.index = cell.index;
    cfg.threads = threads;
    // Small chunks so every scenario spans several chunks and the
    // elephant flows cross chunk boundaries.
    cfg.chunkRecords = 64;
    return cfg;
}

} // namespace

TEST(ScenarioGen, DeterministicAndTimeOrdered)
{
    for (trace::ScenarioKind kind : trace::allScenarios()) {
        SCOPED_TRACE(trace::scenarioName(kind));
        trace::ScenarioConfig cfg = scenarioTestConfig(kind, 77);
        trace::ScenarioGenerator gen(cfg);
        trace::Trace first = gen.generate();
        trace::ScenarioInfo info = gen.info();

        EXPECT_TRUE(first.isTimeOrdered());
        EXPECT_GT(first.size(), 0u);
        EXPECT_EQ(info.packets, first.size());
        EXPECT_GT(info.flows, 0u);
        EXPECT_GT(info.maxFlowPackets, 0u);

        // Same generator again and a fresh generator: identical.
        trace::Trace again = gen.generate();
        EXPECT_TRUE(sameTrace(first, again));
        trace::ScenarioGenerator fresh(cfg);
        EXPECT_TRUE(sameTrace(first, fresh.generate()));

        // A different seed changes the trace.
        cfg.seed = 78;
        trace::ScenarioGenerator other(cfg);
        EXPECT_FALSE(sameTrace(first, other.generate()));
    }
}

TEST(ScenarioGen, ScenarioShapesHold)
{
    {
        auto cfg =
            scenarioTestConfig(trace::ScenarioKind::SynFlood, 5);
        trace::ScenarioGenerator gen(cfg);
        trace::Trace t = gen.generate();
        // One packet per flow, all SYNs.
        EXPECT_EQ(gen.info().maxFlowPackets, 1u);
        EXPECT_EQ(t.size(), cfg.flows);
        for (const auto &pkt : t.packets()) {
            EXPECT_TRUE(pkt.hasSyn());
            EXPECT_FALSE(pkt.hasAck());
            EXPECT_EQ(pkt.payloadBytes, 0u);
        }
    }
    {
        auto cfg =
            scenarioTestConfig(trace::ScenarioKind::Elephants, 5);
        trace::ScenarioGenerator gen(cfg);
        trace::Trace t = gen.generate();
        // The elephants outlive most of the capture and dwarf the
        // paper's 50-packet short-flow limit.
        EXPECT_GT(gen.info().maxFlowPackets, 100u);
        EXPECT_GT(t.durationSec(), cfg.durationSec * 0.8);
    }
    {
        auto cfg =
            scenarioTestConfig(trace::ScenarioKind::Reordering, 5);
        trace::ScenarioGenerator gen(cfg);
        gen.generate();
        EXPECT_GT(gen.info().reorderedPackets, 0u);
    }
    {
        auto cfg =
            scenarioTestConfig(trace::ScenarioKind::LossStorm, 5);
        trace::ScenarioGenerator gen(cfg);
        gen.generate();
        EXPECT_GT(gen.info().retransmissions, 0u);
    }
}

TEST(ScenarioGen, RejectsBadParameters)
{
    trace::ScenarioConfig cfg;
    cfg.durationSec = 0;
    EXPECT_THROW(trace::ScenarioGenerator{cfg}, util::Error);
    cfg = {};
    cfg.tailAlpha = 0;
    EXPECT_THROW(trace::ScenarioGenerator{cfg}, util::Error);
    cfg = {};
    cfg.reorderFraction = 1.5;
    EXPECT_THROW(trace::ScenarioGenerator{cfg}, util::Error);
    cfg = {};
    cfg.mss = 100;
    EXPECT_THROW(trace::ScenarioGenerator{cfg}, util::Error);
    cfg = {};
    cfg.serverCount = 0;
    EXPECT_THROW(trace::ScenarioGenerator{cfg}, util::Error);
}

/**
 * The acceptance property: every (container × backend × index ×
 * thread-count) cell reconstructs byte-identical TSH output, and
 * compression is thread-count invariant per cell.
 */
TEST(ScenarioRoundTrip, MatrixCellsAreByteExact)
{
    const std::vector<uint32_t> threadCounts = {1, 2, 4, 8};
    for (trace::ScenarioKind kind : trace::allScenarios()) {
        SCOPED_TRACE(trace::scenarioName(kind));
        trace::ScenarioConfig scfg = scenarioTestConfig(kind, 2005);
        trace::ScenarioGenerator gen(scfg);
        trace::Trace original = gen.generate();

        std::string tshIn = tempPath("matrix_in.tsh");
        trace::writeTshFile(original, tshIn);

        std::vector<uint8_t> reference;  // first cell's TSH bytes
        for (const Cell &cell : matrixCells()) {
            SCOPED_TRACE(cell.name);
            std::vector<uint8_t> compressedRef;
            for (uint32_t threads : threadCounts) {
                SCOPED_TRACE(threads);
                fccc::FccConfig cfg = cellConfig(cell, threads);
                std::string fccOut = tempPath("matrix_out.fcc");
                std::string tshBack = tempPath("matrix_back.tsh");

                auto stats =
                    fccc::compressTraceFile(tshIn, fccOut, cfg, kTsh);
                EXPECT_EQ(stats.packets, original.size());

                // Compressed bytes are thread-count invariant.
                std::vector<uint8_t> compressed =
                    readFileBytes(fccOut);
                if (compressedRef.empty())
                    compressedRef = compressed;
                else
                    EXPECT_EQ(compressed, compressedRef);

                // Reconstruction is identical across every cell.
                fccc::decompressTraceFile(fccOut, tshBack, cfg, kTsh);
                std::vector<uint8_t> back =
                    readFileBytes(tshBack);
                EXPECT_EQ(back.size(),
                          original.size() * trace::tshRecordBytes);
                if (reference.empty())
                    reference = back;
                else
                    EXPECT_EQ(back, reference);

                std::remove(fccOut.c_str());
                std::remove(tshBack.c_str());
            }
        }
        std::remove(tshIn.c_str());
    }
}

/**
 * Regression: the §4 flush and the query merge used to order
 * equal-timestamp packets by heap insertion order, which depends on
 * the chunk batch size — i.e. on the thread count. A SYN flood
 * squeezed into a near-zero window makes microsecond-timestamp
 * collisions certain; decompression must still be byte-identical at
 * every thread count (found by the scenario matrix; fixed with the
 * packetCanonicalLess total order).
 */
TEST(ScenarioRoundTrip, TiedTimestampsDecodeThreadInvariant)
{
    trace::ScenarioConfig scfg =
        trace::scenarioDefaults(trace::ScenarioKind::SynFlood, 31337);
    scfg.flows = 2000;
    scfg.durationSec = 0.001;  // ~2 packets per microsecond
    trace::ScenarioGenerator gen(scfg);
    trace::Trace original = gen.generate();

    std::string tshIn = tempPath("ties_in.tsh");
    trace::writeTshFile(original, tshIn);
    for (const Cell &cell : matrixCells()) {
        SCOPED_TRACE(cell.name);
        std::vector<uint8_t> reference;
        for (uint32_t threads : {1u, 2u, 8u}) {
            SCOPED_TRACE(threads);
            fccc::FccConfig cfg = cellConfig(cell, threads);
            std::string fccOut = tempPath("ties_out.fcc");
            std::string tshBack = tempPath("ties_back.tsh");
            fccc::compressTraceFile(tshIn, fccOut, cfg, kTsh);
            fccc::decompressTraceFile(fccOut, tshBack, cfg, kTsh);
            std::vector<uint8_t> back = readFileBytes(tshBack);
            if (reference.empty())
                reference = back;
            else
                EXPECT_EQ(back, reference);
            std::remove(fccOut.c_str());
            std::remove(tshBack.c_str());
        }
    }
    std::remove(tshIn.c_str());
}

/** Indexed queries must equal full decodes on hostile input. */
TEST(ScenarioRoundTrip, IndexedQueryMatchesFullDecode)
{
    for (trace::ScenarioKind kind : trace::allScenarios()) {
        SCOPED_TRACE(trace::scenarioName(kind));
        trace::ScenarioConfig scfg = scenarioTestConfig(kind, 404);
        trace::ScenarioGenerator gen(scfg);
        trace::Trace original = gen.generate();

        std::string tshIn = tempPath("query_in.tsh");
        std::string fccOut = tempPath("query_out.fcc");
        trace::writeTshFile(original, tshIn);
        fccc::FccConfig cfg =
            cellConfig(matrixCells().back(), 4);  // fcc3-indexed
        fccc::compressTraceFile(tshIn, fccOut, cfg, kTsh);

        query::FccArchive archive(fccOut, cfg);
        ASSERT_TRUE(archive.hasIndex());

        // matchAll, a time window, and a server-address predicate.
        trace::Trace full;
        {
            trace::CollectTraceSink sink(full);
            auto stats =
                archive.run(query::Expr::matchAll(), sink, true);
            EXPECT_EQ(stats.packetsMatched, original.size());
        }
        std::vector<query::Expr> preds;
        preds.push_back(query::Expr::matchAll());
        uint64_t t0 = full.packets().front().timestampUs();
        uint64_t t1 = full.packets().back().timestampUs();
        preds.push_back(query::Expr::timeWithin(t0 + (t1 - t0) / 4,
                                                t0 + (t1 - t0) / 2));
        std::map<uint32_t, uint64_t> dstCounts;
        for (const auto &pkt : full.packets())
            ++dstCounts[pkt.dstIp];
        uint32_t topDst = 0;
        uint64_t topCount = 0;
        for (auto [ip, count] : dstCounts)
            if (count > topCount) {
                topDst = ip;
                topCount = count;
            }
        preds.push_back(query::Expr::serverIs(topDst));
        preds.push_back(query::Expr::minFlowPackets(2));

        for (size_t i = 0; i < preds.size(); ++i) {
            SCOPED_TRACE(i);
            trace::Trace indexed, decoded;
            trace::CollectTraceSink indexedSink(indexed);
            trace::CollectTraceSink decodedSink(decoded);
            auto istats = archive.run(preds[i], indexedSink, false);
            archive.run(preds[i], decodedSink, true);
            EXPECT_TRUE(istats.usedIndex);
            EXPECT_TRUE(sameTrace(indexed, decoded));
        }

        std::remove(tshIn.c_str());
        std::remove(fccOut.c_str());
    }
}

/** Complexity metrics separate the scenarios as designed. */
TEST(ScenarioComplexity, MetricsAreSane)
{
    auto flood = scenarioTestConfig(trace::ScenarioKind::SynFlood, 9);
    trace::ScenarioGenerator floodGen(flood);
    auto floodCx = analysis::measureComplexity(floodGen.generate());
    EXPECT_EQ(floodCx.packets, flood.flows);
    // Spoofed sources: almost every packet is a fresh pair, so the
    // pair distribution is near-uniform and dense. Its entropy then
    // sits within a bit of log2(flows), the entropy of one packet
    // per pair (Avin et al.'s non-temporal complexity).
    EXPECT_GT(floodCx.distinctPairs, flood.flows * 9ull / 10);
    EXPECT_GT(floodCx.pairEntropyBits,
              std::log2(static_cast<double>(flood.flows)) - 1.0);

    auto eleph =
        scenarioTestConfig(trace::ScenarioKind::Elephants, 9);
    trace::ScenarioGenerator elephGen(eleph);
    auto elephCx = analysis::measureComplexity(elephGen.generate());
    // Few pairs carry most packets: much lower non-temporal entropy.
    EXPECT_LT(elephCx.pairEntropyBits, floodCx.pairEntropyBits);
    // Ordered elephants have temporal structure a compressor
    // exploits; the measure must see it.
    EXPECT_GT(elephCx.temporalBitsPerPacket(), 0.0);

    // Empty trace: all zeros, no crash.
    auto emptyCx = analysis::measureComplexity(trace::Trace{});
    EXPECT_EQ(emptyCx.packets, 0u);
    EXPECT_EQ(emptyCx.distinctPairs, 0u);
}

/**
 * Randomized-seed sweep across every generator's parameter edges: 0
 * flows, 1 flow, max rate, pathological tails, full reorder/loss.
 * Every edge must generate, stay time-ordered, and round-trip
 * (packet-count preserving) through FCC2 and FCC3-range.
 */
TEST(ScenarioFuzz, ParameterEdgesRoundTrip)
{
    const uint32_t seeds = smokeTests() ? 2 : 5;
    for (trace::ScenarioKind kind : trace::allScenarios()) {
        for (uint32_t s = 0; s < seeds; ++s) {
            uint64_t seed = 1000 + 71 * s;
            std::vector<trace::ScenarioConfig> edges;
            auto base = trace::scenarioDefaults(kind, seed);
            base.durationSec = 1.0;

            auto add = [&](auto mutate) {
                trace::ScenarioConfig cfg = base;
                mutate(cfg);
                edges.push_back(cfg);
            };
            add([](auto &c) { c.flows = 0; });
            add([](auto &c) { c.flows = 1; });
            // Max rate: many flows in a near-zero window.
            add([](auto &c) {
                c.flows = 600;
                c.durationSec = 0.01;
            });
            // Pathological tails, extreme knobs, tiny flows.
            add([](auto &c) {
                c.flows = 80;
                c.tailAlpha = 0.3;
                c.maxFlowLen = 1;
                c.reorderFraction = 1.0;
                c.lossFraction = 1.0;
                c.incastRounds = 1;
            });
            add([](auto &c) {
                c.flows = 80;
                c.tailAlpha = 3.0;
                c.serverCount = 1;
                c.clientCount = 1;
                c.incastRounds = 0;
            });

            for (size_t e = 0; e < edges.size(); ++e) {
                SCOPED_TRACE(std::string(trace::scenarioName(kind)) +
                             " seed=" + std::to_string(seed) +
                             " edge=" + std::to_string(e));
                trace::ScenarioGenerator gen(edges[e]);
                trace::Trace t = gen.generate();
                EXPECT_TRUE(t.isTimeOrdered());
                if (edges[e].flows == 0) {
                    EXPECT_EQ(t.size(), 0u);
                }

                std::string tshIn = tempPath("fuzz_in.tsh");
                trace::writeTshFile(t, tshIn);
                for (auto container :
                     {fccc::ContainerFormat::Fcc2,
                      fccc::ContainerFormat::Fcc3}) {
                    fccc::FccConfig cfg;
                    cfg.container = container;
                    cfg.backend = backendEnum::Range;
                    cfg.threads = 2;
                    cfg.chunkRecords = 32;
                    std::string fccOut = tempPath("fuzz_out.fcc");
                    std::string tshBack =
                        tempPath("fuzz_back.tsh");
                    auto stats =
                        fccc::compressTraceFile(tshIn, fccOut, cfg, kTsh);
                    EXPECT_EQ(stats.packets, t.size());
                    auto dstats = fccc::decompressTraceFile(
                        fccOut, tshBack, cfg, kTsh);
                    EXPECT_EQ(dstats.packets, t.size());
                    std::remove(fccOut.c_str());
                    std::remove(tshBack.c_str());
                }
                std::remove(tshIn.c_str());
            }
        }
    }
}
