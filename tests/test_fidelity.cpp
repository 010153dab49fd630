/**
 * @file
 * Differential fuzz across the fidelity tiers (docs/FIDELITY.md):
 * randomized traces go through the exact pipeline and each lossy
 * tier, and the suite asserts the tiers' *documented* invariants
 * against each other —
 *  - quantized: timestamps land on the declared grid and nothing
 *    else changes (templates, addresses, every other time-seq
 *    field are bit-identical to the exact tier's),
 *  - header: the decoded trace is per-packet identical to the
 *    exact decode except the TCP flag byte (and the seq/ack
 *    counters reconstruction derives from it),
 *  - flow: aggregate queries answer exactly as the exact archive
 *    of the same trace does,
 * plus thread-count determinism for every lossy tier and clean
 * util::Error failures on corrupt or truncated lossy containers.
 *
 * Set FCC_TEST_SMOKE=1 to shrink traces and seed counts (used by
 * the sanitizer CI jobs).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "codec/fcc/datasets.hpp"
#include "codec/fcc/fcc_codec.hpp"
#include "codec/field/field_codec.hpp"
#include "query/aggregate.hpp"
#include "query/query.hpp"
#include "trace/tsh.hpp"
#include "trace/web_gen.hpp"
#include "util/error.hpp"

#include "test_common.hpp"

using namespace fcc;
namespace fccc = fcc::codec::fcc;

namespace {

bool
smokeTests()
{
    const char *env = std::getenv("FCC_TEST_SMOKE");
    return env != nullptr && env[0] == '1';
}

std::vector<uint64_t>
fuzzSeeds()
{
    if (smokeTests())
        return {3};
    return {3, 17, 92};
}

trace::Trace
randomTrace(uint64_t seed)
{
    trace::WebGenConfig cfg;
    cfg.seed = seed;
    cfg.durationSec = smokeTests() ? 1.5 : 3.0;
    cfg.flowsPerSec = 40.0;
    trace::WebTrafficGenerator gen(cfg);
    return gen.generate();
}

fccc::FccConfig
tierConfig(fccc::Fidelity tier, uint32_t threads = 1,
           bool index = false)
{
    fccc::FccConfig cfg;
    cfg.container = fccc::ContainerFormat::Fcc3;
    cfg.chunkRecords = 64;
    cfg.fidelity = tier;
    cfg.threads = threads;
    cfg.index = index;
    return cfg;
}

std::vector<uint8_t>
compressAs(const trace::Trace &tr, fccc::Fidelity tier,
           uint32_t threads = 1, bool index = false)
{
    fccc::FccTraceCompressor codec(
        tierConfig(tier, threads, index));
    return codec.compress(tr);
}

void
writeBytes(const std::string &path,
           const std::vector<uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << path;
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/** Run @p fn expecting a util::Error whose message contains
 *  @p needle. */
template <typename Fn>
void
expectError(Fn &&fn, const char *needle)
{
    try {
        fn();
        ADD_FAILURE() << "expected util::Error (" << needle << ")";
    } catch (const util::Error &error) {
        EXPECT_NE(std::string(error.what()).find(needle),
                  std::string::npos)
            << error.what();
    }
}

// FCC3 header layout (docs/FORMAT.md): u32 magic, 3 x u16 weights,
// then the column-count byte at offset 10; a lossy archive follows
// it with the tier tag at 11 and the varint parameter from 12.
constexpr size_t kColByteOff = 10;
constexpr size_t kTagOff = 11;
constexpr size_t kParamOff = 12;

} // namespace

TEST(Fidelity, QuantizedKeepsEverythingButTheGrid)
{
    constexpr uint64_t grid = 1000;
    for (uint64_t seed : fuzzSeeds()) {
        SCOPED_TRACE(seed);
        trace::Trace tr = randomTrace(seed);
        fccc::Datasets exact = fccc::deserializeAuto(
            compressAs(tr, fccc::Fidelity::Exact), 1);
        fccc::Datasets quant = fccc::deserializeAuto(
            compressAs(tr, fccc::Fidelity::Quantized), 1);

        EXPECT_EQ(quant.fidelity, fccc::Fidelity::Quantized);
        EXPECT_EQ(quant.quantumUs, grid);
        EXPECT_EQ(quant.shortTemplates, exact.shortTemplates);
        EXPECT_EQ(quant.longTemplates, exact.longTemplates);
        EXPECT_EQ(quant.addresses, exact.addresses);
        EXPECT_EQ(quant.chunkSizes, exact.chunkSizes);

        ASSERT_EQ(quant.timeSeq.size(), exact.timeSeq.size());
        for (size_t i = 0; i < quant.timeSeq.size(); ++i) {
            const fccc::TimeSeqRecord &q = quant.timeSeq[i];
            const fccc::TimeSeqRecord &e = exact.timeSeq[i];
            uint64_t floored = e.firstTimestampUs;
            codec::field::floorToGrid({&floored, 1}, grid);
            EXPECT_TRUE(codec::field::isOnGrid(
                {&q.firstTimestampUs, 1}, grid));
            EXPECT_EQ(q.firstTimestampUs, floored);
            EXPECT_EQ(q.isLong, e.isLong);
            EXPECT_EQ(q.templateIndex, e.templateIndex);
            EXPECT_EQ(q.rttUs, e.rttUs);
            EXPECT_EQ(q.addressIndex, e.addressIndex);
        }
    }
}

TEST(Fidelity, HeaderKeepsEverythingButTheFlags)
{
    for (uint64_t seed : fuzzSeeds()) {
        SCOPED_TRACE(seed);
        trace::Trace tr = randomTrace(seed);
        fccc::FccTraceCompressor codec(
            tierConfig(fccc::Fidelity::Exact));
        trace::Trace exact = codec.decompress(
            compressAs(tr, fccc::Fidelity::Exact));
        trace::Trace header = codec.decompress(
            compressAs(tr, fccc::Fidelity::Header));

        ASSERT_EQ(header.size(), exact.size());
        // seq/ack are *derived* from the flag classes on
        // reconstruction: each SYN/FIN consumes one phantom
        // sequence number, so where the tier rewrote a flag the
        // counters shift by exactly the phantom bytes dropped so
        // far on that flow direction — nothing more. Both decodes
        // draw identical per-flow RNG bases (the tier never
        // changes record counts), so the shift is checkable
        // exactly.
        using Dir = std::tuple<uint32_t, uint32_t, uint16_t,
                               uint16_t>;
        std::map<Dir, int64_t> phantomShift;
        size_t flagDiffs = 0;
        for (size_t i = 0; i < header.size(); ++i) {
            const trace::PacketRecord &h = header[i];
            const trace::PacketRecord &e = exact[i];
            EXPECT_EQ(h.timestampNs, e.timestampNs);
            EXPECT_EQ(h.srcIp, e.srcIp);
            EXPECT_EQ(h.dstIp, e.dstIp);
            EXPECT_EQ(h.srcPort, e.srcPort);
            EXPECT_EQ(h.dstPort, e.dstPort);
            EXPECT_EQ(h.protocol, e.protocol);
            EXPECT_EQ(h.payloadBytes, e.payloadBytes);
            EXPECT_EQ(h.window, e.window);
            EXPECT_EQ(h.ipId, e.ipId);

            using namespace trace::tcp_flags;
            Dir dir{e.srcIp, e.dstIp, e.srcPort, e.dstPort};
            Dir rev{e.dstIp, e.srcIp, e.dstPort, e.srcPort};
            int64_t shift = phantomShift[dir];
            EXPECT_EQ(h.seq,
                      static_cast<uint32_t>(
                          e.seq - static_cast<uint64_t>(shift)));
            // The ack mirrors the opposite direction's counter;
            // comparable only when both decodes set the Ack bit.
            if ((e.tcpFlags & Ack) && (h.tcpFlags & Ack)) {
                int64_t rshift = phantomShift[rev];
                EXPECT_EQ(h.ack,
                          static_cast<uint32_t>(
                              e.ack -
                              static_cast<uint64_t>(rshift)));
            }
            phantomShift[dir] +=
                ((e.tcpFlags & (Syn | Fin)) ? 1 : 0) -
                ((h.tcpFlags & (Syn | Fin)) ? 1 : 0);
            flagDiffs += h.tcpFlags != e.tcpFlags;
        }
        // The tier must actually drop detail: a web trace carries
        // SYN/FIN shapes no plain-Ack rewrite preserves.
        EXPECT_GT(flagDiffs, 0u);
    }
}

TEST(Fidelity, FlowAggregatesMatchExactGroundTruth)
{
    for (uint64_t seed : fuzzSeeds()) {
        SCOPED_TRACE(seed);
        trace::Trace tr = randomTrace(seed);
        std::string exactPath = fcc::test::tempPath(
            "agg-exact-" + std::to_string(seed) + ".fcc");
        std::string flowPath = fcc::test::tempPath(
            "agg-flow-" + std::to_string(seed) + ".fcc");
        writeBytes(exactPath,
                   compressAs(tr, fccc::Fidelity::Exact, 1, true));
        writeBytes(flowPath,
                   compressAs(tr, fccc::Fidelity::Flow, 1, true));

        query::FccArchive exact(exactPath);
        query::FccArchive flow(flowPath);
        query::AggregateRequest req;
        req.kind = query::AggregateKind::FlowCounts;
        query::AggregateResult a = exact.aggregate(req);
        query::AggregateResult b = flow.aggregate(req);

        ASSERT_EQ(a.servers.size(), b.servers.size());
        for (size_t i = 0; i < a.servers.size(); ++i) {
            SCOPED_TRACE(i);
            EXPECT_EQ(a.servers[i].serverIp, b.servers[i].serverIp);
            EXPECT_EQ(a.servers[i].flows, b.servers[i].flows);
            EXPECT_EQ(a.servers[i].packets, b.servers[i].packets);
            EXPECT_EQ(a.servers[i].wireBytes,
                      b.servers[i].wireBytes);
        }
        EXPECT_EQ(a.histogram, b.histogram);

        // The stored per-flow records carry the exact tier's
        // ground truth: one record per flow, packets summing to
        // the original trace.
        fccc::Datasets d = fccc::deserializeAuto(
            compressAs(tr, fccc::Fidelity::Flow), 1);
        fccc::Datasets e = fccc::deserializeAuto(
            compressAs(tr, fccc::Fidelity::Exact), 1);
        EXPECT_EQ(d.flowRecords.size(), e.timeSeq.size());
        uint64_t packets = 0;
        for (const fccc::FlowRecord &fl : d.flowRecords)
            packets += fl.packets;
        EXPECT_EQ(packets, tr.size());
    }
}

TEST(Fidelity, LossyTiersAreThreadDeterministic)
{
    trace::Trace tr = randomTrace(5);
    const fccc::Fidelity tiers[] = {fccc::Fidelity::Quantized,
                                    fccc::Fidelity::Header,
                                    fccc::Fidelity::Flow};
    for (fccc::Fidelity tier : tiers) {
        SCOPED_TRACE(fccc::fidelityName(tier));
        std::vector<uint8_t> reference =
            compressAs(tr, tier, 1, true);
        for (uint32_t threads : {2u, 4u, 8u})
            EXPECT_EQ(compressAs(tr, tier, threads, true),
                      reference)
                << "threads=" << threads;
    }
}

TEST(Fidelity, CorruptContainersFailCleanly)
{
    trace::Trace tr = randomTrace(9);
    std::vector<uint8_t> quantized =
        compressAs(tr, fccc::Fidelity::Quantized);
    std::vector<uint8_t> header =
        compressAs(tr, fccc::Fidelity::Header);
    ASSERT_GT(quantized.size(), kParamOff + 2);
    ASSERT_NE(quantized[kColByteOff] & 0x40, 0);

    {
        std::vector<uint8_t> bad = quantized;
        bad[kTagOff] = 9;
        expectError([&] { fccc::deserializeAuto(bad, 1); },
                    "unknown fidelity tag");
    }
    {
        std::vector<uint8_t> bad = quantized;
        bad[kParamOff] = 0;  // varint 0: a zero-width grid
        expectError([&] { fccc::deserializeAuto(bad, 1); },
                    "grid must be >= 1");
    }
    {
        std::vector<uint8_t> bad = header;
        bad[kParamOff] = 5;  // header tier carries no parameter
        expectError([&] { fccc::deserializeAuto(bad, 1); },
                    "unexpected fidelity parameter");
    }

    // Truncations anywhere — mid-header, mid-tag, mid-columns —
    // must surface as util::Error, never a crash or silent result.
    for (size_t keep :
         {size_t{kTagOff}, size_t{kParamOff}, quantized.size() / 2,
          quantized.size() - 7}) {
        SCOPED_TRACE(keep);
        std::vector<uint8_t> cut(quantized.begin(),
                                 quantized.begin() +
                                     static_cast<long>(keep));
        EXPECT_THROW(fccc::deserializeAuto(cut, 1), util::Error);
    }
}

TEST(Fidelity, OffGridArchiveIsRejected)
{
    // A container may *claim* the quantized tier while carrying
    // off-grid timestamps (bit flip, buggy writer); the reader must
    // reject it rather than hand out data violating the tier's
    // contract.
    trace::Trace tr = randomTrace(13);
    fccc::Datasets d = fccc::deserializeAuto(
        compressAs(tr, fccc::Fidelity::Exact), 1);
    bool anyOffGrid = false;
    for (const fccc::TimeSeqRecord &r : d.timeSeq)
        anyOffGrid |= r.firstTimestampUs % 1'000'000 != 0;
    ASSERT_TRUE(anyOffGrid);

    d.fidelity = fccc::Fidelity::Quantized;
    d.quantumUs = 1'000'000;
    fccc::SizeBreakdown breakdown;
    std::vector<uint8_t> forged = fccc::serializeColumnar(
        d, codec::backend::EntropyBackend::Store, breakdown);
    expectError([&] { fccc::deserializeAuto(forged, 1); },
                "off the quantized grid");
}
