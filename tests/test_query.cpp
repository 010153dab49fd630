/**
 * @file
 * Seekable-archive tests: the FCC3 chunk/flow index block and the
 * random-access query subsystem. Indexed archives must reconstruct
 * exactly like unindexed ones, queries must return exactly what a
 * full decode + filter would, a corrupt index must degrade to a
 * full decode or a clean Error (never wrong output), and the Bloom
 * fingerprints must hold their false-positive bound. Flows judged
 * before expansion must leave every result byte-identical to
 * expanding everything and filtering, and the per-archive cache of
 * the shared region must be built once, race-free, and never from a
 * failed decode.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <thread>
#include <tuple>

#include "codec/fcc/datasets.hpp"
#include "codec/fcc/fcc_codec.hpp"
#include "codec/fcc/fidelity.hpp"
#include "codec/fcc/index.hpp"
#include "codec/fcc/stream.hpp"
#include "query/aggregate.hpp"
#include "query/catalog.hpp"
#include "query/query.hpp"
#include "trace/scenario_gen.hpp"
#include "trace/trace.hpp"
#include "trace/tsh.hpp"
#include "trace/web_gen.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

#include "test_common.hpp"

using namespace fcc;
namespace fccc = fcc::codec::fcc;

namespace {

/** Explicit TSH spec for the raw 44-byte record fixtures. */
const trace::TraceFormatSpec kTsh =
    trace::parseTraceFormatSpec("tsh");

trace::Trace
webTrace(uint64_t seed, double seconds)
{
    trace::WebGenConfig cfg;
    cfg.seed = seed;
    cfg.durationSec = seconds;
    cfg.flowsPerSec = 80.0;
    trace::WebTrafficGenerator gen(cfg);
    return gen.generate();
}

using fcc::test::smokeTests;
using fcc::test::tempPath;

void
writeBytes(const std::string &path, const std::vector<uint8_t> &data)
{
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char *>(data.data()),
              static_cast<std::streamsize>(data.size()));
}

std::vector<uint8_t>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** Field-wise total order so packet sets compare as multisets. */
auto
packetKey(const trace::PacketRecord &p)
{
    return std::tuple(p.timestampNs, p.srcIp, p.dstIp, p.srcPort,
                      p.dstPort, p.tcpFlags, p.payloadBytes, p.seq,
                      p.ack, p.window, p.ipId);
}

std::vector<trace::PacketRecord>
sortedPackets(std::vector<trace::PacketRecord> packets)
{
    std::sort(packets.begin(), packets.end(),
              [](const trace::PacketRecord &a,
                 const trace::PacketRecord &b) {
                  return packetKey(a) < packetKey(b);
              });
    return packets;
}

void
expectSamePackets(const std::vector<trace::PacketRecord> &a,
                  const std::vector<trace::PacketRecord> &b,
                  const char *what)
{
    auto sa = sortedPackets(a);
    auto sb = sortedPackets(b);
    ASSERT_EQ(sa.size(), sb.size()) << what;
    for (size_t i = 0; i < sa.size(); ++i)
        ASSERT_EQ(packetKey(sa[i]), packetKey(sb[i]))
            << what << " packet " << i;
}

/** The reference seed-2005 archive, written once per fixture run. */
struct SeedArchive
{
    std::string tshPath = tempPath("query_seed.tsh");
    std::string idxPath = tempPath("query_seed_idx.fcc");
    std::string plainPath = tempPath("query_seed_plain.fcc");
    trace::Trace original;
    fccc::FccConfig cfg;

    SeedArchive()
    {
        original = webTrace(2005, 8.0);
        trace::writeTshFile(original, tshPath);
        cfg.container = fccc::ContainerFormat::Fcc3;
        cfg.chunkRecords = 64;  // span many chunks
        cfg.threads = 1;
        fccc::FccConfig idxCfg = cfg;
        idxCfg.index = true;
        fccc::compressTraceFile(tshPath, idxPath, idxCfg);
        fccc::compressTraceFile(tshPath, plainPath, cfg);
    }

    ~SeedArchive()
    {
        std::remove(tshPath.c_str());
        std::remove(idxPath.c_str());
        std::remove(plainPath.c_str());
    }
};

SeedArchive &
seedArchive()
{
    static SeedArchive archive;
    return archive;
}

std::vector<trace::PacketRecord>
runQuery(const std::string &path, const query::Expr &expr,
         const fccc::FccConfig &cfg, query::QueryStats *stats,
         bool forceFullDecode = false)
{
    query::FccArchive archive(path, cfg);
    trace::Trace out;
    trace::CollectTraceSink sink(out);
    query::QueryStats s = archive.run(expr, sink, forceFullDecode);
    if (stats != nullptr)
        *stats = s;
    return out.packets();
}

} // namespace

TEST(QueryIndex, IndexedReconstructsIdenticallyToUnindexed)
{
    SeedArchive &seed = seedArchive();
    std::string outIdx = tempPath("rt_idx.tsh");
    std::string outPlain = tempPath("rt_plain.tsh");
    auto sIdx =
        fccc::decompressTraceFile(seed.idxPath, outIdx, seed.cfg,
                                  kTsh);
    auto sPlain = fccc::decompressTraceFile(
        seed.plainPath, outPlain, seed.cfg, kTsh);
    EXPECT_EQ(sIdx.packets, sPlain.packets);
    EXPECT_EQ(sIdx.packets, seed.original.size());
    EXPECT_EQ(readBytes(outIdx), readBytes(outPlain));
    std::remove(outIdx.c_str());
    std::remove(outPlain.c_str());

    // The parse reports the index; the plain file explicitly lacks
    // it; both decode to the same datasets.
    fccc::ContainerStat statIdx, statPlain;
    auto dIdx = fccc::deserialize(readBytes(seed.idxPath), nullptr,
                                  &statIdx);
    auto dPlain = fccc::deserialize(readBytes(seed.plainPath),
                                    nullptr, &statPlain);
    EXPECT_TRUE(statIdx.hasIndex);
    EXPECT_GT(statIdx.sizes.indexBytes, 0u);
    EXPECT_FALSE(statPlain.hasIndex);
    EXPECT_EQ(statPlain.sizes.indexBytes, 0u);
    EXPECT_EQ(dIdx.timeSeq, dPlain.timeSeq);
    EXPECT_EQ(dIdx.shortTemplates, dPlain.shortTemplates);
    EXPECT_EQ(dIdx.longTemplates, dPlain.longTemplates);
    EXPECT_EQ(dIdx.addresses, dPlain.addresses);
    EXPECT_EQ(dIdx.chunkSizes, dPlain.chunkSizes);
    // The accounting covers every byte of the indexed file.
    EXPECT_EQ(statIdx.sizes.total(), readBytes(seed.idxPath).size());
}

TEST(QueryIndex, IndexedCompressionByteIdenticalAcrossThreads)
{
    SeedArchive &seed = seedArchive();
    std::vector<uint8_t> ref = readBytes(seed.idxPath);
    ASSERT_FALSE(ref.empty());
    for (uint32_t threads : {2u, 4u, 8u}) {
        fccc::FccConfig cfg = seed.cfg;
        cfg.index = true;
        cfg.threads = threads;
        std::string path = tempPath("thr_idx.fcc");
        fccc::compressTraceFile(seed.tshPath, path, cfg);
        EXPECT_EQ(readBytes(path), ref) << threads << " threads";
        std::remove(path.c_str());
    }
}

TEST(QueryIndex, ArchiveIndexSummariesAreConsistent)
{
    SeedArchive &seed = seedArchive();
    std::vector<uint8_t> bytes = readBytes(seed.idxPath);
    auto index = fccc::readArchiveIndex(bytes);
    ASSERT_TRUE(index.has_value());
    fccc::Datasets d = fccc::deserialize(bytes);
    ASSERT_FALSE(index->chunks.empty());
    ASSERT_EQ(index->chunks.size(), d.chunkSizes.size());
    EXPECT_EQ(index->totalRecords(), d.timeSeq.size());

    // Per-chunk summaries must agree with the decoded records, and
    // the Bloom filters must never produce a false negative.
    size_t rec = 0;
    for (size_t c = 0; c < index->chunks.size(); ++c) {
        const fccc::ChunkSummary &s = index->chunks[c];
        EXPECT_EQ(s.records, d.chunkSizes[c]);
        EXPECT_EQ(s.minFirstUs, d.timeSeq[rec].firstTimestampUs);
        uint64_t packets = 0, maxFlow = 0;
        for (size_t i = rec; i < rec + d.chunkSizes[c]; ++i) {
            const auto &r = d.timeSeq[i];
            uint64_t n = r.isLong
                ? d.longTemplates[r.templateIndex].sValues.size()
                : d.shortTemplates[r.templateIndex].size();
            packets += n;
            maxFlow = std::max(maxFlow, n);
            EXPECT_TRUE(s.mayContain(fccc::serverFingerprint(
                d.addresses[r.addressIndex])))
                << "false negative in chunk " << c;
            EXPECT_GE(s.maxEndUs, r.firstTimestampUs);
        }
        EXPECT_EQ(s.packets, packets);
        EXPECT_EQ(s.maxFlowPackets, maxFlow);
        rec += d.chunkSizes[c];
    }
}

TEST(QueryIndex, BloomFalsePositiveRateBounded)
{
    SeedArchive &seed = seedArchive();
    auto index = fccc::readArchiveIndex(readBytes(seed.idxPath));
    ASSERT_TRUE(index.has_value());
    fccc::Datasets d = fccc::deserialize(readBytes(seed.idxPath));
    std::set<uint32_t> present(d.addresses.begin(),
                               d.addresses.end());

    // ~10 bits and 5 probes per distinct server give ~1 % expected
    // FPR; assert a 3 % bound over many absent addresses to keep
    // the test noise-proof.
    util::Rng rng(0xb100f);
    uint64_t probes = 0, positives = 0;
    for (int i = 0; i < 2000; ++i) {
        uint32_t ip = static_cast<uint32_t>(rng.next());
        if (present.count(ip) != 0)
            continue;
        for (const fccc::ChunkSummary &s : index->chunks) {
            ++probes;
            positives +=
                s.mayContain(fccc::serverFingerprint(ip)) ? 1 : 0;
        }
    }
    ASSERT_GT(probes, 1000u);
    double fpr = static_cast<double>(positives) /
                 static_cast<double>(probes);
    EXPECT_LT(fpr, 0.03) << positives << "/" << probes;
}

TEST(QueryIndex, SingleFlowQueryTouchesStrictlyFewerChunksAndBytes)
{
    // The PR's acceptance bar: on the seed-2005 reference trace, a
    // single-flow extraction must read and decode strictly less
    // than a full decompression.
    SeedArchive &seed = seedArchive();
    fccc::Datasets d = fccc::deserialize(readBytes(seed.idxPath));
    auto index = fccc::readArchiveIndex(readBytes(seed.idxPath));
    ASSERT_TRUE(index.has_value());
    ASSERT_GT(index->chunks.size(), 4u);

    // Pick a server that lives in exactly one chunk (the Zipf tail
    // guarantees such servers exist at 64-record chunks).
    std::set<uint32_t> seen;
    uint32_t rareIp = 0;
    size_t rec = 0;
    for (size_t c = 0; c < d.chunkSizes.size() && rareIp == 0; ++c) {
        std::set<uint32_t> inChunk;
        for (size_t i = rec; i < rec + d.chunkSizes[c]; ++i)
            inChunk.insert(d.addresses[d.timeSeq[i].addressIndex]);
        rec += d.chunkSizes[c];
        // A server unique to this chunk and absent everywhere else.
        for (uint32_t ip : inChunk) {
            size_t total = 0;
            for (const auto &r : d.timeSeq)
                total += d.addresses[r.addressIndex] == ip ? 1 : 0;
            size_t here = 0;
            for (size_t i = rec - d.chunkSizes[c]; i < rec; ++i)
                here += d.addresses[d.timeSeq[i].addressIndex] == ip
                    ? 1
                    : 0;
            if (total == here) {
                rareIp = ip;
                break;
            }
        }
    }
    ASSERT_NE(rareIp, 0u) << "no single-chunk server in the seed "
                             "trace; shrink chunkRecords";

    query::Expr pred = query::Expr::serverIs(rareIp);
    query::QueryStats stats;
    auto packets =
        runQuery(seed.idxPath, pred, seed.cfg, &stats);
    EXPECT_TRUE(stats.usedIndex);
    EXPECT_GT(packets.size(), 0u);
    EXPECT_LT(stats.chunksDecoded, stats.chunksTotal);
    EXPECT_LT(stats.bytesRead, stats.fileBytes);
}

TEST(QueryIndex, QueryMatchesFullDecodePlusFilter)
{
    SeedArchive &seed = seedArchive();
    fccc::Datasets d = fccc::deserialize(readBytes(seed.idxPath));
    ASSERT_FALSE(d.addresses.empty());
    // The full reconstruction, as the ground truth to filter.
    fccc::FccTraceCompressor codec(seed.cfg);
    trace::Trace full = codec.decompress(readBytes(seed.idxPath));

    // --flow: all packets of the flows using a given server. Under
    // the default (paper §4) addressing every packet of a flow
    // carries the server as destination, so the ground-truth filter
    // is a dstIp match.
    uint32_t ip = d.addresses[d.addresses.size() / 2];
    query::Expr flowPred = query::Expr::serverIs(ip);
    std::vector<trace::PacketRecord> expected;
    for (const auto &pkt : full.packets())
        if (pkt.dstIp == ip)
            expected.push_back(pkt);
    query::QueryStats stats;
    auto viaIndex =
        runQuery(seed.idxPath, flowPred, seed.cfg, &stats);
    EXPECT_TRUE(stats.usedIndex);
    expectSamePackets(viaIndex, expected, "--flow vs dstIp filter");
    auto viaFull = runQuery(seed.idxPath, flowPred, seed.cfg,
                            nullptr, /*forceFullDecode=*/true);
    expectSamePackets(viaIndex, viaFull, "--flow vs full decode");

    // --time: a window in the middle of the trace.
    uint64_t t0 = d.timeSeq[d.timeSeq.size() / 3].firstTimestampUs;
    uint64_t t1 = t0 + 2'000'000;
    query::Expr timePred = query::Expr::timeWithin(t0, t1);
    expected.clear();
    for (const auto &pkt : full.packets())
        if (pkt.timestampUs() >= t0 && pkt.timestampUs() <= t1)
            expected.push_back(pkt);
    query::QueryStats timeStats;
    auto viaTime =
        runQuery(seed.idxPath, timePred, seed.cfg, &timeStats);
    expectSamePackets(viaTime, expected, "--time vs ts filter");
    EXPECT_LT(timeStats.chunksDecoded, timeStats.chunksTotal);

    // --min-packets: long flows only; equivalence against the
    // forced full-decode path (flow sizes are not derivable from
    // packets alone).
    query::Expr longPred = query::Expr::minFlowPackets(51);
    auto viaLong =
        runQuery(seed.idxPath, longPred, seed.cfg, nullptr);
    auto viaLongFull = runQuery(seed.idxPath, longPred, seed.cfg,
                                nullptr, true);
    EXPECT_GT(viaLong.size(), 0u);
    expectSamePackets(viaLong, viaLongFull,
                      "--min-packets vs full decode");

    // No predicate: the query is a full reconstruction.
    query::Expr all = query::Expr::matchAll();
    auto viaAll = runQuery(seed.idxPath, all, seed.cfg, nullptr);
    expectSamePackets(viaAll, full.packets(), "match-all");
}

TEST(QueryIndex, QueryResultIndependentOfThreadCount)
{
    SeedArchive &seed = seedArchive();
    fccc::Datasets d = fccc::deserialize(readBytes(seed.idxPath));
    query::Expr pred = query::Expr::serverIs(d.addresses.front());

    fccc::FccConfig cfg1 = seed.cfg;
    cfg1.threads = 1;
    auto ref = runQuery(seed.idxPath, pred, cfg1, nullptr);
    for (uint32_t threads : {2u, 8u}) {
        fccc::FccConfig cfg = seed.cfg;
        cfg.threads = threads;
        auto got = runQuery(seed.idxPath, pred, cfg, nullptr);
        ASSERT_EQ(got.size(), ref.size()) << threads;
        for (size_t i = 0; i < got.size(); ++i)
            ASSERT_EQ(packetKey(got[i]), packetKey(ref[i]))
                << threads << " threads, packet " << i;
    }
}

TEST(QueryIndex, SmallerIndexGapBypassesTimeWindowPruning)
{
    // An index whose stored gap is below reconstructionGapUs promises
    // end bounds the reconstruction can pass, so a time predicate
    // must not plan by it: the query takes the full-decode path and
    // the catalog keeps the archive. Rewrite the seed's index block
    // with gapUs = 100 (the CRC is recomputed) to get one.
    SeedArchive &seed = seedArchive();
    std::vector<uint8_t> bytes = readBytes(seed.idxPath);
    std::optional<fccc::ArchiveIndex> index = fccc::readArchiveIndex(bytes);
    ASSERT_TRUE(index.has_value());
    ASSERT_EQ(index->gapUs, fccc::reconstructionGapUs);
    index->gapUs = 100;
    bytes.resize(bytes.size() - fccc::indexRegionBytes(bytes));
    std::vector<uint8_t> block = fccc::serializeArchiveIndex(*index);
    bytes.insert(bytes.end(), block.begin(), block.end());
    std::string path = tempPath("narrow_gap_idx.fcc");
    writeBytes(path, bytes);
    query::FccArchive narrow(path, seed.cfg);
    ASSERT_TRUE(narrow.hasIndex());
    ASSERT_EQ(narrow.index().gapUs, 100u);

    fccc::Datasets d = fccc::deserialize(bytes);
    uint64_t t0 = d.timeSeq[d.timeSeq.size() / 2].firstTimestampUs;
    query::Expr window = query::Expr::timeWithin(t0, t0 + 1'000'000);
    EXPECT_FALSE(narrow.indexCanPlan(window));
    query::QueryStats stats;
    auto got = runQuery(path, window, seed.cfg, &stats);
    EXPECT_FALSE(stats.usedIndex);
    auto want = runQuery(path, window, seed.cfg, nullptr,
                         /*forceFullDecode=*/true);
    ASSERT_FALSE(want.empty());
    expectSamePackets(got, want, "narrow-gap time window");

    // A window past every chunk: the index plans no chunk, so the
    // catalog prunes the seed archive but must keep the rewritten one.
    uint64_t lastUs = 0;
    for (const fccc::ChunkSummary &c : index->chunks)
        lastUs = std::max(lastUs, c.maxEndUs);
    query::Expr late = query::Expr::timeWithin(lastUs + 1, lastUs + 2);
    ASSERT_TRUE(narrow.plan(late).empty());
    for (const auto &[file, pruned] :
         {std::pair{seed.idxPath, 1u}, std::pair{path, 0u}}) {
        query::ArchiveCatalog catalog =
            query::ArchiveCatalog::fromPaths({file}, seed.cfg);
        trace::Trace out;
        trace::CollectTraceSink sink(out);
        query::CatalogQueryStats catStats = catalog.run(late, sink);
        EXPECT_EQ(catStats.archivesPruned, pruned) << file;
        EXPECT_TRUE(out.packets().empty()) << file;
    }

    // A non-time predicate keeps the indexed path (Bloom and
    // flow-size pruning do not depend on the gap).
    query::Expr server = query::Expr::serverIs(d.addresses.front());
    EXPECT_TRUE(narrow.indexCanPlan(server));
    query::QueryStats serverStats;
    runQuery(path, server, seed.cfg, &serverStats);
    EXPECT_TRUE(serverStats.usedIndex);
    std::remove(path.c_str());
}

TEST(QueryIndex, UnindexedContainersFallBackToFullDecode)
{
    // FCC2 (and any other un-indexed container) must answer the
    // same queries through the full-decode path.
    SeedArchive &seed = seedArchive();
    fccc::FccConfig cfg2 = seed.cfg;
    cfg2.container = fccc::ContainerFormat::Fcc2;
    std::string f2 = tempPath("fallback.fcc");
    fccc::compressTraceFile(seed.tshPath, f2, cfg2);

    fccc::Datasets d = fccc::deserialize(readBytes(f2));
    query::Expr pred = query::Expr::serverIs(d.addresses[1]);
    query::QueryStats stats;
    auto viaF2 = runQuery(f2, pred, seed.cfg, &stats);
    EXPECT_FALSE(stats.usedIndex);
    EXPECT_EQ(stats.bytesRead, stats.fileBytes);
    auto viaIdx = runQuery(seed.idxPath, pred, seed.cfg, nullptr);
    expectSamePackets(viaF2, viaIdx, "fcc2 fallback vs indexed");
    std::remove(f2.c_str());
}

TEST(QueryIndex, CorruptOrTruncatedIndexDegradesSafely)
{
    // Any mutation of the index region must leave exactly two
    // outcomes: a clean util::Error, or a silent fall back to the
    // full-decode path with byte-exact results. Wrong output is the
    // one forbidden outcome.
    SeedArchive &seed = seedArchive();
    std::vector<uint8_t> good = readBytes(seed.idxPath);
    ASSERT_GT(good.size(), fccc::indexFooterBytes);
    uint64_t region = fccc::indexRegionBytes(good);
    ASSERT_GT(region, fccc::indexFooterBytes);

    query::Expr all = query::Expr::matchAll();
    auto reference =
        runQuery(seed.idxPath, all, seed.cfg, nullptr);
    ASSERT_EQ(reference.size(), seed.original.size());

    std::string path = tempPath("corrupt_idx.fcc");
    auto checkMutant = [&](const std::vector<uint8_t> &mutant,
                           const char *what) {
        writeBytes(path, mutant);
        // The low-level parse must never produce wrong datasets
        // silently — Error or success, no crash.
        try {
            fccc::deserialize(mutant);
        } catch (const util::Error &) {
        }
        try {
            query::QueryStats stats;
            auto got = runQuery(path, all, seed.cfg, &stats);
            expectSamePackets(got, reference, what);
        } catch (const util::Error &) {
            // A clean rejection is an acceptable outcome.
        }
    };

    // Truncations across the whole index region (and into the last
    // column frame).
    for (size_t cut : {size_t{1}, size_t{7}, size_t{15},
                       size_t{16}, size_t{17},
                       static_cast<size_t>(region / 2),
                       static_cast<size_t>(region - 1),
                       static_cast<size_t>(region),
                       static_cast<size_t>(region + 3)}) {
        std::vector<uint8_t> mutant(good.begin(),
                                    good.end() - cut);
        checkMutant(mutant, "truncated");
    }

    // Single-byte corruption: every footer byte, and a stride of
    // payload bytes across the index region.
    for (size_t i = good.size() - fccc::indexFooterBytes;
         i < good.size(); ++i) {
        std::vector<uint8_t> mutant = good;
        mutant[i] ^= 0x5a;
        checkMutant(mutant, "footer flip");
    }
    for (size_t off = 1; off < region - fccc::indexFooterBytes;
         off += 13) {
        std::vector<uint8_t> mutant = good;
        mutant[good.size() - region + off] ^= 0xa5;
        checkMutant(mutant, "payload flip");
    }
    std::remove(path.c_str());
}

TEST(QueryIndex, OversizedBloomRejectedBeforeAllocating)
{
    // A well-formed, CRC-valid index whose one chunk claims a 2^30-bit
    // (128 MiB) filter but carries 15 filter bytes. The reader must
    // reject the size against the payload before sizing by it.
    fccc::ChunkSummary c;
    c.records = 1;
    c.packets = 1;
    c.maxFlowPackets = 1;
    c.bloomBits = uint32_t{1} << 30;
    c.bloom.assign(15, 0xff);
    fccc::ArchiveIndex index;
    index.chunks.push_back(c);
    std::vector<uint8_t> bytes = fccc::serializeArchiveIndex(index);
    EXPECT_LT(bytes.size(), 64u);
    try {
        fccc::readArchiveIndex(bytes);
        FAIL() << "an index with an oversized Bloom filter parsed";
    } catch (const util::Error &e) {
        EXPECT_NE(std::string(e.what()).find("Bloom filter size"),
                  std::string::npos)
            << e.what();
    }
}

TEST(QueryIndex, IndexRequiresChunkedFcc3)
{
    SeedArchive &seed = seedArchive();
    trace::Trace tr = seed.original;
    fccc::FccConfig cfg = seed.cfg;
    cfg.index = true;
    cfg.chunkRecords = 0;
    EXPECT_THROW(fccc::FccTraceCompressor(cfg).compress(tr),
                 util::Error);
    cfg.chunkRecords = 64;
    cfg.container = fccc::ContainerFormat::Fcc2;
    EXPECT_THROW(fccc::FccTraceCompressor(cfg).compress(tr),
                 util::Error);
}

TEST(QueryIndex, EmptyDatasetsRoundTripWithIndex)
{
    fccc::Datasets empty;
    fccc::SizeBreakdown sizes;
    auto bytes = fccc::serializeColumnar(
        empty, codec::backend::EntropyBackend::Deflate, sizes,
        nullptr, nullptr, /*indexed=*/true);
    EXPECT_GT(sizes.indexBytes, 0u);

    fccc::ContainerStat stat;
    fccc::Datasets back = fccc::deserialize(bytes, nullptr, &stat);
    EXPECT_TRUE(stat.hasIndex);
    EXPECT_TRUE(back.timeSeq.empty());
    EXPECT_TRUE(back.chunkSizes.empty());

    auto index = fccc::readArchiveIndex(bytes);
    ASSERT_TRUE(index.has_value());
    EXPECT_TRUE(index->chunks.empty());

    std::string path = tempPath("empty_idx.fcc");
    writeBytes(path, bytes);
    query::Expr all = query::Expr::matchAll();
    query::QueryStats stats;
    auto packets = runQuery(path, all, fccc::FccConfig{}, &stats);
    EXPECT_TRUE(stats.usedIndex);
    EXPECT_TRUE(packets.empty());
    std::remove(path.c_str());
}

TEST(QueryIndex, PlanNeverDropsAMatchingChunk)
{
    // plan() may over-approximate (Bloom false positives) but must
    // never exclude a chunk that holds a matching flow — for every
    // stored server, every chunk containing it must be planned.
    SeedArchive &seed = seedArchive();
    fccc::Datasets d = fccc::deserialize(readBytes(seed.idxPath));
    query::FccArchive archive(seed.idxPath, seed.cfg);
    ASSERT_TRUE(archive.hasIndex());

    std::vector<std::set<uint32_t>> serversOf(d.chunkSizes.size());
    size_t rec = 0;
    for (size_t c = 0; c < d.chunkSizes.size(); ++c) {
        for (size_t i = rec; i < rec + d.chunkSizes[c]; ++i)
            serversOf[c].insert(
                d.addresses[d.timeSeq[i].addressIndex]);
        rec += d.chunkSizes[c];
    }
    for (uint32_t ip : d.addresses) {
        query::Expr pred = query::Expr::serverIs(ip);
        auto planned = archive.plan(pred);
        std::set<size_t> plannedSet(planned.begin(), planned.end());
        for (size_t c = 0; c < serversOf.size(); ++c) {
            if (serversOf[c].count(ip) != 0) {
                ASSERT_TRUE(plannedSet.count(c) != 0)
                    << "chunk " << c << " dropped for server " << ip;
            }
        }
    }
}

// ---- verdict-first expansion and the shared-region cache ------------

namespace {

/** Every flow's packets, in time-seq order, expanded the way a full
 *  decompression does (one RNG stream per chunk). */
std::vector<std::vector<trace::PacketRecord>>
expandEveryFlow(const fccc::Datasets &d, const fccc::FccConfig &cfg)
{
    fccc::FccTraceCompressor codec(cfg);
    std::vector<std::vector<trace::PacketRecord>> flows;
    flows.reserve(d.timeSeq.size());
    flow::ClassTable classes(d.weights);
    size_t rec = 0;
    for (size_t c = 0; c < d.chunkSizes.size(); ++c) {
        util::Rng rng(fccc::chunkRngSeed(c));
        for (size_t i = 0; i < d.chunkSizes[c]; ++i, ++rec) {
            flows.emplace_back();
            codec.expandFlow(d, classes, d.timeSeq[rec], rng,
                             flows.back());
        }
    }
    return flows;
}

/** The ground truth: expand everything, then keep the packets
 *  @p expr admits, in canonical order. */
std::vector<trace::PacketRecord>
filterReference(const fccc::Datasets &d,
                const std::vector<std::vector<trace::PacketRecord>> &flows,
                const query::Expr &expr)
{
    std::vector<trace::PacketRecord> out;
    for (size_t i = 0; i < flows.size(); ++i) {
        const fccc::TimeSeqRecord &rec = d.timeSeq[i];
        query::Expr::FlowView view{d.addresses[rec.addressIndex],
                                   fccc::reconstructionServerPort,
                                   flows[i].size()};
        for (const trace::PacketRecord &pkt : flows[i])
            if (expr.matches(view, pkt.timestampUs()))
                out.push_back(pkt);
    }
    std::sort(out.begin(), out.end(), trace::packetCanonicalLess);
    return out;
}

std::vector<trace::PacketRecord>
runExpr(const query::FccArchive &archive, const query::Expr &expr,
        bool forceFullDecode, query::QueryStats *stats = nullptr)
{
    trace::Trace out;
    trace::CollectTraceSink sink(out);
    query::QueryStats s = archive.run(expr, sink, forceFullDecode);
    if (stats != nullptr)
        *stats = s;
    return out.packets();
}

/** A random AND/OR/NOT tree whose leaves hit the archive's data:
 *  stored servers, prefixes of them, the reconstruction port, time
 *  windows anchored on flow starts and ends, and flow sizes. */
query::Expr
randomDataExpr(util::Rng &rng, const fccc::Datasets &d,
               const std::vector<std::vector<trace::PacketRecord>> &flows,
               int depth)
{
    using query::Expr;
    if (depth <= 0 || rng.uniformInt(0, 2) == 0) {
        size_t i = static_cast<size_t>(
            rng.uniformInt(0, d.timeSeq.size() - 1));
        uint32_t ip = d.addresses[d.timeSeq[i].addressIndex];
        switch (rng.uniformInt(0, 5)) {
        case 0:
            return Expr::serverIs(ip);
        case 1:
            return Expr::serverIn(
                ip, static_cast<uint32_t>(rng.uniformInt(8, 32)));
        case 2:
            return rng.uniformInt(0, 1) ? Expr::portIs(80)
                                        : Expr::portBetween(81, 443);
        case 3:
        case 4: {
            // Anchor on a flow's first or last packet, then widen.
            const auto &pkts = flows[i];
            uint64_t a = rng.uniformInt(0, 1)
                             ? pkts.front().timestampUs()
                             : pkts.back().timestampUs();
            uint64_t before = rng.uniformInt(0, 2) == 0
                                  ? 0
                                  : rng.uniformInt(0, 1'500'000);
            uint64_t after = rng.uniformInt(0, 2) == 0
                                 ? 0
                                 : rng.uniformInt(0, 1'500'000);
            return Expr::timeWithin(a > before ? a - before : 0,
                                    a + after);
        }
        default:
            return Expr::minFlowPackets(rng.uniformInt(1, 120));
        }
    }
    switch (rng.uniformInt(0, 2)) {
    case 0:
        return Expr::andOf(randomDataExpr(rng, d, flows, depth - 1),
                           randomDataExpr(rng, d, flows, depth - 1));
    case 1:
        return Expr::orOf(randomDataExpr(rng, d, flows, depth - 1),
                          randomDataExpr(rng, d, flows, depth - 1));
    default:
        return Expr::notOf(randomDataExpr(rng, d, flows, depth - 1));
    }
}

/** An indexed archive of one adversarial scenario. */
struct ScenarioArchive
{
    std::string tshPath;
    std::string fccPath;
    fccc::FccConfig cfg;

    explicit ScenarioArchive(trace::ScenarioKind kind)
        : tshPath(tempPath(std::string("verdict_") +
                           trace::scenarioName(kind) + ".tsh")),
          fccPath(tempPath(std::string("verdict_") +
                           trace::scenarioName(kind) + ".fcc"))
    {
        trace::ScenarioConfig scfg =
            trace::scenarioDefaults(kind, 515);
        scfg.durationSec = 4.0;
        if (kind == trace::ScenarioKind::Elephants) {
            scfg.flows = 40;
            scfg.maxFlowLen = 600;
        } else {
            scfg.flows = 24;
            scfg.incastRounds = 5;
        }
        trace::ScenarioGenerator gen(scfg);
        trace::writeTshFile(gen.generate(), tshPath);
        cfg.container = fccc::ContainerFormat::Fcc3;
        cfg.chunkRecords = 8;
        cfg.threads = 1;
        cfg.index = true;
        fccc::compressTraceFile(tshPath, fccPath, cfg);
    }

    ~ScenarioArchive()
    {
        std::remove(tshPath.c_str());
        std::remove(fccPath.c_str());
    }
};

/**
 * An indexed one-chunk archive of sixty elephants-scenario flows
 * (about 10k packets, at least trace::canonicalRadixMinPackets),
 * shifted so the middle record starts at UINT64_MAX / 1000 µs: the
 * reconstructed timestamps of later packets pass UINT64_MAX ns and
 * wrap, so the chunk's time span is unknown.
 */
struct WrappedArchive
{
    std::string fccPath = tempPath("verdict_wrapped.fcc");
    fccc::FccConfig cfg;

    WrappedArchive()
    {
        trace::ScenarioConfig scfg =
            trace::scenarioDefaults(trace::ScenarioKind::Elephants, 2005);
        scfg.flows = 60;
        scfg.durationSec = 4.0;
        cfg.container = fccc::ContainerFormat::Fcc3;
        cfg.chunkRecords = 1u << 20;
        cfg.threads = 1;
        cfg.index = true;
        fccc::FccCompressStats stats;
        fccc::Datasets d = fccc::FccTraceCompressor(cfg).buildDatasets(
            trace::ScenarioGenerator(scfg).generate(), stats);
        uint64_t shift = UINT64_MAX / 1000 -
                         d.timeSeq[d.records() / 2].firstTimestampUs;
        for (fccc::TimeSeqRecord &rec : d.timeSeq)
            rec.firstTimestampUs += shift;
        writeBytes(fccPath, fccc::serializeDatasets(d, cfg, stats.sizes));
    }

    ~WrappedArchive() { std::remove(fccPath.c_str()); }
};

/** Index of the first shared column frame's field-codec tag byte:
 *  after the 11-byte header comes the frame's value-count varint. */
size_t
firstSharedCodecTag(const std::vector<uint8_t> &bytes)
{
    size_t pos = 11;
    while (bytes.at(pos) & 0x80)
        ++pos;
    return pos + 1;
}

} // namespace

TEST(QueryVerdict, RandomExprsMatchFullDecompressionPlusFilter)
{
    ScenarioArchive elephants(trace::ScenarioKind::Elephants);
    ScenarioArchive incast(trace::ScenarioKind::Incast);
    WrappedArchive wrapped;
    SeedArchive &seed = seedArchive();
    fccc::FccConfig webCfg = seed.cfg;
    webCfg.index = true;
    struct Case
    {
        const char *name;
        std::string path;
        fccc::FccConfig cfg;
    };
    const Case cases[] = {{"web", seed.idxPath, webCfg},
                          {"elephants", elephants.fccPath,
                           elephants.cfg},
                          {"incast", incast.fccPath, incast.cfg},
                          {"wrapped-single-chunk", wrapped.fccPath,
                           wrapped.cfg}};
    const int exprs = smokeTests() ? 6 : 24;
    util::Rng rng(0x0E7C);
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        std::vector<uint8_t> bytes = readBytes(c.path);
        fccc::Datasets d = fccc::deserialize(bytes);
        auto flows = expandEveryFlow(d, c.cfg);
        if (c.path == wrapped.fccPath) {
            ASSERT_EQ(d.chunkSizes.size(), 1u);
            ASSERT_GT(d.timeSeq.back().firstTimestampUs, UINT64_MAX / 1000);
            size_t packets = 0;
            for (const auto &f : flows)
                packets += f.size();
            ASSERT_GE(packets, trace::canonicalRadixMinPackets);
        } else {
            ASSERT_GT(d.chunkSizes.size(), 1u);
        }
        // The reference itself: unfiltered, it is the decompression.
        trace::Trace full =
            fccc::FccTraceCompressor(c.cfg).decompress(bytes);
        ASSERT_TRUE(fcc::test::samePackets(
            filterReference(d, flows, query::Expr::matchAll()),
            full.packets()));

        for (int e = 0; e < exprs; ++e) {
            query::Expr expr = randomDataExpr(rng, d, flows, 3);
            SCOPED_TRACE(expr.str());
            auto expected = filterReference(d, flows, expr);
            uint64_t matched = 0;
            for (size_t i = 0; i < flows.size(); ++i) {
                query::Expr::FlowView view{
                    d.addresses[d.timeSeq[i].addressIndex],
                    fccc::reconstructionServerPort, flows[i].size()};
                matched += std::any_of(
                    flows[i].begin(), flows[i].end(),
                    [&](const trace::PacketRecord &pkt) {
                        return expr.matches(view, pkt.timestampUs());
                    });
            }
            for (uint32_t threads : {1u, 2u, 4u}) {
                fccc::FccConfig cfg = c.cfg;
                cfg.threads = threads;
                query::FccArchive archive(c.path, cfg);
                for (bool force : {false, true}) {
                    query::QueryStats stats;
                    auto got = runExpr(archive, expr, force, &stats);
                    ASSERT_EQ(stats.usedIndex, !force);
                    ASSERT_TRUE(fcc::test::samePackets(got, expected))
                        << threads << " threads, force " << force;
                    EXPECT_EQ(stats.flowsMatched, matched);
                    EXPECT_GE(stats.flowsExpanded, stats.flowsMatched);
                }
            }
        }
    }
}

TEST(QueryVerdict, WindowEdgesOnFlowFirstAndLastPacket)
{
    ScenarioArchive elephants(trace::ScenarioKind::Elephants);
    SeedArchive &seed = seedArchive();
    fccc::FccConfig webCfg = seed.cfg;
    webCfg.index = true;
    size_t insideLong = 0;
    for (const auto &[path, cfg] :
         {std::pair{seed.idxPath, webCfg},
          std::pair{elephants.fccPath, elephants.cfg}}) {
        fccc::Datasets d = fccc::deserialize(readBytes(path));
        auto flows = expandEveryFlow(d, cfg);
        query::FccArchive archive(path, cfg);
        for (size_t i = 0; i < flows.size();
             i += std::max<size_t>(1, flows.size() / 12)) {
            uint64_t first = flows[i].front().timestampUs();
            uint64_t last = flows[i].back().timestampUs();
            std::vector<std::pair<uint64_t, uint64_t>> windows = {
                {first, last}, {first, first}, {last, last},
                {first, last + 1}, {first > 0 ? first - 1 : 0, first}};
            if (last > first) {
                // One edge a microsecond inside the flow.
                windows.push_back({first, last - 1});
                windows.push_back({first + 1, last});
            }
            if (d.timeSeq[i].isLong && last - first >= 2) {
                // Strictly inside a long flow: the flow is neither
                // disjoint nor covered, so it is judged per packet.
                windows.push_back({first + 1, last - 1});
                windows.push_back({first + (last - first) / 3,
                                   first + (last - first) / 2});
                ++insideLong;
            }
            for (auto [t0, t1] : windows) {
                query::Expr expr = query::Expr::timeWithin(t0, t1);
                SCOPED_TRACE(expr.str());
                auto expected = filterReference(d, flows, expr);
                ASSERT_FALSE(expected.empty());
                ASSERT_TRUE(fcc::test::samePackets(
                    runExpr(archive, expr, false), expected));
                ASSERT_TRUE(fcc::test::samePackets(
                    runExpr(archive, expr, true), expected));
            }
        }
    }
    EXPECT_GT(insideLong, 0u);
}

TEST(QueryVerdict, NearWrapTimestampsFallBackToPerPacket)
{
    // Timestamps near 2^64 / 1000 µs: some flows end past the last
    // microsecond a nanosecond timestamp can hold, so their packet
    // times wrap. Their span is unknown and they must be judged per
    // packet — and the planner must not prune their chunks by time.
    const uint64_t top = UINT64_MAX / 1000;
    flow::Characterizer chi;
    auto s = [&](flow::FlagClass flag, bool dependent,
                 flow::SizeClass size) {
        return chi.encode(flow::PacketClass{flag, dependent, size});
    };
    using F = flow::FlagClass;
    using Z = flow::SizeClass;
    fccc::Datasets d;
    d.shortTemplates.push_back(flow::SfVector{
        {s(F::Syn, false, Z::Empty), s(F::SynAck, true, Z::Empty),
         s(F::Ack, true, Z::Small), s(F::Ack, false, Z::Large),
         s(F::FinRst, false, Z::Empty)}});
    fccc::LongTemplate lt;
    for (int i = 0; i < 60; ++i) {
        lt.sValues.push_back(s(F::Ack, i % 2 == 1, Z::Large));
        lt.iptUs.push_back(i == 0 ? 0 : 50);
    }
    d.longTemplates.push_back(lt);
    d.addresses = {0x0a000001u, 0x0a000002u};
    auto rec = [](uint64_t first, bool isLong, uint32_t rtt,
                  uint32_t addr) {
        fccc::TimeSeqRecord r;
        r.firstTimestampUs = first;
        r.isLong = isLong;
        r.rttUs = rtt;
        r.addressIndex = addr;
        return r;
    };
    d.timeSeq = {rec(top - 100'000, false, 100, 0),  // known span
                 rec(top - 3000, true, 0, 1),        // ends at top-50
                 rec(top - 1000, true, 0, 0),        // wraps
                 rec(top - 700, false, 100, 1),      // wraps
                 rec(top - 1, false, 100, 0)};       // wraps

    fccc::FccConfig cfg;
    cfg.container = fccc::ContainerFormat::Fcc3;
    cfg.chunkRecords = 2;
    cfg.threads = 1;
    cfg.index = true;
    fccc::SizeBreakdown sizes;
    std::string path = tempPath("near_wrap.fcc");
    std::vector<uint8_t> bytes = fccc::serializeDatasets(d, cfg, sizes);
    writeBytes(path, bytes);
    fccc::Datasets back = fccc::deserialize(bytes);
    ASSERT_EQ(back.timeSeq, d.timeSeq);

    fccc::TemplateFactTable facts = fccc::templateFacts(back);
    size_t unknown = 0;
    for (const fccc::TimeSeqRecord &r : back.timeSeq)
        unknown += !fccc::flowSpan(facts.of(r.isLong, r.templateIndex), r)
                        .has_value();
    EXPECT_EQ(unknown, 3u);

    auto flows = expandEveryFlow(back, cfg);
    query::FccArchive archive(path, cfg);
    ASSERT_TRUE(archive.hasIndex());
    const query::Expr exprs[] = {
        query::Expr::matchAll(),
        query::Expr::timeWithin(0, 5000),  // the wrapped packets
        query::Expr::timeWithin(top - 800, top),
        query::Expr::timeWithin(top - 100'000, top - 99'200),
        query::Expr::andOf(query::Expr::serverIs(0x0a000001u),
                           query::Expr::timeWithin(0, top)),
        query::Expr::notOf(query::Expr::timeWithin(top - 3000, top)),
    };
    for (const query::Expr &expr : exprs) {
        SCOPED_TRACE(expr.str());
        auto expected = filterReference(back, flows, expr);
        ASSERT_TRUE(fcc::test::samePackets(
            runExpr(archive, expr, false), expected));
        ASSERT_TRUE(fcc::test::samePackets(
            runExpr(archive, expr, true), expected));
    }
    EXPECT_FALSE(
        filterReference(back, flows, exprs[1]).empty());
    std::remove(path.c_str());
}

TEST(QueryVerdict, FlowsExpandedCountsOnlyFlowsThatCanMatch)
{
    SeedArchive &seed = seedArchive();
    fccc::Datasets d = fccc::deserialize(readBytes(seed.idxPath));
    auto flows = expandEveryFlow(d, seed.cfg);
    query::FccArchive archive(seed.idxPath, seed.cfg);
    std::vector<size_t> chunkOf;
    for (size_t c = 0; c < d.chunkSizes.size(); ++c)
        chunkOf.insert(chunkOf.end(), d.chunkSizes[c], c);

    // server = X: exactly the records with X in the planned chunks.
    for (size_t pick : {size_t{0}, d.addresses.size() / 2,
                        d.addresses.size() - 1}) {
        uint32_t ip = d.addresses[pick];
        query::Expr expr = query::Expr::serverIs(ip);
        std::vector<size_t> planned = archive.plan(expr);
        std::set<size_t> plannedSet(planned.begin(), planned.end());
        uint64_t withX = 0;
        for (size_t i = 0; i < d.timeSeq.size(); ++i)
            withX += plannedSet.count(chunkOf[i]) != 0 &&
                     d.addresses[d.timeSeq[i].addressIndex] == ip;
        query::QueryStats stats;
        runExpr(archive, expr, false, &stats);
        EXPECT_EQ(stats.flowsExpanded, withX);
        EXPECT_EQ(stats.flowsMatched, withX);
        EXPECT_LT(stats.flowsExpanded, d.timeSeq.size());
    }

    // time within: at most the flows whose span overlaps the window.
    uint64_t t0 = d.timeSeq[d.timeSeq.size() / 3].firstTimestampUs;
    for (uint64_t width : {uint64_t{1}, uint64_t{250'000},
                           uint64_t{1'000'000}}) {
        query::Expr expr = query::Expr::timeWithin(t0, t0 + width);
        uint64_t overlapping = 0;
        for (const auto &pkts : flows)
            overlapping += pkts.front().timestampUs() <= t0 + width &&
                           pkts.back().timestampUs() >= t0;
        for (bool force : {false, true}) {
            query::QueryStats stats;
            runExpr(archive, expr, force, &stats);
            EXPECT_LE(stats.flowsExpanded, overlapping) << width;
            EXPECT_GE(stats.flowsExpanded, stats.flowsMatched);
            EXPECT_GT(stats.flowsMatched, 0u);
        }
    }

    // Match-all expands every flow of every chunk.
    query::QueryStats all;
    runExpr(archive, query::Expr::matchAll(), false, &all);
    EXPECT_EQ(all.flowsExpanded, d.timeSeq.size());
}

TEST(SharedRegionCache, OpeningDoesNotDecodeAndQueriesShareOneDecode)
{
    SeedArchive &seed = seedArchive();
    query::FccArchive archive(seed.idxPath, seed.cfg);
    ASSERT_TRUE(archive.hasIndex());
    EXPECT_FALSE(archive.sharedRegionCached());
    archive.plan(query::Expr::serverIs(1));  // planning reads the index
    EXPECT_FALSE(archive.sharedRegionCached());

    query::AggregateRequest req;
    req.expr = query::parseExpr("flow.packets >= 2");
    query::AggregateResult first = archive.aggregate(req);
    EXPECT_TRUE(archive.sharedRegionCached());
    query::AggregateResult again = archive.aggregate(req);
    EXPECT_EQ(query::renderAggregate(first, req),
              query::renderAggregate(again, req));

    // A fresh archive answers identically from its own first decode.
    query::FccArchive fresh(seed.idxPath, seed.cfg);
    query::Expr expr = query::parseExpr("server in 0.0.0.0/1");
    auto cached = runExpr(archive, expr, false);
    EXPECT_FALSE(fresh.sharedRegionCached());
    EXPECT_TRUE(fcc::test::samePackets(runExpr(fresh, expr, false),
                                       cached));
    EXPECT_TRUE(fresh.sharedRegionCached());
}

TEST(SharedRegionCache, ConcurrentFirstQueriesAgree)
{
    SeedArchive &seed = seedArchive();
    fccc::Datasets d = fccc::deserialize(readBytes(seed.idxPath));
    uint64_t t0 = d.timeSeq[d.timeSeq.size() / 2].firstTimestampUs;
    query::Expr expr = query::Expr::orOf(
        query::Expr::serverIs(d.addresses.front()),
        query::Expr::timeWithin(t0, t0 + 500'000));
    fccc::FccConfig cfg = seed.cfg;
    cfg.threads = 2;
    std::vector<trace::PacketRecord> reference;
    {
        query::FccArchive solo(seed.idxPath, cfg);
        reference = runExpr(solo, expr, false);
    }
    ASSERT_FALSE(reference.empty());

    for (int round = 0; round < (smokeTests() ? 2 : 6); ++round) {
        query::FccArchive archive(seed.idxPath, cfg);
        constexpr int kThreads = 8;
        std::vector<std::vector<trace::PacketRecord>> got(kThreads);
        std::atomic<int> ready{0};
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                ready.fetch_add(1);
                while (ready.load() < kThreads)
                    std::this_thread::yield();
                got[t] = runExpr(archive, expr, false);
            });
        }
        for (std::thread &th : threads)
            th.join();
        for (int t = 0; t < kThreads; ++t)
            ASSERT_TRUE(fcc::test::samePackets(got[t], reference))
                << "round " << round << " thread " << t;
    }
}

TEST(SharedRegionCache, CorruptSharedFrameThrowsOnEveryQuery)
{
    SeedArchive &seed = seedArchive();
    std::vector<uint8_t> bytes = readBytes(seed.idxPath);
    bytes[firstSharedCodecTag(bytes)] = 0xff;  // no such field codec
    std::string path = tempPath("corrupt_shared.fcc");
    writeBytes(path, bytes);

    query::FccArchive archive(path, seed.cfg);
    ASSERT_TRUE(archive.hasIndex());  // the tail index is intact
    query::Expr expr = query::Expr::matchAll();
    trace::Trace out;
    trace::CollectTraceSink sink(out);
    EXPECT_THROW(archive.run(expr, sink), util::Error);
    EXPECT_FALSE(archive.sharedRegionCached());
    EXPECT_THROW(archive.run(expr, sink), util::Error);
    query::AggregateRequest req;
    EXPECT_THROW(archive.aggregate(req), util::Error);
    EXPECT_FALSE(archive.sharedRegionCached());
    std::remove(path.c_str());
}

// ---- one FCC3 reader: indexed queries reject what a full decode does

namespace {

/** Packets of @p expr over @p archive, or nullopt when it throws. */
std::optional<std::vector<trace::PacketRecord>>
tryRun(const query::FccArchive &archive, const query::Expr &expr,
       bool forceFullDecode)
{
    try {
        return runExpr(archive, expr, forceFullDecode);
    } catch (const util::Error &) {
        return std::nullopt;
    }
}

} // namespace

TEST(OneReader, OffGridQuantizedArchiveRejectedByEveryPath)
{
    // An indexed Quantized archive (1000 us grid) with one timestamp
    // moved 1 us off the grid. The full decode rejects it; the
    // indexed query and the indexed aggregate read the same chunks
    // through the same parser and must reject it too.
    fccc::FccConfig cfg;
    cfg.container = fccc::ContainerFormat::Fcc3;
    cfg.chunkRecords = 64;
    cfg.threads = 1;
    cfg.index = true;
    cfg.fidelity = fccc::Fidelity::Quantized;
    cfg.quantumUs = 1000;
    fccc::Datasets d = fccc::deserialize(
        fccc::FccTraceCompressor(cfg).compress(webTrace(7, 4.0)));
    ASSERT_EQ(d.fidelity, fccc::Fidelity::Quantized);
    size_t moved = 0;
    while (d.timeSeq[moved].firstTimestampUs ==
           d.timeSeq[moved + 1].firstTimestampUs)
        ++moved;
    d.timeSeq[moved].firstTimestampUs += 1;  // still sorted

    fccc::SizeBreakdown sizes;
    std::vector<uint8_t> bytes = fccc::serializeColumnar(
        d, cfg.backend, sizes, nullptr, nullptr, /*indexed=*/true);
    std::string path = tempPath("off_grid.fcc");
    writeBytes(path, bytes);

    EXPECT_THROW(fccc::deserializeAuto(bytes, 1), util::Error);
    query::FccArchive archive(path, cfg);
    ASSERT_TRUE(archive.hasIndex());
    query::Expr all = query::Expr::matchAll();
    EXPECT_FALSE(tryRun(archive, all, false).has_value());
    EXPECT_FALSE(tryRun(archive, all, true).has_value());
    EXPECT_THROW(archive.aggregate(query::AggregateRequest{}),
                 util::Error);
    std::remove(path.c_str());
}

TEST(OneReader, ColumnFrameFlipsFailOrMatchOnBothPaths)
{
    // Single-byte flips anywhere in the column frames of an indexed
    // web archive: the indexed matchAll and the full decode must
    // either both throw util::Error or emit identical packets.
    fccc::FccConfig cfg;
    cfg.container = fccc::ContainerFormat::Fcc3;
    cfg.chunkRecords = 32;
    cfg.threads = 1;
    cfg.index = true;
    std::vector<uint8_t> good =
        fccc::FccTraceCompressor(cfg).compress(webTrace(17, 4.0));
    size_t begin = fccc::readFcc3Header(good)->bytes;
    size_t end = good.size() -
                 static_cast<size_t>(fccc::indexRegionBytes(good));
    ASSERT_LT(begin, end);

    std::string path = tempPath("frame_flip.fcc");
    util::Rng rng(0xF11B);
    size_t threw = 0, matched = 0;
    const size_t flips = smokeTests() ? 150 : 600;
    for (size_t n = 0; n < flips; ++n) {
        std::vector<uint8_t> mutant = good;
        size_t at = rng.uniformInt(begin, end - 1);
        mutant[at] ^= static_cast<uint8_t>(rng.uniformInt(1, 255));
        writeBytes(path, mutant);
        query::FccArchive archive(path, cfg);
        ASSERT_TRUE(archive.hasIndex());
        query::Expr all = query::Expr::matchAll();
        auto indexed = tryRun(archive, all, false);
        auto full = tryRun(archive, all, true);
        ASSERT_EQ(indexed.has_value(), full.has_value())
            << "byte " << at << ": the "
            << (indexed ? "indexed" : "full-decode")
            << " path accepted what the other rejected";
        if (indexed) {
            ASSERT_TRUE(fcc::test::samePackets(*indexed, *full))
                << "byte " << at;
            ++matched;
        } else {
            ++threw;
        }
    }
    EXPECT_GT(threw, 0u);
    EXPECT_GT(matched, 0u);
    std::remove(path.c_str());
}

TEST(OneReader, IptSumOverflowNeverPrunes)
{
    // A long template whose inter-packet times sum past 2^64: the
    // reconstruction wraps, so its span is unknown, and an unknown
    // span never prunes — the index bound and the flow tier's
    // duration saturate instead of wrapping back below the start.
    fccc::Datasets d;
    flow::Characterizer chi(d.weights);
    uint16_t s = chi.encode(
        {flow::FlagClass::Ack, false, flow::SizeClass::Empty});
    d.longTemplates.push_back(
        {{s, s, s}, {0, uint64_t{1} << 63, uint64_t{1} << 63}});
    d.addresses = {0x0a000001u};
    fccc::TimeSeqRecord rec;
    rec.firstTimestampUs = 1000;
    rec.isLong = true;
    d.timeSeq = {rec};
    d.chunkSizes = {1};

    fccc::TemplateFactTable facts = fccc::templateFacts(d);
    EXPECT_FALSE(fccc::flowSpan(facts.of(true, 0), rec).has_value());

    fccc::ArchiveIndex index = fccc::buildArchiveIndex(d);
    ASSERT_EQ(index.chunks.size(), 1u);
    EXPECT_EQ(index.chunks[0].maxEndUs, UINT64_MAX);
    EXPECT_TRUE(query::Expr::timeWithin(5000, 6000)
                    .planChunk(index.chunks[0])
                    .may);

    fccc::Datasets flows =
        fccc::applyFidelity(d, fccc::Fidelity::Flow, /*quantumUs=*/1000);
    ASSERT_EQ(flows.flowRecords.size(), 1u);
    EXPECT_EQ(flows.flowRecords[0].durationUs, UINT64_MAX);
    fccc::ArchiveIndex flowIndex = fccc::buildArchiveIndex(flows);
    EXPECT_EQ(flowIndex.chunks[0].maxEndUs, UINT64_MAX);
}
