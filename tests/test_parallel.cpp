/**
 * @file
 * Parallel pipeline tests: thread-count determinism of compression
 * and decompression, FCC2 chunked container round trips, FCC1
 * backward compatibility, and thread pool basics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iterator>
#include <tuple>

#include "codec/deflate/deflate.hpp"
#include "codec/fcc/datasets.hpp"
#include "codec/fcc/fcc_codec.hpp"
#include "codec/fcc/stream.hpp"
#include "flow/flow_stats.hpp"
#include "flow/flow_table.hpp"
#include "trace/tsh.hpp"
#include "trace/web_gen.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

#include "test_common.hpp"

using namespace fcc;
namespace fccc = fcc::codec::fcc;

namespace {

/** Explicit TSH spec for the raw 44-byte record fixtures. */
const trace::TraceFormatSpec kTsh =
    trace::parseTraceFormatSpec("tsh");

trace::Trace
webTrace(uint64_t seed, double seconds, double flowsPerSec = 80.0)
{
    trace::WebGenConfig cfg;
    cfg.seed = seed;
    cfg.durationSec = seconds;
    cfg.flowsPerSec = flowsPerSec;
    trace::WebTrafficGenerator gen(cfg);
    return gen.generate();
}

/** A committed file of the golden corpus (tests/golden). */
std::vector<uint8_t>
goldenBytes(const char *name)
{
    std::ifstream in(std::string(FCC_GOLDEN_DIR) + "/" + name,
                     std::ios::binary);
    EXPECT_TRUE(in.good()) << name;
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

std::vector<uint8_t>
compressWithThreads(const trace::Trace &tr, uint32_t threads)
{
    fccc::FccConfig cfg;
    cfg.threads = threads;
    fccc::FccTraceCompressor codec(cfg);
    return codec.compress(tr);
}

} // namespace

TEST(ThreadPool, ParallelForCoversEveryIndex)
{
    util::ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(257);
    pool.parallelFor(hits.size(),
                     [&](size_t i) { hits[i].fetch_add(1); });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, WaitRethrowsTaskException)
{
    util::ThreadPool pool(2);
    for (int i = 0; i < 8; ++i)
        pool.submit([i] {
            if (i == 5)
                throw util::Error("boom");
        });
    EXPECT_THROW(pool.wait(), util::Error);
    // The pool stays usable after an error.
    std::atomic<int> ran{0};
    pool.submit([&] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, ManySmallTasksBalance)
{
    util::ThreadPool pool(8);
    std::atomic<uint64_t> sum{0};
    pool.parallelFor(1000, [&](size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 1000ull * 999 / 2);
}

TEST(Parallel, CompressedBytesIdenticalAcrossThreadCounts)
{
    trace::Trace tr = webTrace(2005, 12.0, 120.0);
    auto one = compressWithThreads(tr, 1);
    auto two = compressWithThreads(tr, 2);
    auto eight = compressWithThreads(tr, 8);
    EXPECT_EQ(one, two);
    EXPECT_EQ(one, eight);
}

TEST(Parallel, DecompressionIdenticalAcrossThreadCounts)
{
    trace::Trace tr = webTrace(7, 10.0);
    // Small chunks so the trace spans many of them.
    fccc::FccConfig small;
    small.chunkRecords = 64;
    auto bytes = fccc::FccTraceCompressor(small).compress(tr);

    auto restoreWith = [&](uint32_t threads) {
        fccc::FccConfig cfg;
        cfg.chunkRecords = 64;
        cfg.threads = threads;
        return fccc::FccTraceCompressor(cfg).decompress(bytes);
    };
    trace::Trace a = restoreWith(1);
    trace::Trace b = restoreWith(8);
    ASSERT_EQ(a.size(), b.size());
    // Byte-identical reconstruction, not just statistically alike.
    EXPECT_EQ(trace::writeTsh(a), trace::writeTsh(b));
}

TEST(Parallel, ChunkedContainerRoundTrips)
{
    trace::Trace tr = webTrace(11, 8.0);
    fccc::FccTraceCompressor codec;
    fccc::FccCompressStats stats;
    auto bytes = codec.compressWithStats(tr, stats);
    EXPECT_GT(stats.flows, 100u);

    // The container is FCC2 and decodes with chunk boundaries.
    auto d = fccc::deserialize(bytes);
    EXPECT_FALSE(d.chunkSizes.empty());
    uint64_t records = 0;
    for (uint32_t c : d.chunkSizes)
        records += c;
    EXPECT_EQ(records, d.timeSeq.size());

    trace::Trace restored = codec.decompress(bytes);
    EXPECT_EQ(restored.size(), tr.size());
    flow::FlowTable table;
    auto origStats =
        flow::computeFlowStats(table.assemble(tr), tr);
    auto backStats =
        flow::computeFlowStats(table.assemble(restored), restored);
    EXPECT_EQ(backStats.flows, origStats.flows);
    EXPECT_EQ(backStats.lengthCounts, origStats.lengthCounts);
}

TEST(Parallel, ChunkSizeDoesNotChangeRecordContent)
{
    trace::Trace tr = webTrace(13, 6.0);
    fccc::FccConfig big;
    big.chunkRecords = 100000;
    fccc::FccConfig tiny;
    tiny.chunkRecords = 16;
    auto dBig = fccc::deserialize(
        fccc::FccTraceCompressor(big).compress(tr));
    auto dTiny = fccc::deserialize(
        fccc::FccTraceCompressor(tiny).compress(tr));
    ASSERT_EQ(dBig.timeSeq.size(), dTiny.timeSeq.size());
    for (size_t i = 0; i < dBig.timeSeq.size(); ++i) {
        EXPECT_EQ(dBig.timeSeq[i].firstTimestampUs,
                  dTiny.timeSeq[i].firstTimestampUs);
        EXPECT_EQ(dBig.timeSeq[i].templateIndex,
                  dTiny.timeSeq[i].templateIndex);
        EXPECT_EQ(dBig.timeSeq[i].addressIndex,
                  dTiny.timeSeq[i].addressIndex);
    }
    EXPECT_GT(dTiny.chunkSizes.size(), dBig.chunkSizes.size());
}

TEST(Parallel, LegacyV1ContainerStillDecompresses)
{
    // FCC1 is no longer written; the committed golden archive pins
    // its reader. The decoder auto-detects it, leaves the layout
    // empty and takes the sequential single-RNG path at any thread
    // count.
    std::vector<uint8_t> v1 = goldenBytes("fcc1.fcc");
    fccc::Datasets decoded = fccc::deserialize(v1);
    EXPECT_TRUE(decoded.chunkSizes.empty());
    ASSERT_GT(decoded.timeSeq.size(), 16u);
    std::vector<uint8_t> expected = goldenBytes("expected-fcc1.tsh");
    for (uint32_t threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        fccc::FccConfig cfg;
        cfg.threads = threads;
        EXPECT_EQ(trace::writeTsh(
                      fccc::FccTraceCompressor(cfg).decompress(v1)),
                  expected);
    }

    // Written again, the layout-less datasets get the record-count
    // slicing a session would have chosen.
    fccc::FccConfig cfg;
    cfg.chunkRecords = 16;
    fccc::SizeBreakdown sizes;
    fccc::Datasets again = fccc::deserialize(
        fccc::serializeDatasets(decoded, cfg, sizes));
    EXPECT_EQ(again.chunkSizes,
              fccc::chunkLayout(decoded.timeSeq.size(), 16));
    EXPECT_EQ(again.timeSeq, decoded.timeSeq);
}

TEST(Parallel, StreamingChunkedDecompressMatchesInMemory)
{
    // Many tiny chunks force several expand batches through the
    // bounded-memory flush; the file output must be the in-memory
    // reconstruction as a multiset, and time-ordered.
    trace::Trace tr = webTrace(23, 10.0);
    fccc::FccConfig cfg;
    cfg.chunkRecords = 32;
    cfg.threads = 3;
    fccc::FccTraceCompressor codec(cfg);
    auto bytes = codec.compress(tr);
    ASSERT_GT(fccc::deserialize(bytes).chunkSizes.size(), 6u);
    trace::Trace inMemory = codec.decompress(bytes);

    std::string fccIn = fcc::test::tempPath("chunked.fcc");
    std::string tshOut = fcc::test::tempPath("chunked.tsh");
    {
        std::ofstream f(fccIn, std::ios::binary);
        f.write(reinterpret_cast<const char *>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    auto stats =
        fccc::decompressTraceFile(fccIn, tshOut, cfg, kTsh);
    EXPECT_EQ(stats.packets, inMemory.size());

    trace::Trace streamed = trace::readTshFile(tshOut);
    EXPECT_TRUE(streamed.isTimeOrdered());
    ASSERT_EQ(streamed.size(), inMemory.size());

    auto sortedTsh = [](trace::Trace t) {
        auto v = t.packets();
        std::sort(v.begin(), v.end(),
                  [](const trace::PacketRecord &a,
                     const trace::PacketRecord &b) {
                      auto key = [](const trace::PacketRecord &p) {
                          return std::tuple(p.timestampNs, p.srcIp,
                                            p.dstIp, p.srcPort,
                                            p.dstPort, p.seq, p.ack,
                                            p.ipId);
                      };
                      return key(a) < key(b);
                  });
        return trace::writeTsh(trace::Trace(std::move(v)));
    };
    EXPECT_EQ(sortedTsh(inMemory), sortedTsh(streamed));

    std::remove(fccIn.c_str());
    std::remove(tshOut.c_str());
}

TEST(Parallel, HybridDeflateContainerRoundTrips)
{
    // The whole-blob zlib hybrid is no longer written, but every
    // reader still unwraps it: a wrapped archive decodes exactly as
    // the archive it wraps.
    trace::Trace tr = webTrace(19, 5.0);
    fccc::FccTraceCompressor codec;
    auto bytes = codec.compress(tr);
    auto wrapped = codec::deflate::zlibCompress(bytes);
    ASSERT_EQ(wrapped[0], 0x78);  // zlib CMF
    trace::Trace restored = codec.decompress(wrapped);
    EXPECT_EQ(restored.size(), tr.size());
    EXPECT_EQ(trace::writeTsh(restored),
              trace::writeTsh(codec.decompress(bytes)));
}
