/**
 * @file
 * Golden-archive compatibility suite: committed archives under
 * tests/golden/ (one per container/backend/layout/fidelity cell,
 * produced by tools/golden_gen.cpp) must keep decoding to the
 * committed byte-exact references with the committed metadata.
 * This is the readers' tripwire — if a case here fails, either
 * revert the decoding change or bump the format deliberately:
 * regenerate the corpus with golden_gen and commit it together with
 * a docs/FORMAT.md entry. Nothing here re-encodes, so it does not
 * pin the writers; Stream.WriterKnownAnswerBytes (test_stream.cpp)
 * does.
 *
 * Reference traces: the unchunked layouts (FCC1, unchunked FCC3, and
 * the zlib-wrapped hybrid of FCC1) share expected-fcc1.tsh; FCC2 and
 * every chunked exact FCC3 variant share expected-chunked.tsh (chunk
 * layout, not container or backend, decides the expanded bytes); the
 * quantized and header tiers have their own documented
 * reconstructions; the flow tier has none and must say so cleanly.
 *
 * FCC1, the hybrid wrapper and unchunked FCC3 are no longer written:
 * these committed files (and the hybrid cells built from them) are
 * what keeps their readers honest.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "codec/deflate/deflate.hpp"
#include "codec/fcc/datasets.hpp"
#include "codec/fcc/fcc_codec.hpp"
#include "codec/fcc/index.hpp"
#include "query/aggregate.hpp"
#include "query/query.hpp"
#include "trace/tsh.hpp"
#include "util/error.hpp"

#include "test_common.hpp"

using namespace fcc;
namespace fccc = fcc::codec::fcc;

#ifndef FCC_GOLDEN_DIR
#error "FCC_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

namespace {

std::string
goldenPath(const char *name)
{
    return std::string(FCC_GOLDEN_DIR) + "/" + name;
}

std::vector<uint8_t>
loadBytes(const char *name)
{
    std::ifstream in(goldenPath(name), std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing golden file: "
                           << goldenPath(name);
    std::vector<uint8_t> bytes{std::istreambuf_iterator<char>(in),
                               std::istreambuf_iterator<char>()};
    EXPECT_FALSE(bytes.empty()) << goldenPath(name);
    return bytes;
}

struct Golden
{
    const char *name;
    uint8_t version;
    bool hasIndex;
    fccc::Fidelity fidelity;
    uint64_t quantumUs;
    /** Reference TSH the archive must decode to (null: flow tier,
     *  no packet reconstruction exists). */
    const char *expected;
};

const Golden kGoldens[] = {
    {"fcc1.fcc", 1, false, fccc::Fidelity::Exact, 0,
     "expected-fcc1.tsh"},
    {"fcc3-unchunked.fcc", 3, false, fccc::Fidelity::Exact, 0,
     "expected-fcc1.tsh"},
    {"fcc2.fcc", 2, false, fccc::Fidelity::Exact, 0,
     "expected-chunked.tsh"},
    {"fcc3-store.fcc", 3, false, fccc::Fidelity::Exact, 0,
     "expected-chunked.tsh"},
    {"fcc3-store-indexed.fcc", 3, true, fccc::Fidelity::Exact, 0,
     "expected-chunked.tsh"},
    {"fcc3-deflate.fcc", 3, false, fccc::Fidelity::Exact, 0,
     "expected-chunked.tsh"},
    {"fcc3-deflate-indexed.fcc", 3, true, fccc::Fidelity::Exact, 0,
     "expected-chunked.tsh"},
    {"fcc3-range.fcc", 3, false, fccc::Fidelity::Exact, 0,
     "expected-chunked.tsh"},
    {"fcc3-range-indexed.fcc", 3, true, fccc::Fidelity::Exact, 0,
     "expected-chunked.tsh"},
    {"fcc3-range-lanes.fcc", 3, false, fccc::Fidelity::Exact, 0,
     "expected-chunked.tsh"},
    {"fcc3-range-lanes-indexed.fcc", 3, true,
     fccc::Fidelity::Exact, 0, "expected-chunked.tsh"},
    {"fcc3-quantized-indexed.fcc", 3, true,
     fccc::Fidelity::Quantized, 1000, "expected-quantized.tsh"},
    {"fcc3-header-indexed.fcc", 3, true, fccc::Fidelity::Header, 0,
     "expected-header.tsh"},
    {"fcc3-flow-indexed.fcc", 3, true, fccc::Fidelity::Flow, 0,
     nullptr},
};

} // namespace

TEST(Golden, ArchivesDecodeByteExact)
{
    for (const Golden &g : kGoldens) {
        if (g.expected == nullptr)
            continue;
        SCOPED_TRACE(g.name);
        std::vector<uint8_t> archive = loadBytes(g.name);
        std::vector<uint8_t> expected = loadBytes(g.expected);

        fccc::FccTraceCompressor codec{{}};
        trace::Trace decoded = codec.decompress(archive);
        EXPECT_EQ(trace::writeTsh(decoded), expected);
    }

    // The whole-blob zlib hybrid wrapped a row container; every
    // reader still unwraps it before detecting the container.
    const std::pair<const char *, const char *> hybrids[] = {
        {"fcc1.fcc", "expected-fcc1.tsh"},
        {"fcc2.fcc", "expected-chunked.tsh"},
    };
    for (const auto &[name, expected] : hybrids) {
        SCOPED_TRACE(std::string("zlib(") + name + ")");
        std::vector<uint8_t> wrapped =
            codec::deflate::zlibCompress(loadBytes(name));
        ASSERT_EQ(wrapped[0], 0x78);
        fccc::FccTraceCompressor codec{{}};
        EXPECT_EQ(trace::writeTsh(codec.decompress(wrapped)),
                  loadBytes(expected));
    }
}

TEST(Golden, ContainerMetadata)
{
    for (const Golden &g : kGoldens) {
        SCOPED_TRACE(g.name);
        std::vector<uint8_t> archive = loadBytes(g.name);

        fccc::ContainerStat stat;
        fccc::Datasets d =
            fccc::deserializeAuto(archive, 1, &stat);
        EXPECT_EQ(stat.version, g.version);
        EXPECT_EQ(stat.hasIndex, g.hasIndex);
        EXPECT_EQ(stat.fidelity, g.fidelity);
        EXPECT_EQ(stat.quantumUs, g.quantumUs);
        if (g.version == 3) {
            EXPECT_FALSE(stat.columns.empty());
        }
        EXPECT_EQ(d.fidelity, g.fidelity);
        if (g.fidelity == fccc::Fidelity::Flow) {
            EXPECT_FALSE(d.flowRecords.empty());
        }
    }
}

TEST(Golden, FlowTierRejectsPacketReconstruction)
{
    std::vector<uint8_t> archive = loadBytes("fcc3-flow-indexed.fcc");
    fccc::FccTraceCompressor codec{{}};
    try {
        codec.decompress(archive);
        FAIL() << "flow-tier decompress must throw";
    } catch (const util::Error &error) {
        EXPECT_NE(std::string(error.what()).find(
                      "no per-packet data"),
                  std::string::npos)
            << error.what();
    }
}

TEST(Golden, FlowTierAggregatesMatchExactArchive)
{
    // The flow tier's whole contract: aggregate queries answer
    // exactly as they would against the exact archive of the same
    // trace — same per-server totals, same flow-size histogram.
    query::FccArchive exact(goldenPath("fcc3-deflate-indexed.fcc"));
    query::FccArchive flow(goldenPath("fcc3-flow-indexed.fcc"));

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
        EXPECT_EQ(a.servers[i].wireBytes, b.servers[i].wireBytes);
    }
    EXPECT_EQ(a.histogram, b.histogram);
}

namespace {

/** Packets of @p expr over @p archive, or nullopt when it throws. */
std::optional<std::vector<trace::PacketRecord>>
tryRun(const query::FccArchive &archive, const query::Expr &expr,
       bool forceFullDecode)
{
    try {
        trace::Trace out;
        trace::CollectTraceSink sink(out);
        archive.run(expr, sink, forceFullDecode);
        return out.packets();
    } catch (const util::Error &) {
        return std::nullopt;
    }
}

} // namespace

TEST(Golden, IndexedAndFullDecodePathsAgree)
{
    // Both paths read FCC3 through the one parser, so every indexed
    // archive answers through its chunk index exactly as through a
    // full decode: matchAll and a server leaf (both throw on the flow
    // tier, which has no packets), and the aggregate, whose
    // full-decode twin runs on the same datasets written without an
    // index.
    for (const Golden &g : kGoldens) {
        if (!g.hasIndex)
            continue;
        SCOPED_TRACE(g.name);
        query::FccArchive archive(goldenPath(g.name));
        ASSERT_TRUE(archive.hasIndex());
        fccc::Datasets d = fccc::deserialize(loadBytes(g.name));
        ASSERT_FALSE(d.addresses.empty());

        const query::Expr exprs[] = {
            query::Expr::matchAll(),
            query::Expr::serverIs(d.addresses.front())};
        for (const query::Expr &expr : exprs) {
            SCOPED_TRACE(expr.str());
            auto indexed = tryRun(archive, expr, false);
            auto full = tryRun(archive, expr, true);
            ASSERT_EQ(indexed.has_value(), full.has_value());
            EXPECT_EQ(indexed.has_value(),
                      g.fidelity != fccc::Fidelity::Flow);
            if (indexed) {
                EXPECT_TRUE(fcc::test::samePackets(*indexed, *full));
            }
        }

        fccc::SizeBreakdown sizes;
        std::vector<uint8_t> plainBytes = fccc::serializeColumnar(
            d, codec::backend::EntropyBackend::Store, sizes);
        std::string plainPath =
            fcc::test::tempPath(std::string("plain-") + g.name);
        std::ofstream(plainPath, std::ios::binary)
            .write(reinterpret_cast<const char *>(plainBytes.data()),
                   static_cast<std::streamsize>(plainBytes.size()));
        query::FccArchive plain(plainPath);
        ASSERT_FALSE(plain.hasIndex());
        query::AggregateRequest req;
        query::AggregateResult a = archive.aggregate(req);
        query::AggregateResult b = plain.aggregate(req);
        EXPECT_TRUE(a.stats.usedIndex);
        EXPECT_FALSE(b.stats.usedIndex);
        EXPECT_EQ(query::renderAggregate(a, req),
                  query::renderAggregate(b, req));
        EXPECT_EQ(a.histogram, b.histogram);
        std::remove(plainPath.c_str());
    }
}

TEST(Golden, IndexedArchivesRecordTheReconstructionGap)
{
    // An index's chunk end bounds hold only for the gap it records,
    // and a reader trusts them for time pruning only when that gap
    // is at least reconstructionGapUs. Every committed indexed
    // archive, and a freshly written one, records the constant.
    for (const Golden &g : kGoldens) {
        if (!g.hasIndex)
            continue;
        SCOPED_TRACE(g.name);
        std::optional<fccc::ArchiveIndex> index =
            fccc::readArchiveIndex(loadBytes(g.name));
        ASSERT_TRUE(index.has_value());
        EXPECT_EQ(index->gapUs, fccc::reconstructionGapUs);
    }

    fccc::FccConfig cfg;
    cfg.container = fccc::ContainerFormat::Fcc3;
    cfg.index = true;
    std::optional<fccc::ArchiveIndex> fresh =
        fccc::readArchiveIndex(fccc::FccTraceCompressor(cfg).compress(
            trace::readTshFile(goldenPath("source.tsh"))));
    ASSERT_TRUE(fresh.has_value());
    EXPECT_EQ(fresh->gapUs, fccc::reconstructionGapUs);
}

TEST(Golden, SourceTraceStillReadable)
{
    // source.tsh documents the corpus' provenance; keep it honest.
    trace::Trace tr =
        trace::readTshFile(goldenPath("source.tsh"));
    EXPECT_GT(tr.size(), 100u);
    EXPECT_TRUE(tr.isTimeOrdered());
}
