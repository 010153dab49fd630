/**
 * @file
 * Random-access microbenchmark: what does the chunk/flow index of a
 * seekable FCC3 archive save on the seed-2005 reference trace?
 *
 * Compresses the trace once as an indexed archive, then compares a
 * full decompression against indexed queries (single-flow
 * extraction, a time window): chunks decoded, archive bytes read
 * and wall time, plus the index's size overhead. A per-kind table
 * then times the three query kinds of a server mix (server lookup,
 * 1 s window, aggregate) over spread-out operands on the warm
 * archive.
 *
 * Run: ./build/bench/micro_query [--smoke] [--json out.json]
 *
 * The JSON output feeds the CI perf-regression gate; see
 * scripts/perf_check.py and bench/perf_baseline.json. The
 * chunk/byte reductions are structural (deterministic given the
 * seed), so their floors trip on planner regressions, not on
 * machine noise.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "codec/fcc/datasets.hpp"
#include "codec/fcc/index.hpp"
#include "codec/fcc/stream.hpp"
#include "query/aggregate.hpp"
#include "query/catalog.hpp"
#include "query/expr.hpp"
#include "query/query.hpp"
#include "trace/packet.hpp"
#include "trace/tsh.hpp"
#include "trace/web_gen.hpp"

using namespace fcc;
namespace fccc = fcc::codec::fcc;

namespace {

double
secondsOf(const std::function<void()> &fn, int reps)
{
    double best = 1e100;
    for (int r = 0; r < reps; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        fn();
        auto t1 = std::chrono::steady_clock::now();
        best = std::min(
            best, std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

void
printRow(const char *mode, const query::QueryStats &stats,
         double seconds, double fullSeconds)
{
    std::printf("%-14s %8llu/%-6llu %10.3f %8.1f%% %9.2f %8.2fx\n",
                mode,
                static_cast<unsigned long long>(stats.chunksDecoded),
                static_cast<unsigned long long>(stats.chunksTotal),
                static_cast<double>(stats.bytesRead) / 1e6,
                stats.fileBytes
                    ? 100.0 * static_cast<double>(stats.bytesRead) /
                          static_cast<double>(stats.fileBytes)
                    : 0.0,
                seconds * 1e3,
                seconds > 0 ? fullSeconds / seconds : 0.0);
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = bench::smokeMode();
    std::string jsonPath;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            jsonPath = argv[++i];
    }
    bench::JsonMetrics metrics;
    const int reps = smoke ? 2 : 5;

    trace::WebGenConfig cfg;
    cfg.seed = 2005;
    cfg.durationSec = smoke ? 3.0 : 60.0;
    cfg.flowsPerSec = smoke ? 60.0 : 200.0;
    trace::WebTrafficGenerator gen(cfg);
    trace::Trace trace = gen.generate();

    std::string tshPath = "micro_query_tmp.tsh";
    std::string fccPath = "micro_query_tmp.fcc";
    trace::writeTshFile(trace, tshPath);

    fccc::FccConfig fcfg;
    fcfg.container = fccc::ContainerFormat::Fcc3;
    fcfg.chunkRecords = smoke ? 32 : 256;
    fcfg.threads = 1;
    fcfg.index = true;
    auto cstats = fccc::compressTraceFile(tshPath, fccPath, fcfg);

    fccc::ContainerStat stat;
    query::FccArchive archive(fccPath, fcfg);

    std::printf("# random access vs full decode, seed=2005, "
                "%zu packets, %llu flows, %u-record chunks%s\n",
                trace.size(),
                static_cast<unsigned long long>(cstats.flows),
                fcfg.chunkRecords, smoke ? " (smoke mode)" : "");
    std::printf("# archive: %llu bytes (index included)\n\n",
                static_cast<unsigned long long>(
                    cstats.outputBytes));

    // Decode the datasets once to build predicates. The flow to
    // extract uses a server from the Zipf tail (the last address
    // is among the least popular — discovered, not hard-coded, so
    // the workload stays meaningful if the generator's popularity
    // model changes).
    fccc::Datasets d;
    {
        auto src = util::openByteSource(fccPath);
        std::vector<uint8_t> owned;
        d = fccc::deserialize(util::readAllBytes(*src, owned),
                              nullptr, &stat);
    }
    uint32_t rareIp = d.addresses.back();
    uint64_t midUs = d.timeSeq[d.timeSeq.size() / 2].firstTimestampUs;

    std::printf("%-14s %15s %10s %9s %9s %9s\n", "mode",
                "chunks dec/tot", "MB read", "% read", "ms",
                "speedup");

    query::Expr all = query::Expr::matchAll();
    query::QueryStats fullStats;
    double fullSec = secondsOf(
        [&] {
            query::NullTraceSink sink;
            fullStats = archive.run(all, sink,
                                    /*forceFullDecode=*/true);
        },
        reps);
    printRow("full decode", fullStats, fullSec, fullSec);

    query::Expr flowPred = query::Expr::serverIs(rareIp);
    query::QueryStats flowStats;
    double flowSec = secondsOf(
        [&] {
            query::NullTraceSink sink;
            flowStats = archive.run(flowPred, sink);
        },
        reps);
    printRow("--flow", flowStats, flowSec, fullSec);

    query::Expr timePred =
        query::Expr::timeWithin(midUs, midUs + 1'000'000);
    query::QueryStats timeStats;
    double timeSec = secondsOf(
        [&] {
            query::NullTraceSink sink;
            timeStats = archive.run(timePred, sink);
        },
        reps);
    printRow("--time (1s)", timeStats, timeSec, fullSec);

    // ---- multi-archive catalog ---------------------------------
    // Three time-shifted copies of the archive, partitioned wider
    // than the longest reconstructed flow span (read off the index,
    // so the partitioning stays sound if the generator changes),
    // queried through the catalog with a window inside the middle
    // partition: two archives answer from their indexes alone.
    uint64_t spanUs = 0;
    {
        auto src = util::openByteSource(fccPath);
        std::vector<uint8_t> owned;
        auto idx =
            fccc::readArchiveIndex(util::readAllBytes(*src, owned));
        for (const fccc::ChunkSummary &c : idx->chunks)
            spanUs = std::max(spanUs, c.maxEndUs);
    }
    uint64_t shiftSec = spanUs / 1'000'000 + 2;
    std::vector<std::string> catalogPaths;
    for (int i = 0; i < 3; ++i) {
        std::vector<trace::PacketRecord> shifted = trace.packets();
        for (trace::PacketRecord &p : shifted)
            p.timestampNs += static_cast<uint64_t>(i) * shiftSec *
                             1'000'000'000ull;
        trace::Trace shiftedTrace(std::move(shifted));
        std::string member = "micro_query_tmp_cat" +
                             std::to_string(i) + ".fcc";
        trace::writeTshFile(shiftedTrace, tshPath);
        fccc::compressTraceFile(tshPath, member, fcfg);
        catalogPaths.push_back(member);
    }
    query::ArchiveCatalog catalog =
        query::ArchiveCatalog::fromPaths(catalogPaths, fcfg);
    query::Expr catalogExpr = query::parseExpr(
        "time within [" + std::to_string(shiftSec + 1) + ", " +
        std::to_string(shiftSec + 2) + "]");
    query::CatalogQueryStats catStats;
    double catSec = secondsOf(
        [&] {
            query::NullTraceSink sink;
            catStats = catalog.run(catalogExpr, sink);
        },
        reps);
    query::CatalogQueryStats catFullStats;
    double catFullSec = secondsOf(
        [&] {
            query::NullTraceSink sink;
            catFullStats = catalog.run(catalogExpr, sink,
                                       /*forceFullDecode=*/true);
        },
        reps);
    std::printf("%-14s %8llu/%-6llu %10.3f %8.1f%% %9.2f %8.2fx"
                "  (%llu/%llu archives pruned)\n",
                "catalog window",
                static_cast<unsigned long long>(
                    catStats.chunksDecoded),
                static_cast<unsigned long long>(
                    catStats.chunksTotal),
                static_cast<double>(catStats.bytesRead) / 1e6,
                catStats.fileBytes
                    ? 100.0 *
                          static_cast<double>(catStats.bytesRead) /
                          static_cast<double>(catStats.fileBytes)
                    : 0.0,
                catSec * 1e3,
                catSec > 0 ? catFullSec / catSec : 0.0,
                static_cast<unsigned long long>(
                    catStats.archivesPruned),
                static_cast<unsigned long long>(catStats.archives));

    // ---- aggregate without reconstruction ----------------------
    // Per-server flow counts for one subnet: answered from index
    // blocks plus the selected columns of planned chunks, never
    // expanding a packet.
    query::AggregateRequest aggReq;
    aggReq.kind = query::AggregateKind::FlowCounts;
    aggReq.expr = query::Expr::serverIn(rareIp, 24);
    query::AggregateResult aggResult;
    double aggSec = secondsOf(
        [&] { aggResult = archive.aggregate(aggReq); }, reps);
    std::printf("%-14s %8s/%-6s %10.3f %8.1f%% %9.2f %8.2fx"
                "  (reconstruction would read %.3f MB)\n",
                "agg /24 counts", "-", "-",
                static_cast<double>(aggResult.stats.bytesTouched) /
                    1e6,
                aggResult.stats.fileBytes
                    ? 100.0 *
                          static_cast<double>(
                              aggResult.stats.bytesTouched) /
                          static_cast<double>(
                              aggResult.stats.fileBytes)
                    : 0.0,
                aggSec * 1e3, aggSec > 0 ? fullSec / aggSec : 0.0,
                static_cast<double>(
                    aggResult.stats.reconstructBytes) /
                    1e6);

    // ---- per-kind latency ---------------------------------------
    // The three query kinds a server mix sends, each repeated over
    // spread-out operands on the warm archive (its shared region is
    // decoded by the first query above and cached since): a server
    // lookup, a 1 s window, an aggregate.
    const size_t perKind = smoke ? 8 : 24;
    uint64_t firstUs = d.timeSeq.front().firstTimestampUs;
    uint64_t lastUs = d.timeSeq.back().firstTimestampUs;
    auto medianMs = [](std::vector<double> ms) {
        std::sort(ms.begin(), ms.end());
        return ms.empty() ? 0.0 : ms[ms.size() / 2];
    };
    std::printf("\n%-14s %8s %9s %15s\n", "kind", "queries",
                "p50 ms", "flows expanded");
    {
        std::vector<double> ms;
        uint64_t expanded = 0;
        for (size_t i = 0; i < perKind; ++i) {
            query::Expr e = query::Expr::serverIs(
                d.addresses[i * d.addresses.size() / perKind]);
            query::NullTraceSink sink;
            auto t0 = std::chrono::steady_clock::now();
            expanded += archive.run(e, sink).flowsExpanded;
            ms.push_back(std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
        }
        std::printf("%-14s %8zu %9.3f %15llu\n", "server", perKind,
                    medianMs(ms),
                    static_cast<unsigned long long>(expanded));
    }
    {
        std::vector<double> ms;
        uint64_t expanded = 0;
        for (size_t i = 0; i < perKind; ++i) {
            uint64_t t = firstUs + (lastUs - firstUs) * i / perKind;
            query::Expr e = query::Expr::timeWithin(t, t + 1'000'000);
            query::NullTraceSink sink;
            auto t0 = std::chrono::steady_clock::now();
            expanded += archive.run(e, sink).flowsExpanded;
            ms.push_back(std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
        }
        std::printf("%-14s %8zu %9.3f %15llu\n", "window 1s",
                    perKind, medianMs(ms),
                    static_cast<unsigned long long>(expanded));
    }
    {
        std::vector<double> ms;
        for (size_t i = 0; i < perKind; ++i) {
            query::AggregateRequest req;
            if (i % 2 == 0) {
                req.kind = query::AggregateKind::FlowCounts;
                req.expr = query::Expr::minFlowPackets(51);
            } else {
                req.kind = query::AggregateKind::TopTalkers;
                req.expr = query::Expr::serverIn(
                    static_cast<uint32_t>(i * 256 / perKind) << 24, 8);
            }
            auto t0 = std::chrono::steady_clock::now();
            archive.aggregate(req);
            ms.push_back(std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
        }
        std::printf("%-14s %8zu %9.3f %15s\n", "aggregate", perKind,
                    medianMs(ms), "-");
    }

    std::printf("\nindex overhead: %llu bytes (%.2f%% of "
                "archive)\n",
                static_cast<unsigned long long>(stat.sizes.indexBytes),
                cstats.outputBytes
                    ? 100.0 * static_cast<double>(stat.sizes.indexBytes) /
                          static_cast<double>(cstats.outputBytes)
                    : 0.0);

    // Gate metrics (higher = better). The reductions are
    // deterministic properties of the planner on the seed workload;
    // the floors in bench/perf_baseline.json trip when a change
    // makes queries touch more chunks or bytes than they must.
    double chunkReduction = flowStats.chunksDecoded
        ? static_cast<double>(flowStats.chunksTotal) /
            static_cast<double>(flowStats.chunksDecoded)
        : 0.0;
    double bytesReduction = flowStats.bytesRead
        ? static_cast<double>(flowStats.fileBytes) /
            static_cast<double>(flowStats.bytesRead)
        : 0.0;
    metrics.add("query_flow_chunk_reduction", chunkReduction);
    metrics.add("query_flow_bytes_reduction", bytesReduction);
    metrics.add("query_flow_speedup",
                flowSec > 0 ? fullSec / flowSec : 0.0);

    // Catalog and aggregate cells: also structural. Time-partition
    // pruning must drop two of the three archives entirely, and an
    // aggregate must touch fewer bytes than the reconstruction it
    // replaces.
    metrics.add("query_catalog_bytes_reduction",
                catStats.bytesRead
                    ? static_cast<double>(catStats.fileBytes) /
                          static_cast<double>(catStats.bytesRead)
                    : 0.0);
    metrics.add("query_catalog_archives_pruned",
                static_cast<double>(catStats.archivesPruned));
    metrics.add("query_agg_bytes_reduction",
                aggResult.stats.bytesTouched
                    ? static_cast<double>(
                          aggResult.stats.reconstructBytes) /
                          static_cast<double>(
                              aggResult.stats.bytesTouched)
                    : 0.0);

    std::remove(tshPath.c_str());
    std::remove(fccPath.c_str());
    for (const std::string &member : catalogPaths)
        std::remove(member.c_str());

    if (flowStats.chunksDecoded >= flowStats.chunksTotal ||
        flowStats.bytesRead >= flowStats.fileBytes) {
        std::fprintf(stderr,
                     "FAIL: single-flow query did not beat the "
                     "full decode\n");
        return 1;
    }
    if (catStats.archivesPruned < 2) {
        std::fprintf(stderr,
                     "FAIL: time-partitioned catalog did not prune "
                     "the disjoint archives\n");
        return 1;
    }
    if (aggResult.stats.bytesTouched >=
        aggResult.stats.reconstructBytes) {
        std::fprintf(stderr,
                     "FAIL: aggregate touched no fewer bytes than "
                     "reconstruction\n");
        return 1;
    }

    if (!jsonPath.empty()) {
        if (!metrics.writeTo(jsonPath)) {
            std::fprintf(stderr, "cannot write %s\n",
                         jsonPath.c_str());
            return 1;
        }
        std::printf("\n# metrics written to %s\n", jsonPath.c_str());
    }
    return 0;
}
