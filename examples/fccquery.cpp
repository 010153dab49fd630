/**
 * @file
 * fccquery — random access into seekable FCC archives: extract one
 * flow, one time window, or any composed expression without
 * inflating the whole file.
 *
 *   fccquery [options] <in.fcc> [<out>]
 *
 * Two ways to say what you want:
 *   --expr 'E'           a composed query expression (docs/QUERY.md):
 *                        `server in 10.0.0.0/8 and time within
 *                        [0, 60] and not port = 443`
 *   --flow/--time/--min-packets
 *                        shorthand flags, each one expression leaf
 *                        (server =, time within, flow.packets >=),
 *                        ANDed together
 *
 * Aggregates (--agg) answer from the chunk index and the selected
 * columns without reconstructing packets at all.
 *
 * On an indexed archive (fcctool --index compress) the tool reads
 * the index block from the file's tail, rules chunks out via the
 * per-chunk summaries (Bloom server fingerprints, timestamp bounds,
 * flow-size maxima) and decodes only the surviving chunks — the
 * "chunks decoded" / "bytes read" lines show the saving. On
 * un-indexed files it falls back to a full decode with identical
 * results. Extracted packets are bit-exact with a full `fcctool
 * decompress` filtered the same way: chunk RNG streams are seeded by
 * original chunk index. See docs/QUERY.md.
 */

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "query/aggregate.hpp"
#include "query/query.hpp"
#include "trace/packet.hpp"
#include "util/error.hpp"

#include "tools/cli.hpp"

using namespace fcc;

namespace {

/** Parse "T0:T1" in (float) seconds into the inclusive window leaf. */
query::Expr
parseTimeWindow(const char *text)
{
    const char *colon = std::strchr(text, ':');
    util::require(colon != nullptr && colon != text &&
                      colon[1] != '\0',
                  "--time expects T0:T1 (seconds)");
    char *end = nullptr;
    double t0 = std::strtod(text, &end);
    util::require(end == colon, "--time: bad T0");
    double t1 = std::strtod(colon + 1, &end);
    util::require(*end == '\0', "--time: bad T1");
    util::require(t0 >= 0 && t1 >= t0,
                  "--time: window must be 0 <= T0 <= T1");
    return query::Expr::timeWithin(static_cast<uint64_t>(t0 * 1e6),
                                   static_cast<uint64_t>(t1 * 1e6));
}

} // namespace

int
main(int argc, char **argv)
{
    codec::fcc::FccConfig cfg;
    // The shorthand flags' leaves, ANDed in this order.
    std::optional<query::Expr> serverLeaf, timeLeaf, packetsLeaf;
    std::optional<std::string> exprText;
    std::optional<query::AggregateKind> aggKind;
    uint32_t topK = 10;
    trace::TraceFormatSpec outFormat;
    bool countOnly = false;
    bool noIndex = false;

    cli::FlagSet flags(
        "[options] <in.fcc> [<out>]",
        "Extract flows/packets from an FCC archive by predicate or\n"
        "expression, or answer an aggregate from the index without\n"
        "reconstructing packets.");
    flags.add("--expr", "'E'",
              "composed query expression (docs/QUERY.md),\n"
              "e.g. 'server in 10.0.0.0/8 and time within\n"
              "[0, 60]'; exclusive with the legacy\n"
              "shorthand flags below",
              [&](const char *v) { exprText = v; });
    flags.add("--flow", "A.B.C.D",
              "flows with this server (destination)\n"
              "address — the 5-tuple component the lossy\n"
              "codec preserves",
              [&](const char *v) {
                  serverLeaf =
                      query::Expr::serverIs(trace::parseIp(v));
              });
    flags.add("--time", "T0:T1",
              "packets between T0 and T1 seconds\n"
              "(absolute trace time, floats)",
              [&](const char *v) {
                  timeLeaf = parseTimeWindow(v);
              });
    flags.add("--min-packets", "N",
              "flows of at least N packets",
              [&](const char *v) {
                  packetsLeaf = query::Expr::minFlowPackets(
                      static_cast<uint32_t>(cli::parseUnsigned(
                          "--min-packets", v, 1, UINT32_MAX)));
              });
    flags.add("--agg", "KIND",
              "aggregate query instead of extraction:\n"
              "flow-counts|byte-histogram|top-talkers\n"
              "(answered from index + selected columns,\n"
              "no packet reconstruction; no <out>)",
              [&](const char *v) {
                  aggKind = query::parseAggregateKind(v);
              });
    flags.add("--top", "K", "row budget for --agg top-talkers\n"
                            "(default 10)",
              [&](const char *v) {
                  topK = static_cast<uint32_t>(cli::parseUnsigned(
                      "--top", v, 1, UINT32_MAX));
              });
    flags.add("--count", "print match counts only (no output file)",
              [&] { countOnly = true; });
    flags.add("--no-index",
              "ignore the chunk index (full decode)",
              [&] { noIndex = true; });
    flags.add("--threads", "N", "workers, 0 = all cores (default)",
              [&](const char *v) {
                  cfg.threads = static_cast<uint32_t>(
                      cli::parseUnsigned("--threads", v, 0,
                                         UINT32_MAX));
              });
    flags.add("--out-format", "F",
              "auto|tsh|pcap|pcapng (default auto:\n"
              "picked from the <out> extension)",
              [&](const char *v) {
                  outFormat = trace::parseTraceFormatSpec(v);
              });

    cli::ParseResult parsed = flags.parse(argc, argv);
    if (parsed.exit)
        return parsed.code;
    int arg = parsed.next;

    bool needsOut = !countOnly && !aggKind.has_value();
    if (arg >= argc || (needsOut && arg + 1 >= argc)) {
        flags.printHelp(argv[0], stderr);
        return 2;
    }
    std::optional<query::Expr> shorthand;
    for (std::optional<query::Expr> *leaf :
         {&serverLeaf, &timeLeaf, &packetsLeaf})
        if (leaf->has_value())
            shorthand = shorthand ? query::Expr::andOf(
                                        std::move(*shorthand),
                                        std::move(**leaf))
                                  : std::move(**leaf);
    if (exprText.has_value() && shorthand.has_value()) {
        std::fprintf(stderr,
                     "error: --expr is exclusive with "
                     "--flow/--time/--min-packets\n");
        return 2;
    }
    std::string inPath = argv[arg];

    try {
        // The same single config check every entry point runs.
        cfg.validate();
        query::Expr expr = exprText.has_value()
                               ? query::parseExpr(*exprText)
                               : shorthand.value_or(
                                     query::Expr::matchAll());

        query::FccArchive archive(inPath, cfg);
        if (archive.indexCorrupt())
            std::fprintf(stderr,
                         "warning: %s: index block is corrupt; "
                         "falling back to full decode\n",
                         inPath.c_str());

        if (aggKind.has_value()) {
            query::AggregateRequest req;
            req.kind = *aggKind;
            req.expr = expr;
            req.topK = topK;
            query::AggregateResult result =
                archive.aggregate(req);
            std::fputs(
                query::renderAggregate(result, req).c_str(),
                stdout);
            std::printf(
                "bytes touched:  %llu / %llu (reconstruction "
                "would read %llu)\n",
                static_cast<unsigned long long>(
                    result.stats.bytesTouched),
                static_cast<unsigned long long>(
                    result.stats.fileBytes),
                static_cast<unsigned long long>(
                    result.stats.reconstructBytes));
            return 0;
        }

        query::QueryStats stats;
        if (countOnly) {
            query::NullTraceSink sink;
            stats = archive.run(expr, sink, noIndex);
        } else {
            auto sink =
                trace::openTraceSink(argv[arg + 1], outFormat);
            stats = archive.run(expr, *sink, noIndex);
        }

        std::printf("matched:        %llu packets in %llu flows\n",
                    static_cast<unsigned long long>(
                        stats.packetsMatched),
                    static_cast<unsigned long long>(
                        stats.flowsMatched));
        std::printf("index:          %s\n",
                    stats.usedIndex ? "used"
                                    : (archive.hasIndex()
                                           ? "bypassed (--no-index)"
                                           : "none (full decode)"));
        std::printf("chunks decoded: %llu / %llu\n",
                    static_cast<unsigned long long>(
                        stats.chunksDecoded),
                    static_cast<unsigned long long>(
                        stats.chunksTotal));
        std::printf("flows expanded: %llu\n",
                    static_cast<unsigned long long>(
                        stats.flowsExpanded));
        std::printf("bytes read:     %llu / %llu (%.1f%%)\n",
                    static_cast<unsigned long long>(stats.bytesRead),
                    static_cast<unsigned long long>(stats.fileBytes),
                    stats.fileBytes
                        ? 100.0 * static_cast<double>(
                                      stats.bytesRead) /
                              static_cast<double>(stats.fileBytes)
                        : 0.0);
        return 0;
    } catch (const util::Error &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
}
