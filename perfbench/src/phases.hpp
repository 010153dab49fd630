/**
 * @file
 * The three timed user paths — ingest, decompress, serve — plus the
 * cold start of a restarted server, each driven through the library's
 * public API only. Every function times its own calls; when the span
 * log passed in is enabled it also records one span around each call
 * into a library module (README.md lists the names).
 */

#ifndef PERFBENCH_PHASES_HPP
#define PERFBENCH_PHASES_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "codec/fcc/session.hpp"
#include "common.hpp"
#include "query/server.hpp"
#include "workloads.hpp"

namespace perfbench {

// ---- ingest ----------------------------------------------------------

/** What one committed archive must contain. */
struct ArchiveDigest
{
    std::string name;
    uint64_t bytes = 0;
    uint32_t crc32 = 0;

    bool operator==(const ArchiveDigest &) const = default;
};

struct IngestRun
{
    double wallS = 0.0;  ///< openTraceSource .. last durable commit
    std::vector<ArchiveDigest> archives;
    std::vector<fcc::codec::fcc::SealInfo> seals;
    uint64_t packets = 0;
    uint64_t archiveBytes = 0;
    int32_t rootSpan = -1;
};

/**
 * Capture file -> CompressSession::feed/seal/reArm ->
 * ArchiveWriter::commit into the fresh directory @p dir, as fccd does
 * (record rollover when the workload has one).
 */
IngestRun ingestOnce(const Workload &workload, const Inputs &inputs,
                     uint32_t threads, const std::string &dir,
                     SpanLog &log);

/** Archives in @p dir whose bytes on disk differ from @p expected
 *  (missing files count). */
size_t countDiskMismatches(const std::string &dir,
                           const std::vector<ArchiveDigest> &expected);

/** The catalog's archive paths under @p dir, in commit order. */
std::vector<std::string> catalogPaths(const std::string &dir);

// ---- decompress ------------------------------------------------------

struct DecompressRun
{
    double wallS = 0.0;  ///< open + drainTo over every archive
    uint64_t packets = 0;
    uint64_t digest = 0;  ///< order-sensitive over every packet field
    int32_t rootSpan = -1;
};

/** Every archive -> DecompressSession::open/drainTo -> a counting,
 *  digesting sink. */
DecompressRun decompressOnce(const std::vector<std::string> &paths,
                             uint32_t threads, SpanLog &log);

// ---- serve -----------------------------------------------------------

enum class QueryType { Server, Window, Aggregate };

const char *queryTypeName(QueryType type);

struct Query
{
    QueryType type = QueryType::Server;
    std::string text;  ///< query-language expression
    fcc::query::AggregateKind kind = fcc::query::AggregateKind::FlowCounts;
    uint32_t topK = 10;
};

/**
 * @p count queries drawn from @p seed, in equal parts and interleaved
 * (server, window, aggregate, ...): `server = X` with X from the first
 * archive's address dataset; `time within [t, t+1]` with t uniform
 * over the catalog's span, stratified so the windows cover all of it; aggregates alternating flow-counts over
 * `flow.packets >= 51` and top-talkers over a uniformly random /8.
 */
std::vector<Query> buildQueryMix(const std::string &dir, uint64_t seed,
                                 size_t count);

/** One query's answer, reduced to what the gate compares. */
struct Answer
{
    uint64_t count = 0;   ///< packets, or flows aggregated
    uint64_t digest = 0;  ///< TSH records, or the aggregate tables
    bool ok = false;
};

/** fccserve's --threads mapping: pool workers and per-query decode
 *  threads. */
struct ServeOptions
{
    uint32_t poolThreads = 2;
    uint32_t decodeThreads = 1;
    size_t clients = 2;
    std::string socket = "serve.sock";
};

struct ServedQuery
{
    size_t query = 0;  ///< index into the mix
    double latencyMs = 0.0;
    Answer answer;
};

struct ServeRun
{
    double wallS = 0.0;
    std::vector<ServedQuery> served;
    uint64_t requestsAttempted = 0;  ///< pings + queries sent
    uint64_t requestsServed = 0;     ///< QueryServer::requestsServed()
    size_t clientFailures = 0;       ///< connections that broke
    std::string error;
    SpanLog spans;  ///< client-side spans, one per query
};

/**
 * Closed loop: `opts.clients` connections to an in-process QueryServer
 * over @p dir's catalog, each sending its next query only after the
 * previous reply, cycling through @p mix from position @p cursor
 * (advanced past the last query sent). Runs for @p seconds and until
 * at least @p minQueries have completed.
 */
ServeRun serveMix(const std::string &dir, const std::vector<Query> &mix,
                  const ServeOptions &opts, double seconds,
                  size_t minQueries, bool traced, size_t &cursor);

/** In-process answer of @p query through ArchiveCatalog::run or
 *  ::aggregate, with the work counters the traced run reports. */
struct Replay
{
    Answer answer;
    double planMs = 0.0;  ///< FccArchive::plan over member archives
    double execMs = 0.0;
    fcc::query::CatalogQueryStats stats;
    fcc::query::AggregateStats aggStats;
};

Replay replayQuery(const fcc::query::ArchiveCatalog &catalog,
                   const Query &query, SpanLog &log, uint32_t request);

/**
 * Cold start of a restarted server: ArchiveCatalog::fromCatalogFile
 * + QueryServer bind + first ping answered, in seconds.
 *
 * @throws fcc::util::Error when any step fails.
 */
double coldStart(const std::string &dir, const ServeOptions &opts);

} // namespace perfbench

#endif // PERFBENCH_PHASES_HPP
