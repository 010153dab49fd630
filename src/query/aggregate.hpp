/**
 * @file
 * Aggregate queries over FCC archives — computed on the compressed
 * representation.
 *
 * Every flow's packet count and wire-byte total is a function of its
 * *template* alone: the S values decode to per-packet size classes
 * (flow/characterize.hpp), each class maps to a representative
 * payload (codec::fcc::smallPayloadBytes / largePayloadBytes), and
 * a stored header is 40 B + payload. So per-server flow counts, byte
 * histograms and top-K talkers need only three of a chunk's five
 * column frames (flow kind, template id, server address — plus the
 * start-time column when the expression filters on time or the
 * Quantized tier's grid must be verified), never the RNG expansion:
 * no packets are reconstructed, the RTT column is never decoded, and
 * unplanned chunks are never touched. The frames read pass the
 * codec's own chunk checks (codec::fcc::readFcc3Chunk).
 *
 * Time semantics: aggregates weigh whole flows, so a `time within`
 * leaf selects flows *starting* inside the window (packet-granular
 * time selection requires reconstruction — use FccArchive::run).
 * Flow-start pruning is safe whatever gap the index was written
 * with: a chunk's minFirstUs and maxEndUs bound every flow's start
 * — aggregates never need the gap-mismatch full-decode fallback of
 * the filter path (FccArchive::indexCanPlan).
 *
 * Archives without a usable index fall back to deserializing the
 * container (still no packet expansion). AggregateStats reports the
 * bytes actually touched next to what the packet-reconstructing
 * equivalent (FccArchive::run of the same expression) would read.
 */

#ifndef FCC_QUERY_AGGREGATE_HPP
#define FCC_QUERY_AGGREGATE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "query/expr.hpp"

namespace fcc::query {

/** Which aggregate a request renders/serves (the engine computes
 *  one result model covering all three). */
enum class AggregateKind : uint8_t
{
    FlowCounts = 0,    ///< per-server flows / packets / bytes
    ByteHistogram = 1, ///< log2 histogram of per-flow wire bytes
    TopTalkers = 2,    ///< top-K servers by wire bytes
};

/** An aggregate query: what to compute over which flows. */
struct AggregateRequest
{
    AggregateKind kind = AggregateKind::FlowCounts;
    /** Flow filter; `time within` selects on flow start time. */
    Expr expr;
    /** TopTalkers only: how many servers to render/serve. */
    uint32_t topK = 10;
};

/** Totals for one server address. */
struct ServerAggregate
{
    uint32_t serverIp = 0;
    uint64_t flows = 0;
    uint64_t packets = 0;
    /** Stored wire bytes: 40 B TCP/IP header + representative
     *  payload per packet. */
    uint64_t wireBytes = 0;
};

/** Log2 buckets of per-flow wire-byte totals: bucket b counts flows
 *  with total in [2^(b-1), 2^b) (bucket 0: empty flows). */
constexpr size_t aggregateHistogramBuckets = 48;

/** What an aggregate run touched. */
struct AggregateStats
{
    bool usedIndex = false;
    uint64_t chunksTotal = 0;
    uint64_t chunksPlanned = 0;  ///< chunks the plan kept
    uint64_t fileBytes = 0;
    /** Archive bytes this aggregate read: header + shared frames +
     *  index + only the decoded column frames of planned chunks. */
    uint64_t bytesTouched = 0;
    /** What FccArchive::run of the same expression reads — the
     *  cheapest packet-reconstructing equivalent. */
    uint64_t reconstructBytes = 0;
    uint64_t flowsAggregated = 0;
};

/**
 * One archive's (or a merged catalog's) aggregate. `servers` is the
 * complete per-server table sorted by address — top-K truncation
 * happens at render time (topTalkers), so per-archive results merge
 * correctly across a catalog.
 */
struct AggregateResult
{
    AggregateStats stats;
    std::vector<ServerAggregate> servers;
    std::vector<uint64_t> histogram =
        std::vector<uint64_t>(aggregateHistogramBuckets, 0);
};

/** Fold @p from into @p into (catalog merge): per-server totals and
 *  histogram buckets add; stats accumulate. */
void mergeAggregateInto(AggregateResult &into,
                        const AggregateResult &from);

/** The top @p k servers by wireBytes (descending, address as the
 *  deterministic tie-break). */
std::vector<ServerAggregate>
topTalkers(const AggregateResult &result, size_t k);

/**
 * Deterministic text rendering of @p result for @p req — the one
 * format fccquery --agg and `fccserve query --agg` both emit, so CI
 * can diff them byte-for-byte.
 */
std::string renderAggregate(const AggregateResult &result,
                            const AggregateRequest &req);

/** Grammar names of the aggregate kinds ("flow-counts", ...). */
const char *aggregateKindName(AggregateKind kind);

/** Parse an aggregate kind name. @throws fcc::util::Error */
AggregateKind parseAggregateKind(std::string_view name);

} // namespace fcc::query

#endif // FCC_QUERY_AGGREGATE_HPP
