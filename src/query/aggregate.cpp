/**
 * @file
 * Aggregate execution: per-template packet/byte totals from decoded
 * S values, then one pass over the flow-level columns of planned
 * chunks. See aggregate.hpp for the model and time semantics.
 */

#include "query/aggregate.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <new>
#include <span>

#include "codec/fcc/datasets.hpp"
#include "query/query.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace fcc::query {

namespace fccc = fcc::codec::fcc;

namespace {

/** One chunk's (or the fallback pass's) accumulation, keyed by
 *  address-table slot so merging needs no hashing. */
struct Accumulator
{
    std::vector<ServerAggregate> byAddr;
    std::vector<uint64_t> histogram;
    uint64_t flows = 0;

    explicit Accumulator(size_t addresses)
        : byAddr(addresses),
          histogram(aggregateHistogramBuckets, 0)
    {
    }

    void
    add(size_t addrIndex, const fccc::TemplateFacts &t)
    {
        ServerAggregate &row = byAddr[addrIndex];
        row.flows += 1;
        row.packets += t.packets;
        row.wireBytes += t.wireBytes;
        size_t bucket = static_cast<size_t>(
            std::bit_width(t.wireBytes));
        if (bucket >= aggregateHistogramBuckets)
            bucket = aggregateHistogramBuckets - 1;
        histogram[bucket] += 1;
        flows += 1;
    }

    void
    mergeFrom(const Accumulator &other)
    {
        for (size_t i = 0; i < byAddr.size(); ++i) {
            byAddr[i].flows += other.byAddr[i].flows;
            byAddr[i].packets += other.byAddr[i].packets;
            byAddr[i].wireBytes += other.byAddr[i].wireBytes;
        }
        for (size_t b = 0; b < histogram.size(); ++b)
            histogram[b] += other.histogram[b];
        flows += other.flows;
    }
};

/** What a flow-tier record already carries: its packet and payload
 *  totals. */
fccc::TemplateFacts
factsOf(const fccc::FlowRecord &fl)
{
    fccc::TemplateFacts t;
    t.packets = fl.packets;
    t.wireBytes = fl.payloadBytes + 40 * uint64_t{fl.packets};
    return t;
}

/**
 * Fold the flows of @p timeSeq and @p flowRecords (one chunk, or a
 * whole decoded archive) that @p expr admits into @p acc. Time
 * leaves use start-time semantics: a flow "is at" its first
 * timestamp.
 */
void
accumulate(Accumulator &acc, const Expr &expr,
           const fccc::Datasets &shared,
           const fccc::TemplateFactTable &facts,
           std::span<const fccc::TimeSeqRecord> timeSeq,
           std::span<const fccc::FlowRecord> flowRecords)
{
    auto consider = [&](uint32_t addrIndex,
                        const fccc::TemplateFacts &t,
                        uint64_t startUs) {
        Expr::FlowView flow{shared.addresses[addrIndex],
                            fccc::reconstructionServerPort, t.packets};
        if (expr.matches(flow, startUs))
            acc.add(addrIndex, t);
    };
    for (const fccc::TimeSeqRecord &rec : timeSeq)
        consider(rec.addressIndex,
                 facts.of(rec.isLong, rec.templateIndex),
                 rec.firstTimestampUs);
    for (const fccc::FlowRecord &fl : flowRecords)
        consider(fl.addressIndex, factsOf(fl), fl.firstTimestampUs);
}

/** Compact an accumulator into the result model: rows sorted by
 *  server address (same-address table slots folded together). */
void
finishResult(const Accumulator &acc,
             const std::vector<uint32_t> &addresses,
             AggregateResult &out)
{
    std::map<uint32_t, ServerAggregate> byIp;
    for (size_t i = 0; i < acc.byAddr.size(); ++i) {
        const ServerAggregate &row = acc.byAddr[i];
        if (row.flows == 0)
            continue;
        ServerAggregate &dst = byIp[addresses[i]];
        dst.serverIp = addresses[i];
        dst.flows += row.flows;
        dst.packets += row.packets;
        dst.wireBytes += row.wireBytes;
    }
    out.servers.reserve(byIp.size());
    for (const auto &[ip, row] : byIp)
        out.servers.push_back(row);
    out.histogram = acc.histogram;
    out.stats.flowsAggregated = acc.flows;
}

} // namespace

AggregateResult
FccArchive::aggregate(const AggregateRequest &req) const
{
    AggregateResult out;
    out.stats.fileBytes = bytes_.size();

    if (!hasIndex()) {
        // No usable index: deserialize the whole container (any
        // layout), but still aggregate from templates — no packet
        // expansion, no RNG.
        out.stats.usedIndex = false;
        out.stats.bytesTouched = bytes_.size();
        out.stats.reconstructBytes = bytes_.size();
        fccc::Datasets d =
            fccc::deserializeAuto(bytes_, cfg_.threads);
        out.stats.chunksTotal =
            d.chunkSizes.empty() ? 1 : d.chunkSizes.size();
        out.stats.chunksPlanned = out.stats.chunksTotal;
        Accumulator acc(d.addresses.size());
        accumulate(acc, req.expr, d, fccc::templateFacts(d), d.timeSeq,
                   d.flowRecords);
        finishResult(acc, d.addresses, out);
        return out;
    }

    // Indexed path. Flow-start pruning is gap-safe (see aggregate.hpp
    // header), so no indexCanPlan() fallback here.
    out.stats.usedIndex = true;
    std::shared_ptr<const SharedRegion> regionPtr = sharedRegion();
    const SharedRegion &region = *regionPtr;
    const fccc::Datasets &shared = region.fcc3.shared;
    out.stats.chunksTotal = shared.chunkSizes.size();

    std::vector<size_t> planned = plan(req.expr);
    out.stats.chunksPlanned = planned.size();
    out.stats.bytesTouched = baseBytes(region);
    out.stats.reconstructBytes = baseBytes(region);
    std::vector<std::span<const uint8_t>> chunks;
    chunks.reserve(planned.size());
    for (size_t c : planned) {
        chunks.push_back(chunkBytes(region, c));
        out.stats.reconstructBytes += chunks.back().size();
    }

    // Decode only the frames the aggregate reads: never ts_rtt (the
    // RTT, or the flow tier's duration), and ts_time only when the
    // expression tests time — or when the Quantized tier's grid, a
    // promise about that column, must be verified.
    fccc::ChunkColumns decode;
    decode.time = req.expr.usesTime() ||
                  shared.fidelity == fccc::Fidelity::Quantized;
    decode.rtt = false;
    std::vector<Accumulator> perChunk(
        planned.size(), Accumulator(shared.addresses.size()));
    std::vector<uint64_t> touched(planned.size(), 0);
    std::vector<std::pair<uint64_t, uint64_t>> spans(planned.size());
    auto aggregateOne = [&](size_t i) {
        fccc::Fcc3Chunk chunk = fccc::readFcc3Chunk(
            chunks[i], region.fcc3, planned[i], decode);
        touched[i] = chunk.bytesDecoded;
        spans[i] = {chunk.firstUs, chunk.lastUs};
        accumulate(perChunk[i], req.expr, shared, region.facts,
                   chunk.timeSeq, chunk.flowRecords);
    };

    try {
        util::runJobs(cfg_.threads, planned.size(), aggregateOne);
    } catch (const std::bad_alloc &) {
        throw util::Error(
            "query: corrupt archive exhausts memory");
    }
    requirePlannedOrder(planned, spans);

    Accumulator total(shared.addresses.size());
    for (size_t i = 0; i < planned.size(); ++i) {
        total.mergeFrom(perChunk[i]);
        out.stats.bytesTouched += touched[i];
    }
    finishResult(total, shared.addresses, out);
    return out;
}

// ---- merging / rendering --------------------------------------------

void
mergeAggregateInto(AggregateResult &into, const AggregateResult &from)
{
    std::map<uint32_t, ServerAggregate> byIp;
    for (const ServerAggregate &row : into.servers)
        byIp[row.serverIp] = row;
    for (const ServerAggregate &row : from.servers) {
        ServerAggregate &dst = byIp[row.serverIp];
        dst.serverIp = row.serverIp;
        dst.flows += row.flows;
        dst.packets += row.packets;
        dst.wireBytes += row.wireBytes;
    }
    into.servers.clear();
    into.servers.reserve(byIp.size());
    for (const auto &[ip, row] : byIp)
        into.servers.push_back(row);
    for (size_t b = 0; b < into.histogram.size(); ++b)
        into.histogram[b] += from.histogram[b];

    into.stats.usedIndex =
        into.stats.usedIndex && from.stats.usedIndex;
    into.stats.chunksTotal += from.stats.chunksTotal;
    into.stats.chunksPlanned += from.stats.chunksPlanned;
    into.stats.fileBytes += from.stats.fileBytes;
    into.stats.bytesTouched += from.stats.bytesTouched;
    into.stats.reconstructBytes += from.stats.reconstructBytes;
    into.stats.flowsAggregated += from.stats.flowsAggregated;
}

std::vector<ServerAggregate>
topTalkers(const AggregateResult &result, size_t k)
{
    std::vector<ServerAggregate> rows = result.servers;
    std::sort(rows.begin(), rows.end(),
              [](const ServerAggregate &a, const ServerAggregate &b) {
                  if (a.wireBytes != b.wireBytes)
                      return a.wireBytes > b.wireBytes;
                  return a.serverIp < b.serverIp;
              });
    if (rows.size() > k)
        rows.resize(k);
    return rows;
}

const char *
aggregateKindName(AggregateKind kind)
{
    switch (kind) {
    case AggregateKind::FlowCounts:
        return "flow-counts";
    case AggregateKind::ByteHistogram:
        return "byte-histogram";
    case AggregateKind::TopTalkers:
        return "top-talkers";
    }
    return "unknown";
}

AggregateKind
parseAggregateKind(std::string_view name)
{
    if (name == "flow-counts")
        return AggregateKind::FlowCounts;
    if (name == "byte-histogram")
        return AggregateKind::ByteHistogram;
    if (name == "top-talkers")
        return AggregateKind::TopTalkers;
    throw util::Error("unknown aggregate kind '" +
                      std::string{name} +
                      "' (flow-counts | byte-histogram | "
                      "top-talkers)");
}

std::string
renderAggregate(const AggregateResult &result,
                const AggregateRequest &req)
{
    std::string out = "aggregate ";
    out += aggregateKindName(req.kind);
    out += " expr ";
    out += req.expr.str();
    out += '\n';

    auto renderRow = [&out](const ServerAggregate &row) {
        out += "server ";
        out += trace::formatIp(row.serverIp);
        out += " flows ";
        out += std::to_string(row.flows);
        out += " packets ";
        out += std::to_string(row.packets);
        out += " bytes ";
        out += std::to_string(row.wireBytes);
        out += '\n';
    };

    switch (req.kind) {
    case AggregateKind::FlowCounts: {
        out += "servers ";
        out += std::to_string(result.servers.size());
        out += '\n';
        uint64_t flows = 0, packets = 0, bytes = 0;
        for (const ServerAggregate &row : result.servers) {
            renderRow(row);
            flows += row.flows;
            packets += row.packets;
            bytes += row.wireBytes;
        }
        out += "total flows ";
        out += std::to_string(flows);
        out += " packets ";
        out += std::to_string(packets);
        out += " bytes ";
        out += std::to_string(bytes);
        out += '\n';
        break;
    }
    case AggregateKind::ByteHistogram: {
        size_t nonEmpty = 0;
        for (uint64_t n : result.histogram)
            nonEmpty += n != 0;
        out += "buckets ";
        out += std::to_string(nonEmpty);
        out += '\n';
        for (size_t b = 0; b < result.histogram.size(); ++b) {
            if (result.histogram[b] == 0)
                continue;
            // Bucket b covers flow totals in [2^(b-1), 2^b).
            uint64_t lo = b == 0 ? 0 : uint64_t{1} << (b - 1);
            out += "bucket ";
            out += std::to_string(b);
            out += " min_bytes ";
            out += std::to_string(lo);
            out += " flows ";
            out += std::to_string(result.histogram[b]);
            out += '\n';
        }
        out += "total flows ";
        out += std::to_string(result.stats.flowsAggregated);
        out += '\n';
        break;
    }
    case AggregateKind::TopTalkers: {
        std::vector<ServerAggregate> rows =
            topTalkers(result, req.topK);
        out += "top ";
        out += std::to_string(rows.size());
        out += '\n';
        for (const ServerAggregate &row : rows)
            renderRow(row);
        break;
    }
    }
    return out;
}

} // namespace fcc::query
