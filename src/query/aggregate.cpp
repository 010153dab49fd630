/**
 * @file
 * Aggregate execution: per-template packet/byte totals from decoded
 * S values, then one pass over the flow-level columns of planned
 * chunks. See aggregate.hpp for the model and time semantics.
 */

#include "query/aggregate.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <new>

#include "codec/fcc/datasets.hpp"
#include "query/query.hpp"
#include "util/bytes.hpp"
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

/**
 * Evaluate @p expr for one flow with start-time semantics: the flow
 * "is at" its first timestamp.
 */
bool
flowMatches(const Expr &expr, const Expr::FlowView &flow,
            uint64_t startUs)
{
    return expr.matches(flow, startUs);
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
        if (d.fidelity == fccc::Fidelity::Flow) {
            // Flow-fidelity archives already are aggregates: each
            // record carries its packet and payload totals.
            for (const fccc::FlowRecord &fl : d.flowRecords) {
                fccc::TemplateFacts t;
                t.packets = fl.packets;
                t.wireBytes =
                    fl.payloadBytes + 40 * uint64_t{fl.packets};
                Expr::FlowView flow{d.addresses[fl.addressIndex],
                                    cfg_.serverPort, t.packets};
                if (flowMatches(req.expr, flow,
                                fl.firstTimestampUs))
                    acc.add(fl.addressIndex, t);
            }
            finishResult(acc, d.addresses, out);
            return out;
        }
        fccc::TemplateFactTable facts =
            fccc::FccTraceCompressor(cfg_).templateFacts(d);
        for (const fccc::TimeSeqRecord &rec : d.timeSeq) {
            const fccc::TemplateFacts &t =
                facts.of(rec.isLong, rec.templateIndex);
            Expr::FlowView flow{d.addresses[rec.addressIndex],
                                cfg_.serverPort, t.packets};
            if (flowMatches(req.expr, flow, rec.firstTimestampUs))
                acc.add(rec.addressIndex, t);
        }
        finishResult(acc, d.addresses, out);
        return out;
    }

    // Indexed path. Flow-start pruning is gap-safe (see aggregate.hpp
    // header), so no defaultGapUs fallback here.
    out.stats.usedIndex = true;
    std::shared_ptr<const SharedRegion> regionPtr = sharedRegion();
    const SharedRegion &region = *regionPtr;
    out.stats.chunksTotal = region.chunkLen.size();

    std::vector<size_t> planned = plan(req.expr);
    out.stats.chunksPlanned = planned.size();
    uint64_t baseBytes = region.sharedEnd + region.indexBytes;
    out.stats.bytesTouched = baseBytes;
    out.stats.reconstructBytes = baseBytes;

    bool flowProfile =
        region.shared.fidelity == fccc::Fidelity::Flow;
    bool needTime = req.expr.usesTime();

    std::vector<Accumulator> perChunk(
        planned.size(), Accumulator(region.shared.addresses.size()));
    std::vector<uint64_t> touched(planned.size(), 0);

    auto aggregateOne = [&](size_t i) {
        size_t c = planned[i];
        const fccc::ChunkSummary &s = checkedChunk(region, c);
        util::ByteReader cr(bytes_.data() + s.byteOffset,
                            static_cast<size_t>(s.byteLength));
        // Chunk frame order: time, is-long, template, rtt, addr —
        // reinterpreted by the flow profile as time, payload-bytes,
        // packets, duration, addr. Decode only what the aggregate
        // needs; readColumnFrame alone just walks the framing
        // (payload stays a view).
        std::array<fccc::ColumnFrame, 5> frames;
        for (size_t k = 0; k < 5; ++k)
            frames[k] = fccc::readColumnFrame(cr);
        util::require(cr.exhausted(),
                      "fcc index: chunk range has trailing bytes");
        std::vector<uint64_t> time, isLong, tmpl, addr;
        if (needTime) {
            time = fccc::decodeColumnFrame(frames[0]);
            touched[i] += frames[0].storedBytes;
        }
        isLong = fccc::decodeColumnFrame(frames[1]);
        tmpl = fccc::decodeColumnFrame(frames[2]);
        addr = fccc::decodeColumnFrame(frames[4]);
        touched[i] += frames[1].storedBytes +
                      frames[2].storedBytes + frames[4].storedBytes;

        uint64_t records = region.chunkLen[c];
        util::require(isLong.size() == records &&
                          tmpl.size() == records &&
                          addr.size() == records &&
                          (!needTime || time.size() == records),
                      "fcc3: chunk frame record mismatch");
        Accumulator &acc = perChunk[i];
        for (size_t r = 0; r < records; ++r) {
            util::require(
                addr[r] < region.shared.addresses.size(),
                "fcc: address index out of range");
            fccc::TemplateFacts t;
            if (flowProfile) {
                util::require(tmpl[r] >= 1,
                              "fcc: empty flow record");
                t.packets = tmpl[r];
                t.wireBytes = isLong[r] + 40 * tmpl[r];
            } else {
                util::require(isLong[r] <= 1,
                              "fcc: bad dataset identifier");
                t = region.facts.of(isLong[r] == 1, tmpl[r]);
            }
            Expr::FlowView flow{
                region.shared.addresses[static_cast<size_t>(
                    addr[r])],
                cfg_.serverPort, t.packets};
            uint64_t startUs = needTime ? time[r] : 0;
            if (flowMatches(req.expr, flow, startUs))
                acc.add(static_cast<size_t>(addr[r]), t);
        }
    };

    try {
        util::runJobs(cfg_.threads, planned.size(), aggregateOne);
    } catch (const std::bad_alloc &) {
        throw util::Error(
            "query: corrupt archive exhausts memory");
    }

    Accumulator total(region.shared.addresses.size());
    for (size_t i = 0; i < planned.size(); ++i) {
        total.mergeFrom(perChunk[i]);
        out.stats.bytesTouched += touched[i];
        out.stats.reconstructBytes +=
            index_->chunks[planned[i]].byteLength;
    }
    finishResult(total, region.shared.addresses, out);
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
