/**
 * @file
 * Random-access execution over seekable FCC archives: open an
 * mmap'd file, plan chunks against the index block's summaries,
 * decode only the surviving chunks on the thread pool, and expand
 * each through the codec's chunk expander with a per-flow filter:
 * exactly the packets a full decompression would have produced for
 * the same expression.
 */

#include "query/query.hpp"

#include <functional>
#include <new>

#include "codec/fcc/datasets.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace fcc::query {

namespace fccc = fcc::codec::fcc;

namespace {

/**
 * Expand @p records (one chunk, or the whole legacy stream) from
 * @p rngSeed into @p out, keeping only what @p expr admits, as one
 * run in canonical order: the codec's chunk expander with a verdict
 * per flow. Each flow is judged before any packet exists — on its
 * server, port, size and exact timestamp span — and a flow judged
 * Never only draws its header, so the surviving flows reconstruct
 * the same bytes as a full decompression. @p records come from a
 * container parser, which has range-checked their template and
 * address indices.
 */
fccc::ChunkCounts
expandFiltered(const fccc::FccTraceCompressor &codec,
               const fccc::Datasets &shared,
               const fccc::TemplateFactTable &facts,
               std::span<const fccc::TimeSeqRecord> records,
               uint64_t rngSeed, const Expr &expr,
               std::vector<trace::PacketRecord> &out)
{
    // One view per record, judged once here; the per-packet
    // predicate reads the same view (matches() ignores its span).
    std::vector<Expr::FlowView> views(records.size());
    std::vector<fccc::RecordFilter> verdicts(records.size());
    for (size_t r = 0; r < records.size(); ++r) {
        const fccc::TimeSeqRecord &rec = records[r];
        const fccc::TemplateFacts &fact =
            facts.of(rec.isLong, rec.templateIndex);
        Expr::FlowView &flow = views[r];
        flow.serverIp = shared.addresses[rec.addressIndex];
        flow.serverPort = fccc::reconstructionServerPort;
        flow.packets = fact.packets;
        if (std::optional<fccc::FlowSpan> span =
                fccc::flowSpan(fact, rec)) {
            flow.spanKnown = true;
            flow.firstUs = span->firstUs;
            flow.lastUs = span->lastUs;
        }
        Expr::FlowMatch m = expr.matchesFlow(flow);
        verdicts[r] = m == Expr::FlowMatch::Never ? fccc::RecordFilter::Skip
            : m == Expr::FlowMatch::Always ? fccc::RecordFilter::All
                                           : fccc::RecordFilter::PerPacket;
    }
    fccc::ChunkFilter filter{verdicts, [&](size_t r, uint64_t us) {
        return expr.matches(views[r], us);
    }};
    return codec.expandChunk(shared, flow::ClassTable(shared.weights),
                             facts, records, rngSeed, out, &filter);
}

/**
 * expand(i, run) for i in 0 .. @p count - 1 on up to @p threads
 * workers, each into a new run appended to @p runs, with the flows
 * it expanded and matched counted into @p stats.
 */
void
expandJobs(uint32_t threads, size_t count,
           std::vector<std::vector<trace::PacketRecord>> &runs,
           QueryStats &stats,
           const std::function<fccc::ChunkCounts(
               size_t, std::vector<trace::PacketRecord> &)> &expand)
{
    size_t first = runs.size();
    runs.resize(first + count);
    std::vector<fccc::ChunkCounts> counts(count);
    util::runJobs(threads, count, [&](size_t i) {
        counts[i] = expand(i, runs[first + i]);
    });
    for (const fccc::ChunkCounts &n : counts) {
        stats.flowsMatched += n.flowsMatched;
        stats.flowsExpanded += n.flowsExpanded;
    }
}

} // namespace

FccArchive::FccArchive(const std::string &path,
                       const codec::fcc::FccConfig &cfg)
    : path_(path), cfg_(cfg), src_(util::openByteSource(path))
{
    bytes_ = util::readAllBytes(*src_, owned_);
    util::require(!bytes_.empty(), "query: empty archive");

    // Only the indexed FCC3 layout is seekable; everything else
    // (row containers, unindexed FCC3, the hybrid zlib wrapper)
    // takes the full-decode path — as does a malformed header, which
    // the full decode then reports.
    bool indexedLayout = false;
    try {
        std::optional<fccc::Fcc3Header> header =
            fccc::readFcc3Header(bytes_);
        indexedLayout = header && header->indexed;
    } catch (const util::Error &) {
    }
    if (indexedLayout) {
        try {
            index_ = fccc::readArchiveIndex(bytes_);
            if (!index_)
                indexCorrupt_ = true;  // flagged but no footer
        } catch (const util::Error &) {
            indexCorrupt_ = true;
        } catch (const std::bad_alloc &) {
            // A cap-passing corrupt count exhausted memory; the
            // index is unusable, the container may still be fine.
            indexCorrupt_ = true;
        }
    }
}

std::vector<size_t>
FccArchive::plan(const Expr &expr) const
{
    util::require(hasIndex(), "query: archive has no index");
    std::vector<size_t> out;
    for (size_t c = 0; c < index_->chunks.size(); ++c)
        if (expr.planChunk(index_->chunks[c]).may)
            out.push_back(c);
    return out;
}

QueryStats
FccArchive::run(const Expr &expr, trace::TraceSink &sink,
                bool forceFullDecode) const
{
    Runs runs;
    QueryStats stats = collectRuns(expr, forceFullDecode, runs);
    stats.packetsMatched = mergeRunsInto(std::move(runs), sink);
    return stats;
}

bool
FccArchive::indexCanPlan(const Expr &expr) const
{
    return hasIndex() &&
           (!expr.usesTime() || index_->gapUs >= fccc::reconstructionGapUs);
}

QueryStats
FccArchive::collectRuns(const Expr &expr, bool forceFullDecode,
                        Runs &runs) const
{
    if (!forceFullDecode && indexCanPlan(expr)) {
        try {
            return runIndexed(expr, runs);
        } catch (const std::bad_alloc &) {
            // A corrupt (cap-passing) count exhausted memory —
            // report bad input, like the container parsers do.
            throw util::Error("query: corrupt archive exhausts "
                              "memory");
        }
    }
    return runFullDecode(expr, runs);
}

uint64_t
FccArchive::mergeRunsInto(Runs runs, trace::TraceSink &sink)
{
    // The reconstruction loop's order, whatever the chunk order or
    // thread count. A limit of ~0 emits every packet.
    uint64_t packets = 0;
    std::vector<trace::PacketRecord> rest;
    trace::mergeCanonicalRuns(
        std::move(runs), ~0ull,
        [&](std::span<const trace::PacketRecord> block) {
            sink.write(block);
            packets += block.size();
        },
        rest);
    sink.close();
    return packets;
}

FccArchive::SharedRegion
FccArchive::decodeSharedRegion() const
{
    SharedRegion region;
    region.fcc3 = fccc::readFcc3SharedRegion(
        bytes_, *fccc::readFcc3Header(bytes_));
    region.facts = fccc::templateFacts(region.fcc3.shared);
    util::require(index_->chunks.size() ==
                      region.fcc3.shared.chunkSizes.size(),
                  "fcc index: chunk count disagrees with container");
    return region;
}

std::shared_ptr<const FccArchive::SharedRegion>
FccArchive::sharedRegion() const
{
    std::lock_guard<std::mutex> lock(regionMutex_);
    if (!region_) {
        try {
            region_ = std::make_shared<const SharedRegion>(
                decodeSharedRegion());
        } catch (const std::bad_alloc &) {
            // A corrupt (cap-passing) count exhausted memory —
            // report bad input, like the container parsers do.
            throw util::Error("query: corrupt archive exhausts "
                              "memory");
        }
    }
    return region_;
}

bool
FccArchive::sharedRegionCached() const
{
    std::lock_guard<std::mutex> lock(regionMutex_);
    return region_ != nullptr;
}

std::span<const uint8_t>
FccArchive::chunkBytes(const SharedRegion &region, size_t c) const
{
    const fccc::ChunkSummary &s = index_->chunks[c];
    util::require(s.records == region.fcc3.shared.chunkSizes[c],
                  "fcc index: record count disagrees with "
                  "container");
    util::require(s.byteOffset >= region.fcc3.chunksBegin &&
                      s.byteOffset <= region.fcc3.chunksEnd &&
                      s.byteLength <=
                          region.fcc3.chunksEnd - s.byteOffset,
                  "fcc index: chunk range out of bounds");
    return bytes_.subspan(static_cast<size_t>(s.byteOffset),
                          static_cast<size_t>(s.byteLength));
}

uint64_t
FccArchive::baseBytes(const SharedRegion &region) const
{
    return region.fcc3.chunksBegin +
           (bytes_.size() - region.fcc3.chunksEnd);
}

void
FccArchive::requirePlannedOrder(
    const std::vector<size_t> &planned,
    const std::vector<std::pair<uint64_t, uint64_t>> &spans)
{
    for (size_t i = 1; i < planned.size(); ++i)
        if (planned[i] == planned[i - 1] + 1)
            fccc::requireChunkOrder(spans[i - 1].second,
                                    spans[i].first);
}

QueryStats
FccArchive::runIndexed(const Expr &expr, Runs &runs) const
{
    QueryStats stats;
    stats.usedIndex = true;
    stats.fileBytes = bytes_.size();

    std::shared_ptr<const SharedRegion> region = sharedRegion();
    const fccc::Datasets &shared = region->fcc3.shared;
    util::require(shared.fidelity != fccc::Fidelity::Flow,
                  "query: flow-fidelity archives carry no "
                  "per-packet data; use aggregate queries");
    stats.chunksTotal = shared.chunkSizes.size();

    std::vector<size_t> planned = plan(expr);
    stats.chunksDecoded = planned.size();
    stats.bytesRead = baseBytes(*region);
    std::vector<std::span<const uint8_t>> chunks;
    chunks.reserve(planned.size());
    for (size_t c : planned) {
        chunks.push_back(chunkBytes(*region, c));
        stats.bytesRead += chunks.back().size();
    }

    fccc::FccTraceCompressor codec(cfg_);
    std::vector<std::pair<uint64_t, uint64_t>> spans(planned.size());
    expandJobs(cfg_.threads, planned.size(), runs, stats,
               [&](size_t i, std::vector<trace::PacketRecord> &run) {
        fccc::Fcc3Chunk chunk =
            fccc::readFcc3Chunk(chunks[i], region->fcc3, planned[i]);
        spans[i] = {chunk.firstUs, chunk.lastUs};
        return expandFiltered(codec, shared, region->facts, chunk.timeSeq,
                              fccc::chunkRngSeed(planned[i]), expr, run);
    });
    requirePlannedOrder(planned, spans);
    return stats;
}

QueryStats
FccArchive::runFullDecode(const Expr &expr, Runs &runs) const
{
    QueryStats stats;
    stats.usedIndex = false;
    stats.fileBytes = bytes_.size();
    stats.bytesRead = bytes_.size();

    fccc::Datasets d = fccc::deserializeAuto(bytes_, cfg_.threads);
    util::require(d.fidelity != fccc::Fidelity::Flow,
                  "query: flow-fidelity archives carry no "
                  "per-packet data; use aggregate queries");
    fccc::FccTraceCompressor codec(cfg_);
    fccc::TemplateFactTable facts = fccc::templateFacts(d);

    fccc::ChunkStreams chunks(d);
    stats.chunksTotal = chunks.size();
    stats.chunksDecoded = chunks.size();
    expandJobs(cfg_.threads, chunks.size(), runs, stats,
               [&](size_t c, std::vector<trace::PacketRecord> &run) {
        return expandFiltered(codec, d, facts, chunks.records(c),
                              chunks.seed(c), expr, run);
    });
    return stats;
}

} // namespace fcc::query
