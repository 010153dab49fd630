/**
 * @file
 * Random-access execution over seekable FCC archives: open an
 * mmap'd file, plan chunks against the index block's summaries,
 * decode only the surviving chunks on the thread pool, and filter
 * to exactly the packets a full decompression would have produced
 * for the same expression.
 */

#include "query/query.hpp"

#include <algorithm>
#include <new>

#include "codec/fcc/datasets.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fcc::query {

namespace fccc = fcc::codec::fcc;

namespace {

/** Matching packets and flow counts of one expanded record range. */
struct ChunkResult
{
    std::vector<trace::PacketRecord> packets;
    uint64_t flows = 0;
    uint64_t expanded = 0;
};

/**
 * Expand @p records (one chunk, or the whole legacy stream) from
 * @p rngSeed, keeping only what @p expr admits, as one run in
 * canonical order. Each flow is judged before any packet exists —
 * on its server, port, size and exact timestamp span — and a flow
 * judged Never only draws its header: the RNG stream advances
 * exactly as a full decompression's would, so the surviving flows
 * reconstruct the same bytes. @p records come from a container
 * parser, which has range-checked their template and address
 * indices.
 */
void
expandFiltered(const fccc::FccTraceCompressor &codec,
               const fccc::Datasets &shared,
               const fccc::TemplateFactTable &facts,
               std::span<const fccc::TimeSeqRecord> records,
               uint64_t rngSeed, const Expr &expr, ChunkResult &out)
{
    util::Rng rng(rngSeed);
    flow::ClassTable classes(shared.weights);
    std::vector<trace::PacketRecord> flowBuf;
    for (const fccc::TimeSeqRecord &rec : records) {
        const fccc::TemplateFacts &tmpl =
            facts.of(rec.isLong, rec.templateIndex);
        Expr::FlowView flow{shared.addresses[rec.addressIndex],
                            codec.config().serverPort, tmpl.packets};
        if (std::optional<fccc::FlowSpan> span = fccc::flowSpan(
                tmpl, rec, codec.config().defaultGapUs)) {
            flow.spanKnown = true;
            flow.firstUs = span->firstUs;
            flow.lastUs = span->lastUs;
        }
        Expr::FlowMatch verdict = expr.matchesFlow(flow);
        if (verdict == Expr::FlowMatch::Never) {
            fccc::FccTraceCompressor::drawFlowHeader(rng);
            continue;
        }
        ++out.expanded;
        flowBuf.clear();
        codec.expandFlow(shared, classes, rec, rng, flowBuf);
        size_t emitted = 0;
        for (const trace::PacketRecord &pkt : flowBuf) {
            if (verdict == Expr::FlowMatch::PerPacket &&
                !expr.matches(flow, pkt.timestampUs()))
                continue;
            out.packets.push_back(pkt);
            ++emitted;
        }
        if (emitted > 0)
            ++out.flows;
    }
    // Each job leaves a sorted run; emitResults only merges.
    trace::sortCanonical(out.packets);
}

/**
 * Move the per-chunk results — each sorted by its job — to @p runs
 * and count their flows into @p stats.
 */
void
appendRuns(std::vector<ChunkResult> &results,
           std::vector<std::vector<trace::PacketRecord>> &runs,
           QueryStats &stats)
{
    for (ChunkResult &r : results) {
        stats.flowsMatched += r.flows;
        stats.flowsExpanded += r.expanded;
        runs.push_back(std::move(r.packets));
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

QueryStats
FccArchive::collectRuns(const Expr &expr, bool forceFullDecode,
                        Runs &runs) const
{
    // The index's maxEndUs bounds assume the gap it was written
    // with; a *larger* reconstruction gap pushes packets past them,
    // so time-window pruning would silently drop matches — take the
    // (always correct) full-decode path instead.
    bool gapUnsafe = expr.usesTime() && hasIndex() &&
                     cfg_.defaultGapUs > index_->gapUs;
    if (hasIndex() && !forceFullDecode && !gapUnsafe) {
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
    region.facts = fccc::templateFacts(region.fcc3.shared,
                                       cfg_.smallPayload,
                                       cfg_.largePayload);
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
    std::vector<ChunkResult> results(planned.size());
    std::vector<std::pair<uint64_t, uint64_t>> spans(planned.size());
    auto decodeOne = [&](size_t i) {
        fccc::Fcc3Chunk chunk =
            fccc::readFcc3Chunk(chunks[i], region->fcc3, planned[i]);
        spans[i] = {chunk.firstUs, chunk.lastUs};
        expandFiltered(codec, shared, region->facts, chunk.timeSeq,
                       fccc::chunkRngSeed(cfg_.decompressSeed,
                                          planned[i]),
                       expr, results[i]);
    };
    util::runJobs(cfg_.threads, planned.size(), decodeOne);
    requirePlannedOrder(planned, spans);

    appendRuns(results, runs, stats);
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
    fccc::TemplateFactTable facts = fccc::templateFacts(
        d, cfg_.smallPayload, cfg_.largePayload);

    fccc::ChunkStreams chunks(d, cfg_.decompressSeed);
    stats.chunksTotal = chunks.size();
    stats.chunksDecoded = chunks.size();
    std::vector<ChunkResult> results(chunks.size());
    util::runJobs(cfg_.threads, chunks.size(), [&](size_t c) {
        expandFiltered(codec, d, facts, chunks.records(c),
                       chunks.seed(c), expr, results[c]);
    });
    appendRuns(results, runs, stats);
    return stats;
}

} // namespace fcc::query
