/**
 * @file
 * Random-access query subsystem over seekable FCC archives.
 *
 * An indexed FCC3 file (codec/fcc/index.hpp) makes three-stage
 * random access possible without inflating the whole archive:
 *
 *  1. open — mmap the file (util/io) and load only the index block
 *     from its tail;
 *  2. plan — evaluate a query expression (query/expr.hpp: AND/OR/NOT
 *     over server, CIDR, port, time-window and flow-size leaves)
 *     against the per-chunk summaries: Bloom fingerprints rule out
 *     chunks without the queried servers, timestamp bounds rule out
 *     chunks outside the window;
 *  3. execute — decode and expand only the surviving chunks (one
 *     thread-pool job each, every chunk drawing from its own RNG
 *     stream), filter, and emit the time-sorted result through any
 *     TraceSink.
 *
 * Reconstruction is bit-exact with a full decompression of the same
 * archive: chunk RNG streams are seeded by original chunk index
 * (codec::fcc::chunkRngSeed), so the packets of a selected flow are
 * the same bytes `fcctool decompress` would have produced.
 *
 * Files without an index (FCC1, FCC2, unindexed FCC3, hybrid
 * deflate) and archives whose index block is corrupt fall back to a
 * full decode with the same filtering semantics — a query is never
 * wrong, only slower. Both paths read FCC3 through the codec's one
 * parser (codec/fcc/datasets.hpp: header, shared region, chunk), so
 * an indexed query rejects exactly what a full decode rejects. See
 * docs/QUERY.md.
 *
 * Aggregate queries over an archive (per-server flow counts, byte
 * histograms, top-K talkers, computed without reconstructing
 * packets) live in query/aggregate.hpp; multi-archive catalogs in
 * query/catalog.hpp.
 */

#ifndef FCC_QUERY_QUERY_HPP
#define FCC_QUERY_QUERY_HPP

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "codec/fcc/datasets.hpp"
#include "codec/fcc/fcc_codec.hpp"
#include "codec/fcc/index.hpp"
#include "query/expr.hpp"
#include "trace/source.hpp"
#include "trace/tsh.hpp"
#include "util/io.hpp"

namespace fcc::query {

struct AggregateRequest;
struct AggregateResult;

/** What one query run touched and produced. */
struct QueryStats
{
    bool usedIndex = false;     ///< planned via the chunk index
    uint64_t chunksTotal = 0;   ///< chunks in the archive
    uint64_t chunksDecoded = 0; ///< chunks the plan could not rule out
    uint64_t fileBytes = 0;     ///< archive size
    /**
     * Archive bytes the run needed: header, shared dataset frames,
     * the decoded chunks' frames and the index block — the pages a
     * cold mmap actually faults, and the number micro_query reports
     * against a full decode.
     */
    uint64_t bytesRead = 0;
    uint64_t flowsMatched = 0;
    /**
     * Flows whose packets were synthesized: those the expression
     * could not rule out from the flow's server, port, size and
     * timestamp span alone. Every other flow of a decoded chunk only
     * advances the RNG stream.
     */
    uint64_t flowsExpanded = 0;
    uint64_t packetsMatched = 0;
};

/** TraceSink that counts and discards (--count queries, benches). */
class NullTraceSink final : public trace::TraceSink
{
  public:
    void
    write(std::span<const trace::PacketRecord> batch) override
    {
        packets_ += batch.size();
    }
    void close() override {}
    /** Logical size: what the packets would occupy as TSH records. */
    uint64_t bytesWritten() const override
    {
        return packets_ * trace::tshRecordBytes;
    }
    uint64_t packets() const { return packets_; }

  private:
    uint64_t packets_ = 0;
};

/**
 * One opened .fcc archive, memory-mapped, with its index (when
 * present) parsed and ready to plan against. The FccConfig supplies
 * the reconstruction parameters and thread count — they must match
 * the ones a full decompression would use for the reconstruction to
 * be bit-identical (the defaults always do).
 *
 * All query entry points are const, so one archive may serve
 * concurrent queries from many threads (the fccserve layer relies
 * on this). The one piece of mutable state is a lazy cache: the
 * first indexed query or aggregate decodes the shared region
 * (templates, addresses, chunk layout) once, under a mutex, and
 * every later query reuses it. Opening an archive never decodes it,
 * and a decode that throws caches nothing.
 */
class FccArchive
{
  public:
    /** @throws fcc::util::Error when the file cannot be opened. */
    explicit FccArchive(const std::string &path,
                        const codec::fcc::FccConfig &cfg = {});

    /** True when the archive carries a usable chunk/flow index. */
    bool hasIndex() const { return index_.has_value(); }

    /**
     * True when the file advertises an index that failed to parse
     * (CRC mismatch, truncation); queries fall back to full decode.
     */
    bool indexCorrupt() const { return indexCorrupt_; }

    /** The parsed index. Requires hasIndex(). */
    const codec::fcc::ArchiveIndex &
    index() const
    {
        return *index_;
    }

    /**
     * True when the index can plan @p expr: the archive has one and,
     * if @p expr tests time, the index's chunk end bounds hold — its
     * stored gap is at least codec::fcc::reconstructionGapUs. A
     * smaller stored gap puts reconstructed packets past those
     * bounds, so run() takes the full-decode path and a catalog must
     * not prune the archive.
     */
    bool indexCanPlan(const Expr &expr) const;

    /** Archive size in bytes. */
    uint64_t fileBytes() const { return bytes_.size(); }

    /** The path the archive was opened from. */
    const std::string &path() const { return path_; }

    /** The reconstruction configuration queries run with. */
    const codec::fcc::FccConfig &config() const { return cfg_; }

    /** True once a query or aggregate has decoded and cached the
     *  shared region. */
    bool sharedRegionCached() const;

    /**
     * Chunk ids the index cannot rule out for @p expr, in ascending
     * order. Bloom false positives may include chunks with no
     * matching flow (the execute stage filters them to zero
     * packets); a chunk with a match is never excluded.
     * Requires hasIndex().
     */
    std::vector<size_t> plan(const Expr &expr) const;

    /**
     * Run @p expr over the archive and write the matching packets,
     * globally time-sorted, to @p sink (closed before returning).
     * Uses the index when present unless @p forceFullDecode; always
     * produces exactly the packets a full decompression filtered by
     * @p expr would.
     *
     * @throws fcc::util::Error on a malformed archive.
     */
    QueryStats run(const Expr &expr, trace::TraceSink &sink,
                   bool forceFullDecode = false) const;

    /**
     * Aggregate over the archive from index blocks and selected
     * column frames, without reconstructing packets. Declared here,
     * defined with the request/result model in query/aggregate.hpp.
     */
    AggregateResult aggregate(const AggregateRequest &req) const;

  private:
    /**
     * Everything the indexed layout shares across chunks: the
     * codec's shared region (weights, tier, templates, addresses,
     * chunk layout and frame bounds) and the facts of every
     * template. Built once per archive by sharedRegion(), read by
     * the filter and aggregate executors.
     */
    struct SharedRegion
    {
        codec::fcc::Fcc3SharedRegion fcc3;
        codec::fcc::TemplateFactTable facts;
    };

    /** Read the shared region of an indexed archive and check its
     *  chunk layout against the index. Requires hasIndex(). */
    SharedRegion decodeSharedRegion() const;

    /** The cached shared region, decoded on first use. */
    std::shared_ptr<const SharedRegion> sharedRegion() const;

    /** Chunk @p c's frames, once its index entry agrees with the
     *  container (record count, byte range inside the frames). */
    std::span<const uint8_t>
    chunkBytes(const SharedRegion &region, size_t c) const;

    /** Bytes every indexed run reads besides the chunks: header,
     *  shared frames and the index block. */
    uint64_t baseBytes(const SharedRegion &region) const;

    /**
     * Planned chunks that are neighbours in the file stay time-sorted
     * across their boundary, as a full decode requires;
     * @p spans[i] is the (first, last) timestamp of chunk
     * @p planned[i]. Chunks the plan skipped are not checked.
     */
    static void requirePlannedOrder(
        const std::vector<size_t> &planned,
        const std::vector<std::pair<uint64_t, uint64_t>> &spans);

    /** Canonical-sorted packet runs, one per decoded chunk. */
    using Runs = std::vector<std::vector<trace::PacketRecord>>;

    /**
     * The packets run() writes, as runs appended to @p runs, unmerged;
     * the stats lack packetsMatched, which the merge counts. run()
     * merges one archive's runs, ArchiveCatalog::run every surviving
     * archive's at once.
     */
    QueryStats collectRuns(const Expr &expr, bool forceFullDecode,
                           Runs &runs) const;

    /** Merge @p runs into @p sink, close it, return the packets. */
    static uint64_t mergeRunsInto(Runs runs, trace::TraceSink &sink);

    QueryStats runIndexed(const Expr &expr, Runs &runs) const;
    QueryStats runFullDecode(const Expr &expr, Runs &runs) const;

    friend struct AggregateExecutor;
    friend class ArchiveCatalog;

    std::string path_;
    codec::fcc::FccConfig cfg_;
    std::unique_ptr<util::ByteSource> src_;
    std::vector<uint8_t> owned_;        ///< stdio fallback buffer
    std::span<const uint8_t> bytes_;    ///< the whole archive
    std::optional<codec::fcc::ArchiveIndex> index_;
    bool indexCorrupt_ = false;

    mutable std::mutex regionMutex_;
    mutable std::shared_ptr<const SharedRegion> region_;
};

} // namespace fcc::query

#endif // FCC_QUERY_QUERY_HPP
