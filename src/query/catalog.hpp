/**
 * @file
 * Multi-archive catalogs: one query surface over a directory of
 * sealed .fcc archives.
 *
 * The serving model (ROADMAP north star, after DataSeries): archives
 * are immutable time-partitioned files in a directory; a catalog
 * opens them all (mmap + tail index read — cheap), prunes whole
 * archives whose chunk plan is empty for a query expression
 * (time-partition pruning falls out of the per-chunk timestamp
 * bounds), runs the survivors' chunk-level plans, and k-way merges
 * the sorted chunk runs of every survivor, once, into one
 * packetCanonicalLess-ordered stream. Results are bit-identical to concatenating per-archive
 * full-decode-then-filter runs and re-sorting — independent of
 * archive order, thread count, or how many archives were pruned.
 *
 * Aggregates merge per-archive results (full per-server tables, see
 * aggregate.hpp) with the same archive-level pruning.
 */

#ifndef FCC_QUERY_CATALOG_HPP
#define FCC_QUERY_CATALOG_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "query/aggregate.hpp"
#include "query/query.hpp"

namespace fcc::query {

/** What a catalog query touched across all member archives. */
struct CatalogQueryStats
{
    uint64_t archives = 0;       ///< archives in the catalog
    uint64_t archivesPruned = 0; ///< skipped whole via their index
    uint64_t chunksTotal = 0;    ///< chunks across all archives
    uint64_t chunksDecoded = 0;
    uint64_t fileBytes = 0;      ///< bytes across all archives
    uint64_t bytesRead = 0;
    uint64_t flowsMatched = 0;
    uint64_t packetsMatched = 0;
};

/**
 * An opened set of archives. Immutable after construction; all query
 * entry points are const and thread-safe, so one catalog instance
 * backs every concurrent fccserve request.
 */
class ArchiveCatalog
{
  public:
    /**
     * Open every regular `*.fcc` file directly inside @p directory,
     * in name order (time-partitioned layouts sort naturally).
     * @throws fcc::util::Error when the directory cannot be read or
     *         a member archive is unopenable.
     */
    explicit ArchiveCatalog(const std::string &directory,
                            const codec::fcc::FccConfig &cfg = {});

    /** Open an explicit list of archives, in the given order. */
    static ArchiveCatalog
    fromPaths(const std::vector<std::string> &paths,
              const codec::fcc::FccConfig &cfg = {});

    /**
     * Open what a continuous-capture catalog file lists
     * (`<directory>/CATALOG`, written by fccd — see
     * archive/catalog_file.hpp): the serving side of the daemon's
     * crash-safety contract, trusting exactly the archives the
     * producer has durably sealed (torn tail lines are skipped).
     * When no catalog file exists, falls back to the plain
     * directory scan.
     */
    static ArchiveCatalog
    fromCatalogFile(const std::string &directory,
                    const codec::fcc::FccConfig &cfg = {});

    size_t size() const { return archives_.size(); }

    /** Member archive @p i (construction order). */
    const FccArchive &
    archive(size_t i) const
    {
        return *archives_[i];
    }

    /**
     * Run @p expr across all member archives and emit the matching
     * packets through @p sink as one globally canonical-ordered
     * stream. Indexed archives whose whole chunk plan is empty are
     * pruned without touching their column frames (except when the
     * expression uses time and the archive's index was written with
     * a smaller reconstruction gap — then the archive takes the
     * full-decode path, like FccArchive::run).
     */
    CatalogQueryStats run(const Expr &expr, trace::TraceSink &sink,
                          bool forceFullDecode = false) const;

    /**
     * Aggregate across all member archives (per-server tables and
     * histograms merge exactly; top-K is applied at render time).
     * Archive-level pruning as in run(), but always gap-safe
     * (flow-start semantics, see aggregate.hpp).
     */
    AggregateResult aggregate(const AggregateRequest &req) const;

  private:
    ArchiveCatalog() = default;

    std::vector<std::unique_ptr<FccArchive>> archives_;
};

} // namespace fcc::query

#endif // FCC_QUERY_CATALOG_HPP
