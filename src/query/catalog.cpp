/**
 * @file
 * Catalog execution: open a directory of archives, prune whole
 * archives by their chunk plans, run survivors, k-way merge the
 * sorted chunk runs of every survivor at once. See catalog.hpp.
 */

#include "query/catalog.hpp"

#include <algorithm>
#include <filesystem>

#include "archive/catalog_file.hpp"
#include "util/error.hpp"

namespace fcc::query {

namespace fs = std::filesystem;

ArchiveCatalog::ArchiveCatalog(const std::string &directory,
                               const codec::fcc::FccConfig &cfg)
{
    cfg.validate();
    std::error_code ec;
    fs::directory_iterator it(directory, ec);
    if (ec)
        throw util::Error("catalog: cannot read directory '" +
                          directory + "': " + ec.message());
    std::vector<std::string> paths;
    for (const fs::directory_entry &entry : it) {
        if (!entry.is_regular_file())
            continue;
        if (entry.path().extension() != ".fcc")
            continue;
        paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end());
    for (const std::string &path : paths)
        archives_.push_back(
            std::make_unique<FccArchive>(path, cfg));
}

ArchiveCatalog
ArchiveCatalog::fromPaths(const std::vector<std::string> &paths,
                          const codec::fcc::FccConfig &cfg)
{
    cfg.validate();
    ArchiveCatalog catalog;
    for (const std::string &path : paths)
        catalog.archives_.push_back(
            std::make_unique<FccArchive>(path, cfg));
    return catalog;
}

ArchiveCatalog
ArchiveCatalog::fromCatalogFile(const std::string &directory,
                                const codec::fcc::FccConfig &cfg)
{
    if (!fs::exists(fs::path(directory) /
                    archive::CatalogFile::fileName()))
        return ArchiveCatalog(directory, cfg);
    std::vector<std::string> paths;
    for (const archive::CatalogEntry &entry :
         archive::loadCatalog(directory))
        paths.push_back(directory + "/" + entry.name);
    return fromPaths(paths, cfg);
}

namespace {

/**
 * Archive-level pruning decision: an archive whose index can plan
 * @p expr (FccArchive::indexCanPlan) and plans no chunk cannot
 * contribute a packet.
 */
bool
prunable(const FccArchive &archive, const Expr &expr)
{
    return archive.indexCanPlan(expr) && archive.plan(expr).empty();
}

} // namespace

CatalogQueryStats
ArchiveCatalog::run(const Expr &expr, trace::TraceSink &sink,
                    bool forceFullDecode) const
{
    CatalogQueryStats stats;
    stats.archives = archives_.size();

    FccArchive::Runs runs;
    for (const auto &archive : archives_) {
        stats.fileBytes += archive->fileBytes();
        if (!forceFullDecode && prunable(*archive, expr)) {
            ++stats.archivesPruned;
            stats.chunksTotal += archive->index().chunks.size();
            continue;
        }
        QueryStats s =
            archive->collectRuns(expr, forceFullDecode, runs);
        stats.chunksTotal += s.chunksTotal;
        stats.chunksDecoded += s.chunksDecoded;
        stats.bytesRead += s.bytesRead;
        stats.flowsMatched += s.flowsMatched;
    }
    // Every surviving archive's chunk runs, merged once straight
    // into the sink: a single run is written as spans of itself.
    stats.packetsMatched =
        FccArchive::mergeRunsInto(std::move(runs), sink);
    return stats;
}

AggregateResult
ArchiveCatalog::aggregate(const AggregateRequest &req) const
{
    AggregateResult total;
    bool first = true;
    for (const auto &archive : archives_) {
        if (archive->hasIndex() && archive->plan(req.expr).empty()) {
            // Gap-safe for aggregates (flow-start semantics).
            AggregateResult pruned;
            pruned.stats.usedIndex = true;
            pruned.stats.chunksTotal =
                archive->index().chunks.size();
            pruned.stats.fileBytes = archive->fileBytes();
            if (first) {
                total = std::move(pruned);
                first = false;
            } else {
                mergeAggregateInto(total, pruned);
            }
            continue;
        }
        AggregateResult one = archive->aggregate(req);
        if (first) {
            total = std::move(one);
            first = false;
        } else {
            mergeAggregateInto(total, one);
        }
    }
    return total;
}

} // namespace fcc::query
