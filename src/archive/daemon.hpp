/**
 * @file
 * The continuous-capture archiver core: fccd (tools/fccd.cpp) minus
 * its process scaffolding, so tests can drive it in-process.
 *
 * A Daemon pulls packet records from one input — a capture file
 * replayed at a configurable rate, a FIFO, or a socket a producer
 * connects to — through codec::fcc::ingest(), the loop fcctool also
 * runs (stream.hpp), into one long-lived CompressSession. Its
 * IngestPolicy cuts chunks (rotateChunk) and rolls archives; each
 * sealed epoch is committed through archive::ArchiveWriter, the
 * crash-safe fsync-before-footer commit, and the session re-arms,
 * carrying the template store so the next archive skips the
 * recluster warm-up. The owner (signal handlers, tests) flips the
 * loop's IngestControl: `stop` seals and returns, `rotateNow` seals
 * at the next batch edge (SIGHUP). An idle daemon writes no empty
 * archives.
 *
 * On start the daemon reconciles the output directory with its
 * catalog (recoverCatalog), so a SIGKILL'd predecessor's `.partial`
 * litter is cleaned and its unlisted sealed archives regain their
 * catalog lines before new ones are added.
 */

#ifndef FCC_ARCHIVE_DAEMON_HPP
#define FCC_ARCHIVE_DAEMON_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "archive/catalog_file.hpp"
#include "codec/fcc/session.hpp"
#include "trace/source.hpp"

namespace fcc::archive {

struct DaemonConfig
{
    /** Input: a trace file / FIFO path, or (when listen is set) a
     *  socket endpoint ("unix:/p", "tcp:host:port") to accept one
     *  producer connection on. */
    std::string input;

    /** Input container format. Auto-detection (the default) reads
     *  the first 16 bytes, from a FIFO too; socket input is always
     *  flat TSH records. */
    trace::TraceFormatSpec inputFormat;

    /** Treat `input` as a socket endpoint and listen on it. */
    bool listen = false;

    std::string outputDir;          ///< must exist
    std::string prefix = "archive"; ///< archive file name prefix

    codec::fcc::FccConfig codec;
    codec::fcc::SessionOptions session;

    /** Chunk rotation, archive rollover and replay pacing. */
    codec::fcc::IngestPolicy ingest;
};

/** What one run() ingested and sealed. */
struct DaemonReport
{
    codec::fcc::StreamStats stats;      ///< the session's counters
    std::vector<CatalogEntry> sealed;   ///< archives committed, in order
    uint64_t recovered = 0; ///< catalog entries found at startup
};

class Daemon
{
  public:
    /** @throws fcc::util::Error when the codec config does not
     *  validate. */
    explicit Daemon(const DaemonConfig &config);

    /**
     * Run to input end-of-stream or until @p control.stop: recover
     * the output directory, open the input, ingest/rotate/seal.
     * @p onSeal (when set) observes every committed archive — the
     * tool logs them as they land.
     *
     * @throws fcc::util::Error on input or output I/O failure.
     */
    DaemonReport
    run(codec::fcc::IngestControl &control,
        const std::function<void(const CatalogEntry &)> &onSeal =
            {});

  private:
    DaemonConfig config_;
};

} // namespace fcc::archive

#endif // FCC_ARCHIVE_DAEMON_HPP
