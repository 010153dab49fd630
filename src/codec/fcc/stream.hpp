/**
 * @file
 * Streaming interface of the FCC codec over the trace I/O subsystem:
 * compression consumes any TraceSource (TSH, pcap, pcapng, gzip'd
 * variants — see trace/source.hpp), decompression produces any
 * TraceSink.
 *
 * Compression has one loop, ingest(): source → CompressSession
 * (session.hpp) → one sealed archive per epoch. compressSource
 * (fcctool) runs it to write one file; the archiver (src/archive,
 * fccd) runs it under a rotation policy and commits each archive.
 *
 * Decompression of a legacy unchunked file (FCC1, or FCC3 written
 * with chunkRecords == 0 before every archive was chunked)
 * implements the paper's §4 algorithm literally:
 * a time-ordered buffer ("linked list" in the paper) of
 * reconstructed packets is flushed to the output file whenever
 * packets are older than the next time-seq record's timestamp, so
 * output is produced as the compressed stream is scanned rather
 * than after a global sort. A chunked file (FCC2/FCC3) keeps the
 * same flush with a batch of chunks as the step: the chunks expand
 * concurrently (FccConfig::threads workers, one RNG stream per
 * chunk), each worker sorting its chunk into a canonical run; one
 * k-way merge of those runs and the still-buffered carry orders the
 * batch, and everything older than the next chunk's first record is
 * written. FCC3 additionally decodes its columns on the pool before
 * expansion begins. Output is byte-identical at any thread count.
 */

#ifndef FCC_CODEC_FCC_STREAM_HPP
#define FCC_CODEC_FCC_STREAM_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "codec/fcc/fcc_codec.hpp"
#include "trace/source.hpp"

namespace fcc::codec::fcc {

/** Outcome of a compression or decompression run. The lifecycle
 *  counters come from the session layer (session.hpp). */
struct StreamStats
{
    uint64_t packets = 0;
    uint64_t flows = 0;
    uint64_t inputBytes = 0;
    uint64_t outputBytes = 0;

    // Session lifecycle (compression: what seal() produced so far;
    // decompression: epochs counts drained archives).
    uint64_t chunksSealed = 0;   ///< chunks across sealed archives
    uint64_t archivesSealed = 0; ///< seal() count
    uint64_t epochs = 0;         ///< arm/re-arm cycles started

    double
    ratio() const
    {
        return inputBytes
            ? static_cast<double>(outputBytes) /
                  static_cast<double>(inputBytes)
            : 0.0;
    }
};

class CompressSession;
struct SealInfo;

/** When ingest() cuts chunks and seals archives. Zero disables a
 *  bound; record bounds are exact, wall bounds are checked per
 *  batch. The all-zero policy seals once, at the end of the input. */
struct IngestPolicy
{
    uint64_t chunkRecords = 0;   ///< rotateChunk() every N packets fed
    uint64_t chunkWallMs = 0;    ///< ... or every N wall milliseconds
    uint64_t archiveRecords = 0; ///< seal every N packets fed
    uint64_t archiveWallMs = 0;  ///< ... or every N wall milliseconds
    double replayRate = 0; ///< packets/s to pace a replay; 0 = no pacing
};

/** Flags ingest() polls at batch edges; safe to flip from signal
 *  handlers (std::atomic<bool> is lock-free everywhere we run). */
struct IngestControl
{
    std::atomic<bool> stop{false};      ///< seal buffered state, return
    std::atomic<bool> rotateNow{false}; ///< seal now (SIGHUP)
};

/** Records per read in ingest(). A live source's read blocks until
 *  the batch fills or the producer closes, so this also bounds how
 *  late a control flag or a wall bound is seen. */
constexpr size_t ingestBatchRecords = 256;

/**
 * The ingest loop: read @p src, feed @p session and seal epochs
 * under @p policy until the input ends or @p control.stop, then seal
 * what is buffered; @p onSeal gets each archive in seal order. A
 * batch is fed in spans cut at the next record bound, where a chunk
 * cut precedes a seal on the same packet. An epoch holding no packet
 * is never sealed, and the session re-arms only when a packet
 * follows a seal, so it is left sealed unless no packet arrived.
 *
 * @throws fcc::util::Error on input failure, time-disordered input,
 *         or whatever @p onSeal throws.
 */
void
ingest(trace::TraceSource &src, CompressSession &session,
       const IngestPolicy &policy, IngestControl &control,
       const std::function<void(std::span<const uint8_t> archive,
                                const SealInfo &info)> &onSeal);

/**
 * Compress any TraceSource into an FCC file without materializing
 * the packet stream: memory is bounded by open flows plus the
 * datasets, whatever the input size. Input must be time-ordered.
 * This is ingest() with the all-zero policy; an empty input still
 * writes one (empty) archive.
 * With cfg.index set (FCC3 only) the output is a *seekable*
 * archive: chunk-framed time-seq columns plus the chunk/flow index
 * block the random-access query subsystem (src/query, fccquery)
 * plans against.
 *
 * @throws fcc::util::Error on I/O failure or malformed input.
 */
StreamStats
compressSource(trace::TraceSource &src, const std::string &fccPath,
               const FccConfig &cfg = {});

/**
 * Compress a trace file of any supported capture format (TSH, pcap,
 * pcapng, each optionally gzip'd) into an FCC file. The default
 * spec auto-detects the format from magic bytes.
 *
 * @throws fcc::util::Error on I/O failure or malformed input.
 */
StreamStats
compressTraceFile(const std::string &inPath,
                  const std::string &fccPath,
                  const FccConfig &cfg = {},
                  const trace::TraceFormatSpec &format = {});

/**
 * Decompress an FCC file into a trace file. An auto spec picks the
 * output format from the extension (.pcap / .pcapng, else TSH).
 *
 * @throws fcc::util::Error on I/O failure or malformed input.
 */
StreamStats
decompressTraceFile(const std::string &fccPath,
                    const std::string &outPath,
                    const FccConfig &cfg = {},
                    const trace::TraceFormatSpec &format = {});

} // namespace fcc::codec::fcc

#endif // FCC_CODEC_FCC_STREAM_HPP
