/**
 * @file
 * One-shot streaming interface of the FCC codec over the trace I/O
 * subsystem: compression consumes any TraceSource (TSH, pcap,
 * pcapng, gzip'd variants — see trace/source.hpp), decompression
 * produces any TraceSink. Every entry point here is a thin wrapper
 * over a single-epoch session (session.hpp) — the open-ended API
 * that can also seal an archive and re-arm for the next one, which
 * is what the continuous-capture archiver (src/archive, fccd)
 * builds on.
 *
 * Compression reads packet records incrementally (one connection's
 * worth of state at a time — memory is bounded by open flows plus
 * the template/time-seq datasets, not by the packet count).
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

#include <cstdint>
#include <string>

#include "codec/fcc/fcc_codec.hpp"
#include "trace/source.hpp"

namespace fcc::codec::fcc {

/**
 * Outcome of a streaming run — one-shot or session-based. The
 * lifecycle counters come from the session layer (session.hpp): a
 * one-shot run is a single-epoch session, so it reports one epoch,
 * one sealed archive and the archive's chunk count.
 */
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

/**
 * Compress any TraceSource into an FCC file without materializing
 * the packet stream: memory is bounded by open flows plus the
 * datasets, whatever the input size. Input must be time-ordered.
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
