/**
 * @file
 * The paper's proposed compressor: lossy packet-trace compression by
 * clustering of TCP flow characterization vectors (§3), and the
 * matching decompression algorithm (§4).
 *
 * Compression: assemble bidirectional flows; compute each flow's SF
 * vector; short flows (<= 50 packets) are matched against the
 * short-flows-template cluster store (similarity = L1 distance below
 * 2 % of the maximum inter-flow distance 50 n); long flows are stored
 * verbatim with their exact inter-packet times. Per flow, only a
 * time-seq record (timestamp, S/L identifier, template index, RTT,
 * address index) survives — ~8 bytes — which is what yields the ~3 %
 * ratio of §5.
 *
 * Decompression: for every time-seq record the referenced template is
 * expanded: (f1, f2, f3) are decoded from each S value (the weights
 * form a mixed-radix code), packet direction is re-derived from the
 * dependence chain, sizes from the size class, timing from the RTT
 * (dependent packets) or a small gap (back-to-back packets), server
 * address from the address dataset, client address randomized (class
 * B/C), client port random in [1024, 65000], server port 80 — exactly
 * the paper's §4 procedure.
 */

#ifndef FCC_CODEC_FCC_FCC_CODEC_HPP
#define FCC_CODEC_FCC_FCC_CODEC_HPP

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "codec/compressor.hpp"
#include "codec/fcc/datasets.hpp"
#include "flow/characterize.hpp"
#include "flow/flow_table.hpp"
#include "util/rng.hpp"

namespace fcc::codec::fcc {

/**
 * Which wire container compress() writes. Decompression auto-detects
 * every container by magic, including the legacy FCC1 stream, which
 * is no longer written (FORMAT.md §7).
 */
enum class ContainerFormat : uint8_t
{
    Fcc2 = 2,  ///< chunked time-seq (default; the paper's layout)
    Fcc3 = 3,  ///< columnar, per-column field codecs + backends
};

/** "fcc2" / "fcc3". */
const char *containerFormatName(ContainerFormat container);

/** Parse a name accepted by containerFormatName(). @throws Error */
ContainerFormat parseContainerName(const std::string &name);

/** Tunables of the proposed method (paper defaults). */
struct FccConfig
{
    flow::Weights weights;        ///< {16, 4, 1}
    flow::SimilarityRule rule;    ///< d_sim = n * 50 * 2 %
    uint32_t shortLimit = 50;     ///< short/long split (packets)

    /**
     * Worker threads of FCC3 column encode/decode and of chunked
     * expansion; 0 means hardware_concurrency, 1 runs everything on
     * the calling thread. Flow assembly and clustering are the
     * session's online pass and run on the calling thread. Output is
     * byte-identical for every value: the container layout and the
     * chunk size (chunkRecords) fix the work decomposition, threads
     * only decide how much of it runs concurrently.
     */
    uint32_t threads = 0;

    /**
     * Most time-seq records per chunk (>= 1). Chunks are the unit of
     * parallel decompression (each owns an RNG stream). The session
     * that closes an epoch fixes the chunk layout once: its time cuts
     * (CompressSession::rotateChunk) first, then this record-count
     * slicing inside each segment (chunkLayout()). Every container
     * writes that layout as it is.
     */
    uint32_t chunkRecords = 4096;

    /**
     * Wire container compress() writes; both carry any chunk layout.
     * The library default stays FCC2 so the §5 accounting benches
     * keep measuring the paper's row layout; fcctool defaults to FCC3
     * (see --container).
     */
    ContainerFormat container = ContainerFormat::Fcc2;

    /**
     * Entropy backend of the FCC3 columnar container, applied per
     * column after the field codec (with automatic per-column Store
     * fallback when it does not pay). Ignored by FCC2, whose rows are
     * stored as plain varints.
     */
    backend::EntropyBackend backend =
        backend::EntropyBackend::Deflate;

    /**
     * Write a *seekable* archive: FCC3 with chunk-framed time-seq
     * columns and the chunk/flow index block (codec/fcc/index.hpp)
     * the random-access query subsystem (src/query) plans against.
     * Requires container == Fcc3; costs a few percent of file size.
     * Decompression auto-detects it either way.
     */
    bool index = false;

    /**
     * Address assignment on decompression. The paper (§4) writes the
     * stored destination address and the random source on *every*
     * packet of a flow; with directionAwareAddresses the recovered
     * direction chain instead swaps source/destination for
     * server-to-client packets (an extension; more TCP-realistic but
     * not what the paper's decompressor does).
     */
    bool directionAwareAddresses = false;

    /**
     * Fidelity tier of the written archive (docs/FIDELITY.md). The
     * default, Exact, reproduces the paper's lossless-within-model
     * pipeline byte for byte; the lossy tiers (Quantized, Header,
     * Flow) degrade the datasets just before columnar serialization
     * and therefore require container == Fcc3, whose header carries
     * the tier tag. Decompression auto-detects the tier.
     */
    Fidelity fidelity = Fidelity::Exact;

    /**
     * Timestamp grid of the Quantized tier, in microseconds (flow
     * first-timestamps are floored onto multiples of it). Ignored by
     * the other tiers; must be >= 1 when fidelity == Quantized.
     */
    uint64_t quantumUs = 1000;

    /**
     * The single validation entry point: every constraint between
     * the knobs above (container/backend tags in range, at least one
     * record per chunk, the index needs fcc3, decodable weights, the
     * tier's container) checked in one place. Sessions validate on
     * open, the tools validate right after flag parsing, and the
     * query catalog validates what it plans with — all through this
     * method, so a bad combination fails the same way everywhere.
     *
     * @throws fcc::util::Error naming the offending combination.
     */
    void validate() const;
};

/** Compression-side statistics (cluster behaviour, §2.1/§3). */
struct FccCompressStats
{
    uint64_t flows = 0;
    uint64_t shortFlows = 0;
    uint64_t longFlows = 0;
    uint64_t shortTemplatesCreated = 0;  ///< clusters
    uint64_t shortTemplateHits = 0;      ///< flows matched to one
    SizeBreakdown sizes;

    double
    hitRate() const
    {
        return shortFlows ? static_cast<double>(shortTemplateHits) /
                                static_cast<double>(shortFlows)
                          : 0.0;
    }
};

/**
 * The per-flow random draws of §4 — client address, client port and
 * the synthesized TCP state — in the order expandFlow consumes them.
 */
struct FlowHeader
{
    uint32_t clientIp = 0;
    uint16_t clientPort = 0;
    uint32_t clientSeq = 0;
    uint32_t serverSeq = 0;
    uint16_t clientIpId = 0;
    uint16_t serverIpId = 0;
    uint16_t window = 0;
};

/** The §4 random source's seed (client addresses and ports, TCP
 *  state): every chunk's RNG stream derives from it. */
inline constexpr uint64_t decompressSeed = 0x5eedf10e;

/**
 * RNG stream seed of chunk @p chunk under decompressSeed — part of
 * the reconstruction contract: the reconstruction loop and the
 * random-access reader (src/query) must draw a chunk's packets from
 * the same stream to reconstruct the same bytes, whichever subset of
 * chunks they expand.
 */
uint64_t chunkRngSeed(size_t chunk);

/**
 * The reconstruction units of a Datasets, the one owner of the rule
 * that splits and seeds them (FORMAT.md §6): chunk c covers the
 * time-seq records [offsets[c], offsets[c + 1]) and draws from the
 * RNG stream seed(c) = chunkRngSeed(c). A legacy unchunked layout
 * (FCC1, unchunked FCC3: no chunkSizes) is one chunk over every
 * record seeded with decompressSeed itself — the single sequential
 * stream those archives were written against.
 * Views the datasets, which must outlive it.
 */
struct ChunkStreams
{
    /** @throws fcc::util::Error when the chunk sizes disagree with
     *  the time-seq dataset. */
    explicit ChunkStreams(const Datasets &datasets);

    size_t size() const { return offsets.size() - 1; }

    std::span<const TimeSeqRecord>
    records(size_t c) const
    {
        return timeSeq.subspan(offsets[c], offsets[c + 1] - offsets[c]);
    }

    uint64_t
    seed(size_t c) const
    {
        return legacy ? decompressSeed : chunkRngSeed(c);
    }

    std::span<const TimeSeqRecord> timeSeq;
    std::vector<size_t> offsets;  ///< size() + 1 record offsets
    bool legacy;
};

/**
 * What expandChunk() keeps of one record's flow. Skip only draws the
 * flow's FlowHeader, so the RNG stream advances as in a full
 * expansion.
 */
enum class RecordFilter : uint8_t { Skip, All, PerPacket };

/** expandChunk()'s filter: a verdict per record and, for PerPacket
 *  records, keep(record index, packet timestampUs()). */
struct ChunkFilter
{
    std::span<const RecordFilter> verdicts;
    std::function<bool(size_t, uint64_t)> keep;
};

/** Flows of one expandChunk(): not skipped, and with a packet kept. */
struct ChunkCounts
{
    uint64_t flowsExpanded = 0;
    uint64_t flowsMatched = 0;
};

/** The proposed flow-clustering trace compressor. */
class FccTraceCompressor : public TraceCompressor
{
  public:
    explicit FccTraceCompressor(const FccConfig &cfg = {});

    std::string name() const override { return "fcc"; }
    bool lossless() const override { return false; }

    std::vector<uint8_t>
    compress(const trace::Trace &trace) const override;

    trace::Trace
    decompress(std::span<const uint8_t> data) const override;

    /**
     * compress() and additionally report cluster statistics. Like
     * compress(), this feeds @p trace into a single-epoch
     * CompressSession and seals it: the bytes equal what
     * compressTraceFile() or a session fed the same packets writes.
     *
     * @throws fcc::util::Error if @p trace is not time-ordered.
     */
    std::vector<uint8_t>
    compressWithStats(const trace::Trace &trace,
                      FccCompressStats &stats) const;

    /**
     * The datasets compress() serializes, unserialized: the closed
     * epoch of a single-epoch CompressSession fed @p trace
     * (CompressSession::sealDatasets()).
     */
    Datasets
    buildDatasets(const trace::Trace &trace,
                  FccCompressStats &stats) const;

    /**
     * Expand in-memory datasets into a reconstructed trace:
     * expandInto() appending to one vector reserved to the exact
     * packet count, so memory holds the output plus one batch of
     * chunks and the carry. Expansion depends only on the chunk
     * layout, never on the container that carried it — equal
     * layouts reconstruct identical packets.
     */
    trace::Trace expand(const Datasets &datasets) const;

    /**
     * The one reconstruction loop, behind expand(), decompress() and
     * DecompressSession::drainTo: every packet of @p datasets goes to
     * @p emit in trace::packetCanonicalLess order, in blocks of at
     * most trace::canonicalMergeBlock. Batches of 2 × threads chunks
     * expand on one pool (@p pool, whose size then stands for the
     * thread count, or one that lives for the call), each chunk into a
     * sorted run; one streaming merge (trace::mergeCanonicalRuns)
     * joins them with the carry of earlier batches, emits what is
     * older than the next batch's first record and carries the rest.
     * Records are time-sorted, so no later chunk can produce an older
     * packet — unless a reconstructed timestamp passes UINT64_MAX ns
     * (some record's flowSpan() is unknown): then nothing leaves
     * before the last batch.
     *
     * Every chunk takes expandChunk()'s three steps. A batch of at
     * least as many chunks as threads expands one chunk per job; a
     * batch of fewer (a one-chunk archive at 2 threads or more)
     * expands each chunk in turn across the whole pool, its records
     * cut into 2 × threads ranges of equal packet counts, when it
     * holds trace::canonicalRadixMinPackets packets or more. A
     * chunk's run is its packets of the same serial RNG pass, fully
     * sorted under a total order, so the bytes never depend on the
     * thread count.
     *
     * @throws fcc::util::Error on flow-fidelity datasets (no
     *         per-packet data) or a malformed layout.
     */
    void expandInto(const Datasets &datasets,
                    const trace::PacketSpanSink &emit,
                    util::ThreadPool *pool = nullptr) const;

    /**
     * The one chunk expander, behind expandInto() and the query:
     * @p records (one chunk) drawn from the RNG stream @p rngSeed,
     * as one run in trace::packetCanonicalLess order that replaces
     * @p out. Each packet is counted into a bucket by the top 8 bits
     * of its time since the chunk's first packet (of its absolute
     * time when a record's flowSpan() is unknown), written straight
     * to its slot of one exact-size buffer, and each bucket is
     * sorted in place. @p classes and @p facts are
     * ClassTable(datasets.weights) and templateFacts(). Without
     * @p pool every step runs on the calling thread; with it, as up
     * to 2 × pool->size() jobs (records cut into ranges of about
     * equal packet counts). A job of @p pool must not pass it: its
     * parallelFor would wait on itself.
     *
     * @throws fcc::util::Error as expandFlow().
     */
    ChunkCounts
    expandChunk(const Datasets &datasets,
                const flow::ClassTable &classes,
                const TemplateFactTable &facts,
                std::span<const TimeSeqRecord> records, uint64_t rngSeed,
                std::vector<trace::PacketRecord> &out,
                const ChunkFilter *filter = nullptr,
                util::ThreadPool *pool = nullptr) const;

    /**
     * Expand one time-seq record into its flow's packets, appended
     * to @p out in flow order (not globally time-sorted). @p classes
     * decodes the S values (flow::ClassTable of datasets.weights,
     * built once per reconstruction); @p rng supplies the §4 random
     * source address / client port. expandChunk() emits these same
     * packets; tests use this as its reference.
     *
     * @throws fcc::util::Error on an out-of-range template or
     *         address index, or an S value that does not decode.
     */
    void
    expandFlow(const Datasets &datasets,
               const flow::ClassTable &classes,
               const TimeSeqRecord &record, util::Rng &rng,
               std::vector<trace::PacketRecord> &out) const;

    /**
     * Draw one flow's FlowHeader from @p rng — every draw expandFlow
     * makes. A reader that skips a flow calls this instead of
     * expandFlow, so the next flow sees the same RNG state either
     * way.
     */
    static FlowHeader drawFlowHeader(util::Rng &rng);

    const FccConfig &config() const { return cfg_; }

  private:
    FccConfig cfg_;
};

/**
 * Serialize @p datasets into the container cfg.container selects,
 * honouring cfg.backend, cfg.fidelity, cfg.index and cfg.threads
 * (FCC3 column jobs run on a pool when threads allow; output is
 * byte-identical at any thread count). The chunk layout is
 * datasets.chunkSizes; datasets that arrive without one (decoded
 * from a legacy unchunked archive, or built by hand) are sliced by
 * cfg.chunkRecords first, as a session without time cuts would have
 * sliced them. Every compression entry point writes through here.
 * @p breakdown reports the serialized sizes; @p columns, when
 * non-null, receives the FCC3 per-column accounting (cleared for
 * FCC2).
 */
std::vector<uint8_t>
serializeDatasets(const Datasets &datasets, const FccConfig &cfg,
                  SizeBreakdown &breakdown,
                  std::vector<ColumnStat> *columns = nullptr);

/**
 * Decode any FCC artifact: unwraps the legacy whole-blob zlib
 * hybrid wrapper, auto-detects the container by magic, and runs
 * FCC3 column decode jobs on up to @p threads workers (0 = all
 * cores; the row formats parse sequentially either way), or on
 * @p pool when given. The in-memory decompressor, the streaming
 * decompressor and fcctool all decode through this one entry point.
 */
Datasets deserializeAuto(std::span<const uint8_t> data,
                         uint32_t threads,
                         ContainerStat *stat = nullptr,
                         util::ThreadPool *pool = nullptr);

} // namespace fcc::codec::fcc

#endif // FCC_CODEC_FCC_FCC_CODEC_HPP
