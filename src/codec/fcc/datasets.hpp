/**
 * @file
 * The four compressed datasets of the proposed method (paper §3) and
 * their wire formats:
 *
 *  - short-flows-template: for each cluster centre, the number of
 *    packets n followed by the n S-values;
 *  - long-flows-template: n followed by per-packet (S value,
 *    inter-packet time);
 *  - address: the unique destination (server) IP addresses;
 *  - time-seq: one record per flow, sorted by first-packet
 *    timestamp — dataset identifier (S/L), template index, the RTT
 *    (short flows only) and an index into the address dataset.
 *
 * Three containers carry them:
 *  - FCC1 (legacy, decode-only): one row-interleaved varint stream;
 *  - FCC2 (chunked): FCC1's encoding with the time-seq dataset
 *    framed into independently decodable chunks;
 *  - FCC3 (columnar): every dataset decomposed into typed columns,
 *    each column encoded by a field codec (codec/field) and squeezed
 *    by an entropy backend (codec/backend) — both chosen per column
 *    and recorded in one-byte tags, so a reader needs no out-of-band
 *    configuration. Optionally *indexed* (codec/fcc/index): the
 *    time-seq columns are then framed per chunk and a chunk/flow
 *    index block trails the frames, which is what the random-access
 *    query subsystem (src/query) seeks by.
 *
 * The byte-level layouts are normative in docs/FORMAT.md.
 */

#ifndef FCC_CODEC_FCC_DATASETS_HPP
#define FCC_CODEC_FCC_DATASETS_HPP

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "codec/backend/backend.hpp"
#include "codec/fcc/fidelity.hpp"
#include "codec/field/field_codec.hpp"
#include "flow/characterize.hpp"

namespace fcc::util {
class ThreadPool;
}

namespace fcc::codec::fcc {

/** One long-flow template: S values plus exact inter-packet times. */
struct LongTemplate
{
    std::vector<uint16_t> sValues;
    /** ipt[0] == 0; ipt[i] = t_i - t_{i-1} in microseconds. */
    std::vector<uint64_t> iptUs;

    bool operator==(const LongTemplate &) const = default;
};

/** One record of the time-seq dataset (≈ 8 bytes per flow, §5). */
struct TimeSeqRecord
{
    uint64_t firstTimestampUs = 0;
    bool isLong = false;          ///< dataset identifier S/L
    uint32_t templateIndex = 0;   ///< position in its template dataset
    uint32_t rttUs = 0;           ///< short flows only (§3)
    uint32_t addressIndex = 0;    ///< into the address dataset

    bool operator==(const TimeSeqRecord &) const = default;
};

/**
 * One record of the flow-fidelity profile (docs/FIDELITY.md): a flow
 * reduced to its aggregates. No per-packet data survives, so a
 * flow-tier archive can never be expanded back into packets — the
 * payload-byte and duration fields are computed at degrade time with
 * the §4 reconstruction rules, so they equal what an exact-tier
 * decode would have measured.
 */
struct FlowRecord
{
    uint64_t firstTimestampUs = 0;
    uint64_t payloadBytes = 0;  ///< sum of representative sizes
    uint64_t durationUs = 0;    ///< last - first reconstructed pkt
    uint32_t packets = 0;       ///< >= 1
    uint32_t addressIndex = 0;  ///< into the address dataset

    bool operator==(const FlowRecord &) const = default;
};

/** In-memory form of a compressed trace. */
struct Datasets
{
    flow::Weights weights;
    std::vector<flow::SfVector> shortTemplates;
    std::vector<LongTemplate> longTemplates;
    std::vector<uint32_t> addresses;
    std::vector<TimeSeqRecord> timeSeq;  ///< sorted by timestamp

    /**
     * Chunk layout: element c is the number of consecutive records
     * in chunk c (summing to records()). The compressing session
     * fixes it (chunkLayout()) and every writer stores it as it is;
     * it is empty only for datasets decoded from a legacy unchunked
     * archive. Chunks expand independently — each owns one RNG
     * stream — which is what lets decompression run multi-threaded
     * yet byte-deterministic.
     */
    std::vector<uint32_t> chunkSizes;

    /**
     * Fidelity tier these datasets carry (codec/fcc/fidelity.hpp).
     * Exact and the two per-packet lossy tiers use the fields above;
     * the Flow tier instead fills flowRecords (one per flow, sorted
     * by timestamp, counted by chunkSizes) and leaves the template
     * and time-seq datasets empty.
     */
    Fidelity fidelity = Fidelity::Exact;
    /** Quantized tier only: the timestamp grid in microseconds. */
    uint64_t quantumUs = 0;
    std::vector<FlowRecord> flowRecords;  ///< Flow tier only

    /** Records the chunk layout counts: flow records in the Flow
     *  tier, time-seq records otherwise. */
    size_t
    records() const
    {
        return fidelity == Fidelity::Flow ? flowRecords.size()
                                          : timeSeq.size();
    }
};

/**
 * The chunk layout of @p records records: the records split at each
 * of @p segmentEnds (ascending record positions, at most
 * @p records), then every segment sliced into chunks of
 * @p chunkRecords records, its last chunk shorter. Empty segments
 * give no chunk. The one place a layout is computed: the compressing
 * session calls it with its time cuts, serializeDatasets() without,
 * for datasets that arrive with no layout.
 * @throws fcc::util::Error when @p chunkRecords is 0 or the segment
 *         ends are out of order.
 */
std::vector<uint32_t> chunkLayout(size_t records, uint32_t chunkRecords,
                                  std::span<const size_t> segmentEnds = {});

/** Serialized size of each dataset, for the §5 accounting. */
struct SizeBreakdown
{
    uint64_t shortTemplateBytes = 0;
    uint64_t longTemplateBytes = 0;
    uint64_t addressBytes = 0;
    uint64_t timeSeqBytes = 0;
    uint64_t headerBytes = 0;
    /** Chunk/flow index block + footer (indexed FCC3 only). */
    uint64_t indexBytes = 0;

    uint64_t
    total() const
    {
        return shortTemplateBytes + longTemplateBytes + addressBytes +
               timeSeqBytes + headerBytes + indexBytes;
    }
};

/**
 * Per-column accounting of an FCC3 container: which field codec and
 * entropy backend the column chose, and how many bytes it occupies
 * before (encodedBytes) and after (storedBytes, including the
 * per-column framing) the entropy stage.
 */
struct ColumnStat
{
    std::string name;
    field::FieldCodec codec = field::FieldCodec::Plain;
    backend::EntropyBackend backend = backend::EntropyBackend::Store;
    uint64_t values = 0;
    uint64_t encodedBytes = 0;
    uint64_t storedBytes = 0;
};

/** What a container parse learned about the bytes on the wire. */
struct ContainerStat
{
    uint8_t version = 0;  ///< 1, 2 or 3
    /**
     * On-wire bytes per dataset. For FCC3 these are the *compressed*
     * column sizes (framing included), i.e. where the file's bytes
     * actually go — not the pre-backend serialized sizes.
     */
    SizeBreakdown sizes;
    /**
     * FCC3 only. In an indexed archive the five time-seq columns are
     * chunk-framed; their entries aggregate every chunk's frame
     * (values and bytes summed, codec/backend tags from the first
     * chunk — later chunks may choose differently).
     */
    std::vector<ColumnStat> columns;
    /** Indexed FCC3 layout; its bytes are in sizes.indexBytes. */
    bool hasIndex = false;
    /** Fidelity tier the header declares (FCC3 only; else Exact). */
    Fidelity fidelity = Fidelity::Exact;
    /** Quantized tier only: the declared timestamp grid (us). */
    uint64_t quantumUs = 0;
};

/**
 * Serialize to the chunked FCC2 wire format: the template and
 * address datasets are shared, the time-seq dataset is framed into
 * the chunks of datasets.chunkSizes, each prefixed with its record
 * count and byte length so a reader can expand chunks in parallel.
 * @throws fcc::util::Error when the layout does not cover the
 *         time-seq dataset.
 */
std::vector<uint8_t> serializeChunked(const Datasets &datasets,
                                      SizeBreakdown &breakdown);

/**
 * Serialize to the columnar FCC3 wire format: the datasets are
 * decomposed into typed columns (template lengths, concatenated S
 * values, inter-packet times, timestamps, flags, indices, chunk
 * layout), each encoded by the cost-cheapest field codec and then
 * squeezed by @p backend — per column, with an automatic fallback
 * to Store whenever the backend would expand the column. Column
 * encode jobs run on @p pool when given (results are byte-identical
 * with or without it). @p breakdown receives the on-wire
 * (post-backend) bytes per dataset; @p columns, when non-null, the
 * per-column accounting. The chunk layout is datasets.chunkSizes,
 * which must cover every record.
 *
 * With @p indexed the archive is written *seekable*: the
 * five time-seq columns are framed per chunk (each chunk an
 * independently decodable byte range) and a chunk/flow index block
 * (codec/fcc/index.hpp) is appended after the frames.
 */
std::vector<uint8_t>
serializeColumnar(const Datasets &datasets,
                  backend::EntropyBackend backend,
                  SizeBreakdown &breakdown,
                  util::ThreadPool *pool = nullptr,
                  std::vector<ColumnStat> *columns = nullptr,
                  bool indexed = false);

/**
 * Parse the FCC1, FCC2 or FCC3 wire format (auto-detected by magic);
 * FCC2/FCC3 fill Datasets::chunkSizes. FCC3 column decode jobs run
 * on @p pool when given; @p stat, when non-null, receives the
 * container version and on-wire size accounting.
 * @throws fcc::util::Error on malformed input.
 */
Datasets deserialize(std::span<const uint8_t> data,
                     util::ThreadPool *pool,
                     ContainerStat *stat = nullptr);

/** deserialize() without a thread pool. */
Datasets deserialize(std::span<const uint8_t> data);

// ---- FCC3 reader ----------------------------------------------------
//
// The one parser of the columnar container. deserialize() and the
// random-access reader (src/query) both read FCC3 through these three
// functions, so every check they make — framing, value counts, the
// per-record checks, the fidelity tier's rules — exists once, and an
// indexed query rejects exactly what a full decode rejects.

/** What the fixed head of an FCC3 file declares. */
struct Fcc3Header
{
    flow::Weights weights;
    Fidelity fidelity = Fidelity::Exact;
    uint64_t quantumUs = 0;  ///< Quantized tier only: the grid (us)
    /** Chunk-framed time-seq columns and a trailing index block. */
    bool indexed = false;
    size_t bytes = 0;        ///< header size; the first frame follows
};

/**
 * Read the FCC3 header at the start of @p data: magic, weights,
 * column byte, fidelity tag and parameter.
 * @returns std::nullopt when @p data does not start with the FCC3
 *          magic (another container, or the hybrid zlib wrapper).
 * @throws fcc::util::Error on a malformed FCC3 header.
 */
std::optional<Fcc3Header> readFcc3Header(std::span<const uint8_t> data);

/** The part of an indexed FCC3 file that every chunk depends on. */
struct Fcc3SharedRegion
{
    /**
     * Weights, fidelity tier, templates and addresses, with the
     * chunk layout in chunkSizes; the time-seq dataset and the flow
     * records stay empty — they live in the chunks.
     */
    Datasets shared;
    size_t chunksBegin = 0;  ///< file offset of the first chunk frame
    size_t chunksEnd = 0;    ///< file offset of the index block
};

/**
 * Read and decode the shared region of the indexed FCC3 file
 * @p data, whose header is @p header (header.indexed must be set).
 * @throws fcc::util::Error on malformed input.
 */
Fcc3SharedRegion readFcc3SharedRegion(std::span<const uint8_t> data,
                                      const Fcc3Header &header);

/** The records of one chunk, read by readFcc3Chunk(). */
struct Fcc3Chunk
{
    std::vector<TimeSeqRecord> timeSeq;   ///< per-packet tiers
    std::vector<FlowRecord> flowRecords;  ///< Flow tier
    uint64_t firstUs = 0;  ///< first record's timestamp
    uint64_t lastUs = 0;   ///< last record's timestamp
    /** Stored bytes of the frames that were decoded. */
    uint64_t bytesDecoded = 0;
};

/**
 * Which frames of a chunk readFcc3Chunk() decodes. A frame left out
 * is still framed and its value count checked, but its payload is
 * not decoded: the records then carry 0 in its field (timestamps,
 * rttUs / durationUs), and the checks on that field are skipped —
 * for readers that never use it.
 */
struct ChunkColumns
{
    bool time = true;  ///< ts_time
    bool rtt = true;   ///< ts_rtt (the flow tier's durations)
};

/**
 * Read chunk @p chunk of an indexed FCC3 file: @p bytes is exactly
 * its five column frames, and @p region (its shared region) gives
 * its record count. Every frame's value count is checked against
 * that record count before anything is decoded; the records then
 * pass the same per-record checks deserialize() applies —
 * sortedness, dataset identifier, template and address range,
 * 32-bit caps, the RTT split and the Quantized grid.
 * @throws fcc::util::Error on malformed input.
 */
Fcc3Chunk readFcc3Chunk(std::span<const uint8_t> bytes,
                        const Fcc3SharedRegion &region, size_t chunk,
                        ChunkColumns decode = {});

/**
 * The time-seq dataset stays sorted across chunk boundaries: a
 * reader holding two adjacent chunks checks the later one's first
 * timestamp against the earlier one's last.
 * @throws fcc::util::Error when @p laterFirstUs < @p earlierLastUs.
 */
void requireChunkOrder(uint64_t earlierLastUs, uint64_t laterFirstUs);

// ---- §4 reconstruction facts ------------------------------------------

/** Payload bytes of a reconstructed size-class-1 (Small) packet. */
inline constexpr uint16_t smallPayloadBytes = 400;
/** Payload bytes of a reconstructed size-class-2 (Large) packet. */
inline constexpr uint16_t largePayloadBytes = 1460;
/** Spacing of a short flow's non-dependent packets, in µs. */
inline constexpr uint32_t reconstructionGapUs = 300;
/** Server port of every reconstructed flow (§4: Web traffic). */
inline constexpr uint16_t reconstructionServerPort = 80;

/** Representative payload of a size class (§4). */
inline uint16_t
representativePayload(flow::SizeClass size)
{
    if (size == flow::SizeClass::Small)
        return smallPayloadBytes;
    if (size == flow::SizeClass::Large)
        return largePayloadBytes;
    return 0;
}

/** What expanding one template yields, known without expanding it. */
struct TemplateFacts
{
    uint64_t packets = 0;    ///< flow length (one packet per S value)
    uint64_t wireBytes = 0;  ///< Σ 40 B header + representative payload
    /** Short templates: packets after the first spaced by the RTT
     *  (the rest are spaced by the reconstruction gap). */
    uint64_t dependent = 0;
    /** Long templates: Σ inter-packet times after the first packet,
     *  saturating at UINT64_MAX. */
    uint64_t iptSumUs = 0;
};

/** TemplateFacts of every template of one Datasets. */
struct TemplateFactTable
{
    std::vector<TemplateFacts> shortFacts;
    std::vector<TemplateFacts> longFacts;

    /** Facts of template @p index of the long or short dataset.
     *  @throws fcc::util::Error when the index is out of range. */
    const TemplateFacts &of(bool isLong, uint64_t index) const;
};

/**
 * The facts of every template of @p datasets.
 * @throws fcc::util::Error on a long template whose IPT and S
 *         lengths differ.
 */
TemplateFactTable templateFacts(const Datasets &datasets);

/** Inclusive span of a flow's reconstructed timestamps. */
struct FlowSpan
{
    uint64_t firstUs = 0;
    uint64_t lastUs = 0;
};

/**
 * The §4 timing rule: the exact timestamp span of the packets the
 * reconstruction produces for @p record, whose template has
 * @p facts — short flows end at first + dependent·rtt +
 * others·reconstructionGapUs, long flows at first + Σipt. Empty
 * when that cannot be promised: an empty flow, a span that
 * overflows 64 bits, or a last timestamp whose nanosecond value
 * wraps. An unknown span never prunes.
 */
std::optional<FlowSpan> flowSpan(const TemplateFacts &facts,
                                 const TimeSeqRecord &record);

} // namespace fcc::codec::fcc

#endif // FCC_CODEC_FCC_DATASETS_HPP
