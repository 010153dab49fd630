/**
 * @file
 * The optional chunk/flow index block of the FCC3 container — what
 * makes an .fcc archive *seekable*.
 *
 * An indexed FCC3 file frames its five time-seq columns per chunk
 * (so every chunk is an independently decodable byte range) and
 * appends an index block: per chunk, the byte range of its column
 * frames plus a summary a reader can plan against without touching
 * any column payload — record/packet counts, the first-packet and
 * reconstructed-last-packet timestamps, the largest flow, and a
 * Bloom fingerprint set over the server addresses of the flows the
 * chunk expands. A fixed 16-byte footer at the end of the file
 * locates the block, so `mmap + read the tail` is all it costs to
 * open an archive for random access.
 *
 * The byte-level layout is normative in docs/FORMAT.md §5. The
 * random-access reader lives in src/query/; this module owns the
 * index data model and its (de)serialization, shared by the writer
 * (datasets::serializeColumnar) and every reader.
 */

#ifndef FCC_CODEC_FCC_INDEX_HPP
#define FCC_CODEC_FCC_INDEX_HPP

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace fcc::codec::fcc {

struct Datasets;

/** Footer magic "FCCX" (little-endian u32 at the very end of file). */
constexpr uint32_t indexFooterMagic = 0x58434346u;

/** Fixed footer: u64 payload length + u32 CRC-32 + u32 magic. */
constexpr size_t indexFooterBytes = 16;

/** Version byte opening the index payload. */
constexpr uint8_t indexVersion = 1;

/**
 * High bit of the FCC3 column-count byte: set when the time-seq
 * columns are chunk-framed and an index block trails the frames.
 * Files without the bit are laid out exactly as before PR 5.
 */
constexpr uint8_t indexedLayoutFlag = 0x80;

/** Bloom sizing: bits per *distinct* server address in a chunk. */
constexpr uint32_t bloomBitsPerServer = 10;

/** Bloom probes per membership test. */
constexpr uint32_t bloomProbes = 5;

/**
 * Precomputed Bloom double-hash pair of one server address. Hashing
 * dominates a probe, and a query tests the same address against
 * every chunk of every archive — fingerprint once, probe many.
 */
struct ServerFingerprint
{
    uint64_t h1 = 0;
    uint64_t h2 = 1;
};

/** Fingerprint @p serverIp for ChunkSummary::mayContain(). */
ServerFingerprint serverFingerprint(uint32_t serverIp);

/**
 * Build a Bloom filter of @p bits bits (power of two, >= 64) over
 * @p servers. Hashes the whole batch before touching the filter (the
 * hash loop auto-vectorizes).
 */
std::vector<uint8_t> bloomBuild(std::span<const uint32_t> servers,
                                uint32_t bits);

/**
 * Per-chunk entry of the index: where the chunk's column frames live
 * and what a predicate can rule out without decoding them.
 */
struct ChunkSummary
{
    uint64_t byteOffset = 0;   ///< file offset of the chunk's frames
    uint64_t byteLength = 0;   ///< total bytes of its five frames
    uint64_t records = 0;      ///< time-seq records (flows)
    uint64_t packets = 0;      ///< packets the chunk expands to
    uint64_t maxFlowPackets = 0;  ///< largest flow in the chunk
    uint64_t minFirstUs = 0;   ///< first record's timestamp
    /**
     * Upper bound on the last reconstructed packet's timestamp,
     * computed with ArchiveIndex::gapUs (long flows replay exact
     * inter-packet times, so theirs is exact).
     */
    uint64_t maxEndUs = 0;
    uint32_t bloomBits = 0;    ///< filter size in bits (power of two)
    std::vector<uint8_t> bloom;  ///< bloomBits/8 filter bytes

    /**
     * May any flow of this chunk have the server of @p fp (see
     * serverFingerprint()) as its stored destination address? False
     * positives at the configured Bloom rate (~1 %); never false
     * negatives. Fingerprinting once lets a planner test one address
     * against many chunks.
     */
    bool mayContain(const ServerFingerprint &fp) const;

    /** May the chunk's packets overlap [t0Us, t1Us] (inclusive)? */
    bool
    overlapsTime(uint64_t t0Us, uint64_t t1Us) const
    {
        return minFirstUs <= t1Us && maxEndUs >= t0Us;
    }
};

/** The whole index block of one archive. */
struct ArchiveIndex
{
    /** Timing assumption of maxEndUs: the writer's
     *  reconstructionGapUs. A reader trusts the time bounds only when
     *  this is at least the gap it reconstructs with. */
    uint32_t gapUs = 0;
    std::vector<ChunkSummary> chunks;

    uint64_t
    totalRecords() const
    {
        uint64_t n = 0;
        for (const ChunkSummary &c : chunks)
            n += c.records;
        return n;
    }
};

/**
 * Build the per-chunk summaries (everything except the byte ranges,
 * which only the serializer knows) for @p datasets, one per chunk
 * of datasets.chunkSizes, with end bounds under reconstructionGapUs.
 * @throws fcc::util::Error when the chunk layout or a template is
 *         inconsistent with the datasets.
 */
ArchiveIndex buildArchiveIndex(const Datasets &datasets);

/**
 * Serialize @p index as the on-wire block: payload, CRC-32 and the
 * 16-byte footer, ready to append after the last column frame.
 */
std::vector<uint8_t> serializeArchiveIndex(const ArchiveIndex &index);

/**
 * Total bytes (payload + footer) the index block occupies at the
 * tail of @p file. Validates only the footer: magic plus a payload
 * length that fits the file.
 * @throws fcc::util::Error when the footer is missing or malformed —
 *         callers reach here only for files whose header flags an
 *         indexed layout, where a bad footer means the column-frame
 *         region cannot even be delimited.
 */
uint64_t indexRegionBytes(std::span<const uint8_t> file);

/**
 * Parse the index block at the tail of @p file.
 *
 * @returns std::nullopt when the file simply has no index footer.
 * @throws fcc::util::Error when a footer is present but the block is
 *         corrupt (CRC mismatch, bad version, truncated or
 *         inconsistent summaries) — readers that can should catch
 *         this and fall back to a full decode.
 */
std::optional<ArchiveIndex>
readArchiveIndex(std::span<const uint8_t> file);

} // namespace fcc::codec::fcc

#endif // FCC_CODEC_FCC_INDEX_HPP
