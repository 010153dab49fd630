/**
 * @file
 * Chunk/flow index block of seekable FCC3 archives: summary
 * construction (timing bounds from the reconstruction rule, Bloom
 * fingerprints over server addresses) and the byte-exact block
 * serialization specified in docs/FORMAT.md §5.
 */

#include "codec/fcc/index.hpp"

#include <algorithm>
#include <bit>

#include "codec/fcc/datasets.hpp"
#include "util/bytes.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace fcc::codec::fcc {

namespace {

/** Bloom double-hash streams; the constants are normative (FORMAT.md). */
constexpr uint64_t bloomSeed1 = 0xA0761D6478BD642Full;
constexpr uint64_t bloomSeed2 = 0xE7037ED1A0B428DBull;

uint64_t
bloomHash1(uint32_t serverIp)
{
    return util::mix64(bloomSeed1 ^ serverIp);
}

uint64_t
bloomHash2(uint32_t serverIp)
{
    // Forced odd so the probe stride is coprime with the
    // power-of-two filter size.
    return util::mix64(bloomSeed2 ^ serverIp) | 1;
}

/** Smallest power-of-two filter >= 10 bits per distinct server. */
uint32_t
bloomSizeBits(size_t distinctServers)
{
    uint64_t want = std::max<uint64_t>(
        64, uint64_t{bloomBitsPerServer} * distinctServers);
    return static_cast<uint32_t>(std::bit_ceil(want));
}

void
bloomInsert(std::vector<uint8_t> &bloom, uint32_t bits,
            const ServerFingerprint &fp)
{
    for (uint32_t i = 0; i < bloomProbes; ++i) {
        uint64_t bit = (fp.h1 + uint64_t{i} * fp.h2) & (bits - 1);
        bloom[bit >> 3] |= static_cast<uint8_t>(1u << (bit & 7));
    }
}

} // namespace

ServerFingerprint
serverFingerprint(uint32_t serverIp)
{
    return {bloomHash1(serverIp), bloomHash2(serverIp)};
}

std::vector<uint8_t>
bloomBuild(std::span<const uint32_t> servers, uint32_t bits)
{
    std::vector<uint8_t> bloom(size_t{bits} / 8, 0);
    // Hash the batch first: the mix64 loop is branch-free and
    // auto-vectorizes; only the (scattered, cheap) bit sets stay
    // serial.
    std::vector<ServerFingerprint> fps(servers.size());
    for (size_t i = 0; i < servers.size(); ++i)
        fps[i] = serverFingerprint(servers[i]);
    for (const ServerFingerprint &fp : fps)
        bloomInsert(bloom, bits, fp);
    return bloom;
}

bool
ChunkSummary::mayContain(const ServerFingerprint &fp) const
{
    if (bloomBits == 0 ||
        bloom.size() != size_t{bloomBits} / 8)
        return true;  // unusable filter: never rule a chunk out
    for (uint32_t i = 0; i < bloomProbes; ++i) {
        uint64_t bit = (fp.h1 + uint64_t{i} * fp.h2) & (bloomBits - 1);
        if ((bloom[bit >> 3] & (1u << (bit & 7))) == 0)
            return false;
    }
    return true;
}

ArchiveIndex
buildArchiveIndex(const Datasets &d)
{
    // Per-template packet counts and timing facts, so every record's
    // reconstructed end timestamp is O(1) under the §4 timing rule
    // (flowSpan). Payload sizes do not enter the span. Flow-tier
    // records carry their packet counts and durations themselves.
    bool flowTier = d.fidelity == Fidelity::Flow;
    TemplateFactTable facts = templateFacts(d);
    struct RecordFacts
    {
        uint64_t firstUs = 0;
        uint64_t endUs = 0;  ///< UINT64_MAX when unknown: never prunes
        uint64_t packets = 0;
        uint32_t addressIndex = 0;
    };
    auto factsOf = [&](size_t i) {
        if (flowTier) {
            const FlowRecord &fl = d.flowRecords[i];
            uint64_t endUs;
            if (__builtin_add_overflow(fl.firstTimestampUs,
                                       fl.durationUs, &endUs))
                endUs = UINT64_MAX;
            return RecordFacts{fl.firstTimestampUs, endUs, fl.packets,
                               fl.addressIndex};
        }
        const TimeSeqRecord &r = d.timeSeq[i];
        const TemplateFacts &f = facts.of(r.isLong, r.templateIndex);
        std::optional<FlowSpan> span = flowSpan(f, r);
        return RecordFacts{r.firstTimestampUs,
                           span ? span->lastUs : UINT64_MAX, f.packets,
                           r.addressIndex};
    };

    ArchiveIndex index;
    index.gapUs = reconstructionGapUs;
    index.chunks.reserve(d.chunkSizes.size());
    size_t records = d.records();
    size_t rec = 0;
    std::vector<uint32_t> servers;  // distinct servers of one chunk
    for (uint32_t count : d.chunkSizes) {
        util::require(count >= 1, "fcc index: empty chunk");
        util::require(rec + count <= records,
                      "fcc index: chunk sizes disagree with the "
                      "records");
        ChunkSummary summary;
        summary.records = count;
        servers.clear();
        for (size_t i = rec; i < rec + count; ++i) {
            RecordFacts f = factsOf(i);
            if (i == rec)
                summary.minFirstUs = f.firstUs;
            summary.packets += f.packets;
            summary.maxFlowPackets =
                std::max(summary.maxFlowPackets, f.packets);
            summary.maxEndUs = std::max(summary.maxEndUs, f.endUs);
            util::require(f.addressIndex < d.addresses.size(),
                          "fcc index: address index out of range");
            servers.push_back(d.addresses[f.addressIndex]);
        }
        std::sort(servers.begin(), servers.end());
        servers.erase(std::unique(servers.begin(), servers.end()),
                      servers.end());

        summary.bloomBits = bloomSizeBits(servers.size());
        summary.bloom = bloomBuild(servers, summary.bloomBits);

        index.chunks.push_back(std::move(summary));
        rec += count;
    }
    util::require(rec == records,
                  "fcc index: chunk sizes disagree with the records");
    return index;
}

std::vector<uint8_t>
serializeArchiveIndex(const ArchiveIndex &index)
{
    util::ByteWriter w;
    w.u8(indexVersion);
    w.varint(index.chunks.size());
    w.varint(index.gapUs);
    for (const ChunkSummary &c : index.chunks) {
        w.varint(c.byteOffset);
        w.varint(c.byteLength);
        w.varint(c.records);
        w.varint(c.packets);
        w.varint(c.maxFlowPackets);
        w.varint(c.minFirstUs);
        w.varint(c.maxEndUs);
        w.varint(c.bloomBits);
        w.bytes(c.bloom.data(), c.bloom.size());
    }
    std::vector<uint8_t> payload = w.take();

    util::ByteWriter out;
    out.bytes(payload.data(), payload.size());
    out.u64(payload.size());
    out.u32(util::Crc32::of(payload));
    out.u32(indexFooterMagic);
    return out.take();
}

uint64_t
indexRegionBytes(std::span<const uint8_t> file)
{
    util::require(file.size() >= indexFooterBytes,
                  "fcc index: file too short for the footer");
    util::ByteReader footer(
        file.data() + file.size() - indexFooterBytes,
        indexFooterBytes);
    uint64_t payloadLen = footer.u64();
    footer.u32();  // CRC: checked by readArchiveIndex, not here
    util::require(footer.u32() == indexFooterMagic,
                  "fcc index: footer magic missing");
    util::require(payloadLen <= file.size() - indexFooterBytes,
                  "fcc index: footer length exceeds file");
    return payloadLen + indexFooterBytes;
}

std::optional<ArchiveIndex>
readArchiveIndex(std::span<const uint8_t> file)
{
    if (file.size() < indexFooterBytes)
        return std::nullopt;
    {
        util::ByteReader footer(
            file.data() + file.size() - indexFooterBytes,
            indexFooterBytes);
        footer.u64();
        footer.u32();
        if (footer.u32() != indexFooterMagic)
            return std::nullopt;
    }
    uint64_t region = indexRegionBytes(file);  // validates the length
    size_t payloadLen =
        static_cast<size_t>(region - indexFooterBytes);
    std::span<const uint8_t> payload =
        file.subspan(file.size() - region, payloadLen);

    util::ByteReader footer(
        file.data() + file.size() - indexFooterBytes,
        indexFooterBytes);
    footer.u64();
    uint32_t storedCrc = footer.u32();
    util::require(util::Crc32::of(payload) == storedCrc,
                  "fcc index: CRC mismatch");

    util::ByteReader r(payload);
    util::require(r.u8() == indexVersion,
                  "fcc index: unknown index version");
    ArchiveIndex index;
    uint64_t chunks = r.varint();
    // One summary is at least 8 one-byte varints plus 8 Bloom bytes
    // (the 64-bit minimum filter); a count the payload cannot hold
    // is corruption — reject it before reserving by it.
    util::require(chunks <= payload.size() / 16,
                  "fcc index: chunk count exceeds payload");
    index.gapUs = static_cast<uint32_t>(r.varint());
    index.chunks.reserve(static_cast<size_t>(chunks));
    for (uint64_t i = 0; i < chunks; ++i) {
        ChunkSummary c;
        c.byteOffset = r.varint();
        c.byteLength = r.varint();
        c.records = r.varint();
        c.packets = r.varint();
        c.maxFlowPackets = r.varint();
        c.minFirstUs = r.varint();
        c.maxEndUs = r.varint();
        uint64_t bits = r.varint();
        util::require(bits >= 64 && bits <= (uint64_t{1} << 30) &&
                          std::has_single_bit(bits),
                      "fcc index: bad Bloom filter size");
        util::require(c.records >= 1, "fcc index: empty chunk");
        util::require(c.maxFlowPackets >= 1 &&
                          c.maxFlowPackets <= c.packets &&
                          c.records <= c.packets,
                      "fcc index: inconsistent packet counts");
        util::require(c.minFirstUs <= c.maxEndUs,
                      "fcc index: inverted time range");
        // Check the payload holds the filter before sizing by it: a
        // tiny corrupt index must not make the reader allocate 2^27
        // bytes first.
        util::require(bits / 8 <= r.remaining(),
                      "fcc index: Bloom filter size exceeds payload");
        c.bloomBits = static_cast<uint32_t>(bits);
        c.bloom.resize(static_cast<size_t>(bits / 8));
        r.bytes(c.bloom.data(), c.bloom.size());
        index.chunks.push_back(std::move(c));
    }
    util::require(r.exhausted(), "fcc index: trailing payload bytes");
    return index;
}

} // namespace fcc::codec::fcc
