/**
 * @file
 * The flow-clustering compressor (§3) and decompressor (§4):
 * assemble flows, match short-flow SF vectors against the
 * template store, store long flows verbatim, then regenerate
 * packets from templates + time-seq records on decompression.
 *
 * Compression is CompressSession's (session.hpp): compress(Trace)
 * feeds the whole trace into a single-epoch session and seals it, so
 * the in-memory, file and daemon entry points write the same bytes.
 * Threads only parallelize FCC3 column encoding and chunked
 * expansion, whose decompositions are fixed by the config, so output
 * is byte-identical at any thread count.
 */

#include "codec/fcc/fcc_codec.hpp"

#include <algorithm>
#include <memory>

#include "codec/deflate/deflate.hpp"
#include "codec/fcc/index.hpp"
#include "codec/fcc/session.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fcc::codec::fcc {

namespace {

/** Draw a random class B or C address (paper §4's source rule). */
uint32_t
drawClassBOrC(util::Rng &rng)
{
    if (rng.chance(0.5))
        return 0x80000000u |
               static_cast<uint32_t>(rng.uniformInt(0, 0x3fffffff));
    return 0xc0000000u |
           static_cast<uint32_t>(rng.uniformInt(0, 0x1fffffff));
}

void
requirePacketFidelity(const Datasets &d)
{
    util::require(d.fidelity != Fidelity::Flow,
                  "fcc: flow-fidelity archives carry no per-packet "
                  "data to reconstruct");
}

/**
 * Packets @p records expand to (one per S value). Bad template
 * indices count nothing here; expandFlow rejects them.
 */
size_t
expandedPackets(const Datasets &d,
                std::span<const TimeSeqRecord> records)
{
    size_t packets = 0;
    for (const TimeSeqRecord &rec : records) {
        if (rec.isLong && rec.templateIndex < d.longTemplates.size())
            packets += d.longTemplates[rec.templateIndex].sValues.size();
        else if (!rec.isLong &&
                 rec.templateIndex < d.shortTemplates.size())
            packets += d.shortTemplates[rec.templateIndex].values.size();
    }
    return packets;
}

/** True when no reconstructed timestamp passes UINT64_MAX ns. */
bool
spansKnown(const Datasets &d, uint32_t gapUs)
{
    TemplateFactTable facts = templateFacts(d, 0, 0);
    for (const TimeSeqRecord &rec : d.timeSeq)
        if (!flowSpan(facts.of(rec.isLong, rec.templateIndex), rec,
                      gapUs))
            return false;
    return true;
}

} // namespace

uint64_t
chunkRngSeed(uint64_t decompressSeed, size_t chunk)
{
    return util::hashCombine(decompressSeed, chunk);
}

ChunkStreams::ChunkStreams(const Datasets &d, uint64_t decompressSeed)
    : timeSeq(d.timeSeq), offsets(1, 0), decompressSeed(decompressSeed),
      legacy(d.chunkSizes.empty())
{
    if (legacy)
        offsets.push_back(d.timeSeq.size());
    for (uint32_t records : d.chunkSizes)
        offsets.push_back(offsets.back() + records);
    util::require(offsets.back() == d.timeSeq.size(),
                  "fcc: chunk sizes disagree with time-seq");
}

const char *
containerFormatName(ContainerFormat container)
{
    switch (container) {
      case ContainerFormat::Fcc2:
        return "fcc2";
      case ContainerFormat::Fcc3:
        return "fcc3";
    }
    return "?";
}

ContainerFormat
parseContainerName(const std::string &name)
{
    const ContainerFormat all[] = {ContainerFormat::Fcc2,
                                   ContainerFormat::Fcc3};
    for (ContainerFormat container : all)
        if (name == containerFormatName(container))
            return container;
    throw util::Error("unknown container format: " + name);
}

void
FccConfig::validate() const
{
    switch (container) {
      case ContainerFormat::Fcc2:
      case ContainerFormat::Fcc3:
        break;
      default:
        throw util::Error("fcc: bad container format");
    }
    util::require(static_cast<uint8_t>(backend) <
                      backend::entropyBackendCount,
                  "fcc: bad entropy backend tag");
    util::require(chunkRecords >= 1,
                  "fcc: chunkRecords must be >= 1 (every written "
                  "archive is chunked)");
    util::require(!index || container == ContainerFormat::Fcc3,
                  "fcc: the chunk/flow index requires the fcc3 "
                  "container");
    util::require(weights.decodable(),
                  "fcc: weights are not uniquely decodable");
    switch (fidelity) {
      case Fidelity::Exact:
      case Fidelity::Quantized:
      case Fidelity::Header:
      case Fidelity::Flow:
        break;
      default:
        throw util::Error("fcc: bad fidelity tier");
    }
    util::require(fidelity == Fidelity::Exact ||
                      container == ContainerFormat::Fcc3,
                  "fcc: lossy fidelity tiers require the fcc3 "
                  "container");
    util::require(fidelity != Fidelity::Quantized || quantumUs >= 1,
                  "fcc: the quantized tier needs a grid >= 1 us");
}

std::vector<uint8_t>
serializeDatasets(const Datasets &datasets, const FccConfig &cfg,
                  SizeBreakdown &breakdown,
                  std::vector<ColumnStat> *columns)
{
    if (columns != nullptr)
        columns->clear();
    cfg.validate();
    // A session always fixes the layout; only datasets decoded from
    // a legacy unchunked archive (or built by hand) arrive without
    // one, and get the slicing a session without time cuts applies.
    Datasets sliced;
    const Datasets *d = &datasets;
    if (datasets.chunkSizes.empty() && datasets.records() > 0) {
        sliced = datasets;
        sliced.chunkSizes =
            chunkLayout(datasets.records(), cfg.chunkRecords);
        d = &sliced;
    }
    if (cfg.container == ContainerFormat::Fcc2)
        return serializeChunked(*d, breakdown);

    unsigned threads = util::resolveThreads(cfg.threads);
    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 1)
        pool = std::make_unique<util::ThreadPool>(threads);
    IndexOptions indexOptions;
    indexOptions.gapUs = cfg.defaultGapUs;
    const IndexOptions *index = cfg.index ? &indexOptions : nullptr;
    // Degrade to the configured tier just before serialization, so
    // the columns and the index see the same (already-lossy)
    // datasets; the tier keeps the layout.
    if (cfg.fidelity != Fidelity::Exact) {
        FidelityParams params;
        params.quantumUs = cfg.quantumUs;
        params.smallPayload = cfg.smallPayload;
        params.largePayload = cfg.largePayload;
        params.defaultGapUs = cfg.defaultGapUs;
        return serializeColumnar(applyFidelity(*d, cfg.fidelity, params),
                                 cfg.backend, breakdown, pool.get(),
                                 columns, index);
    }
    return serializeColumnar(*d, cfg.backend, breakdown, pool.get(),
                             columns, index);
}

Datasets
deserializeAuto(std::span<const uint8_t> data, uint32_t threads,
                ContainerStat *stat)
{
    // The legacy hybrid container wraps a row stream in zlib: CMF
    // 0x78; the plain formats start with 'F' of "FCC".
    std::vector<uint8_t> inflated;
    if (!data.empty() && data[0] == 0x78) {
        inflated = deflate::zlibDecompress(data);
        data = inflated;
    }
    // Only the columnar container has parallel decode jobs; the
    // pool is scoped here so it is gone before any expansion pool
    // spins up.
    std::unique_ptr<util::ThreadPool> pool;
    unsigned workers = util::resolveThreads(threads);
    if (workers > 1 && data.size() >= 4 && data[3] == '3')
        pool = std::make_unique<util::ThreadPool>(workers);
    return deserialize(data, pool.get(), stat);
}

FccTraceCompressor::FccTraceCompressor(const FccConfig &cfg)
    : cfg_(cfg)
{
    // Validate eagerly: a bad weight vector should fail construction,
    // not the first compress() call.
    flow::Characterizer check(cfg_.weights);
    util::require(check.maxValue() <= 0xff,
                  "fcc: weights produce S values above one byte");
    util::require(cfg_.shortLimit >= 1,
                  "fcc: short/long split must be >= 1 packet");
    // 0 means auto; anything explicit must be sane (catches signed
    // garbage like --threads -1 wrapped through uint32_t).
    util::require(cfg_.threads <= 1024,
                  "fcc: thread count out of range (max 1024)");
}

Datasets
FccTraceCompressor::buildDatasets(const trace::Trace &trace,
                                  FccCompressStats &stats) const
{
    CompressSession session(cfg_);
    session.feed(trace.packets());
    Datasets d = session.sealDatasets();

    stats = FccCompressStats{};
    stats.flows = d.timeSeq.size();
    stats.longFlows = d.longTemplates.size();
    stats.shortFlows = stats.flows - stats.longFlows;
    // A cold store: every cluster was created by a flow that uses it.
    stats.shortTemplatesCreated = d.shortTemplates.size();
    stats.shortTemplateHits =
        stats.shortFlows - stats.shortTemplatesCreated;
    return d;
}

std::vector<uint8_t>
FccTraceCompressor::compressWithStats(const trace::Trace &trace,
                                      FccCompressStats &stats) const
{
    Datasets d = buildDatasets(trace, stats);
    return serializeDatasets(d, cfg_, stats.sizes);
}

std::vector<uint8_t>
FccTraceCompressor::compress(const trace::Trace &trace) const
{
    FccCompressStats stats;
    return compressWithStats(trace, stats);
}

trace::Trace
FccTraceCompressor::expand(const Datasets &d) const
{
    std::vector<trace::PacketRecord> packets;
    packets.reserve(expandedPackets(d, d.timeSeq));
    expandInto(d, [&packets](std::span<const trace::PacketRecord> block) {
        packets.insert(packets.end(), block.begin(), block.end());
    });
    return trace::Trace(std::move(packets));
}

void
FccTraceCompressor::expandInto(const Datasets &d,
                               const trace::PacketSpanSink &emit) const
{
    requirePacketFidelity(d);
    ChunkStreams chunks(d, cfg_.decompressSeed);
    size_t batchChunks = size_t{util::resolveThreads(cfg_.threads)} * 2;
    bool flushEarly =
        chunks.size() > batchChunks && spansKnown(d, cfg_.defaultGapUs);
    std::vector<trace::PacketRecord> carry;
    for (size_t base = 0; base < chunks.size(); base += batchChunks) {
        size_t end = std::min(chunks.size(), base + batchChunks);
        std::vector<std::vector<trace::PacketRecord>> runs(
            end - base + 1);
        util::runJobs(cfg_.threads, end - base, [&](size_t i) {
            expandChunk(d, chunks, base + i, runs[i]);
        });
        runs.back() = std::move(carry);
        carry = {};
        // Once no record is left, everything goes: a reconstructed
        // timestamp is a multiple of 1000 modulo 2^64, never ~0.
        size_t next = chunks.offsets[end];
        uint64_t limitNs = ~0ull;
        if (next < d.timeSeq.size())
            limitNs = flushEarly
                ? d.timeSeq[next].firstTimestampUs * 1000
                : 0;
        trace::mergeCanonicalRuns(std::move(runs), limitNs, emit, carry);
    }
}

FlowHeader
FccTraceCompressor::drawFlowHeader(util::Rng &rng)
{
    // Paper §4: client address random class B/C; client port random
    // ephemeral. The TCP state mirrors the workload generator. One
    // statement per draw: the order is part of the reconstruction.
    FlowHeader h;
    h.clientIp = drawClassBOrC(rng);
    h.clientPort = static_cast<uint16_t>(rng.uniformInt(1024, 65000));
    h.clientSeq = static_cast<uint32_t>(rng.next());
    h.serverSeq = static_cast<uint32_t>(rng.next());
    h.clientIpId = static_cast<uint16_t>(rng.next());
    h.serverIpId = static_cast<uint16_t>(rng.next());
    h.window = static_cast<uint16_t>(rng.uniformInt(16, 255) << 8);
    return h;
}

void
FccTraceCompressor::expandFlow(const Datasets &d,
                               const TimeSeqRecord &rec,
                               util::Rng &rng,
                               std::vector<trace::PacketRecord> &out) const
{
    flow::Characterizer chi(d.weights);
    {
        util::require(rec.templateIndex <
                          (rec.isLong ? d.longTemplates.size()
                                      : d.shortTemplates.size()),
                      "fcc: time-seq template index out of range");
        util::require(rec.addressIndex < d.addresses.size(),
                      "fcc: time-seq address index out of range");
        const std::vector<uint16_t> *sValues;
        const std::vector<uint64_t> *iptUs = nullptr;
        if (rec.isLong) {
            const LongTemplate &tmpl =
                d.longTemplates[rec.templateIndex];
            sValues = &tmpl.sValues;
            iptUs = &tmpl.iptUs;
        } else {
            sValues = &d.shortTemplates[rec.templateIndex].values;
        }

        // Paper §4: server address from the address dataset, server
        // port 80; the client side is the flow's random header.
        uint32_t serverIp = d.addresses[rec.addressIndex];
        FlowHeader h = drawFlowHeader(rng);
        uint32_t clientIp = h.clientIp;
        uint16_t clientPort = h.clientPort;
        uint32_t cSeq = h.clientSeq;
        uint32_t sSeq = h.serverSeq;
        uint16_t cIpId = h.clientIpId;
        uint16_t sIpId = h.serverIpId;
        uint16_t window = h.window;

        uint64_t t = rec.firstTimestampUs;
        bool fromClient = true;
        for (size_t i = 0; i < sValues->size(); ++i) {
            flow::PacketClass cls = chi.decode((*sValues)[i]);

            // Direction chain: the dependence bit says whether the
            // direction flipped; the first packet's direction comes
            // from its flag class.
            if (i == 0) {
                fromClient = cls.flag != flow::FlagClass::SynAck;
            } else if (cls.dependent) {
                fromClient = !fromClient;
            }

            // Timing: long flows replay exact inter-packet times;
            // short flows space dependent packets by the flow RTT
            // and others by a small fixed gap (§4). flowSpan()
            // mirrors this rule.
            if (i > 0) {
                if (rec.isLong)
                    t += (*iptUs)[i];
                else
                    t += cls.dependent ? rec.rttUs : cfg_.defaultGapUs;
            }

            uint16_t payload = representativePayload(
                cls.size, cfg_.smallPayload, cfg_.largePayload);

            uint8_t flags = 0;
            using namespace trace::tcp_flags;
            switch (cls.flag) {
              case flow::FlagClass::Syn:
                flags = Syn;
                break;
              case flow::FlagClass::SynAck:
                flags = Syn | Ack;
                break;
              case flow::FlagClass::Ack:
                flags = payload > 0 ? (Ack | Psh) : Ack;
                break;
              case flow::FlagClass::FinRst:
                flags = Fin | Ack;
                break;
            }

            trace::PacketRecord pkt;
            pkt.timestampNs = t * 1000ull;
            pkt.protocol = trace::ip_proto::Tcp;
            pkt.tcpFlags = flags;
            pkt.payloadBytes = payload;
            pkt.window = window;
            // §4 addressing: every packet of the flow carries the
            // stored destination and the flow's random source (the
            // direction-aware variant swaps them for s->c packets).
            bool addrAsClient =
                fromClient || !cfg_.directionAwareAddresses;
            if (addrAsClient) {
                pkt.srcIp = clientIp;
                pkt.dstIp = serverIp;
                pkt.srcPort = clientPort;
                pkt.dstPort = cfg_.serverPort;
                pkt.seq = cSeq;
                pkt.ack = (flags & Ack) ? sSeq : 0;
                pkt.ipId = cIpId++;
                cSeq += payload;
                if (flags & (Syn | Fin))
                    ++cSeq;
            } else {
                pkt.srcIp = serverIp;
                pkt.dstIp = clientIp;
                pkt.srcPort = cfg_.serverPort;
                pkt.dstPort = clientPort;
                pkt.seq = sSeq;
                pkt.ack = (flags & Ack) ? cSeq : 0;
                pkt.ipId = sIpId++;
                sSeq += payload;
                if (flags & (Syn | Fin))
                    ++sSeq;
            }
            out.push_back(pkt);
        }
    }
}

void
FccTraceCompressor::expandChunk(
    const Datasets &d, const ChunkStreams &chunks, size_t chunk,
    std::vector<trace::PacketRecord> &out) const
{
    requirePacketFidelity(d);
    util::require(chunk < chunks.size(), "fcc: chunk index out of range");
    std::span<const TimeSeqRecord> records = chunks.records(chunk);
    util::Rng rng(chunks.seed(chunk));
    // Exact-size the run: a batch of doubling-grown runs would
    // otherwise hold up to twice its packets.
    out.clear();
    out.reserve(expandedPackets(d, records));
    for (const TimeSeqRecord &rec : records)
        expandFlow(d, rec, rng, out);
    trace::sortCanonical(out);
}

trace::Trace
FccTraceCompressor::decompress(std::span<const uint8_t> data) const
{
    return expand(deserializeAuto(data, cfg_.threads));
}

} // namespace fcc::codec::fcc
