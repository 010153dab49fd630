/**
 * @file
 * The flow-clustering compressor (§3) and decompressor (§4):
 * assemble flows, match short-flow SF vectors against the
 * template store, store long flows verbatim, then regenerate
 * packets from templates + time-seq records on decompression.
 * Optionally DEFLATEs the serialized datasets.
 *
 * Compression runs as a sharded pipeline: connections are
 * partitioned by 5-tuple hash into flowTable.shards shards, each
 * shard assembles/characterizes/clusters independently (and
 * concurrently on cfg.threads workers), then a deterministic merge
 * reclusters the per-shard template centres in shard order, remaps
 * template indices and emits the time-seq dataset in canonical flow
 * order. Because the shard count and merge order are fixed by the
 * config — never by the thread count — compressed output is
 * byte-identical at any thread count.
 */

#include "codec/fcc/fcc_codec.hpp"

#include <algorithm>
#include <memory>
#include <tuple>
#include <unordered_map>

#include "codec/deflate/deflate.hpp"
#include "codec/fcc/index.hpp"
#include "flow/template_store.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fcc::codec::fcc {

namespace {

/**
 * RTT estimate of a short flow: the gap at the first direction
 * change (e.g. SYN -> SYN+ACK), the paper's acknowledgment
 * dependence time. Zero when the flow never changes direction.
 */
uint32_t
estimateRttUs(const flow::AssembledFlow &flow,
              const trace::Trace &trace)
{
    for (size_t i = 1; i < flow.size(); ++i) {
        if (flow.fromClient[i] != flow.fromClient[i - 1]) {
            uint64_t delta =
                trace[flow.packetIndex[i]].timestampUs() -
                trace[flow.packetIndex[i - 1]].timestampUs();
            return static_cast<uint32_t>(
                std::min<uint64_t>(delta, 0xffffffffu));
        }
    }
    return 0;
}

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

} // namespace

uint64_t
chunkRngSeed(uint64_t decompressSeed, size_t chunk)
{
    return util::hashCombine(decompressSeed, chunk);
}

const char *
containerFormatName(ContainerFormat container)
{
    switch (container) {
      case ContainerFormat::Fcc1:
        return "fcc1";
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
    const ContainerFormat all[] = {ContainerFormat::Fcc1,
                                   ContainerFormat::Fcc2,
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
      case ContainerFormat::Fcc1:
      case ContainerFormat::Fcc2:
      case ContainerFormat::Fcc3:
        break;
      default:
        throw util::Error("fcc: bad container format");
    }
    util::require(static_cast<uint8_t>(backend) <
                      backend::entropyBackendCount,
                  "fcc: bad entropy backend tag");
    util::require(!index || container == ContainerFormat::Fcc3,
                  "fcc: the chunk/flow index requires the fcc3 "
                  "container");
    util::require(!index || chunkRecords > 0,
                  "fcc3: the index requires a chunked time-seq "
                  "layout (chunkRecords > 0)");
    util::require(weights.decodable(),
                  "fcc: weights are not uniquely decodable");
    util::require(flowTable.shards > 0,
                  "fcc: the sharded pipeline needs at least one "
                  "shard");
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
    std::vector<uint8_t> bytes;
    switch (cfg.container) {
      case ContainerFormat::Fcc1:
        bytes = serialize(datasets, breakdown);
        break;
      case ContainerFormat::Fcc2:
        bytes = serializeChunked(datasets, cfg.chunkRecords,
                                 breakdown);
        break;
      case ContainerFormat::Fcc3: {
        unsigned threads = util::resolveThreads(cfg.threads);
        std::unique_ptr<util::ThreadPool> pool;
        if (threads > 1)
            pool = std::make_unique<util::ThreadPool>(threads);
        IndexOptions indexOptions;
        indexOptions.gapUs = cfg.defaultGapUs;
        // Degrade to the configured tier just before serialization,
        // so assembly, chunking, and the index all see the same
        // (already-lossy) datasets.
        if (cfg.fidelity != Fidelity::Exact) {
            FidelityParams params;
            params.quantumUs = cfg.quantumUs;
            params.smallPayload = cfg.smallPayload;
            params.largePayload = cfg.largePayload;
            params.defaultGapUs = cfg.defaultGapUs;
            Datasets degraded =
                applyFidelity(datasets, cfg.fidelity, params);
            return serializeColumnar(
                degraded, cfg.chunkRecords, cfg.backend, breakdown,
                pool.get(), columns,
                cfg.index ? &indexOptions : nullptr);
        }
        // The per-column backends supersede the whole-blob squeeze.
        return serializeColumnar(datasets, cfg.chunkRecords,
                                 cfg.backend, breakdown, pool.get(),
                                 columns,
                                 cfg.index ? &indexOptions : nullptr);
      }
      default:
        throw util::Error("fcc: bad container format");
    }
    if (cfg.deflateDatasets)
        bytes = deflate::zlibCompress(bytes);
    return bytes;
}

Datasets
deserializeAuto(std::span<const uint8_t> data, uint32_t threads,
                ContainerStat *stat)
{
    // The hybrid container wraps a row stream in zlib: CMF 0x78;
    // the plain formats start with 'F' of "FCC".
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
    util::require(cfg_.flowTable.shards >= 1,
                  "fcc: shard count must be >= 1");
    // 0 means auto; anything explicit must be sane (catches signed
    // garbage like --threads -1 wrapped through uint32_t).
    util::require(cfg_.threads <= 1024,
                  "fcc: thread count out of range (max 1024)");
}

Datasets
FccTraceCompressor::buildDatasets(const trace::Trace &trace,
                                  FccCompressStats &stats) const
{
    util::require(trace.isTimeOrdered(),
                  "fcc: input trace must be time-ordered");
    stats = FccCompressStats{};

    unsigned threads = util::resolveThreads(cfg_.threads);
    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 1)
        pool = std::make_unique<util::ThreadPool>(threads);

    flow::FlowTable table(cfg_.flowTable);
    auto shardFlows = table.assembleSharded(trace, pool.get());
    size_t shards = shardFlows.size();

    // Per-flow output of a shard, slim enough to merge cheaply.
    struct ShardFlow
    {
        uint64_t firstNs = 0;
        uint64_t firstUs = 0;
        flow::FlowKey key;
        uint32_t serverIp = 0;
        uint32_t localTemplate = 0;  ///< shard-local index
        uint32_t rttUs = 0;
        bool isLong = false;
    };
    struct ShardOut
    {
        std::vector<ShardFlow> flows;
        std::vector<flow::SfVector> shortTemplates;
        std::vector<LongTemplate> longTemplates;
    };
    std::vector<ShardOut> shardOut(shards);

    // Characterize + cluster each shard independently; results land
    // in the shard's own slot, so the outcome does not depend on
    // scheduling.
    auto processShard = [&](size_t s) {
        flow::Characterizer chi(cfg_.weights);
        flow::TemplateStore store(cfg_.rule);
        ShardOut &out = shardOut[s];
        out.flows.reserve(shardFlows[s].size());
        for (const auto &flow : shardFlows[s]) {
            flow::SfVector sf = chi.characterize(flow, trace);
            ShardFlow o;
            o.firstNs = flow.firstTimestampNs;
            o.firstUs =
                trace[flow.packetIndex.front()].timestampUs();
            o.key = flow.key;
            o.serverIp = flow.serverIp;
            if (flow.size() <= cfg_.shortLimit) {
                o.localTemplate = store.findOrInsert(sf).index;
                o.rttUs = estimateRttUs(flow, trace);
            } else {
                o.isLong = true;
                LongTemplate tmpl;
                tmpl.sValues = sf.values;
                tmpl.iptUs.resize(flow.size());
                tmpl.iptUs[0] = 0;
                for (size_t i = 1; i < flow.size(); ++i)
                    tmpl.iptUs[i] =
                        trace[flow.packetIndex[i]].timestampUs() -
                        trace[flow.packetIndex[i - 1]].timestampUs();
                o.localTemplate = static_cast<uint32_t>(
                    out.longTemplates.size());
                out.longTemplates.push_back(std::move(tmpl));
            }
            out.flows.push_back(o);
        }
        out.shortTemplates = store.all();
    };
    if (pool)
        pool->parallelFor(shards, processShard);
    else
        for (size_t s = 0; s < shards; ++s)
            processShard(s);

    // ---- Deterministic merge (sequential, cheap) ----
    Datasets d;
    d.weights = cfg_.weights;

    // Recluster the shard cluster centres into one global store in
    // shard order; remap[s][t] is shard s's template t globally.
    flow::TemplateStore global(cfg_.rule);
    std::vector<std::vector<uint32_t>> remap(shards);
    for (size_t s = 0; s < shards; ++s) {
        remap[s].reserve(shardOut[s].shortTemplates.size());
        for (const auto &tmpl : shardOut[s].shortTemplates)
            remap[s].push_back(global.findOrInsert(tmpl).index);
    }

    // Canonical global flow order (the same key assembleIndices
    // sorted each shard by — the shared helper keeps the two from
    // drifting apart). Each shard's list is already sorted, so a
    // k-way merge over the shard heads recovers the global order
    // without a full sort; the linear scan over the (small, fixed)
    // shard count per emitted flow is cheaper than a heap here.
    auto canonicalKey = [](const ShardFlow &f) {
        return flow::canonicalFlowOrderKey(f.firstNs, f.key);
    };
    size_t totalFlows = 0;
    for (const auto &out : shardOut)
        totalFlows += out.flows.size();
    std::vector<size_t> cursor(shards, 0);

    std::unordered_map<uint32_t, uint32_t> addrIndex;
    addrIndex.reserve(1024);
    d.timeSeq.reserve(totalFlows);
    for (size_t emitted = 0; emitted < totalFlows; ++emitted) {
        size_t s = shards;  // shard holding the smallest head
        for (size_t cand = 0; cand < shards; ++cand) {
            if (cursor[cand] >= shardOut[cand].flows.size())
                continue;
            if (s == shards ||
                canonicalKey(shardOut[cand].flows[cursor[cand]]) <
                    canonicalKey(shardOut[s].flows[cursor[s]]))
                s = cand;
        }
        ShardFlow &o = shardOut[s].flows[cursor[s]++];
        TimeSeqRecord rec;
        rec.firstTimestampUs = o.firstUs;

        auto [it, isNewAddr] = addrIndex.try_emplace(
            o.serverIp, static_cast<uint32_t>(d.addresses.size()));
        if (isNewAddr)
            d.addresses.push_back(o.serverIp);
        rec.addressIndex = it->second;

        ++stats.flows;
        if (!o.isLong) {
            ++stats.shortFlows;
            rec.isLong = false;
            rec.templateIndex = remap[s][o.localTemplate];
            rec.rttUs = o.rttUs;
        } else {
            ++stats.longFlows;
            rec.isLong = true;
            rec.templateIndex =
                static_cast<uint32_t>(d.longTemplates.size());
            d.longTemplates.push_back(
                std::move(shardOut[s].longTemplates[o.localTemplate]));
        }
        d.timeSeq.push_back(rec);
    }

    stats.shortTemplatesCreated = global.size();
    stats.shortTemplateHits =
        stats.shortFlows - stats.shortTemplatesCreated;
    d.shortTemplates = global.all();
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
    util::require(d.fidelity != Fidelity::Flow,
                  "fcc: flow-fidelity archives carry no per-packet "
                  "data to reconstruct");
    // Canonical total order (not a bare time sort): every expansion
    // path — in-memory, streaming flush, query merge — must emit
    // equal-timestamp packets identically for reconstruction to be
    // byte-exact across containers and thread counts. Each chunk is
    // a sorted run built on the pool; one merge orders them all.
    std::vector<std::vector<trace::PacketRecord>> runs;
    if (d.chunkSizes.empty()) {
        // Legacy FCC1: one sequential RNG stream over all records.
        runs.resize(1);
        util::Rng rng(cfg_.decompressSeed);
        for (const auto &rec : d.timeSeq)
            expandFlow(d, rec, rng, runs[0]);
        trace::sortCanonical(runs[0]);
    } else {
        runs.resize(d.chunkSizes.size());
        util::runJobs(cfg_.threads, runs.size(), [&](size_t c) {
            expandChunk(d, c, runs[c]);
        });
    }
    return trace::Trace(trace::mergeCanonicalRuns(std::move(runs)));
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

uint16_t
FccTraceCompressor::payloadOf(flow::SizeClass size) const
{
    if (size == flow::SizeClass::Small)
        return cfg_.smallPayload;
    if (size == flow::SizeClass::Large)
        return cfg_.largePayload;
    return 0;
}

const TemplateFacts &
TemplateFactTable::of(bool isLong, uint64_t index) const
{
    const std::vector<TemplateFacts> &facts =
        isLong ? longFacts : shortFacts;
    util::require(index < facts.size(),
                  "fcc: template index out of range");
    return facts[index];
}

TemplateFactTable
FccTraceCompressor::templateFacts(const Datasets &d) const
{
    flow::Characterizer chi(d.weights);
    auto factsOf = [&](const std::vector<uint16_t> &sValues) {
        TemplateFacts f;
        f.packets = sValues.size();
        for (size_t i = 0; i < sValues.size(); ++i) {
            flow::PacketClass cls = chi.decode(sValues[i]);
            f.wireBytes += 40 + payloadOf(cls.size);
            if (i > 0 && cls.dependent)
                ++f.dependent;
        }
        return f;
    };
    TemplateFactTable table;
    table.shortFacts.reserve(d.shortTemplates.size());
    for (const flow::SfVector &t : d.shortTemplates)
        table.shortFacts.push_back(factsOf(t.values));
    table.longFacts.reserve(d.longTemplates.size());
    for (const LongTemplate &t : d.longTemplates) {
        util::require(t.iptUs.size() == t.sValues.size(),
                      "fcc: long template IPT/S length mismatch");
        TemplateFacts f = factsOf(t.sValues);
        // expandFlow adds iptUs[i] for i >= 1 only.
        for (size_t i = 1; i < t.iptUs.size(); ++i)
            if (__builtin_add_overflow(f.iptSumUs, t.iptUs[i],
                                       &f.iptSumUs))
                f.iptSumUs = UINT64_MAX;
        table.longFacts.push_back(f);
    }
    return table;
}

std::optional<FlowSpan>
FccTraceCompressor::flowSpan(const TemplateFacts &facts,
                             const TimeSeqRecord &rec) const
{
    if (facts.packets == 0)
        return std::nullopt;
    // The same steps expandFlow takes, with every overflow caught:
    // expandFlow's sums wrap, so past a wrap the packets no longer
    // sit between the first and the last timestamp.
    uint64_t stepsUs = facts.iptSumUs;
    if (!rec.isLong) {
        uint64_t rttPart, gapPart;
        if (__builtin_mul_overflow(facts.dependent,
                                   uint64_t{rec.rttUs}, &rttPart) ||
            __builtin_mul_overflow(facts.packets - 1 - facts.dependent,
                                   uint64_t{cfg_.defaultGapUs},
                                   &gapPart) ||
            __builtin_add_overflow(rttPart, gapPart, &stepsUs))
            return std::nullopt;
    }
    FlowSpan span;
    span.firstUs = rec.firstTimestampUs;
    if (__builtin_add_overflow(span.firstUs, stepsUs, &span.lastUs))
        return std::nullopt;
    // A packet stores timestampUs * 1000 in nanoseconds.
    if (span.lastUs > UINT64_MAX / 1000)
        return std::nullopt;
    return span;
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
            // and others by a small fixed gap (§4). flowSpan mirrors
            // this rule.
            if (i > 0) {
                if (rec.isLong)
                    t += (*iptUs)[i];
                else
                    t += cls.dependent ? rec.rttUs : cfg_.defaultGapUs;
            }

            uint16_t payload = payloadOf(cls.size);

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
    const Datasets &d, size_t chunk,
    std::vector<trace::PacketRecord> &out) const
{
    util::require(d.fidelity != Fidelity::Flow,
                  "fcc: flow-fidelity archives carry no per-packet "
                  "data to reconstruct");
    util::require(chunk < d.chunkSizes.size(),
                  "fcc: chunk index out of range");
    size_t begin = 0;
    for (size_t c = 0; c < chunk; ++c)
        begin += d.chunkSizes[c];
    size_t end = begin + d.chunkSizes[chunk];
    util::require(end <= d.timeSeq.size(),
                  "fcc: chunk sizes disagree with time-seq");

    // One RNG stream per chunk, seeded from (decompressSeed, chunk
    // index): chunks expand in any order — or in parallel — and
    // still produce the same packets.
    util::Rng rng(chunkRngSeed(cfg_.decompressSeed, chunk));
    // Exact-size the run (a flow expands to one packet per S value):
    // a batch of doubling-grown runs would otherwise hold up to
    // twice its packets. Bad indices are left to expandFlow.
    size_t packets = 0;
    for (size_t i = begin; i < end; ++i) {
        const TimeSeqRecord &rec = d.timeSeq[i];
        if (rec.isLong && rec.templateIndex < d.longTemplates.size())
            packets += d.longTemplates[rec.templateIndex].sValues.size();
        else if (!rec.isLong &&
                 rec.templateIndex < d.shortTemplates.size())
            packets += d.shortTemplates[rec.templateIndex].values.size();
    }
    out.clear();
    out.reserve(packets);
    for (size_t i = begin; i < end; ++i)
        expandFlow(d, d.timeSeq[i], rng, out);
    trace::sortCanonical(out);
}

trace::Trace
FccTraceCompressor::decompress(std::span<const uint8_t> data) const
{
    return expand(deserializeAuto(data, cfg_.threads));
}

} // namespace fcc::codec::fcc
