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
#include <atomic>
#include <bit>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

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

/**
 * The §4 timing rule, packet by packet: visit(i, cls, tUs) for every
 * packet i of @p rec's flow, in flow order. Long flows replay exact
 * inter-packet times; short flows space dependent packets by the
 * flow RTT and the others by reconstructionGapUs. expandFlow and the
 * chunk expander's count step both take each packet's time from
 * here; flowSpan() is the same rule in closed form.
 */
template <class Visit>
void
walkFlow(const Datasets &d, const flow::ClassTable &classes,
         const TimeSeqRecord &rec, Visit &&visit)
{
    util::require(rec.templateIndex <
                      (rec.isLong ? d.longTemplates.size()
                                  : d.shortTemplates.size()),
                  "fcc: time-seq template index out of range");
    const std::vector<uint16_t> &sValues =
        rec.isLong ? d.longTemplates[rec.templateIndex].sValues
                   : d.shortTemplates[rec.templateIndex].values;
    const uint64_t *iptUs = nullptr;
    if (rec.isLong) {
        const std::vector<uint64_t> &ipt =
            d.longTemplates[rec.templateIndex].iptUs;
        util::require(ipt.size() == sValues.size(),
                      "fcc: long template IPT/S length mismatch");
        iptUs = ipt.data();
    }
    uint64_t t = rec.firstTimestampUs;
    for (size_t i = 0; i < sValues.size(); ++i) {
        const flow::PacketClass &cls = classes[sValues[i]];
        if (i > 0)
            t += iptUs ? iptUs[i]
                       : (cls.dependent ? rec.rttUs
                                        : uint64_t{reconstructionGapUs});
        visit(i, cls, t);
    }
}

/**
 * The packets of @p rec's flow (§4), each passed to emit(pkt) in flow
 * order: FccTraceCompressor::expandFlow appends them to a vector, the
 * chunk expander writes each straight to its slot.
 */
template <class Emit>
void
emitFlow(const FccConfig &cfg, const Datasets &d,
         const flow::ClassTable &classes, const TimeSeqRecord &rec,
         util::Rng &rng, Emit &&emit)
{
    util::require(rec.addressIndex < d.addresses.size(),
                  "fcc: time-seq address index out of range");
    // Paper §4: server address from the address dataset, server
    // port 80; the client side is the flow's random header.
    uint32_t serverIp = d.addresses[rec.addressIndex];
    FlowHeader h = FccTraceCompressor::drawFlowHeader(rng);
    uint32_t cSeq = h.clientSeq;
    uint32_t sSeq = h.serverSeq;
    uint16_t cIpId = h.clientIpId;
    uint16_t sIpId = h.serverIpId;
    bool fromClient = true;
    walkFlow(d, classes, rec,
             [&](size_t i, const flow::PacketClass &cls, uint64_t t) {
        // Direction chain: the dependence bit says whether the
        // direction flipped; the first packet's direction comes from
        // its flag class.
        if (i == 0)
            fromClient = cls.flag != flow::FlagClass::SynAck;
        else if (cls.dependent)
            fromClient = !fromClient;

        uint16_t payload = representativePayload(cls.size);

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
        pkt.window = h.window;
        // §4 addressing: every packet of the flow carries the stored
        // destination and the flow's random source (the
        // direction-aware variant swaps them for s->c packets).
        bool addrAsClient = fromClient || !cfg.directionAwareAddresses;
        if (addrAsClient) {
            pkt.srcIp = h.clientIp;
            pkt.dstIp = serverIp;
            pkt.srcPort = h.clientPort;
            pkt.dstPort = reconstructionServerPort;
            pkt.seq = cSeq;
            pkt.ack = (flags & Ack) ? sSeq : 0;
            pkt.ipId = cIpId++;
            cSeq += payload;
            if (flags & (Syn | Fin))
                ++cSeq;
        } else {
            pkt.srcIp = serverIp;
            pkt.dstIp = h.clientIp;
            pkt.srcPort = reconstructionServerPort;
            pkt.dstPort = h.clientPort;
            pkt.seq = sSeq;
            pkt.ack = (flags & Ack) ? cSeq : 0;
            pkt.ipId = sIpId++;
            sSeq += payload;
            if (flags & (Syn | Fin))
                ++sSeq;
        }
        emit(pkt);
    });
}

/**
 * Cut items 0 .. weights.size() - 1 into at most @p parts
 * contiguous ranges of about equal total weight; returns the cut
 * points, from 0 to weights.size().
 */
std::vector<size_t>
balancedCuts(std::span<const size_t> weights, size_t parts)
{
    size_t total = 0;
    for (size_t w : weights)
        total += w;
    std::vector<size_t> cuts(1, 0);
    size_t acc = 0;
    for (size_t i = 0; i + 1 < weights.size(); ++i) {
        acc += weights[i];
        if (cuts.size() < parts && acc * parts >= total * cuts.size())
            cuts.push_back(i + 1);
    }
    cuts.push_back(weights.size());
    return cuts;
}

/** body(0) ... body(count - 1) on @p pool, or inline in index order
 *  without one. */
void
runOn(util::ThreadPool *pool, size_t count,
      const std::function<void(size_t)> &body)
{
    if (pool) {
        pool->parallelFor(count, body);
    } else {
        for (size_t i = 0; i < count; ++i)
            body(i);
    }
}

/**
 * What one reconstruction decodes once and every chunk shares: the
 * chunk layout, the S-value class table, the template facts and the
 * pool — the caller's, or one that starts on first use and is joined
 * when the reconstruction ends.
 */
struct Expansion
{
    Expansion(const FccTraceCompressor &codec, const Datasets &d,
              util::ThreadPool *shared)
        : codec(codec), d(d), chunks(d), classes(d.weights),
          facts(templateFacts(d)),
          threads(shared ? shared->size()
                         : util::resolveThreads(codec.config().threads)),
          shared(shared)
    {}

    /** The caller's pool, or one started on first use. */
    util::ThreadPool &
    workers()
    {
        if (shared)
            return *shared;
        if (!pool)
            pool.emplace(threads);
        return *pool;
    }

    /** Chunk @p c into @p out, across @p pool when given. */
    void
    expand(size_t c, util::ThreadPool *pool,
           std::vector<trace::PacketRecord> &out) const
    {
        codec.expandChunk(d, classes, facts, chunks.records(c),
                          chunks.seed(c), out, nullptr, pool);
    }

    /** True when no reconstructed timestamp passes UINT64_MAX ns. */
    bool
    spansKnown() const
    {
        for (const TimeSeqRecord &rec : d.timeSeq)
            if (!flowSpan(facts.of(rec.isLong, rec.templateIndex), rec))
                return false;
        return true;
    }

    const FccTraceCompressor &codec;
    const Datasets &d;
    ChunkStreams chunks;
    flow::ClassTable classes;
    TemplateFactTable facts;
    unsigned threads;
    util::ThreadPool *shared;
    std::optional<util::ThreadPool> pool;
};

} // namespace

uint64_t
chunkRngSeed(size_t chunk)
{
    return util::hashCombine(decompressSeed, chunk);
}

ChunkStreams::ChunkStreams(const Datasets &d)
    : timeSeq(d.timeSeq), offsets(1, 0), legacy(d.chunkSizes.empty())
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
    // 0 means auto; anything explicit must be sane (catches signed
    // garbage like --threads -1 wrapped through uint32_t): a session
    // starts a shard and a worker per thread.
    util::require(threads <= 1024,
                  "fcc: thread count out of range (max 1024)");
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
                  std::vector<ColumnStat> *columns,
                  util::ThreadPool *pool)
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

    std::unique_ptr<util::ThreadPool> owned;
    unsigned threads = util::resolveThreads(cfg.threads);
    if (!pool && threads > 1) {
        owned = std::make_unique<util::ThreadPool>(threads);
        pool = owned.get();
    }
    // Degrade to the configured tier just before serialization, so
    // the columns and the index see the same (already-lossy)
    // datasets; the tier keeps the layout.
    if (cfg.fidelity != Fidelity::Exact)
        return serializeColumnar(
            applyFidelity(*d, cfg.fidelity, cfg.quantumUs), cfg.backend,
            breakdown, pool, columns, cfg.index);
    return serializeColumnar(*d, cfg.backend, breakdown, pool, columns,
                             cfg.index);
}

Datasets
deserializeAuto(std::span<const uint8_t> data, uint32_t threads,
                ContainerStat *stat, util::ThreadPool *pool)
{
    // The legacy hybrid container wraps a row stream in zlib: CMF
    // 0x78; the plain formats start with 'F' of "FCC".
    std::vector<uint8_t> inflated;
    if (!data.empty() && data[0] == 0x78) {
        inflated = deflate::zlibDecompress(data);
        data = inflated;
    }
    // Only the columnar container has parallel decode jobs; without
    // the caller's pool they get one of their own, scoped here.
    std::unique_ptr<util::ThreadPool> owned;
    unsigned workers = util::resolveThreads(threads);
    if (!pool && workers > 1 && data.size() >= 4 && data[3] == '3') {
        owned = std::make_unique<util::ThreadPool>(workers);
        pool = owned.get();
    }
    return deserialize(data, pool, stat);
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
    cfg_.validate();
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
                               const trace::PacketSpanSink &emit,
                               util::ThreadPool *pool) const
{
    requirePacketFidelity(d);
    Expansion x(*this, d, pool);
    const ChunkStreams &chunks = x.chunks;
    size_t batchChunks = size_t{x.threads} * 2;
    bool flushEarly = chunks.size() > batchChunks && x.spansKnown();
    std::vector<trace::PacketRecord> carry;
    for (size_t base = 0; base < chunks.size(); base += batchChunks) {
        size_t end = std::min(chunks.size(), base + batchChunks);
        std::vector<std::vector<trace::PacketRecord>> runs(
            end - base + 1);
        if (end - base < x.threads) {
            // Fewer chunks than threads: each chunk in turn, across
            // the whole pool from canonicalRadixMinPackets packets.
            for (size_t i = 0; i < end - base; ++i) {
                bool big = expandedPackets(d, chunks.records(base + i)) >=
                           trace::canonicalRadixMinPackets;
                x.expand(base + i, big ? &x.workers() : nullptr, runs[i]);
            }
        } else {
            // One chunk per job, each expanded inline in its job.
            runOn(x.threads > 1 ? &x.workers() : nullptr, end - base,
                  [&](size_t i) { x.expand(base + i, nullptr, runs[i]); });
        }
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

/*
 * Records are cut into up to `parts` ranges of about equal packet
 * counts, and one serial pass over drawFlowHeader saves the RNG state
 * at each range start, so every range expands exactly the packets the
 * serial pass would. Count: each range counts its kept packets per
 * bucket with walkFlow, which fixes every (bucket, range) pair's
 * slots. Write: each range expands flow by flow, each kept packet to
 * its slot. Sort: buckets are disjoint in time, so sorting each one
 * in place leaves the buffer sorted.
 */
ChunkCounts
FccTraceCompressor::expandChunk(const Datasets &d,
                                const flow::ClassTable &classes,
                                const TemplateFactTable &facts,
                                std::span<const TimeSeqRecord> records,
                                uint64_t rngSeed,
                                std::vector<trace::PacketRecord> &out,
                                const ChunkFilter *filter,
                                util::ThreadPool *pool) const
{
    util::require(!filter || filter->verdicts.size() == records.size(),
                  "fcc: chunk filter and records disagree");
    // One job per range or bucket group: `parts` of each, at most.
    const size_t parts = pool ? size_t{pool->size()} * 2 : 1;
    auto verdict = [filter](size_t r) {
        return filter ? filter->verdicts[r] : RecordFilter::All;
    };
    auto kept = [filter](RecordFilter v, size_t r, uint64_t us) {
        return v != RecordFilter::PerPacket || filter->keep(r, us);
    };

    // Plan: each expanded record's packets and the time span of all.
    ChunkCounts flows;
    std::vector<size_t> packets(records.size(), 0);
    bool spansKnown = true;
    uint64_t firstUs = UINT64_MAX, lastUs = 0;
    for (size_t r = 0; r < records.size(); ++r) {
        if (verdict(r) == RecordFilter::Skip)
            continue;
        const TimeSeqRecord &rec = records[r];
        const TemplateFacts &f = facts.of(rec.isLong, rec.templateIndex);
        ++flows.flowsExpanded;
        packets[r] = f.packets;
        std::optional<FlowSpan> span = flowSpan(f, rec);
        spansKnown = spansKnown && span;
        if (span) {
            firstUs = std::min(firstUs, span->firstUs);
            lastUs = std::max(lastUs, span->lastUs);
        }
    }
    std::vector<size_t> cuts = balancedCuts(packets, parts);
    const size_t ranges = cuts.size() - 1;
    std::vector<util::Rng> rngs(1, util::Rng(rngSeed));
    for (size_t g = 1; g < ranges; ++g) {
        rngs.push_back(rngs.back());
        for (size_t r = cuts[g - 1]; r < cuts[g]; ++r)
            FccTraceCompressor::drawFlowHeader(rngs.back());
    }

    // The top 8 bits of timestampNs - baseNs pick a packet's bucket.
    // With a span unknown (a timestamp wraps past UINT64_MAX ns) the
    // key is the whole timestamp, as packetCanonicalLess compares it,
    // and so it is when no packet gives a span.
    uint64_t baseNs = 0;
    unsigned bits = 64;
    if (spansKnown && firstUs <= lastUs) {
        baseNs = firstUs * 1000;
        bits = static_cast<unsigned>(std::bit_width(lastUs * 1000 - baseNs));
    }
    const unsigned width = std::min(bits, 8u);
    const unsigned shift = bits - width;
    const size_t buckets = size_t{1} << width;
    auto bucketOf = [&](uint64_t ns) {
        size_t b = static_cast<size_t>((ns - baseNs) >> shift);
        util::require(b < buckets,
                      "fcc: packet outside its chunk's time span");
        return b;
    };

    // Count: row g of slot belongs to range g; row `ranges` is filled
    // below.
    std::vector<size_t> slot((ranges + 1) * buckets, 0);
    std::atomic<uint64_t> matched{0};
    runOn(pool, ranges, [&](size_t g) {
        size_t *count = &slot[g * buckets];
        uint64_t rangeMatched = 0;
        for (size_t r = cuts[g]; r < cuts[g + 1]; ++r) {
            RecordFilter v = verdict(r);
            if (v == RecordFilter::Skip)
                continue;
            bool any = false;
            walkFlow(d, classes, records[r],
                     [&](size_t, const flow::PacketClass &, uint64_t t) {
                uint64_t ns = t * 1000;
                if (kept(v, r, ns / 1000)) {
                    ++count[bucketOf(ns)];
                    any = true;
                }
            });
            rangeMatched += any;
        }
        matched += rangeMatched;
    });
    flows.flowsMatched = matched;
    // Bucket-major prefix sums: each (range, bucket) pair's first
    // slot, its last one just before the next row's. Row `ranges`
    // holds where each bucket ends.
    size_t at = 0;
    for (size_t b = 0; b < buckets; ++b) {
        for (size_t g = 0; g < ranges; ++g)
            at += std::exchange(slot[g * buckets + b], at);
        slot[ranges * buckets + b] = at;
    }

    // Write: each range's kept packets straight to their slots.
    out.assign(at, trace::PacketRecord{});
    runOn(pool, ranges, [&](size_t g) {
        std::vector<size_t> cursor(&slot[g * buckets],
                                   &slot[(g + 1) * buckets]);
        const size_t *end = &slot[(g + 1) * buckets];
        util::Rng rng = rngs[g];
        for (size_t r = cuts[g]; r < cuts[g + 1]; ++r) {
            RecordFilter v = verdict(r);
            if (v == RecordFilter::Skip) {
                FccTraceCompressor::drawFlowHeader(rng);
                continue;
            }
            emitFlow(cfg_, d, classes, records[r], rng,
                     [&](const trace::PacketRecord &pkt) {
                if (!kept(v, r, pkt.timestampUs()))
                    return;
                size_t b = bucketOf(pkt.timestampNs);
                util::require(cursor[b] < end[b],
                              "fcc: bucket overflow in chunk expansion");
                out[cursor[b]++] = pkt;
            });
        }
        for (size_t b = 0; b < buckets; ++b)
            util::require(cursor[b] == end[b],
                          "fcc: bucket underflow in chunk expansion");
    });

    // Sort: every bucket on its remaining key bits.
    std::vector<size_t> bucketSizes(buckets);
    for (size_t b = 0; b < buckets; ++b)
        bucketSizes[b] = slot[ranges * buckets + b] - slot[b];
    std::vector<size_t> groups = balancedCuts(bucketSizes, parts);
    runOn(pool, groups.size() - 1, [&](size_t g) {
        for (size_t b = groups[g]; b < groups[g + 1]; ++b)
            trace::sortCanonicalBucket(
                std::span(out).subspan(slot[b], bucketSizes[b]), baseNs,
                shift);
    });
    return flows;
}

void
FccTraceCompressor::expandFlow(const Datasets &d,
                               const flow::ClassTable &classes,
                               const TimeSeqRecord &rec,
                               util::Rng &rng,
                               std::vector<trace::PacketRecord> &out) const
{
    emitFlow(cfg_, d, classes, rec, rng,
             [&out](const trace::PacketRecord &pkt) { out.push_back(pkt); });
}

trace::Trace
FccTraceCompressor::decompress(std::span<const uint8_t> data) const
{
    return expand(deserializeAuto(data, cfg_.threads));
}

} // namespace fcc::codec::fcc
