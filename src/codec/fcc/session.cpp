/**
 * @file
 * Session-based compression/decompression: the one compressor every
 * entry point runs on (FccTraceCompressor::compress, the one-shot
 * wrappers of stream.cpp, the archiver daemon of src/archive), and
 * the §4 bounded-memory flush of the read side. The flow-closing
 * rules are the paper's §3, shared with flow::FlowTable through
 * flow::Connection and flow::OpenFlowIndex.
 */

#include "codec/fcc/session.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <tuple>
#include <utility>

#include "trace/tsh.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/io.hpp"

namespace fcc::codec::fcc {

/**
 * Incremental single-flow state: enough to classify packets online
 * (the dependence bit only needs the previous packet's direction)
 * and to emit the flow's datasets entry when it closes.
 */
struct CompressSession::OpenFlow
{
    explicit OpenFlow(const trace::PacketRecord &first)
        : conn(first), firstNs(first.timestampNs)
    {
    }

    /** Start over as a new flow at @p first, keeping the buffers. */
    void
    restart(const trace::PacketRecord &first)
    {
        conn = flow::Connection(first);
        firstNs = first.timestampNs;
        prevFromClient = true;
        rttUs = 0;
        sValues.clear();
        packetUs.clear();
    }

    flow::Connection conn;
    uint64_t firstNs = 0;
    bool prevFromClient = true;
    uint32_t rttUs = 0;  ///< first direction-change gap
    std::vector<uint16_t> sValues;
    std::vector<uint64_t> packetUs;
};

/**
 * A flow a shard closed, waiting for the serial merge: everything
 * the merge needs, so the shard's OpenFlow can serve the next flow.
 */
struct CompressSession::Close
{
    Close(uint32_t closing, const flow::FlowKey &flowKey,
          const OpenFlow &flowState)
        : packet(closing), key(flowKey), firstNs(flowState.firstNs),
          serverIp(flowState.conn.serverIp), rttUs(flowState.rttUs)
    {
    }

    /** Index in the dispatch of the packet that closed the flow.
     *  An idle expiry and the close of the flow restarted at the
     *  same packet share it; both are one shard's, in that order. */
    uint32_t packet = 0;
    flow::FlowKey key;
    uint64_t firstNs = 0;
    uint32_t serverIp = 0;
    uint32_t rttUs = 0;
    /** Short flow: its S values, at Shard::values[valuesAt...]. */
    uint32_t valuesAt = 0;
    uint32_t length = 0;
    /** Long flow: its position in Shard::longs, else noLong. */
    uint32_t longAt = 0;
    /** Short flow: the closest template of the store as it stood
     *  when the dispatch began (TemplateStore::find). */
    std::optional<flow::TemplateMatch> match;
};

/** One shard's open flows and what it closed this dispatch, on
 *  cache lines of its own: each shard's worker writes it per packet. */
struct alignas(64) CompressSession::Shard
{
    flow::OpenFlowIndex<OpenFlow> open;
    std::vector<Close> closes;  ///< in merge order
    std::vector<uint16_t> values;
    std::vector<LongTemplate> longs;
};

namespace {

/** templateRemap_ entry of a store template not referenced yet. */
constexpr uint32_t unmappedTemplate = ~0u;

/** Close::longAt of a short flow. */
constexpr uint32_t noLong = ~0u;

/** Packets a shard picks its own from at a time. */
constexpr size_t shardBlockPackets = 4096;

/**
 * The shard of @p pkt among @p shards: a hash of its 5-tuple that
 * both directions of a connection share.
 */
uint16_t
shardOf(const trace::PacketRecord &pkt, size_t shards)
{
    // Fibonacci hashing: the product's high half depends on every
    // bit of the tuple, and one multiply keeps the caller's pass
    // over the dispatch short.
    uint64_t h = ((static_cast<uint64_t>(pkt.srcIp ^ pkt.dstIp) << 32) |
                  (static_cast<uint64_t>(pkt.srcPort ^ pkt.dstPort)
                   << 8) |
                  pkt.protocol) *
                 0x9e3779b97f4a7c15ull;
    return static_cast<uint16_t>(((h >> 32) * shards) >> 32);
}

/** A long flow's template: its S values and inter-packet times. */
LongTemplate
longTemplateOf(std::vector<uint16_t> &sValues,
               std::vector<uint64_t> &packetUs)
{
    LongTemplate tmpl;
    tmpl.sValues = std::move(sValues);
    tmpl.iptUs.resize(packetUs.size());
    tmpl.iptUs[0] = 0;
    for (size_t i = 1; i < packetUs.size(); ++i)
        tmpl.iptUs[i] = packetUs[i] - packetUs[i - 1];
    // A long flow's timestamps are not kept for the next flow.
    packetUs = {};
    return tmpl;
}

} // namespace

CompressSession::CompressSession(const FccConfig &cfg,
                                 const SessionOptions &options)
    : cfg_(cfg), options_(options), chi_(cfg.weights),
      store_(cfg.rule)
{
    cfg_.validate();
    datasets_.weights = cfg_.weights;
    shards_.resize(util::resolveThreads(cfg_.threads));
    stats_.epochs = 1;
}

CompressSession::~CompressSession() = default;

util::ThreadPool *
CompressSession::workers()
{
    if (!pool_ && shards_.size() > 1)
        pool_ = std::make_unique<util::ThreadPool>(
            static_cast<unsigned>(shards_.size()));
    return pool_.get();
}

void
CompressSession::feed(std::span<const trace::PacketRecord> batch)
{
    if (batch.empty())
        return;
    util::require(!sealed_,
                  "fcc session: feed() on a sealed session "
                  "(reArm() first)");
    // The order check stays on the caller: the packets before a
    // disordered one are fed, then feed() throws. One shard runs
    // inline, each packet as it passes the check; more shards get
    // the checked packets staged.
    const bool inlineShard = shards_.size() == 1;
    size_t ordered = 0;
    uint64_t lastNs = lastNs_;
    for (; ordered < batch.size(); ++ordered) {
        const trace::PacketRecord &pkt = batch[ordered];
        if (pkt.timestampNs < lastNs)
            break;
        lastNs = pkt.timestampNs;
        if (inlineShard)
            feedPacket(shards_[0], 0, pkt);
    }
    lastNs_ = lastNs;
    sawPacket_ = sawPacket_ || ordered > 0;
    epochPackets_ += ordered;
    stats_.packets += ordered;

    std::span<const trace::PacketRecord> rest =
        inlineShard ? batch.first(0) : batch.first(ordered);
    while (!rest.empty()) {
        size_t take = std::min(rest.size(),
                               feedDispatchPackets - staged_.size());
        staged_.insert(staged_.end(), rest.begin(),
                       rest.begin() + static_cast<ptrdiff_t>(take));
        rest = rest.subspan(take);
        if (staged_.size() == feedDispatchPackets)
            launchStaged();
    }
    util::require(ordered == batch.size(),
                  "fcc stream: input not time-ordered");
}

void
CompressSession::launchStaged()
{
    settle();
    if (staged_.empty())
        return;
    std::swap(staged_, inFlight_);
    staged_.clear();
    // The shards search the store as it stands now; the merge then
    // compares each flow with the templates inserted since.
    searched_ = static_cast<uint32_t>(store_.size());
    running_ = true;
    shardOfPacket_.resize(inFlight_.size());
    for (size_t i = 0; i < inFlight_.size(); ++i)
        shardOfPacket_[i] = shardOf(inFlight_[i], shards_.size());
    util::ThreadPool *pool = workers();
    for (size_t s = 0; s < shards_.size(); ++s)
        pool->submit([this, s] { feedShard(s); });
}

void
CompressSession::settle()
{
    if (!running_)
        return;
    running_ = false;
    if (pool_)
        pool_->wait();

    // Merge the shards' closes by packet index. A packet belongs to
    // one shard, so only its own expiry and close can share an index,
    // and a shard's closes are already in order.
    size_t count = shards_.size();
    std::vector<size_t> next(count, 0);
    for (;;) {
        size_t pick = count;
        for (size_t s = 0; s < count; ++s)
            if (next[s] < shards_[s].closes.size() &&
                (pick == count ||
                 shards_[s].closes[next[s]].packet <
                     shards_[pick].closes[next[pick]].packet))
                pick = s;
        if (pick == count)
            break;
        applyClose(shards_[pick], shards_[pick].closes[next[pick]++],
                   searched_);
    }
    for (Shard &shard : shards_) {
        shard.closes.clear();
        shard.values.clear();
        shard.longs.clear();
    }
}

void
CompressSession::feedShard(size_t index)
{
    Shard &shard = shards_[index];
    std::array<uint32_t, shardBlockPackets> mine;
    for (size_t base = 0; base < inFlight_.size(); base += mine.size()) {
        size_t end = std::min(inFlight_.size(), base + mine.size());
        // Pick the shard's packets without a branch per packet: the
        // shard pattern is random, and mispredicting it costs more
        // than the stores.
        size_t count = 0;
        for (size_t i = base; i < end; ++i) {
            mine[count] = static_cast<uint32_t>(i);
            count += shardOfPacket_[i] == index;
        }
        for (size_t k = 0; k < count; ++k)
            feedPacket(shard, mine[k], inFlight_[mine[k]]);
    }
}

void
CompressSession::feedPacket(Shard &shard, uint32_t i,
                            const trace::PacketRecord &pkt)
{
    // One shard merges each flow as it closes; more record it for
    // the dispatch's merge.
    auto close = [&](const flow::FlowKey &key, OpenFlow &done) {
        if (shards_.size() == 1)
            closeFlow(key, done);
        else
            emitClose(shard, i, key, done);
    };
    flow::FlowKey key = flow::FlowKey::fromPacket(pkt);
    size_t slot = shard.open.admit(key, pkt, [&](OpenFlow &expired) {
        close(key, expired);
    });
    OpenFlow &flowState = shard.open.at(slot);
    flow::Connection::Step step = flowState.conn.observe(pkt);

    flow::PacketClass cls;
    cls.flag = flow::flagClass(pkt.tcpFlags);
    cls.size = flow::sizeClass(pkt.payloadBytes);
    cls.dependent = !flowState.sValues.empty() &&
                    step.fromClient != flowState.prevFromClient;
    if (cls.dependent && flowState.rttUs == 0) {
        uint64_t gap = pkt.timestampUs() - flowState.packetUs.back();
        flowState.rttUs = static_cast<uint32_t>(
            std::min<uint64_t>(gap, 0xffffffffu));
    }
    flowState.sValues.push_back(chi_.encode(cls));
    flowState.packetUs.push_back(pkt.timestampUs());
    flowState.prevFromClient = step.fromClient;

    if (step.closed) {
        close(key, flowState);
        shard.open.erase(slot);
    }
}

void
CompressSession::rotateChunk()
{
    util::require(!sealed_,
                  "fcc session: rotateChunk() on a sealed session");
    if (!sawPacket_)
        return;  // nothing fed yet: no position to cut at
    uint64_t cutUs = lastNs_ / 1000;
    if (chunkCutsUs_.empty() || chunkCutsUs_.back() < cutUs)
        chunkCutsUs_.push_back(cutUs);
}

void
CompressSession::closeFlow(const flow::FlowKey &key,
                           OpenFlow &flowState)
{
    Close close(0, key, flowState);
    if (flowState.sValues.size() <= cfg_.shortLimit) {
        // The store copies what it keeps, so the values buffer stays
        // with the flow's slot for the next flow it serves.
        recordFlow(close, flowState.sValues, nullptr, 0);
        return;
    }
    LongTemplate tmpl =
        longTemplateOf(flowState.sValues, flowState.packetUs);
    recordFlow(close, {}, &tmpl, 0);
}

void
CompressSession::emitClose(Shard &shard, uint32_t packet,
                           const flow::FlowKey &key,
                           OpenFlow &flowState) const
{
    Close close(packet, key, flowState);
    if (flowState.sValues.size() <= cfg_.shortLimit) {
        // The values are copied out, so the buffer stays with the
        // flow's slot for the next flow it serves.
        close.valuesAt = static_cast<uint32_t>(shard.values.size());
        close.length = static_cast<uint32_t>(flowState.sValues.size());
        close.longAt = noLong;
        shard.values.insert(shard.values.end(),
                            flowState.sValues.begin(),
                            flowState.sValues.end());
        close.match = store_.find(flowState.sValues);
    } else {
        close.longAt = static_cast<uint32_t>(shard.longs.size());
        shard.longs.push_back(
            longTemplateOf(flowState.sValues, flowState.packetUs));
    }
    shard.closes.push_back(close);
}

void
CompressSession::applyClose(Shard &shard, const Close &close,
                            uint32_t searched)
{
    if (close.longAt == noLong)
        recordFlow(close,
                   std::span<const uint16_t>(shard.values)
                       .subspan(close.valuesAt, close.length),
                   nullptr, searched);
    else
        recordFlow(close, {}, &shard.longs[close.longAt], searched);
}

void
CompressSession::recordFlow(const Close &close,
                            std::span<const uint16_t> values,
                            LongTemplate *longFlow, uint32_t searched)
{
    ++stats_.flows;
    TimeSeqRecord rec;
    rec.firstTimestampUs = close.firstNs / 1000;
    recordOrder_.push_back({close.firstNs, close.key});

    auto [it, isNew] = addrIndex_.try_emplace(
        close.serverIp,
        static_cast<uint32_t>(datasets_.addresses.size()));
    if (isNew)
        datasets_.addresses.push_back(close.serverIp);
    rec.addressIndex = it->second;

    if (longFlow == nullptr) {
        flow::TemplateMatch match =
            store_.findOrInsert(values, close.match, searched);
        if (match.isNew)
            ++templatesNew_;
        // Compact to per-epoch template indices (first-use order) so
        // a sealed archive only carries the templates it references
        // — self-contained whatever earlier epochs left in the
        // store. With a cold store this is the identity map.
        if (templateRemap_.size() <= match.index)
            templateRemap_.resize(store_.size(), unmappedTemplate);
        uint32_t &epochIndex = templateRemap_[match.index];
        if (epochIndex == unmappedTemplate) {
            epochIndex = static_cast<uint32_t>(templateOrder_.size());
            templateOrder_.push_back(match.index);
        }
        rec.isLong = false;
        rec.templateIndex = epochIndex;
        rec.rttUs = close.rttUs;
    } else {
        rec.isLong = true;
        rec.templateIndex =
            static_cast<uint32_t>(datasets_.longTemplates.size());
        datasets_.longTemplates.push_back(std::move(*longFlow));
    }
    datasets_.timeSeq.push_back(rec);
}

void
CompressSession::closeEpoch()
{
    util::require(!sealed_,
                  "fcc session: seal() on a sealed session");
    launchStaged();
    settle();
    sealed_ = true;

    // Flows still open close in canonical order, not the shards'
    // unspecified one: close order picks the address-dictionary
    // order, the template first-use order and the clustering order.
    // The shards prepare their open flows concurrently; the keys are
    // distinct, so the order is total.
    auto searched = static_cast<uint32_t>(store_.size());
    auto prepare = [&](size_t s) {
        Shard &shard = shards_[s];
        for (auto &[key, flowState] : shard.open.entries())
            emitClose(shard, 0, key, *flowState);
        shard.open.clear();
    };
    if (util::ThreadPool *pool = workers())
        pool->parallelFor(shards_.size(), prepare);
    else
        prepare(0);
    std::vector<std::pair<Shard *, const Close *>> still;
    for (Shard &shard : shards_)
        for (const Close &close : shard.closes)
            still.emplace_back(&shard, &close);
    std::sort(still.begin(), still.end(),
              [](const auto &a, const auto &b) {
                  return flow::canonicalFlowOrderKey(a.second->firstNs,
                                                     a.second->key) <
                         flow::canonicalFlowOrderKey(b.second->firstNs,
                                                     b.second->key);
              });
    for (auto &[shard, close] : still)
        applyClose(*shard, *close, searched);
    for (Shard &shard : shards_) {
        shard.closes.clear();
        shard.values.clear();
        shard.longs.clear();
    }

    // Flows close out of order; the time-seq dataset is in canonical
    // flow order. Each key is built once and sorted next to its
    // record's index, which keeps equal keys (a 5-tuple reused within
    // one nanosecond) in close order. The keys then hold everything
    // recordOrder_ did, so it is freed before the sorted copy is made.
    size_t records = datasets_.timeSeq.size();
    using OrderKey = decltype(flow::canonicalFlowOrderKey(
        0, std::declval<const flow::FlowKey &>()));
    std::vector<std::pair<OrderKey, uint32_t>> order;
    order.reserve(records);
    for (size_t i = 0; i < records; ++i)
        order.emplace_back(
            flow::canonicalFlowOrderKey(recordOrder_[i].firstNs,
                                        recordOrder_[i].key),
            static_cast<uint32_t>(i));
    std::vector<RecordOrder>().swap(recordOrder_);
    std::sort(order.begin(), order.end());
    std::vector<TimeSeqRecord> sorted;
    sorted.reserve(records);
    for (const auto &entry : order)
        sorted.push_back(datasets_.timeSeq[entry.second]);
    datasets_.timeSeq = std::move(sorted);

    datasets_.shortTemplates.clear();
    datasets_.shortTemplates.reserve(templateOrder_.size());
    for (uint32_t storeIndex : templateOrder_)
        datasets_.shortTemplates.push_back(store_.at(storeIndex));

    // The one place the chunk layout is chosen, for any container:
    // the time cuts (rotateChunk) first — records are now sorted by
    // flow start, so "everything started by the cut" is a prefix —
    // then the record-count slicing inside each segment.
    std::vector<size_t> cutEnds;
    cutEnds.reserve(chunkCutsUs_.size());
    for (uint64_t cutUs : chunkCutsUs_)
        cutEnds.push_back(static_cast<size_t>(
            std::upper_bound(datasets_.timeSeq.begin(),
                             datasets_.timeSeq.end(), cutUs,
                             [](uint64_t t, const TimeSeqRecord &r) {
                                 return t < r.firstTimestampUs;
                             }) -
            datasets_.timeSeq.begin()));
    datasets_.chunkSizes =
        chunkLayout(records, cfg_.chunkRecords, cutEnds);
}

Datasets
CompressSession::sealDatasets()
{
    closeEpoch();
    return std::move(datasets_);
}

std::vector<uint8_t>
CompressSession::seal(SealInfo *info)
{
    closeEpoch();

    SizeBreakdown sizes;
    // Container dispatch (FCC2/FCC3); FCC3 runs its per-column
    // encode jobs on the session's pool.
    std::vector<uint8_t> bytes =
        serializeDatasets(datasets_, cfg_, sizes, nullptr, workers());

    uint64_t records = datasets_.timeSeq.size();
    uint64_t chunks = datasets_.chunkSizes.size();

    stats_.outputBytes += bytes.size();
    stats_.chunksSealed += chunks;
    ++stats_.archivesSealed;

    if (info != nullptr) {
        info->records = records;
        info->packets = epochPackets_;
        info->chunks = chunks;
        info->bytes = bytes.size();
        info->minFirstUs = records > 0
            ? datasets_.timeSeq.front().firstTimestampUs
            : 0;
        info->maxLastUs = lastNs_ / 1000;
        info->templatesNew = templatesNew_;
    }
    return bytes;
}

void
CompressSession::resetEpoch()
{
    datasets_ = Datasets{};
    datasets_.weights = cfg_.weights;
    recordOrder_.clear();
    for (Shard &shard : shards_)
        shard.open.clear();
    staged_.clear();
    addrIndex_.clear();
    templateRemap_.clear();
    templateOrder_.clear();
    chunkCutsUs_.clear();
    lastNs_ = 0;
    sawPacket_ = false;
    epochPackets_ = 0;
    templatesNew_ = 0;
}

void
CompressSession::reArm()
{
    util::require(sealed_,
                  "fcc session: reArm() on an armed session");
    resetEpoch();
    if (!options_.carryTemplates)
        store_ = flow::TemplateStore(cfg_.rule);
    sealed_ = false;
    ++stats_.epochs;
}

// ---- decompression --------------------------------------------------

DecompressSession::DecompressSession(const FccConfig &cfg)
    : cfg_(cfg)
{
}

void
DecompressSession::open(const std::string &fccPath)
{
    // The compressed artifact is read via mmap when possible — the
    // Datasets it decodes to live in memory by design; the
    // *reconstructed packets* never do.
    auto in = util::openByteSource(fccPath);
    std::vector<uint8_t> owned;
    std::span<const uint8_t> bytes = util::readAllBytes(*in, owned);
    archiveBytes_ = bytes.size();
    // One shared decode entry point: zlib-hybrid unwrap, container
    // auto-detection, pooled FCC3 column decode.
    datasets_ = deserializeAuto(bytes, cfg_.threads, nullptr, workers());
    open_ = true;
}

util::ThreadPool *
DecompressSession::workers()
{
    unsigned threads = util::resolveThreads(cfg_.threads);
    if (!pool_ && threads > 1)
        pool_ = std::make_unique<util::ThreadPool>(threads);
    return pool_.get();
}

const Datasets &
DecompressSession::datasets() const
{
    util::require(open_, "fcc session: no archive open");
    return datasets_;
}

StreamStats
DecompressSession::drainTo(trace::TraceSink &sink)
{
    util::require(open_, "fcc session: no archive open");
    StreamStats archiveStats;
    archiveStats.inputBytes = archiveBytes_;
    archiveStats.flows = datasets_.timeSeq.size();
    // Paper §4: reconstructed packets wait in a time-ordered buffer
    // and leave once no later record can precede them (expandInto).
    FccTraceCompressor(cfg_).expandInto(
        datasets_,
        [&](std::span<const trace::PacketRecord> packets) {
            sink.write(packets);
            archiveStats.packets += packets.size();
        },
        workers());
    sink.close();
    archiveStats.outputBytes = sink.bytesWritten();

    datasets_ = Datasets{};
    archiveBytes_ = 0;
    open_ = false;

    stats_.packets += archiveStats.packets;
    stats_.flows += archiveStats.flows;
    stats_.inputBytes += archiveStats.inputBytes;
    stats_.outputBytes += archiveStats.outputBytes;
    ++stats_.epochs;
    return archiveStats;
}

} // namespace fcc::codec::fcc
