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
#include <numeric>
#include <tuple>

#include "trace/tsh.hpp"
#include "util/error.hpp"
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

namespace {

/** templateRemap_ entry of a store template not referenced yet. */
constexpr uint32_t unmappedTemplate = ~0u;

} // namespace

CompressSession::CompressSession(const FccConfig &cfg,
                                 const SessionOptions &options)
    : cfg_(cfg), options_(options), chi_(cfg.weights),
      store_(cfg.rule)
{
    cfg_.validate();
    datasets_.weights = cfg_.weights;
    stats_.epochs = 1;
}

CompressSession::~CompressSession() = default;

void
CompressSession::feedPacket(const trace::PacketRecord &pkt)
{
    util::require(!sealed_,
                  "fcc session: feed() on a sealed session "
                  "(reArm() first)");
    util::require(pkt.timestampNs >= lastNs_,
                  "fcc stream: input not time-ordered");
    lastNs_ = pkt.timestampNs;
    if (!sawPacket_) {
        firstUs_ = pkt.timestampUs();
        sawPacket_ = true;
    }
    ++epochPackets_;
    ++stats_.packets;

    flow::FlowKey key = flow::FlowKey::fromPacket(pkt);
    size_t slot = open_.admit(key, pkt, [&](OpenFlow &expired) {
        closeFlow(key, expired);
    });
    OpenFlow &flowState = open_.at(slot);
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
        closeFlow(key, flowState);
        open_.erase(slot);
    }
}

void
CompressSession::feed(std::span<const trace::PacketRecord> batch)
{
    for (const trace::PacketRecord &pkt : batch)
        feedPacket(pkt);
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
    ++stats_.flows;
    TimeSeqRecord rec;
    rec.firstTimestampUs = flowState.packetUs.front();
    recordOrder_.push_back({flowState.firstNs, key});

    auto [it, isNew] = addrIndex_.try_emplace(
        flowState.conn.serverIp,
        static_cast<uint32_t>(datasets_.addresses.size()));
    if (isNew)
        datasets_.addresses.push_back(flowState.conn.serverIp);
    rec.addressIndex = it->second;

    if (flowState.sValues.size() <= cfg_.shortLimit) {
        // The store copies what it keeps, so the values buffer goes
        // back to the flow for the next flow its slot serves.
        flow::SfVector sf;
        sf.values.swap(flowState.sValues);
        flow::TemplateMatch match = store_.findOrInsert(sf);
        flowState.sValues.swap(sf.values);
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
        rec.rttUs = flowState.rttUs;
    } else {
        LongTemplate tmpl;
        tmpl.sValues = std::move(flowState.sValues);
        tmpl.iptUs.resize(flowState.packetUs.size());
        tmpl.iptUs[0] = 0;
        for (size_t i = 1; i < flowState.packetUs.size(); ++i)
            tmpl.iptUs[i] =
                flowState.packetUs[i] - flowState.packetUs[i - 1];
        // A long flow's timestamps are not kept for the next flow.
        flowState.packetUs = {};
        rec.isLong = true;
        rec.templateIndex =
            static_cast<uint32_t>(datasets_.longTemplates.size());
        datasets_.longTemplates.push_back(std::move(tmpl));
    }
    datasets_.timeSeq.push_back(rec);
}

void
CompressSession::closeEpoch()
{
    util::require(!sealed_,
                  "fcc session: seal() on a sealed session");
    sealed_ = true;

    // Flows still open close in canonical order, not the index's
    // unspecified one: close order picks the address-dictionary
    // order, the template first-use order and the clustering order.
    auto still = open_.entries();
    std::sort(still.begin(), still.end(),
              [](const auto &a, const auto &b) {
                  return flow::canonicalFlowOrderKey(a.second->firstNs,
                                                     a.first) <
                         flow::canonicalFlowOrderKey(b.second->firstNs,
                                                     b.first);
              });
    for (auto &[key, flowState] : still)
        closeFlow(key, *flowState);
    open_.clear();

    // Flows close out of order; the time-seq dataset is in canonical
    // flow order. Equal keys (a 5-tuple reused within one
    // nanosecond) keep their close order.
    size_t records = datasets_.timeSeq.size();
    std::vector<uint32_t> order(records);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [this](uint32_t a, uint32_t b) {
                  const RecordOrder &x = recordOrder_[a];
                  const RecordOrder &y = recordOrder_[b];
                  return std::tuple(flow::canonicalFlowOrderKey(
                                        x.firstNs, x.key),
                                    a) <
                         std::tuple(flow::canonicalFlowOrderKey(
                                        y.firstNs, y.key),
                                    b);
              });
    std::vector<TimeSeqRecord> sorted;
    sorted.reserve(records);
    for (uint32_t i : order)
        sorted.push_back(datasets_.timeSeq[i]);
    datasets_.timeSeq = std::move(sorted);
    recordOrder_.clear();

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
    // encode jobs on cfg.threads.
    std::vector<uint8_t> bytes =
        serializeDatasets(datasets_, cfg_, sizes);

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
    open_.clear();
    addrIndex_.clear();
    templateRemap_.clear();
    templateOrder_.clear();
    chunkCutsUs_.clear();
    lastNs_ = 0;
    firstUs_ = 0;
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
