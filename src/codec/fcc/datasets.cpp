/**
 * @file
 * Wire formats of the four §3 datasets (short/long templates,
 * addresses, time-seq) behind three magic-tagged containers:
 *
 *  - FCC1 (legacy, read here, no longer written): one
 *    row-interleaved, delta-encoded varint stream;
 *  - FCC2 (chunked): the time-seq dataset framed into independently
 *    decodable chunks (record count + byte length prefix, per-chunk
 *    timestamp delta restart) so a reader can expand chunks on
 *    multiple threads;
 *  - FCC3 (columnar): the datasets decomposed into typed columns,
 *    each run through a field codec (codec/field) picked by exact
 *    cost and an entropy backend (codec/backend) with per-column
 *    Store fallback. Column encode/decode jobs are independent, so
 *    they parallelize on a thread pool without changing a byte of
 *    output. The indexed variant (high bit of the column-count
 *    byte) frames the five time-seq columns per chunk and appends
 *    the chunk/flow index block of codec/fcc/index.hpp, making
 *    every chunk an independently seekable byte range.
 */

#include "codec/fcc/datasets.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <new>
#include <optional>

#include "codec/deflate/deflate.hpp"
#include "codec/fcc/index.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace fcc::codec::fcc {

namespace {

constexpr uint32_t magicV1 = 0x31434346u;  // "FCC1"
constexpr uint32_t magicV2 = 0x32434346u;  // "FCC2"
constexpr uint32_t magicV3 = 0x33434346u;  // "FCC3"

/** Header plus the three shared datasets (everything but time-seq). */
void
writeShared(const Datasets &d, uint32_t magic, util::ByteWriter &w,
            SizeBreakdown &sizes)
{
    // The row containers have no fidelity header: writing degraded
    // datasets through them would silently shed the tier marker.
    util::require(d.fidelity == Fidelity::Exact,
                  "fcc: lossy fidelity tiers require the fcc3 "
                  "container");
    // Header: magic + the weight configuration the S values use.
    w.u32(magic);
    w.u16(d.weights.w1);
    w.u16(d.weights.w2);
    w.u16(d.weights.w3);
    sizes.headerBytes = w.size();

    // short-flows-template: n then n S values (one byte each).
    size_t mark = w.size();
    w.varint(d.shortTemplates.size());
    for (const auto &tmpl : d.shortTemplates) {
        w.varint(tmpl.size());
        for (uint16_t s : tmpl.values) {
            util::require(s <= 0xff,
                          "fcc: S value exceeds one byte; use "
                          "smaller weights");
            w.u8(static_cast<uint8_t>(s));
        }
    }
    sizes.shortTemplateBytes = w.size() - mark;

    // long-flows-template: n then per packet (S, inter-packet time).
    mark = w.size();
    w.varint(d.longTemplates.size());
    for (const auto &tmpl : d.longTemplates) {
        util::require(tmpl.sValues.size() == tmpl.iptUs.size(),
                      "fcc: long template S/ipt size mismatch");
        w.varint(tmpl.sValues.size());
        for (size_t i = 0; i < tmpl.sValues.size(); ++i) {
            util::require(tmpl.sValues[i] <= 0xff,
                          "fcc: S value exceeds one byte");
            w.u8(static_cast<uint8_t>(tmpl.sValues[i]));
            w.varint(tmpl.iptUs[i]);
        }
    }
    sizes.longTemplateBytes = w.size() - mark;

    // address: unique destination addresses.
    mark = w.size();
    w.varint(d.addresses.size());
    for (uint32_t addr : d.addresses)
        w.u32(addr);
    sizes.addressBytes = w.size() - mark;
}

/** One time-seq record, timestamp delta-encoded against @p prevUs. */
void
writeRecord(util::ByteWriter &w, const TimeSeqRecord &rec,
            uint64_t &prevUs)
{
    util::require(rec.firstTimestampUs >= prevUs,
                  "fcc: time-seq records not sorted");
    w.u8(rec.isLong ? 1 : 0);
    w.varint(rec.firstTimestampUs - prevUs);
    w.varint(rec.templateIndex);
    if (!rec.isLong)
        w.varint(rec.rttUs);
    w.varint(rec.addressIndex);
    prevUs = rec.firstTimestampUs;
}

/** @p d's chunk layout is non-empty chunks covering every record. */
void
requireLayout(const Datasets &d)
{
    uint64_t total = 0;
    for (uint32_t c : d.chunkSizes) {
        util::require(c >= 1, "fcc: empty chunk");
        total += c;
    }
    util::require(total == d.records(),
                  "fcc: chunk sizes disagree with the records");
}

/**
 * Shared header/template/address parse; returns the partly filled
 * datasets. @p sizes, when non-null, receives per-section byte
 * counts (header bytes include the magic already consumed by the
 * caller).
 */
Datasets
readShared(util::ByteReader &r, SizeBreakdown *sizes)
{
    Datasets d;
    d.weights.w1 = r.u16();
    d.weights.w2 = r.u16();
    d.weights.w3 = r.u16();
    util::require(d.weights.decodable(),
                  "fcc: stored weights are not decodable");
    if (sizes != nullptr)
        sizes->headerBytes = r.position();

    size_t mark = r.position();
    uint64_t shortCount = r.varint();
    // Reservations are capped by the bytes actually present so a
    // corrupt count cannot trigger a huge allocation.
    d.shortTemplates.reserve(
        std::min<uint64_t>(shortCount, r.remaining()));
    for (uint64_t i = 0; i < shortCount; ++i) {
        uint64_t n = r.varint();
        util::require(n >= 1, "fcc: empty short template");
        util::require(n <= r.remaining(),
                      "fcc: short template longer than stream");
        flow::SfVector sf;
        sf.values.reserve(n);
        for (uint64_t k = 0; k < n; ++k)
            sf.values.push_back(r.u8());
        d.shortTemplates.push_back(std::move(sf));
    }
    if (sizes != nullptr)
        sizes->shortTemplateBytes = r.position() - mark;

    mark = r.position();
    uint64_t longCount = r.varint();
    d.longTemplates.reserve(
        std::min<uint64_t>(longCount, r.remaining()));
    for (uint64_t i = 0; i < longCount; ++i) {
        uint64_t n = r.varint();
        util::require(n >= 1, "fcc: empty long template");
        util::require(n <= r.remaining(),
                      "fcc: long template longer than stream");
        LongTemplate tmpl;
        tmpl.sValues.reserve(n);
        tmpl.iptUs.reserve(n);
        for (uint64_t k = 0; k < n; ++k) {
            tmpl.sValues.push_back(r.u8());
            tmpl.iptUs.push_back(r.varint());
        }
        d.longTemplates.push_back(std::move(tmpl));
    }
    if (sizes != nullptr)
        sizes->longTemplateBytes = r.position() - mark;

    mark = r.position();
    uint64_t addrCount = r.varint();
    d.addresses.reserve(
        std::min<uint64_t>(addrCount, r.remaining()));
    for (uint64_t i = 0; i < addrCount; ++i)
        d.addresses.push_back(r.u32());
    if (sizes != nullptr)
        sizes->addressBytes = r.position() - mark;
    return d;
}

/** One record; validates indices against the shared datasets. */
TimeSeqRecord
readRecord(util::ByteReader &r, const Datasets &d, uint64_t &prevUs)
{
    TimeSeqRecord rec;
    uint8_t id = r.u8();
    util::require(id <= 1, "fcc: bad dataset identifier");
    rec.isLong = id == 1;
    prevUs += r.varint();
    rec.firstTimestampUs = prevUs;
    rec.templateIndex = static_cast<uint32_t>(r.varint());
    if (!rec.isLong)
        rec.rttUs = static_cast<uint32_t>(r.varint());
    rec.addressIndex = static_cast<uint32_t>(r.varint());

    size_t limit = rec.isLong ? d.longTemplates.size()
                              : d.shortTemplates.size();
    util::require(rec.templateIndex < limit,
                  "fcc: template index out of range");
    util::require(rec.addressIndex < d.addresses.size(),
                  "fcc: address index out of range");
    return rec;
}

// ---------------------------------------------------------------------------
// FCC3: columnar container
// ---------------------------------------------------------------------------

/**
 * The fixed column set of the FCC3 container, in canonical order
 * (docs/FORMAT.md §4). The column count is written to the file, so
 * adding a column bumps the format observably instead of silently
 * misparsing. In the indexed layout the five ts_* columns are
 * framed per chunk (chunk_len precedes them on the wire).
 */
enum ColumnId : size_t
{
    ColShortLen = 0,   ///< short-template lengths
    ColShortS,         ///< concatenated short-template S values
    ColLongLen,        ///< long-template lengths
    ColLongS,          ///< concatenated long-template S values
    ColLongIpt,        ///< concatenated inter-packet times
    ColAddr,           ///< unique server addresses
    ColTsTime,         ///< per-flow first timestamps (absolute)
    ColTsIsLong,       ///< per-flow S/L identifier
    ColTsTemplate,     ///< per-flow template index
    ColTsRtt,          ///< per-SHORT-flow RTT (one value per short)
    ColTsAddr,         ///< per-flow address index
    ColChunkLen,       ///< records per chunk (empty = unchunked)
    columnCount
};

/** Decoded FCC3 columns, indexed by ColumnId. */
using ColumnValues = std::array<std::vector<uint64_t>, columnCount>;

/** The five time-seq columns (ts_time .. ts_addr), in wire order. */
constexpr size_t tsColumnCount = ColTsAddr - ColTsTime + 1;
using TsColumns = std::array<std::vector<uint64_t>, tsColumnCount>;

/** Position of ts_rtt among the time-seq columns. */
constexpr size_t tsRtt = ColTsRtt - ColTsTime;

constexpr const char *columnNames[columnCount] = {
    "short_len", "short_s",     "long_len", "long_s",
    "long_ipt",  "addr",        "ts_time",  "ts_islong",
    "ts_template", "ts_rtt",    "ts_addr",  "chunk_len",
};

/**
 * Hard value ceiling on decode, per column and across all columns:
 * bounds the memory a corrupt count can demand before anything is
 * allocated (run-length columns break the one-byte-per-value floor
 * the row formats rely on, so the count itself must be capped —
 * 2^27 values is ~1 GiB of u64s, far above any dataset the
 * in-memory model handles).
 */
constexpr uint64_t maxColumnValues = uint64_t{1} << 27;

/**
 * Decompose flow-fidelity datasets into the twelve column slots:
 * the template columns stay empty, the five time-seq slots carry
 * the per-flow record fields (FORMAT.md §4.5) — the framing, the
 * chunk machinery and the index layout work unchanged.
 */
ColumnValues
splitFlowColumns(const Datasets &d)
{
    util::require(d.shortTemplates.empty() &&
                      d.longTemplates.empty() && d.timeSeq.empty(),
                  "fcc: flow-fidelity datasets must not carry "
                  "per-packet data");
    ColumnValues cols;
    for (uint32_t addr : d.addresses)
        cols[ColAddr].push_back(addr);
    uint64_t prevUs = 0;
    for (const FlowRecord &fl : d.flowRecords) {
        util::require(fl.firstTimestampUs >= prevUs,
                      "fcc: flow records not sorted");
        prevUs = fl.firstTimestampUs;
        util::require(fl.packets >= 1, "fcc: empty flow record");
        util::require(fl.addressIndex < d.addresses.size(),
                      "fcc: address index out of range");
        cols[ColTsTime].push_back(fl.firstTimestampUs);
        cols[ColTsIsLong].push_back(fl.payloadBytes);
        cols[ColTsTemplate].push_back(fl.packets);
        cols[ColTsRtt].push_back(fl.durationUs);
        cols[ColTsAddr].push_back(fl.addressIndex);
    }
    return cols;
}

/**
 * Decompose per-packet datasets into the twelve column slots, all
 * but chunk_len.
 */
ColumnValues
splitRecordColumns(const Datasets &d)
{
    util::require(d.flowRecords.empty(),
                  "fcc: flow records present outside the flow "
                  "fidelity tier");
    ColumnValues cols;

    for (const auto &tmpl : d.shortTemplates) {
        util::require(tmpl.size() >= 1, "fcc: empty short template");
        cols[ColShortLen].push_back(tmpl.size());
        for (uint16_t s : tmpl.values) {
            util::require(s <= 0xff,
                          "fcc: S value exceeds one byte; use "
                          "smaller weights");
            cols[ColShortS].push_back(s);
        }
    }

    for (const auto &tmpl : d.longTemplates) {
        util::require(tmpl.sValues.size() == tmpl.iptUs.size(),
                      "fcc: long template S/ipt size mismatch");
        util::require(tmpl.sValues.size() >= 1,
                      "fcc: empty long template");
        cols[ColLongLen].push_back(tmpl.sValues.size());
        for (uint16_t s : tmpl.sValues) {
            util::require(s <= 0xff, "fcc: S value exceeds one byte");
            cols[ColLongS].push_back(s);
        }
        cols[ColLongIpt].insert(cols[ColLongIpt].end(),
                                tmpl.iptUs.begin(),
                                tmpl.iptUs.end());
    }

    for (uint32_t addr : d.addresses)
        cols[ColAddr].push_back(addr);

    uint64_t prevUs = 0;
    for (const auto &rec : d.timeSeq) {
        util::require(rec.firstTimestampUs >= prevUs,
                      "fcc: time-seq records not sorted");
        prevUs = rec.firstTimestampUs;
        cols[ColTsTime].push_back(rec.firstTimestampUs);
        cols[ColTsIsLong].push_back(rec.isLong ? 1 : 0);
        cols[ColTsTemplate].push_back(rec.templateIndex);
        if (!rec.isLong)
            cols[ColTsRtt].push_back(rec.rttUs);
        cols[ColTsAddr].push_back(rec.addressIndex);
    }
    return cols;
}

/** Decompose the datasets into the twelve FCC3 columns. */
ColumnValues
splitColumns(const Datasets &d)
{
    ColumnValues cols = d.fidelity == Fidelity::Flow
        ? splitFlowColumns(d)
        : splitRecordColumns(d);
    requireLayout(d);
    cols[ColChunkLen].assign(d.chunkSizes.begin(), d.chunkSizes.end());
    return cols;
}

/**
 * Field-coded size from which a deflate column's LZ77 parse splits
 * into segments on the pool: two windows, so each segment's
 * one-window warm-up stays small next to the segment.
 */
constexpr size_t splitParseMinBytes = 2 * deflate::windowSize;

/** One encoded-and-squeezed column, ready for framing. */
struct EncodedColumn
{
    field::FieldCodec codec = field::FieldCodec::Plain;
    backend::EntropyBackend backend =
        backend::EntropyBackend::Store;
    uint64_t values = 0;
    uint64_t encodedBytes = 0;
    std::vector<uint8_t> payload;
};

/** Keep the @p squeezed form of @p encoded only when it pays. */
void
settleBackend(EncodedColumn &out, std::vector<uint8_t> encoded,
              std::vector<uint8_t> squeezed,
              backend::EntropyBackend requested)
{
    if (squeezed.size() < encoded.size()) {
        out.backend = requested;
        out.payload = std::move(squeezed);
        return;
    }
    // The backend did not pay for this column; store it raw so the
    // container never loses to its own serialization.
    out.payload = std::move(encoded);
}

/**
 * The deflate stage of one large column as tasks on the pool: one
 * per LZ77 segment, and the last segment to finish stitches the
 * parse and emits the column into its slot.
 */
struct SplitDeflate
{
    std::vector<uint8_t> encoded;
    std::optional<deflate::Lz77SegmentedParse> parse;
    std::atomic<size_t> pending{0};
};

/**
 * Field-codec + entropy-backend pipeline of one column, into @p out.
 * Run as a job on @p pool (of 2+ workers), a deflate column of at
 * least splitParseMinBytes field-coded bytes queues its parse as
 * min(workers, size / splitParseMinBytes) segment tasks and returns;
 * the caller's wait on the pool covers them. A task only ever
 * submits to the pool: one that waited on it would wait forever.
 */
void
encodeOneColumn(std::span<const uint64_t> values,
                backend::EntropyBackend requested,
                util::ThreadPool *pool, EncodedColumn &out)
{
    out.values = values.size();
    out.codec = field::chooseCodec(values);
    std::vector<uint8_t> encoded =
        field::encodeColumn(values, out.codec);
    out.encodedBytes = encoded.size();
    if (requested == backend::EntropyBackend::Store) {
        out.payload = std::move(encoded);
        return;
    }
    if (requested == backend::EntropyBackend::Deflate &&
        pool != nullptr && pool->size() > 1 &&
        encoded.size() >= splitParseMinBytes) {
        auto split = std::make_shared<SplitDeflate>();
        split->encoded = std::move(encoded);
        split->parse.emplace(
            split->encoded,
            deflate::lz77EvenStarts(
                split->encoded.size(),
                std::min<size_t>(pool->size(), split->encoded.size() /
                                                   splitParseMinBytes)));
        split->pending = split->parse->segments();
        for (size_t k = 0; k < split->parse->segments(); ++k)
            pool->submit([split, k, &out] {
                split->parse->parseSegment(k);
                if (split->pending.fetch_sub(
                        1, std::memory_order_acq_rel) != 1)
                    return;
                std::vector<uint8_t> squeezed =
                    deflate::zlibCompress(*split->parse);
                settleBackend(out, std::move(split->encoded),
                              std::move(squeezed),
                              backend::EntropyBackend::Deflate);
            });
        return;
    }
    std::vector<uint8_t> squeezed =
        backend::entropyCompress(encoded, requested);
    settleBackend(out, std::move(encoded), std::move(squeezed),
                  requested);
}

/**
 * Run @p count encode jobs, on @p pool when given, and wait for the
 * tasks they queued. Results land in fixed slots, so the output is
 * byte-identical at any thread count.
 */
void
runEncodeJobs(util::ThreadPool *pool, size_t count,
              const std::function<void(size_t)> &job)
{
    if (pool == nullptr) {
        for (size_t c = 0; c < count; ++c)
            job(c);
        return;
    }
    pool->parallelFor(count, job);
    // parallelFor runs one job inline without waiting.
    pool->wait();
}

/** Dataset bucket of a column, for the §5-style size accounting. */
uint64_t &
breakdownBucket(SizeBreakdown &sizes, size_t col)
{
    switch (col) {
      case ColShortLen:
      case ColShortS:
        return sizes.shortTemplateBytes;
      case ColLongLen:
      case ColLongS:
      case ColLongIpt:
        return sizes.longTemplateBytes;
      case ColAddr:
        return sizes.addressBytes;
      default:
        return sizes.timeSeqBytes;
    }
}

/**
 * Run @p count column-decode jobs (on @p pool when given), mapping a
 * corrupt-count bad_alloc to Error like every other malformed
 * construct instead of letting it escape.
 */
void
runDecodeJobs(size_t count, util::ThreadPool *pool,
              const std::function<void(size_t)> &decodeOne)
{
    try {
        if (pool != nullptr && count > 1)
            pool->parallelFor(count, decodeOne);
        else
            for (size_t i = 0; i < count; ++i)
                decodeOne(i);
    } catch (const std::bad_alloc &) {
        throw util::Error("fcc3: column sizes exhaust memory");
    }
}

uint32_t
take32(uint64_t v, const char *what)
{
    util::require(v <= 0xffffffffu, what);
    return static_cast<uint32_t>(v);
}

/** One parsed (not yet decoded) FCC3 column frame. */
struct ColumnFrame
{
    field::FieldCodec codec = field::FieldCodec::Plain;
    backend::EntropyBackend backend = backend::EntropyBackend::Store;
    uint64_t values = 0;
    uint64_t encodedBytes = 0;   ///< pre-backend (field-coded) size
    uint64_t storedBytes = 0;    ///< on-wire size incl. framing
    /** Zero-copy view into the source buffer. */
    std::span<const uint8_t> payload;
};

/**
 * Parse one column frame at @p r's cursor (tag validation and
 * corruption caps included; the payload stays a view into the
 * reader's buffer).
 */
ColumnFrame
readColumnFrame(util::ByteReader &r)
{
    ColumnFrame frame;
    size_t mark = r.position();
    frame.values = r.varint();
    util::require(frame.values <= maxColumnValues,
                  "fcc3: column too large");
    uint8_t codecTag = r.u8();
    util::require(codecTag < field::fieldCodecCount,
                  "fcc3: bad field codec tag");
    frame.codec = static_cast<field::FieldCodec>(codecTag);
    uint8_t backendTag = r.u8();
    util::require(backendTag < backend::entropyBackendCount,
                  "fcc3: bad entropy backend tag");
    frame.backend = static_cast<backend::EntropyBackend>(backendTag);
    frame.encodedBytes = r.varint();
    // No codec stores more than ~20 bytes per value (dict: one max
    // varint each for entry and reference), so a wild encoded size
    // is corruption, not data — reject it before the decompressor
    // allocates for it.
    util::require(frame.encodedBytes <= (frame.values + 1) * 20,
                  "fcc3: encoded size out of range");
    frame.payload = r.blobView();
    frame.storedBytes = r.position() - mark;
    return frame;
}

/** Entropy-decompress and field-decode @p frame to its values. */
std::vector<uint64_t>
decodeColumnFrame(const ColumnFrame &frame)
{
    std::vector<uint8_t> encoded = backend::entropyDecompress(
        frame.payload, frame.backend,
        static_cast<size_t>(frame.encodedBytes));
    return field::decodeColumn(encoded, frame.codec,
                               static_cast<size_t>(frame.values));
}

/**
 * Fold one frame into a column's stat entry. Indexed archives store
 * several frames per time-seq column (one per chunk): byte and
 * value counts sum, the codec/backend tags record the first frame's
 * choice. Shared by the serializer and the parser so the accounting
 * rule cannot drift between them.
 */
void
accumulateColumnStat(ColumnStat &s, field::FieldCodec codec,
                     backend::EntropyBackend backend,
                     uint64_t values, uint64_t encodedBytes,
                     uint64_t storedBytes, bool first)
{
    if (first) {
        s.codec = codec;
        s.backend = backend;
    }
    s.values += values;
    s.encodedBytes += encodedBytes;
    s.storedBytes += storedBytes;
}

/**
 * The frames one parse has read: per-column accounting, and the cap
 * on their total value count.
 */
struct FrameLog
{
    std::array<ColumnStat, columnCount> stats;
    uint64_t totalValues = 0;

    FrameLog()
    {
        for (size_t c = 0; c < columnCount; ++c)
            stats[c].name = columnNames[c];
    }

    /** Log @p frame of column @p col; @p first when it is the
     *  column's first frame. */
    void
    add(size_t col, const ColumnFrame &frame, bool first = true)
    {
        totalValues += frame.values;
        util::require(totalValues <= maxColumnValues,
                      "fcc3: columns too large");
        accumulateColumnStat(stats[col], frame.codec, frame.backend,
                             frame.values, frame.encodedBytes,
                             frame.storedBytes, first);
    }
};

/**
 * Templates and addresses from the six decoded shared columns,
 * tagged with @p h's weights and fidelity tier. The flow tier
 * carries no templates, so its template columns must be empty.
 */
Datasets
assembleShared(const Fcc3Header &h, ColumnValues &values)
{
    Datasets d;
    d.weights = h.weights;
    d.fidelity = h.fidelity;
    d.quantumUs = h.quantumUs;
    if (h.fidelity == Fidelity::Flow)
        for (size_t c = ColShortLen; c <= ColLongIpt; ++c)
            util::require(values[c].empty(),
                          "fcc3: flow profile forbids template "
                          "columns");

    size_t cursor = 0;
    d.shortTemplates.reserve(values[ColShortLen].size());
    for (uint64_t n : values[ColShortLen]) {
        util::require(n >= 1, "fcc: empty short template");
        util::require(cursor + n <= values[ColShortS].size(),
                      "fcc3: short_s column too short");
        flow::SfVector sf;
        sf.values.reserve(n);
        for (uint64_t k = 0; k < n; ++k) {
            uint64_t s = values[ColShortS][cursor++];
            util::require(s <= 0xff, "fcc: S value exceeds one byte");
            sf.values.push_back(static_cast<uint16_t>(s));
        }
        d.shortTemplates.push_back(std::move(sf));
    }
    util::require(cursor == values[ColShortS].size(),
                  "fcc3: short_s column too long");

    util::require(values[ColLongS].size() ==
                      values[ColLongIpt].size(),
                  "fcc3: long_s/long_ipt length mismatch");
    cursor = 0;
    d.longTemplates.reserve(values[ColLongLen].size());
    for (uint64_t n : values[ColLongLen]) {
        util::require(n >= 1, "fcc: empty long template");
        util::require(cursor + n <= values[ColLongS].size(),
                      "fcc3: long_s column too short");
        LongTemplate tmpl;
        tmpl.sValues.reserve(n);
        tmpl.iptUs.reserve(n);
        for (uint64_t k = 0; k < n; ++k) {
            uint64_t s = values[ColLongS][cursor];
            util::require(s <= 0xff, "fcc: S value exceeds one byte");
            tmpl.sValues.push_back(static_cast<uint16_t>(s));
            tmpl.iptUs.push_back(values[ColLongIpt][cursor]);
            ++cursor;
        }
        d.longTemplates.push_back(std::move(tmpl));
    }
    util::require(cursor == values[ColLongS].size(),
                  "fcc3: long_s column too long");

    d.addresses.reserve(values[ColAddr].size());
    for (uint64_t addr : values[ColAddr])
        d.addresses.push_back(
            take32(addr, "fcc3: address exceeds 32 bits"));
    return d;
}

/** The chunk_len column, validated, into Datasets::chunkSizes. */
void
assembleChunkSizes(const std::vector<uint64_t> &chunkLen, Datasets &d)
{
    d.chunkSizes.reserve(chunkLen.size());
    for (uint64_t c : chunkLen) {
        util::require(c >= 1, "fcc: empty chunk");
        d.chunkSizes.push_back(
            take32(c, "fcc3: chunk size exceeds 32 bits"));
    }
}

/**
 * Build @p records records from one run of time-seq columns — a
 * chunk, or the whole unchunked dataset — against the shared
 * datasets @p shared, with every per-record check of the format.
 * @p cols[0] (ts_time) and @p cols[3] (ts_rtt) are empty when their
 * frames were left undecoded; @p rttValues is the ts_rtt value count
 * either way. In the flow tier the five columns carry the flow
 * records' fields (FORMAT.md §4.5).
 */
void
buildRecords(const Datasets &shared, const TsColumns &cols,
             size_t records, uint64_t rttValues, Fcc3Chunk &out)
{
    const auto &[time, kind, tmpl, rtt, addr] = cols;
    util::require(kind.size() == records && tmpl.size() == records &&
                      addr.size() == records &&
                      (time.empty() || time.size() == records),
                  "fcc3: time-seq column length mismatch");
    auto timeOf = [&](size_t i) { return time.empty() ? 0 : time[i]; };
    if (records > 0) {
        out.firstUs = timeOf(0);
        out.lastUs = timeOf(records - 1);
    }
    uint64_t prevUs = 0;

    if (shared.fidelity == Fidelity::Flow) {
        util::require(rttValues == records,
                      "fcc3: flow column length mismatch");
        out.flowRecords.reserve(records);
        for (size_t i = 0; i < records; ++i) {
            FlowRecord fl;
            fl.firstTimestampUs = timeOf(i);
            util::require(fl.firstTimestampUs >= prevUs,
                          "fcc: flow records not sorted");
            prevUs = fl.firstTimestampUs;
            fl.payloadBytes = kind[i];
            fl.packets = take32(tmpl[i],
                                "fcc3: packet count exceeds 32 bits");
            util::require(fl.packets >= 1, "fcc: empty flow record");
            fl.durationUs = rtt.empty() ? 0 : rtt[i];
            fl.addressIndex = take32(
                addr[i], "fcc3: address index exceeds 32 bits");
            util::require(fl.addressIndex < shared.addresses.size(),
                          "fcc: address index out of range");
            out.flowRecords.push_back(fl);
        }
        return;
    }

    // Stored timestamps must sit on the advertised grid — a value
    // off the grid means the container lies about its own
    // quantization and downstream error bounds would be wrong.
    if (shared.fidelity == Fidelity::Quantized)
        util::require(field::isOnGrid(time, shared.quantumUs),
                      "fcc3: timestamp off the quantized grid");
    size_t shorts = 0;
    out.timeSeq.reserve(records);
    for (size_t i = 0; i < records; ++i) {
        TimeSeqRecord rec;
        rec.firstTimestampUs = timeOf(i);
        util::require(rec.firstTimestampUs >= prevUs,
                      "fcc: time-seq records not sorted");
        prevUs = rec.firstTimestampUs;
        util::require(kind[i] <= 1, "fcc: bad dataset identifier");
        rec.isLong = kind[i] == 1;
        rec.templateIndex = take32(
            tmpl[i], "fcc3: template index exceeds 32 bits");
        size_t limit = rec.isLong ? shared.longTemplates.size()
                                  : shared.shortTemplates.size();
        util::require(rec.templateIndex < limit,
                      "fcc: template index out of range");
        if (!rec.isLong) {
            if (!rtt.empty()) {
                util::require(shorts < rtt.size(),
                              "fcc3: ts_rtt column too short");
                rec.rttUs = take32(rtt[shorts],
                                   "fcc3: RTT exceeds 32 bits");
            }
            ++shorts;
        }
        rec.addressIndex = take32(
            addr[i], "fcc3: address index exceeds 32 bits");
        util::require(rec.addressIndex < shared.addresses.size(),
                      "fcc: address index out of range");
        out.timeSeq.push_back(rec);
    }
    // In a chunk this is the RTT split: the column must break
    // exactly at the chunk boundaries, or random access would hand
    // later chunks the wrong RTTs while the concatenation still
    // added up.
    util::require(shorts == rttValues,
                  "fcc3: ts_rtt column length mismatch");
}

/**
 * Read one chunk's five frames at @p r's cursor, checking each
 * value count against the chunk's @p records before anything is
 * decoded: four columns hold one value per record, ts_rtt one per
 * short flow — except in the flow tier, where that slot carries the
 * per-flow duration (one value per record).
 */
std::array<ColumnFrame, tsColumnCount>
readChunkFrames(util::ByteReader &r, uint64_t records, bool flowTier)
{
    std::array<ColumnFrame, tsColumnCount> frames;
    for (size_t k = 0; k < tsColumnCount; ++k) {
        frames[k] = readColumnFrame(r);
        bool perRecord = k != tsRtt || flowTier;
        util::require(perRecord ? frames[k].values == records
                                : frames[k].values <= records,
                      "fcc3: chunk frame record mismatch");
    }
    return frames;
}

/** The shared region, logging its frames into @p log. */
Fcc3SharedRegion
readSharedRegion(std::span<const uint8_t> data, const Fcc3Header &h,
                 util::ThreadPool *pool, FrameLog &log)
{
    util::require(h.indexed, "fcc3: not an indexed layout");
    Fcc3SharedRegion region;
    // The index block ends the file; the column frames occupy
    // exactly the region before it.
    uint64_t indexBytes = indexRegionBytes(data);
    util::require(data.size() - indexBytes >= h.bytes,
                  "fcc3: index block overlaps the header");
    region.chunksEnd = data.size() - static_cast<size_t>(indexBytes);

    // The shared frames, then the chunk layout.
    util::ByteReader r(data.data(), region.chunksEnd);
    r.skip(h.bytes);
    std::array<ColumnFrame, ColAddr + 2> frames;
    for (size_t i = 0; i < frames.size(); ++i) {
        frames[i] = readColumnFrame(r);
        log.add(i <= ColAddr ? i : ColChunkLen, frames[i]);
    }
    region.chunksBegin = r.position();

    ColumnValues values;
    runDecodeJobs(frames.size(), pool, [&](size_t i) {
        values[i <= ColAddr ? i : ColChunkLen] =
            decodeColumnFrame(frames[i]);
    });
    region.shared = assembleShared(h, values);
    assembleChunkSizes(values[ColChunkLen], region.shared);
    // Five frames of >= 5 bytes each per chunk: a chunk count the
    // remaining bytes cannot possibly hold is corruption — reject it
    // before anything is sized by it.
    util::require(
        region.shared.chunkSizes.size() <= r.remaining() / 25,
        "fcc3: chunk count exceeds stream");
    return region;
}

/**
 * Parse the FCC3 container (either layout) from @p data, whose first
 * four bytes are the already-validated magic.
 */
Datasets
deserializeColumnar(std::span<const uint8_t> data,
                    util::ThreadPool *pool, ContainerStat *stat)
{
    Fcc3Header h = *readFcc3Header(data);
    FrameLog log;
    Datasets d;
    uint64_t indexBytes = 0;
    if (!h.indexed) {
        util::ByteReader r(data);
        r.skip(h.bytes);
        std::array<ColumnFrame, columnCount> frames;
        for (size_t c = 0; c < columnCount; ++c) {
            frames[c] = readColumnFrame(r);
            log.add(c, frames[c]);
        }
        util::require(r.exhausted(), "fcc: trailing bytes");
        ColumnValues values;
        runDecodeJobs(columnCount, pool, [&](size_t c) {
            values[c] = decodeColumnFrame(frames[c]);
        });

        d = assembleShared(h, values);
        TsColumns ts;
        for (size_t k = 0; k < tsColumnCount; ++k)
            ts[k] = std::move(values[ColTsTime + k]);
        Fcc3Chunk all;
        buildRecords(d, ts, ts[0].size(), ts[tsRtt].size(), all);
        d.timeSeq = std::move(all.timeSeq);
        d.flowRecords = std::move(all.flowRecords);
        assembleChunkSizes(values[ColChunkLen], d);
        if (!d.chunkSizes.empty()) {
            uint64_t total = 0;
            for (uint32_t c : d.chunkSizes)
                total += c;
            util::require(total == ts[0].size(),
                          "fcc: chunk sizes disagree with time-seq");
        }
    } else {
        Fcc3SharedRegion region = readSharedRegion(data, h, pool, log);
        indexBytes = data.size() - region.chunksEnd;

        // Delimit the chunks by walking their frames once, then read
        // each chunk — the same way a random-access reader does.
        const std::vector<uint32_t> &sizes = region.shared.chunkSizes;
        std::vector<std::span<const uint8_t>> ranges(sizes.size());
        util::ByteReader r(data.data(), region.chunksEnd);
        r.skip(region.chunksBegin);
        for (size_t c = 0; c < sizes.size(); ++c) {
            size_t begin = r.position();
            std::array<ColumnFrame, tsColumnCount> frames =
                readChunkFrames(r, sizes[c],
                                h.fidelity == Fidelity::Flow);
            for (size_t k = 0; k < tsColumnCount; ++k)
                log.add(ColTsTime + k, frames[k], c == 0);
            ranges[c] = data.subspan(begin, r.position() - begin);
        }
        util::require(r.exhausted(), "fcc: trailing bytes");

        std::vector<Fcc3Chunk> chunks(sizes.size());
        runDecodeJobs(chunks.size(), pool, [&](size_t c) {
            chunks[c] = readFcc3Chunk(ranges[c], region, c);
        });
        d = std::move(region.shared);
        size_t records = 0;
        for (uint32_t n : d.chunkSizes)
            records += n;
        if (h.fidelity == Fidelity::Flow)
            d.flowRecords.reserve(records);
        else
            d.timeSeq.reserve(records);
        for (size_t c = 0; c < chunks.size(); ++c) {
            if (c > 0)
                requireChunkOrder(chunks[c - 1].lastUs,
                                  chunks[c].firstUs);
            d.timeSeq.insert(d.timeSeq.end(),
                             chunks[c].timeSeq.begin(),
                             chunks[c].timeSeq.end());
            d.flowRecords.insert(d.flowRecords.end(),
                                 chunks[c].flowRecords.begin(),
                                 chunks[c].flowRecords.end());
            // Free each chunk once copied: the reserved destination
            // only becomes resident as it fills, so the records are
            // resident about once, not twice.
            chunks[c].timeSeq = {};
            chunks[c].flowRecords = {};
        }
    }

    if (stat != nullptr) {
        stat->fidelity = h.fidelity;
        stat->quantumUs = h.quantumUs;
        stat->version = 3;
        stat->sizes = SizeBreakdown{};
        stat->sizes.headerBytes = h.bytes;
        stat->sizes.indexBytes = indexBytes;
        stat->hasIndex = h.indexed;
        stat->columns.assign(log.stats.begin(), log.stats.end());
        for (size_t c = 0; c < columnCount; ++c)
            breakdownBucket(stat->sizes, c) +=
                log.stats[c].storedBytes;
    }
    return d;
}

} // namespace

std::vector<uint8_t>
serializeChunked(const Datasets &datasets, SizeBreakdown &breakdown)
{
    util::ByteWriter w;
    breakdown = SizeBreakdown{};
    writeShared(datasets, magicV2, w, breakdown);
    requireLayout(datasets);

    size_t mark = w.size();
    w.varint(datasets.chunkSizes.size());
    size_t begin = 0;
    for (uint32_t records : datasets.chunkSizes) {
        // Each chunk restarts the timestamp delta so it decodes
        // without its predecessors.
        util::ByteWriter chunk;
        uint64_t prevUs = 0;
        for (size_t i = begin; i < begin + records; ++i)
            writeRecord(chunk, datasets.timeSeq[i], prevUs);
        w.varint(records);
        w.varint(chunk.size());
        w.bytes(chunk.data());
        begin += records;
    }
    breakdown.timeSeqBytes = w.size() - mark;
    return w.take();
}

namespace {

/** Write one encoded column as a wire frame; returns stored bytes. */
uint64_t
writeFrame(util::ByteWriter &w, const EncodedColumn &col)
{
    size_t mark = w.size();
    w.varint(col.values);
    w.u8(static_cast<uint8_t>(col.codec));
    w.u8(static_cast<uint8_t>(col.backend));
    w.varint(col.encodedBytes);
    w.blob(col.payload);
    return w.size() - mark;
}

} // namespace

std::vector<uint8_t>
serializeColumnar(const Datasets &datasets,
                  backend::EntropyBackend backend,
                  SizeBreakdown &breakdown, util::ThreadPool *pool,
                  std::vector<ColumnStat> *columns, bool indexed)
{
    ColumnValues values = splitColumns(datasets);
    breakdown = SizeBreakdown{};
    if (columns != nullptr)
        columns->clear();

    auto writeHeader = [&](util::ByteWriter &w, uint8_t colByte) {
        w.u32(magicV3);
        w.u16(datasets.weights.w1);
        w.u16(datasets.weights.w2);
        w.u16(datasets.weights.w3);
        if (datasets.fidelity == Fidelity::Exact) {
            // No flag, no extra bytes: exact containers stay
            // byte-identical to pre-fidelity writers.
            w.u8(colByte);
        } else {
            w.u8(colByte | fidelityProfileFlag);
            w.u8(static_cast<uint8_t>(datasets.fidelity));
            w.varint(datasets.fidelity == Fidelity::Quantized
                         ? datasets.quantumUs
                         : 0);
        }
        breakdown.headerBytes = w.size();
    };

    if (!indexed) {
        // ---- plain layout: twelve global column frames ----
        std::array<EncodedColumn, columnCount> encoded;
        runEncodeJobs(pool, columnCount, [&](size_t c) {
            encodeOneColumn(values[c], backend, pool, encoded[c]);
        });

        util::ByteWriter w;
        writeHeader(w, static_cast<uint8_t>(columnCount));
        for (size_t c = 0; c < columnCount; ++c) {
            const EncodedColumn &col = encoded[c];
            uint64_t storedBytes = writeFrame(w, col);
            breakdownBucket(breakdown, c) += storedBytes;
            if (columns != nullptr)
                columns->push_back({columnNames[c], col.codec,
                                    col.backend, col.values,
                                    col.encodedBytes, storedBytes});
        }
        return w.take();
    }

    // ---- indexed layout: chunk-framed time-seq + index block ----
    const std::vector<uint32_t> &chunkSizes = datasets.chunkSizes;
    size_t chunks = chunkSizes.size();

    // Record and RTT offsets of every chunk into the time-seq
    // columns (RTTs exist only for short flows; in the flow profile
    // the slot carries one duration per record instead).
    std::vector<size_t> recOff(chunks + 1, 0);
    std::vector<size_t> rttOff(chunks + 1, 0);
    for (size_t c = 0; c < chunks; ++c) {
        recOff[c + 1] = recOff[c] + chunkSizes[c];
        if (datasets.fidelity == Fidelity::Flow) {
            rttOff[c + 1] = recOff[c + 1];
            continue;
        }
        size_t shorts = 0;
        for (size_t i = recOff[c]; i < recOff[c + 1]; ++i)
            shorts += values[ColTsIsLong][i] == 0 ? 1 : 0;
        rttOff[c + 1] = rttOff[c] + shorts;
    }

    // One encode job per shared column plus five per chunk.
    std::array<EncodedColumn, ColAddr + 2> sharedEnc;  // + chunk_len
    std::vector<std::array<EncodedColumn, 5>> chunkEnc(chunks);
    auto tsSlice = [&](size_t c, size_t k) {
        const std::vector<uint64_t> &col = values[ColTsTime + k];
        if (k == 3)  // ts_rtt
            return std::span<const uint64_t>(col).subspan(
                rttOff[c], rttOff[c + 1] - rttOff[c]);
        return std::span<const uint64_t>(col).subspan(
            recOff[c], recOff[c + 1] - recOff[c]);
    };
    // The index build only reads the datasets: one more job of the
    // first pass, after the shared columns.
    ArchiveIndex archiveIndex;
    constexpr size_t indexJob = ColAddr + 2;
    runEncodeJobs(pool, indexJob + 1 + chunks * 5, [&](size_t i) {
        if (i <= ColAddr)
            encodeOneColumn(values[i], backend, pool, sharedEnc[i]);
        else if (i == ColAddr + 1)
            encodeOneColumn(values[ColChunkLen], backend, pool,
                            sharedEnc[i]);
        else if (i == indexJob)
            archiveIndex = buildArchiveIndex(datasets);
        else {
            size_t c = (i - (indexJob + 1)) / 5;
            size_t k = (i - (indexJob + 1)) % 5;
            encodeOneColumn(tsSlice(c, k), backend, pool, chunkEnc[c][k]);
        }
    });

    util::ByteWriter w;
    writeHeader(w, static_cast<uint8_t>(columnCount) |
                       indexedLayoutFlag);

    std::array<ColumnStat, columnCount> colStats;
    for (size_t c = 0; c < columnCount; ++c)
        colStats[c].name = columnNames[c];
    auto accountFrame = [&](size_t c, const EncodedColumn &col,
                            uint64_t storedBytes, bool first) {
        breakdownBucket(breakdown, c) += storedBytes;
        accumulateColumnStat(colStats[c], col.codec, col.backend,
                             col.values, col.encodedBytes,
                             storedBytes, first);
    };

    for (size_t c = 0; c <= ColAddr; ++c)
        accountFrame(c, sharedEnc[c], writeFrame(w, sharedEnc[c]),
                     true);
    accountFrame(ColChunkLen, sharedEnc[ColAddr + 1],
                 writeFrame(w, sharedEnc[ColAddr + 1]), true);

    FCC_ASSERT(archiveIndex.chunks.size() == chunks,
               "index chunk count drifted from the layout");
    for (size_t c = 0; c < chunks; ++c) {
        uint64_t offset = w.size();
        for (size_t k = 0; k < 5; ++k)
            accountFrame(ColTsTime + k, chunkEnc[c][k],
                         writeFrame(w, chunkEnc[c][k]), c == 0);
        archiveIndex.chunks[c].byteOffset = offset;
        archiveIndex.chunks[c].byteLength = w.size() - offset;
    }

    std::vector<uint8_t> block = serializeArchiveIndex(archiveIndex);
    w.bytes(block.data(), block.size());
    breakdown.indexBytes = block.size();

    if (columns != nullptr)
        columns->assign(colStats.begin(), colStats.end());
    return w.take();
}

Datasets
deserialize(std::span<const uint8_t> data, util::ThreadPool *pool,
            ContainerStat *stat)
{
    util::ByteReader r(data);
    util::require(r.remaining() >= 10, "fcc: truncated header");
    uint32_t magic = r.u32();
    util::require(magic == magicV1 || magic == magicV2 ||
                      magic == magicV3,
                  "fcc: bad magic");
    if (magic == magicV3)
        return deserializeColumnar(data, pool, stat);

    SizeBreakdown *sizes = stat != nullptr ? &stat->sizes : nullptr;
    if (stat != nullptr) {
        *stat = ContainerStat{};
        stat->version = magic == magicV1 ? 1 : 2;
    }
    Datasets d = readShared(r, sizes);

    size_t mark = r.position();
    if (magic == magicV1) {
        uint64_t flowCount = r.varint();
        d.timeSeq.reserve(
            std::min<uint64_t>(flowCount, r.remaining()));
        uint64_t prevUs = 0;
        for (uint64_t i = 0; i < flowCount; ++i)
            d.timeSeq.push_back(readRecord(r, d, prevUs));
    } else {
        uint64_t chunkCount = r.varint();
        d.chunkSizes.reserve(
            std::min<uint64_t>(chunkCount, r.remaining()));
        uint64_t lastUs = 0;
        for (uint64_t c = 0; c < chunkCount; ++c) {
            uint64_t recordCount = r.varint();
            uint64_t byteLength = r.varint();
            util::require(byteLength <= r.remaining(),
                          "fcc: chunk longer than stream");
            size_t start = r.position();
            uint64_t prevUs = 0;
            for (uint64_t i = 0; i < recordCount; ++i) {
                TimeSeqRecord rec = readRecord(r, d, prevUs);
                // Chunks delta-restart but the dataset stays
                // globally time-sorted.
                util::require(rec.firstTimestampUs >= lastUs,
                              "fcc: chunks not time-sorted");
                lastUs = rec.firstTimestampUs;
                d.timeSeq.push_back(rec);
            }
            util::require(r.position() - start == byteLength,
                          "fcc: chunk length mismatch");
            d.chunkSizes.push_back(
                static_cast<uint32_t>(recordCount));
        }
    }
    if (sizes != nullptr)
        sizes->timeSeqBytes = r.position() - mark;
    util::require(r.exhausted(), "fcc: trailing bytes");
    return d;
}

Datasets
deserialize(std::span<const uint8_t> data)
{
    return deserialize(data, nullptr, nullptr);
}

std::optional<Fcc3Header>
readFcc3Header(std::span<const uint8_t> data)
{
    util::ByteReader r(data);
    if (data.size() < 4 || r.u32() != magicV3)
        return std::nullopt;
    Fcc3Header h;
    h.weights.w1 = r.u16();
    h.weights.w2 = r.u16();
    h.weights.w3 = r.u16();
    util::require(h.weights.decodable(),
                  "fcc: stored weights are not decodable");
    uint8_t colByte = r.u8();
    util::require(
        (colByte & ~(indexedLayoutFlag | fidelityProfileFlag)) ==
            columnCount,
        "fcc3: unexpected column count");
    h.indexed = (colByte & indexedLayoutFlag) != 0;
    if ((colByte & fidelityProfileFlag) != 0) {
        // Lossy profile header: tag byte + parameter varint. Exact
        // files never carry the flag, so they stay byte-identical to
        // pre-fidelity writers.
        uint8_t tag = r.u8();
        util::require(
            tag >= static_cast<uint8_t>(Fidelity::Quantized) &&
                tag <= static_cast<uint8_t>(Fidelity::Flow),
            "fcc3: unknown fidelity tag");
        h.fidelity = static_cast<Fidelity>(tag);
        h.quantumUs = r.varint();
        if (h.fidelity == Fidelity::Quantized)
            util::require(h.quantumUs >= 1,
                          "fcc3: quantized grid must be >= 1 us");
        else
            util::require(h.quantumUs == 0,
                          "fcc3: unexpected fidelity parameter");
    }
    h.bytes = r.position();
    return h;
}

Fcc3SharedRegion
readFcc3SharedRegion(std::span<const uint8_t> data,
                     const Fcc3Header &header)
{
    FrameLog log;
    return readSharedRegion(data, header, nullptr, log);
}

Fcc3Chunk
readFcc3Chunk(std::span<const uint8_t> bytes,
              const Fcc3SharedRegion &region, size_t chunk,
              ChunkColumns decode)
{
    const Datasets &shared = region.shared;
    util::require(chunk < shared.chunkSizes.size(),
                  "fcc3: chunk out of range");
    uint32_t records = shared.chunkSizes[chunk];
    util::ByteReader r(bytes);
    std::array<ColumnFrame, tsColumnCount> frames = readChunkFrames(
        r, records, shared.fidelity == Fidelity::Flow);
    util::require(r.exhausted(), "fcc3: chunk range has trailing bytes");

    Fcc3Chunk out;
    TsColumns cols;
    for (size_t k = 0; k < tsColumnCount; ++k) {
        if ((k == 0 && !decode.time) || (k == tsRtt && !decode.rtt))
            continue;
        cols[k] = decodeColumnFrame(frames[k]);
        out.bytesDecoded += frames[k].storedBytes;
    }
    buildRecords(shared, cols, records, frames[tsRtt].values, out);
    return out;
}

std::vector<uint32_t>
chunkLayout(size_t records, uint32_t chunkRecords,
            std::span<const size_t> segmentEnds)
{
    util::require(chunkRecords >= 1,
                  "fcc: chunkRecords must be >= 1");
    std::vector<uint32_t> layout;
    size_t begin = 0;
    auto slice = [&](size_t end) {
        while (begin < end) {
            size_t n = std::min<size_t>(chunkRecords, end - begin);
            layout.push_back(static_cast<uint32_t>(n));
            begin += n;
        }
    };
    for (size_t end : segmentEnds) {
        util::require(end >= begin && end <= records,
                      "fcc: chunk cuts out of order");
        slice(end);
    }
    slice(records);
    return layout;
}

void
requireChunkOrder(uint64_t earlierLastUs, uint64_t laterFirstUs)
{
    util::require(laterFirstUs >= earlierLastUs,
                  "fcc: chunks not time-sorted");
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
templateFacts(const Datasets &d)
{
    // What each S value adds, decoded once: its wire bytes (0 where
    // the value does not decode) and its dependence bit.
    flow::Characterizer chi(d.weights);
    std::vector<uint32_t> wire(size_t{chi.maxValue()} + 1, 0);
    std::vector<uint8_t> dependent(wire.size(), 0);
    for (size_t s = 0; s < wire.size(); ++s) {
        if (std::optional<flow::PacketClass> cls =
                chi.tryDecode(static_cast<uint16_t>(s))) {
            wire[s] = 40u + representativePayload(cls->size);
            dependent[s] = cls->dependent;
        }
    }
    auto factsOf = [&](const std::vector<uint16_t> &sValues) {
        TemplateFacts f;
        f.packets = sValues.size();
        for (uint16_t s : sValues) {
            util::require(s < wire.size() && wire[s] != 0,
                          "Characterizer: invalid S value");
            f.wireBytes += wire[s];
            f.dependent += dependent[s];
        }
        // The first packet has no predecessor to depend on.
        if (!sValues.empty())
            f.dependent -= dependent[sValues[0]];
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
        // The reconstruction adds iptUs[i] for i >= 1 only. A wrapped
        // sum ends below the addend that wrapped it.
        bool wrapped = false;
        for (size_t i = 1; i < t.iptUs.size(); ++i) {
            f.iptSumUs += t.iptUs[i];
            wrapped |= f.iptSumUs < t.iptUs[i];
        }
        if (wrapped)
            f.iptSumUs = UINT64_MAX;
        table.longFacts.push_back(f);
    }
    return table;
}

std::optional<FlowSpan>
flowSpan(const TemplateFacts &facts, const TimeSeqRecord &rec)
{
    if (facts.packets == 0)
        return std::nullopt;
    // The same steps the reconstruction takes, with every overflow
    // caught: its sums wrap, so past a wrap the packets no longer
    // sit between the first and the last timestamp.
    uint64_t stepsUs = facts.iptSumUs;
    if (!rec.isLong) {
        uint64_t rttPart, gapPart;
        if (__builtin_mul_overflow(facts.dependent,
                                   uint64_t{rec.rttUs}, &rttPart) ||
            __builtin_mul_overflow(facts.packets - 1 - facts.dependent,
                                   uint64_t{reconstructionGapUs},
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

} // namespace fcc::codec::fcc
