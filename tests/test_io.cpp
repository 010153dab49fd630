/**
 * @file
 * Streaming trace I/O subsystem tests: TraceSource/TraceSink per
 * format, magic-byte auto-detection (including gzip unwrapping and
 * truncated headers), the pcapng reader on multi-interface and
 * multi-section files, pcap timestamp-fraction validation across
 * both magics and byte orders, the resumable inflate / gzip byte
 * source, FCC2 byte-identity across input formats, and the
 * bounded-memory guarantee on a multi-GB synthetic input.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "codec/deflate/deflate.hpp"
#include "codec/deflate/inflate_stream.hpp"
#include "codec/fcc/stream.hpp"
#include "trace/pcap.hpp"
#include "trace/pcapng.hpp"
#include "trace/source.hpp"
#include "trace/tsh.hpp"
#include "trace/web_gen.hpp"
#include "util/error.hpp"
#include "util/io.hpp"

#include "test_common.hpp"

using namespace fcc;

namespace {

/** Explicit TSH spec for the raw 44-byte record fixtures. */
const trace::TraceFormatSpec kTsh =
    trace::parseTraceFormatSpec("tsh");

trace::Trace
webTrace(uint64_t seed, double seconds)
{
    trace::WebGenConfig cfg;
    cfg.seed = seed;
    cfg.durationSec = seconds;
    cfg.flowsPerSec = 80.0;
    trace::WebTrafficGenerator gen(cfg);
    return gen.generate();
}

using fcc::test::tempPath;

void
writeBytes(const std::string &path, const std::vector<uint8_t> &data)
{
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char *>(data.data()),
              static_cast<std::streamsize>(data.size()));
}

std::vector<uint8_t>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

bool
sameHeaders(const trace::Trace &a, const trace::Trace &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        const auto &x = a[i];
        const auto &y = b[i];
        if (x.srcIp != y.srcIp || x.dstIp != y.dstIp ||
            x.srcPort != y.srcPort || x.dstPort != y.dstPort ||
            x.tcpFlags != y.tcpFlags ||
            x.payloadBytes != y.payloadBytes || x.seq != y.seq ||
            x.ack != y.ack || x.window != y.window ||
            x.ipId != y.ipId)
            return false;
    }
    return true;
}

/** Byte-swap every header field of a pcap buffer (for reader tests). */
std::vector<uint8_t>
byteSwapPcap(std::vector<uint8_t> file)
{
    auto swap32at = [&file](size_t pos) {
        std::swap(file[pos], file[pos + 3]);
        std::swap(file[pos + 1], file[pos + 2]);
    };
    auto swap16at = [&file](size_t pos) {
        std::swap(file[pos], file[pos + 1]);
    };
    swap32at(0);            // magic
    swap16at(4);            // version major
    swap16at(6);            // version minor
    swap32at(8);            // thiszone
    swap32at(12);           // sigfigs
    swap32at(16);           // snaplen
    swap32at(20);           // linktype
    size_t pos = 24;
    while (pos + 16 <= file.size()) {
        uint32_t capLen = static_cast<uint32_t>(file[pos + 8]) |
                          static_cast<uint32_t>(file[pos + 9]) << 8 |
                          static_cast<uint32_t>(file[pos + 10]) << 16 |
                          static_cast<uint32_t>(file[pos + 11]) << 24;
        swap32at(pos);
        swap32at(pos + 4);
        swap32at(pos + 8);
        swap32at(pos + 12);
        pos += 16 + capLen;
    }
    return file;
}

/**
 * True when a sanitizer instruments this build. Sanitizer shadow
 * memory stays resident after madvise(MADV_DONTNEED) on the
 * application pages, so VmHWM-based bounds are meaningless there —
 * the RSS assertions are relaxed and the synthetic workloads
 * shrunk (instrumented parsing is ~10x slower).
 */
constexpr bool
underSanitizer()
{
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
    return true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
    return true;
#else
    return false;
#endif
#else
    return false;
#endif
}

/** Peak resident set size (VmHWM) of this process, in bytes. */
uint64_t
peakRssBytes()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            uint64_t kb = 0;
            std::sscanf(line.c_str(), "VmHWM: %llu",
                        reinterpret_cast<unsigned long long *>(&kb));
            return kb * 1024;
        }
    }
    return 0;
}

} // namespace

// ---- TSH source/sink ------------------------------------------------------

TEST(TraceIo, TshSourceMatchesBatchReader)
{
    trace::Trace original = webTrace(41, 4.0);
    std::string path = tempPath("io_src.tsh");
    trace::writeTshFile(original, path);

    for (bool mmapped : {true, false}) {
        trace::TshSource src(
            mmapped ? util::openByteSource(path)
                    : std::make_unique<util::FileByteSource>(path));
        trace::Trace streamed = trace::readAllPackets(src);
        EXPECT_TRUE(sameHeaders(original, streamed));
        EXPECT_EQ(src.bytesConsumed(),
                  original.size() * trace::tshRecordBytes);
    }
    std::remove(path.c_str());
}

TEST(TraceIo, TshSinkMatchesBatchWriter)
{
    trace::Trace original = webTrace(42, 3.0);
    std::string path = tempPath("io_sink.tsh");
    {
        trace::TshSink sink(
            std::make_unique<util::FileByteSink>(path));
        trace::writeAllPackets(sink, original);
    }
    EXPECT_EQ(readBytes(path), trace::writeTsh(original));
    std::remove(path.c_str());
}

TEST(TraceIo, TshSourceRejectsPartialRecord)
{
    std::string path = tempPath("io_partial.tsh");
    trace::Trace one;
    one.add(trace::PacketRecord());
    auto bytes = trace::writeTsh(one);
    bytes.resize(bytes.size() - 5);
    writeBytes(path, bytes);

    trace::TshSource src(util::openByteSource(path));
    std::vector<trace::PacketRecord> batch(16);
    EXPECT_THROW(src.read(batch), util::Error);
    std::remove(path.c_str());
}

// ---- pcap: both magics, both byte orders ----------------------------------

TEST(TraceIo, PcapRoundTripMicrosecondBothOrders)
{
    trace::Trace original = webTrace(43, 2.0);
    auto native = trace::writePcap(original, /*nanos=*/false);
    auto swapped = byteSwapPcap(native);

    for (const auto &file : {native, swapped}) {
        trace::Trace back = trace::readPcap(file);
        ASSERT_EQ(back.size(), original.size());
        EXPECT_TRUE(sameHeaders(original, back));
        for (size_t i = 0; i < back.size(); ++i)
            EXPECT_EQ(back[i].timestampUs(),
                      original[i].timestampUs());
    }
}

TEST(TraceIo, PcapRoundTripNanosecondBothOrders)
{
    trace::Trace original = webTrace(44, 2.0);
    // Give the timestamps sub-microsecond components so nanosecond
    // files genuinely carry more precision than microsecond ones.
    for (size_t i = 0; i < original.size(); ++i)
        original[i].timestampNs += i % 997;

    auto native = trace::writePcap(original, /*nanos=*/true);
    auto swapped = byteSwapPcap(native);

    for (const auto &file : {native, swapped}) {
        trace::Trace back = trace::readPcap(file);
        ASSERT_EQ(back.size(), original.size());
        for (size_t i = 0; i < back.size(); ++i)
            EXPECT_EQ(back[i].timestampNs, original[i].timestampNs);
    }
}

TEST(TraceIo, PcapRejectsOutOfRangeFraction)
{
    trace::Trace one;
    trace::PacketRecord pkt;
    pkt.timestampNs = 5000000000ull;
    one.add(pkt);

    auto patchFrac = [](std::vector<uint8_t> &file, uint32_t v) {
        // Fraction field of the first record header, little-endian.
        file[28] = static_cast<uint8_t>(v);
        file[29] = static_cast<uint8_t>(v >> 8);
        file[30] = static_cast<uint8_t>(v >> 16);
        file[31] = static_cast<uint8_t>(v >> 24);
    };

    // Microsecond file: patch the fraction to 1e6 (invalid).
    auto usecFile = trace::writePcap(one, /*nanos=*/false);
    patchFrac(usecFile, 1000000);
    EXPECT_THROW(trace::readPcap(usecFile), util::Error);

    // Nanosecond file: 1e6 is fine, 1e9 is not — the two magics
    // must be validated against different bounds.
    auto nsecFile = trace::writePcap(one, /*nanos=*/true);
    patchFrac(nsecFile, 1000000);
    EXPECT_NO_THROW(trace::readPcap(nsecFile));
    patchFrac(nsecFile, 1000000000);
    EXPECT_THROW(trace::readPcap(nsecFile), util::Error);
}

// ---- pcapng ---------------------------------------------------------------

TEST(TraceIo, PcapngRoundTripPreservesNanoseconds)
{
    trace::Trace original = webTrace(45, 3.0);
    for (size_t i = 0; i < original.size(); ++i)
        original[i].timestampNs += i % 997;

    auto bytes = trace::writePcapng(original);
    trace::Trace back = trace::readPcapng(bytes);
    ASSERT_EQ(back.size(), original.size());
    EXPECT_TRUE(sameHeaders(original, back));
    for (size_t i = 0; i < back.size(); ++i)
        EXPECT_EQ(back[i].timestampNs, original[i].timestampNs);
}

namespace {

void
putU16le(std::vector<uint8_t> &out, uint16_t v)
{
    out.push_back(static_cast<uint8_t>(v));
    out.push_back(static_cast<uint8_t>(v >> 8));
}

void
putU32le(std::vector<uint8_t> &out, uint32_t v)
{
    out.push_back(static_cast<uint8_t>(v));
    out.push_back(static_cast<uint8_t>(v >> 8));
    out.push_back(static_cast<uint8_t>(v >> 16));
    out.push_back(static_cast<uint8_t>(v >> 24));
}

std::vector<uint8_t>
pcapngShb()
{
    std::vector<uint8_t> out;
    putU32le(out, 0x0a0d0d0au);
    putU32le(out, 28);
    putU32le(out, 0x1a2b3c4du);
    putU16le(out, 1);
    putU16le(out, 0);
    putU32le(out, 0xffffffffu);
    putU32le(out, 0xffffffffu);
    putU32le(out, 28);
    return out;
}

/** IDB with an explicit if_tsresol option. */
std::vector<uint8_t>
pcapngIdb(uint16_t linkType, uint8_t tsresol)
{
    std::vector<uint8_t> out;
    putU32le(out, 1);
    putU32le(out, 32);
    putU16le(out, linkType);
    putU16le(out, 0);
    putU32le(out, 65535);
    putU16le(out, 9);  // if_tsresol
    putU16le(out, 1);
    out.push_back(tsresol);
    out.push_back(0); out.push_back(0); out.push_back(0);
    putU16le(out, 0);  // opt_endofopt
    putU16le(out, 0);
    putU32le(out, 32);
    return out;
}

/** EPB of @p pkt, its capture padded with @p extra zero bytes. */
std::vector<uint8_t>
pcapngEpb(uint32_t ifaceId, uint64_t ticks,
          const trace::PacketRecord &pkt, size_t extra = 0)
{
    std::vector<uint8_t> body;
    trace::appendIpv4TcpHeader(pkt, body);
    body.resize(body.size() + extra);
    std::vector<uint8_t> out;
    putU32le(out, 6);
    uint32_t total = static_cast<uint32_t>(32 + body.size());
    putU32le(out, total);
    putU32le(out, ifaceId);
    putU32le(out, static_cast<uint32_t>(ticks >> 32));
    putU32le(out, static_cast<uint32_t>(ticks));
    putU32le(out, static_cast<uint32_t>(body.size()));
    putU32le(out, pkt.ipTotalLength());
    out.insert(out.end(), body.begin(), body.end());
    putU32le(out, total);
    return out;
}

} // namespace

TEST(TraceIo, PcapngMultipleInterfaceBlocks)
{
    // Two interfaces with different clock resolutions: microsecond
    // (power of 10) and 1/1024 s (power of 2). Packets reference
    // both; timestamps must come back on a common ns timeline.
    trace::PacketRecord pkt;
    pkt.srcIp = 0x0a000001;
    pkt.dstIp = 0x0a000002;
    pkt.srcPort = 1234;
    pkt.dstPort = 80;
    pkt.tcpFlags = trace::tcp_flags::Syn;

    std::vector<uint8_t> file = pcapngShb();
    auto idb0 = pcapngIdb(101, 6);           // µs resolution
    auto idb1 = pcapngIdb(101, 0x80 | 10);   // 2^-10 s resolution
    file.insert(file.end(), idb0.begin(), idb0.end());
    file.insert(file.end(), idb1.begin(), idb1.end());

    auto epb0 = pcapngEpb(0, 2500000, pkt);  // 2.5 s in µs ticks
    auto epb1 = pcapngEpb(1, 3 * 1024 + 512, pkt);  // 3.5 s
    file.insert(file.end(), epb0.begin(), epb0.end());
    file.insert(file.end(), epb1.begin(), epb1.end());

    trace::Trace back = trace::readPcapng(file);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].timestampNs, 2500000000ull);
    EXPECT_EQ(back[1].timestampNs, 3500000000ull);
    EXPECT_EQ(back[0].srcPort, 1234);
    EXPECT_EQ(back[1].dstPort, 80);
}

TEST(TraceIo, PcapngSecondSectionResetsInterfaces)
{
    trace::PacketRecord pkt;
    pkt.srcIp = 1;
    pkt.dstIp = 2;

    std::vector<uint8_t> file = pcapngShb();
    auto idb = pcapngIdb(101, 6);
    file.insert(file.end(), idb.begin(), idb.end());
    auto epb = pcapngEpb(0, 1000000, pkt);
    file.insert(file.end(), epb.begin(), epb.end());

    // Second section: its packet may not reference the first
    // section's interface until a new IDB appears.
    auto shb = pcapngShb();
    file.insert(file.end(), shb.begin(), shb.end());
    auto epbBad = pcapngEpb(0, 2000000, pkt);
    file.insert(file.end(), epbBad.begin(), epbBad.end());

    EXPECT_THROW(trace::readPcapng(file), util::Error);
}

TEST(TraceIo, PcapngRejectsSimplePacketBlock)
{
    std::vector<uint8_t> file = pcapngShb();
    auto idb = pcapngIdb(101, 6);
    file.insert(file.end(), idb.begin(), idb.end());
    // SPB: type 3, original length only, no timestamp.
    putU32le(file, 3);
    putU32le(file, 16);
    putU32le(file, 40);
    putU32le(file, 16);
    EXPECT_THROW(trace::readPcapng(file), util::Error);
}

TEST(TraceIo, PcapngSkipsUnknownBlocks)
{
    trace::PacketRecord pkt;
    pkt.srcIp = 1;
    pkt.dstIp = 2;

    std::vector<uint8_t> file = pcapngShb();
    auto idb = pcapngIdb(101, 6);
    file.insert(file.end(), idb.begin(), idb.end());
    // An Interface Statistics Block (type 5) must be skipped.
    putU32le(file, 5);
    putU32le(file, 20);
    putU32le(file, 0);
    putU32le(file, 0);
    putU32le(file, 20);
    auto epb = pcapngEpb(0, 7, pkt);
    file.insert(file.end(), epb.begin(), epb.end());

    trace::Trace back = trace::readPcapng(file);
    ASSERT_EQ(back.size(), 1u);
}

TEST(TraceIo, PcapngTruncatedHeaderRejected)
{
    std::vector<uint8_t> file = pcapngShb();
    file.resize(10);  // mid-byte-order-magic
    EXPECT_THROW(trace::readPcapng(file), util::Error);
}

// ---- window reader: pcap and pcapng records parsed in place -------------

namespace {

/** Every field equal, the nanosecond timestamp included. */
bool
samePackets(std::span<const trace::PacketRecord> a,
            std::span<const trace::PacketRecord> b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (trace::packetCanonicalLess(a[i], b[i]) ||
            trace::packetCanonicalLess(b[i], a[i]))
            return false;
    return true;
}

/**
 * A memory source that hands out 1..4099 bytes per read (sizes drawn
 * from @p seed), so records land across every refill position, and
 * records the largest read it was asked for.
 */
class RaggedByteSource : public util::ByteSource
{
  public:
    RaggedByteSource(std::vector<uint8_t> data, uint32_t seed,
                     size_t *largestAsk = nullptr)
        : data_(std::move(data)), rng_(seed), largestAsk_(largestAsk)
    {}

    size_t
    read(uint8_t *out, size_t maxLen) override
    {
        if (largestAsk_ != nullptr)
            *largestAsk_ = std::max(*largestAsk_, maxLen);
        size_t n = std::min({maxLen, data_.size() - pos_,
                             static_cast<size_t>(1 + rng_() % 4099)});
        std::memcpy(out, data_.data() + pos_, n);
        pos_ += n;
        return n;
    }

  private:
    std::vector<uint8_t> data_;
    size_t pos_ = 0;
    std::mt19937 rng_;
    size_t *largestAsk_;
};

/** Open a pcap or pcapng source over @p bytes, gunzipping first. */
std::unique_ptr<trace::TraceSource>
openCapture(trace::TraceFormat format, bool gzip,
            std::unique_ptr<util::ByteSource> bytes)
{
    if (gzip)
        bytes = std::make_unique<codec::deflate::GzipInflateSource>(
            std::move(bytes));
    if (format == trace::TraceFormat::Pcap)
        return std::make_unique<trace::PcapSource>(std::move(bytes));
    return std::make_unique<trace::PcapngSource>(std::move(bytes));
}

/**
 * Read @p bytes one packet per call until the end or a util::Error
 * (@p threw says which, opening included); returns the packets read.
 */
std::vector<trace::PacketRecord>
readEach(trace::TraceFormat format, bool gzip, std::vector<uint8_t> bytes,
         bool &threw)
{
    std::vector<trace::PacketRecord> got;
    threw = false;
    try {
        auto src = openCapture(
            format, gzip,
            std::make_unique<util::BufferByteSource>(std::move(bytes)));
        trace::PacketRecord pkt;
        while (src->read({&pkt, 1}) == 1)
            got.push_back(pkt);
    } catch (const util::Error &) {
        threw = true;
    }
    return got;
}

/** A capture file and where its blocks (or records) end. */
struct Capture
{
    const char *name;
    trace::TraceFormat format;
    std::vector<uint8_t> bytes;
    std::vector<size_t> blockEnds;   ///< every block, header included
    std::vector<size_t> packetEnds;  ///< packet blocks only
    std::vector<trace::PacketRecord> packets;

    void
    append(const std::vector<uint8_t> &block, bool isPacket)
    {
        bytes.insert(bytes.end(), block.begin(), block.end());
        blockEnds.push_back(bytes.size());
        if (isPacket)
            packetEnds.push_back(bytes.size());
    }
};

/** One pcap record at nanosecond resolution, capture padded by @p extra. */
std::vector<uint8_t>
pcapRecord(const trace::PacketRecord &pkt, size_t extra = 0)
{
    std::vector<uint8_t> body;
    trace::appendIpv4TcpHeader(pkt, body);
    body.resize(body.size() + extra);
    std::vector<uint8_t> out;
    putU32le(out, static_cast<uint32_t>(pkt.timestampNs / 1000000000));
    putU32le(out, static_cast<uint32_t>(pkt.timestampNs % 1000000000));
    putU32le(out, static_cast<uint32_t>(body.size()));
    putU32le(out, pkt.ipTotalLength());
    out.insert(out.end(), body.begin(), body.end());
    return out;
}

Capture
pcapCapture(std::span<const trace::PacketRecord> packets)
{
    Capture c{"pcap", trace::TraceFormat::Pcap, {}, {}, {}, {}};
    c.append(trace::writePcap(trace::Trace(), /*nanos=*/true), false);
    for (const auto &pkt : packets) {
        c.append(pcapRecord(pkt), true);
        c.packets.push_back(pkt);
    }
    return c;
}

/**
 * Append a pcapng section of @p packets in the given byte order:
 * SHB, one nanosecond RAW interface, one EPB per packet.
 */
void
appendPcapngSection(Capture &c, std::span<const trace::PacketRecord> packets,
                    bool bigEndian)
{
    auto swap = [bigEndian](std::vector<uint8_t> block,
                            std::initializer_list<std::pair<size_t, int>>
                                fields) {
        // (offset, width) of every multi-byte field to reverse.
        if (bigEndian)
            for (auto [at, width] : fields)
                std::reverse(block.begin() + static_cast<long>(at),
                             block.begin() + static_cast<long>(at) +
                                 width);
        return block;
    };
    c.append(swap(pcapngShb(), {{4, 4}, {8, 4}, {12, 2}, {14, 2},
                                {16, 8}, {24, 4}}),
             false);
    c.append(swap(pcapngIdb(101, 9), {{0, 4}, {4, 4}, {8, 2},
                                      {10, 2}, {12, 4}, {16, 2},
                                      {18, 2}, {24, 2}, {26, 2},
                                      {28, 4}}),
             false);
    for (const auto &pkt : packets) {
        c.append(swap(pcapngEpb(0, pkt.timestampNs, pkt),
                      {{0, 4}, {4, 4}, {8, 4}, {12, 4}, {16, 4},
                       {20, 4}, {24, 4}, {68, 4}}),
                 true);
        c.packets.push_back(pkt);
    }
}

} // namespace

TEST(TraceIo, WindowReaderTruncationAtEveryOffset)
{
    // Cut pcap, pcapng and a byte-swapped two-section pcapng, plain
    // and gzip'd, after every byte. A plain file cut at a block end
    // is a shorter valid capture; any other cut, and every cut of a
    // gzip'd file, ends in util::Error. Either way the packets read
    // before the end are the reference prefix.
    trace::Trace t = webTrace(51, 2.0);
    ASSERT_GE(t.size(), 30u);
    std::span<const trace::PacketRecord> all(t.packets());

    std::vector<Capture> captures;
    captures.push_back(pcapCapture(all.first(30)));
    Capture ng{"pcapng", trace::TraceFormat::Pcapng, {}, {}, {}, {}};
    appendPcapngSection(ng, all.first(30), false);
    captures.push_back(ng);
    Capture swapped{"swapped pcapng", trace::TraceFormat::Pcapng,
                    {}, {}, {}, {}};
    appendPcapngSection(swapped, all.first(12), true);
    appendPcapngSection(swapped, all.subspan(12, 12), false);
    captures.push_back(swapped);

    for (const Capture &c : captures) {
        bool threw = false;
        ASSERT_TRUE(samePackets(readEach(c.format, false, c.bytes, threw),
                                c.packets))
            << c.name;
        ASSERT_FALSE(threw) << c.name;

        for (size_t cut = 0; cut < c.bytes.size(); ++cut) {
            std::vector<uint8_t> head(c.bytes.begin(),
                                      c.bytes.begin() +
                                          static_cast<long>(cut));
            auto got = readEach(c.format, false, head, threw);
            bool atBlockEnd = std::binary_search(
                c.blockEnds.begin(), c.blockEnds.end(), cut);
            size_t whole = static_cast<size_t>(
                std::upper_bound(c.packetEnds.begin(),
                                 c.packetEnds.end(), cut) -
                c.packetEnds.begin());
            ASSERT_EQ(threw, !atBlockEnd) << c.name << " cut " << cut;
            ASSERT_TRUE(samePackets(
                got, std::span(c.packets).first(whole)))
                << c.name << " cut " << cut;
        }

        std::vector<uint8_t> gz = codec::deflate::gzipCompress(c.bytes);
        ASSERT_TRUE(samePackets(readEach(c.format, true, gz, threw),
                                c.packets))
            << c.name << ".gz";
        for (size_t cut = 0; cut < gz.size(); ++cut) {
            std::vector<uint8_t> head(gz.begin(),
                                      gz.begin() + static_cast<long>(cut));
            auto got = readEach(c.format, true, head, threw);
            ASSERT_TRUE(threw) << c.name << ".gz cut " << cut;
            ASSERT_LE(got.size(), c.packets.size());
            ASSERT_TRUE(samePackets(
                got, std::span(c.packets).first(got.size())))
                << c.name << ".gz cut " << cut;
        }
    }
}

TEST(TraceIo, WindowReaderBlocksStraddlingRefills)
{
    // Captures several windows long, each with one packet record
    // larger than a refill (and, in pcapng, a larger skipped block),
    // read whole, in ragged 1..4099-byte pieces and gzip'd: every
    // record lands across a refill somewhere, and each way reads
    // the same packets.
    trace::Trace t = webTrace(52, 8.0);
    ASSERT_GE(t.size(), 4000u);
    std::span<const trace::PacketRecord> all(t.packets());
    const size_t half = all.size() / 2;
    const size_t bigExtra = util::ReadWindow::refillBytes + 4460;

    Capture pcap = pcapCapture(all.first(half));
    pcap.append(pcapRecord(all[half], bigExtra), true);
    pcap.packets.push_back(all[half]);
    for (const auto &pkt : all.subspan(half + 1)) {
        pcap.append(pcapRecord(pkt), true);
        pcap.packets.push_back(pkt);
    }

    Capture ng{"pcapng", trace::TraceFormat::Pcapng, {}, {}, {}, {}};
    appendPcapngSection(ng, all.first(half), false);
    std::vector<uint8_t> custom;  // custom block (type 0xBAD), skipped
    putU32le(custom, 0xBAD);
    putU32le(custom, 100000);
    custom.resize(100000 - 4);
    putU32le(custom, 100000);
    ng.append(custom, false);
    ng.append(pcapngEpb(0, all[half].timestampNs, all[half], bigExtra),
              true);
    ng.packets.push_back(all[half]);
    appendPcapngSection(ng, all.subspan(half + 1), false);

    for (const Capture &c : {pcap, ng}) {
        ASSERT_GT(c.bytes.size(), 4 * util::ReadWindow::refillBytes);
        auto whole = openCapture(
            c.format, false,
            std::make_unique<util::BufferByteSource>(c.bytes));
        EXPECT_TRUE(samePackets(trace::readAllPackets(*whole).packets(),
                                c.packets))
            << c.name;
        EXPECT_EQ(whole->bytesConsumed(), c.bytes.size()) << c.name;

        for (uint32_t seed : {1u, 2u, 3u}) {
            auto ragged = openCapture(
                c.format, false,
                std::make_unique<RaggedByteSource>(c.bytes, seed));
            EXPECT_TRUE(samePackets(
                trace::readAllPackets(*ragged).packets(), c.packets))
                << c.name << " ragged seed " << seed;
        }

        auto gz = openCapture(
            c.format, true,
            std::make_unique<util::BufferByteSource>(
                codec::deflate::gzipCompress(c.bytes)));
        EXPECT_TRUE(samePackets(trace::readAllPackets(*gz).packets(),
                                c.packets))
            << c.name << ".gz";
    }
}

TEST(TraceIo, PcapngByteSwappedSectionsReadInPlace)
{
    // Big-endian, little-endian, big-endian sections in one file:
    // each section's byte-order magic governs its own blocks.
    trace::Trace t = webTrace(53, 3.0);
    ASSERT_GE(t.size(), 600u);
    std::span<const trace::PacketRecord> all(t.packets());
    Capture c{"mixed", trace::TraceFormat::Pcapng, {}, {}, {}, {}};
    appendPcapngSection(c, all.first(200), true);
    appendPcapngSection(c, all.subspan(200, 200), false);
    appendPcapngSection(c, all.subspan(400), true);

    for (bool gzip : {false, true}) {
        std::vector<uint8_t> bytes =
            gzip ? codec::deflate::gzipCompress(c.bytes) : c.bytes;
        auto src = openCapture(
            c.format, gzip,
            std::make_unique<RaggedByteSource>(bytes, 7));
        EXPECT_TRUE(samePackets(trace::readAllPackets(*src).packets(),
                                c.packets))
            << (gzip ? "gzip'd" : "plain");
    }
}

TEST(TraceIo, OversizedRecordRejectedBeforeTheWindowGrows)
{
    // A length field past the cap fails on the length, not on the
    // missing bytes, and the window never asks its source for the
    // claimed size.
    trace::PacketRecord pkt;
    pkt.srcIp = 1;
    pkt.dstIp = 2;

    auto expectRejected = [](trace::TraceFormat format,
                             std::vector<uint8_t> file,
                             const char *message) {
        size_t largestAsk = 0;
        try {
            auto src = openCapture(
                format, false,
                std::make_unique<RaggedByteSource>(std::move(file), 5,
                                                   &largestAsk));
            trace::readAllPackets(*src);
            ADD_FAILURE() << "accepted: " << message;
        } catch (const util::Error &e) {
            EXPECT_STREQ(e.what(), message);
        }
        EXPECT_LT(largestAsk, size_t{1} << 20) << message;
    };

    for (uint32_t claim : {(1u << 24) + 4, 0x7ffffffcu, 0xfffffffcu}) {
        Capture ng{"pcapng", trace::TraceFormat::Pcapng, {}, {}, {}, {}};
        appendPcapngSection(ng, {&pkt, 1}, false);
        std::vector<uint8_t> file = ng.bytes;
        putU32le(file, 6);
        putU32le(file, claim);
        file.resize(file.size() + 4096);
        expectRejected(trace::TraceFormat::Pcapng, file,
                       "pcapng: block too large");

        // The same claim in a section header block.
        std::vector<uint8_t> shb = pcapngShb();
        shb[4] = static_cast<uint8_t>(claim);
        shb[5] = static_cast<uint8_t>(claim >> 8);
        shb[6] = static_cast<uint8_t>(claim >> 16);
        shb[7] = static_cast<uint8_t>(claim >> 24);
        expectRejected(trace::TraceFormat::Pcapng, shb,
                       "pcapng: block too large");
    }

    for (uint32_t capLen : {262145u, 0x7fffffffu, 0xffffffffu}) {
        Capture pc = pcapCapture({&pkt, 1});
        std::vector<uint8_t> file = pc.bytes;
        putU32le(file, 1);
        putU32le(file, 0);
        putU32le(file, capLen);
        putU32le(file, 40);
        file.resize(file.size() + 4096);
        expectRejected(trace::TraceFormat::Pcap, file,
                       "readPcap: capture length too large");
    }
}

// ---- gzip byte source -----------------------------------------------------

TEST(TraceIo, GzipSourceStreamsChunkwise)
{
    // Compressible but non-trivial payload, drained in odd-sized
    // chunks through the resumable inflate.
    std::vector<uint8_t> payload;
    std::mt19937 rng(7);
    for (int i = 0; i < 300000; ++i)
        payload.push_back(static_cast<uint8_t>(rng() % 17));
    auto gz = codec::deflate::gzipCompress(payload);

    codec::deflate::GzipInflateSource src(
        std::make_unique<util::BufferByteSource>(gz));
    std::vector<uint8_t> restored;
    uint8_t buf[777];
    size_t n;
    while ((n = src.read(buf, sizeof(buf))) > 0)
        restored.insert(restored.end(), buf, buf + n);
    EXPECT_EQ(restored, payload);
}

TEST(TraceIo, GzipSourceDetectsCorruption)
{
    std::vector<uint8_t> payload(20000, 'x');
    auto gz = codec::deflate::gzipCompress(payload);
    gz[gz.size() - 6] ^= 0xff;  // flip a CRC byte

    codec::deflate::GzipInflateSource src(
        std::make_unique<util::BufferByteSource>(gz));
    uint8_t buf[4096];
    EXPECT_THROW(
        {
            while (src.read(buf, sizeof(buf)) > 0) {
            }
        },
        util::Error);
}

namespace {

/** @p n bytes of mildly compressible noise. */
std::vector<uint8_t>
noisyBytes(size_t n, uint32_t seed)
{
    std::mt19937 rng(seed);
    std::vector<uint8_t> bytes(n);
    for (uint8_t &b : bytes)
        b = static_cast<uint8_t>(rng() % 17);
    return bytes;
}

/** Concatenated gzip members and their one-shot inflates. */
struct GzipMembers
{
    std::vector<uint8_t> gz;
    std::vector<uint8_t> plain;
    std::vector<size_t> memberEnds;  ///< of each member in gz
    std::vector<size_t> plainEnds;   ///< of each member in plain
};

GzipMembers
gzipMembers(const std::vector<std::vector<uint8_t>> &parts)
{
    GzipMembers m;
    for (const auto &part : parts) {
        auto gz = codec::deflate::gzipCompress(part);
        auto plain = codec::deflate::gzipDecompress(gz);
        m.gz.insert(m.gz.end(), gz.begin(), gz.end());
        m.plain.insert(m.plain.end(), plain.begin(), plain.end());
        m.memberEnds.push_back(m.gz.size());
        m.plainEnds.push_back(m.plain.size());
    }
    return m;
}

std::unique_ptr<codec::deflate::GzipInflateSource>
gunzip(std::vector<uint8_t> gz)
{
    return std::make_unique<codec::deflate::GzipInflateSource>(
        std::make_unique<util::BufferByteSource>(std::move(gz)));
}

/**
 * Drain @p src in ragged 1-4099-byte reads until the end or a
 * util::Error, whose message lands in @p error (empty at a clean end).
 */
std::vector<uint8_t>
drainRagged(util::ByteSource &src, std::string &error)
{
    std::mt19937 rng(11);
    std::vector<uint8_t> got, buf(4099);
    error.clear();
    try {
        size_t n;
        while ((n = src.read(buf.data(), 1 + rng() % 4099)) > 0)
            got.insert(got.end(), buf.begin(),
                       buf.begin() + static_cast<long>(n));
    } catch (const util::Error &e) {
        error = e.what();
    }
    return got;
}

/** The message of the util::Error one more read() of @p src throws. */
std::string
nextReadError(util::ByteSource &src)
{
    uint8_t buf[64];
    try {
        src.read(buf, sizeof(buf));
    } catch (const util::Error &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(TraceIo, GzipSourceHandlesConcatenatedMembers)
{
    // About 1.5 MB over four members, one of them empty, read in
    // ragged pieces: the read-ahead ring (4 x 256 KiB) wraps, and
    // member ends fall inside slots.
    auto m = gzipMembers({noisyBytes(600000, 1), {}, noisyBytes(5, 2),
                          noisyBytes(900000, 3)});
    auto src = gunzip(m.gz);
    std::string error;
    auto got = drainRagged(*src, error);
    EXPECT_EQ(error, "");
    EXPECT_EQ(got, m.plain);
    uint8_t buf[16];
    EXPECT_EQ(src->read(buf, sizeof(buf)), 0u);
    EXPECT_EQ(src->read(buf, sizeof(buf)), 0u);
}

TEST(TraceIo, GzipSourceChecksTheSecondMembersTrailer)
{
    // A flipped CRC-32 or ISIZE byte in member 2 of 3: both members'
    // bytes arrive first, then the error, on this and every later
    // read().
    auto m = gzipMembers({noisyBytes(400000, 4), noisyBytes(300000, 5),
                          noisyBytes(1000, 6)});
    struct Flip
    {
        size_t fromEnd;
        const char *error;
    };
    for (Flip flip : {Flip{8, "gzip: CRC-32 mismatch"},
                      Flip{4, "gzip: length mismatch"}}) {
        std::vector<uint8_t> gz = m.gz;
        gz[m.memberEnds[1] - flip.fromEnd] ^= 0x01;
        auto src = gunzip(gz);
        std::string error;
        auto got = drainRagged(*src, error);
        EXPECT_EQ(error, flip.error);
        EXPECT_TRUE(std::equal(got.begin(), got.end(), m.plain.begin(),
                               m.plain.begin() +
                                   static_cast<long>(m.plainEnds[1])) &&
                    got.size() == m.plainEnds[1])
            << flip.error << ": " << got.size() << " bytes";
        EXPECT_EQ(nextReadError(*src), flip.error);
        EXPECT_EQ(nextReadError(*src), flip.error);
    }
}

TEST(TraceIo, GzipSourceRejectsTrailingGarbageAndCuts)
{
    auto m = gzipMembers({noisyBytes(400000, 7), noisyBytes(400000, 8)});
    struct Case
    {
        const char *name;
        std::vector<uint8_t> gz;
        size_t goodBytes;  ///< bytes that must arrive before the error
        const char *error;
    };
    std::vector<Case> cases;
    std::vector<uint8_t> garbage = m.gz;
    for (char c : std::string("not a gzip member"))
        garbage.push_back(static_cast<uint8_t>(c));
    cases.push_back({"garbage", garbage, m.plain.size(),
                     "gzip: bad magic"});
    std::vector<uint8_t> stub = m.gz;
    stub.insert(stub.end(), {0x1f, 0x8b, 8});
    cases.push_back({"short garbage", stub, m.plain.size(),
                     "gzip: truncated header"});
    // Member 2 cut half-way into its deflate data.
    std::vector<uint8_t> cut(
        m.gz.begin(),
        m.gz.begin() + static_cast<long>(
                           (m.memberEnds[0] + m.memberEnds[1]) / 2));
    cases.push_back({"cut", cut, m.plainEnds[0],
                     "inflate: truncated stream"});

    for (const Case &c : cases) {
        auto src = gunzip(c.gz);
        std::string error;
        auto got = drainRagged(*src, error);
        EXPECT_EQ(error, c.error) << c.name;
        EXPECT_GE(got.size(), c.goodBytes) << c.name;
        EXPECT_LE(got.size(), m.plain.size()) << c.name;
        EXPECT_TRUE(std::equal(got.begin(), got.end(), m.plain.begin()))
            << c.name;
        EXPECT_EQ(nextReadError(*src), c.error) << c.name;
    }
}

#ifdef __linux__
namespace {

size_t
taskCount()
{
    size_t n = 0;
    for ([[maybe_unused]] const auto &entry :
         std::filesystem::directory_iterator("/proc/self/task"))
        ++n;
    return n;
}

/** Wait up to 2 s for the task count to fall to @p want; the last count. */
size_t
settleTaskCount(size_t want)
{
    size_t n = taskCount();
    for (int i = 0; i < 200 && n != want; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        n = taskCount();
    }
    return n;
}

} // namespace

TEST(TraceIo, GzipSourceStopsItsHelperWhenDestroyed)
{
    // A sanitizer runtime may start a thread of its own at the
    // process's first thread creation: count after one.
    std::thread([] {}).join();
    const size_t baseline = settleTaskCount(taskCount());

    {
        // A stream of one slot (256 KiB) inflates in the constructor.
        auto src = gunzip(codec::deflate::gzipCompress(noisyBytes(1000, 9)));
        EXPECT_EQ(taskCount(), baseline);
        std::string error;
        EXPECT_EQ(drainRagged(*src, error).size(), 1000u);
        EXPECT_EQ(error, "");
    }

    auto gz = codec::deflate::gzipCompress(noisyBytes(1500000, 9));

    {
        // Destroyed after its first batch, with the helper running.
        auto src = gunzip(gz);
        EXPECT_EQ(taskCount(), baseline + 1);
        uint8_t buf[4096];
        EXPECT_GT(src->read(buf, sizeof(buf)), 0u);
    }
    EXPECT_EQ(settleTaskCount(baseline), baseline);

    {
        // Destroyed unread, once the helper has filled the 1 MiB ring
        // and waits for a free slot.
        auto src = gunzip(gz);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    EXPECT_EQ(settleTaskCount(baseline), baseline);
}
#endif

// ---- format auto-detection ------------------------------------------------

TEST(TraceIo, DetectsEveryFormat)
{
    trace::Trace t = webTrace(46, 1.0);

    auto tsh = trace::writeTsh(t);
    auto det = trace::detectTraceFormat(tsh);
    EXPECT_EQ(det.format, trace::TraceFormat::Tsh);
    EXPECT_FALSE(det.gzip);

    auto pcap = trace::writePcap(t);
    det = trace::detectTraceFormat(pcap);
    EXPECT_EQ(det.format, trace::TraceFormat::Pcap);

    auto pcapNs = trace::writePcap(t, /*nanos=*/true);
    det = trace::detectTraceFormat(pcapNs);
    EXPECT_EQ(det.format, trace::TraceFormat::Pcap);

    auto swapped = byteSwapPcap(pcap);
    det = trace::detectTraceFormat(swapped);
    EXPECT_EQ(det.format, trace::TraceFormat::Pcap);

    auto pcapng = trace::writePcapng(t);
    det = trace::detectTraceFormat(pcapng);
    EXPECT_EQ(det.format, trace::TraceFormat::Pcapng);

    auto gz = codec::deflate::gzipCompress(tsh);
    det = trace::detectTraceFormat(gz);
    EXPECT_TRUE(det.gzip);
}

TEST(TraceIo, DetectionRejectsGarbageAndTruncation)
{
    std::vector<uint8_t> garbage = {0xde, 0xad, 0xbe, 0xef, 0x00,
                                    0x00, 0x00, 0x00, 0x00, 0x00};
    EXPECT_THROW(trace::detectTraceFormat(garbage), util::Error);

    std::vector<uint8_t> tiny = {0x45};
    EXPECT_THROW(trace::detectTraceFormat(tiny), util::Error);

    std::vector<uint8_t> empty;
    EXPECT_THROW(trace::detectTraceFormat(empty), util::Error);
}

TEST(TraceIo, OpenTraceSourceAutoDetects)
{
    trace::Trace original = webTrace(47, 2.0);

    struct Case
    {
        const char *name;
        std::vector<uint8_t> bytes;
        trace::TraceFormat format;
        bool gzip;
    };
    std::vector<Case> cases;
    cases.push_back({"auto.tsh", trace::writeTsh(original),
                     trace::TraceFormat::Tsh, false});
    cases.push_back({"auto.pcap", trace::writePcap(original),
                     trace::TraceFormat::Pcap, false});
    cases.push_back({"auto.pcapng", trace::writePcapng(original),
                     trace::TraceFormat::Pcapng, false});
    cases.push_back(
        {"auto.tsh.gz",
         codec::deflate::gzipCompress(trace::writeTsh(original)),
         trace::TraceFormat::Tsh, true});
    cases.push_back(
        {"auto.pcapng.gz",
         codec::deflate::gzipCompress(trace::writePcapng(original)),
         trace::TraceFormat::Pcapng, true});

    for (const auto &c : cases) {
        std::string path = tempPath(c.name);
        writeBytes(path, c.bytes);
        trace::DetectedFormat detected;
        auto src = trace::openTraceSource(path, {}, &detected);
        EXPECT_EQ(detected.format, c.format) << c.name;
        EXPECT_EQ(detected.gzip, c.gzip) << c.name;
        trace::Trace back = trace::readAllPackets(*src);
        EXPECT_TRUE(sameHeaders(original, back)) << c.name;
        std::remove(path.c_str());
    }
}

TEST(TraceIo, TruncatedPcapHeaderRejectedOnOpen)
{
    std::string path = tempPath("trunc.pcap");
    auto bytes = trace::writePcap(webTrace(48, 0.5));
    bytes.resize(20);  // magic survives, global header does not
    writeBytes(path, bytes);
    EXPECT_THROW(trace::openTraceSource(path), util::Error);
    std::remove(path.c_str());
}

// ---- FCC2 byte-identity across input formats ------------------------------

TEST(TraceIo, CompressionIsByteIdenticalAcrossFormats)
{
    // The acceptance bar of the I/O subsystem: a gzip'd pcapng input
    // compresses to the exact same FCC2 bytes as the TSH path, and
    // both round-trip to identical reconstructions.
    trace::Trace original = webTrace(49, 5.0);

    std::string tshPath = tempPath("ident.tsh");
    std::string ngGzPath = tempPath("ident.pcapng.gz");
    trace::writeTshFile(original, tshPath);
    writeBytes(ngGzPath, codec::deflate::gzipCompress(
                             trace::writePcapng(original)));

    std::string fccA = tempPath("ident_a.fcc");
    std::string fccB = tempPath("ident_b.fcc");
    auto statsA =
        codec::fcc::compressTraceFile(tshPath, fccA, {}, kTsh);
    auto statsB = codec::fcc::compressTraceFile(ngGzPath, fccB);
    EXPECT_EQ(statsA.packets, statsB.packets);
    EXPECT_EQ(statsA.flows, statsB.flows);
    EXPECT_EQ(readBytes(fccA), readBytes(fccB));

    // Decompressing each to TSH gives identical bytes too.
    std::string outA = tempPath("ident_a_out.tsh");
    std::string outB = tempPath("ident_b_out.tsh");
    codec::fcc::decompressTraceFile(fccA, outA, {}, kTsh);
    codec::fcc::decompressTraceFile(fccB, outB);
    EXPECT_EQ(readBytes(outA), readBytes(outB));

    for (const auto &p : {tshPath, ngGzPath, fccA, fccB, outA, outB})
        std::remove(p.c_str());
}

TEST(TraceIo, CorruptFccInputDoesNotClobberOutputFile)
{
    // The output path must not be opened (truncated) until the FCC
    // container has decoded: failing on corrupt input has to leave
    // an existing output file untouched.
    std::string fccPath = tempPath("corrupt.fcc");
    std::string outPath = tempPath("precious.tsh");
    writeBytes(fccPath, {'F', 'C', 'C', '2', 0xde, 0xad});
    const std::vector<uint8_t> precious = {1, 2, 3, 4, 5};
    writeBytes(outPath, precious);

    EXPECT_THROW(codec::fcc::decompressTraceFile(fccPath, outPath),
                 util::Error);
    EXPECT_EQ(readBytes(outPath), precious);

    std::remove(fccPath.c_str());
    std::remove(outPath.c_str());
}

TEST(TraceIo, EmptyFileSourcesBehave)
{
    // Zero-byte files must neither crash (null mmap) nor parse.
    std::string path = tempPath("empty.bin");
    writeBytes(path, {});

    auto bytes = util::openByteSource(path);
    uint8_t buf[16];
    EXPECT_EQ(bytes->read(buf, sizeof(buf)), 0u);

    // Explicit TSH spec: an empty file is a valid 0-record trace.
    trace::TraceFormatSpec tshSpec;
    tshSpec.autoDetect = false;
    tshSpec.format = trace::TraceFormat::Tsh;
    auto src = trace::openTraceSource(path, tshSpec);
    std::vector<trace::PacketRecord> batch(4);
    EXPECT_EQ(src->read(batch), 0u);

    // Auto-detection has nothing to go on and must say so.
    EXPECT_THROW(trace::openTraceSource(path), util::Error);
    std::remove(path.c_str());
}

TEST(TraceIo, FifoInputReadsInFull)
{
    // A FIFO reports size 0, so a source that maps it reads nothing;
    // it must stream through stdio, explicit format or auto-detected.
    // So must a /proc file.
    trace::Trace original = webTrace(51, 2.0);
    struct Case
    {
        const char *name;
        std::vector<uint8_t> bytes;
        trace::TraceFormatSpec spec;
    };
    const Case cases[] = {
        {"tsh", trace::writeTsh(original), kTsh},
        {"auto pcapng", trace::writePcapng(original), {}},
    };
    for (const Case &c : cases) {
        std::string fifo = tempPath("in.fifo");
        std::jthread writer = fcc::test::feedFifo(fifo, c.bytes);
        auto src = trace::openTraceSource(fifo, c.spec);
        trace::Trace back = trace::readAllPackets(*src);
        writer.join();
        EXPECT_TRUE(sameHeaders(original, back)) << c.name;
        EXPECT_EQ(src->bytesConsumed(), c.bytes.size()) << c.name;
        std::remove(fifo.c_str());
    }

    // A /proc file is a regular file of size 0 that has bytes.
    if (std::filesystem::exists("/proc/self/status")) {
        auto proc = util::openByteSource("/proc/self/status");
        uint8_t buf[64];
        EXPECT_GT(proc->read(buf, sizeof(buf)), 0u);
    }
}

TEST(TraceIo, DecompressToPcapngRoundTrips)
{
    trace::Trace original = webTrace(50, 4.0);
    std::string tshPath = tempPath("rt.tsh");
    std::string fccPath = tempPath("rt.fcc");
    std::string ngPath = tempPath("rt_out.pcapng");
    trace::writeTshFile(original, tshPath);

    codec::fcc::compressTraceFile(tshPath, fccPath, {}, kTsh);
    auto stats = codec::fcc::decompressTraceFile(fccPath, ngPath);
    EXPECT_EQ(stats.packets, original.size());

    trace::Trace back = trace::readPcapngFile(ngPath);
    EXPECT_EQ(back.size(), original.size());
    EXPECT_TRUE(back.isTimeOrdered());

    for (const auto &p : {tshPath, fccPath, ngPath})
        std::remove(p.c_str());
}

// ---- bounded memory on a multi-GB input -----------------------------------

TEST(TraceIo, BoundedMemoryOnMultiGigabyteInput)
{
    // A multi-GB logical TSH stream synthesized on the fly: if any
    // layer of the source stack materialized the trace, peak RSS
    // would jump by gigabytes. FCC_IO_BIG_RECORDS overrides the
    // record count (e.g. for quick local runs).
    uint64_t records = underSanitizer()
        ? 8'000'000            // 350 MB: instrumented runs are ~10x
                               // slower and shadow skews RSS anyway
        : 50'000'000;          // 2.2 GB of TSH
    if (const char *env = std::getenv("FCC_IO_BIG_RECORDS"))
        records = std::strtoull(env, nullptr, 10);
    const uint64_t logicalBytes = records * trace::tshRecordBytes;

    // One template record, timestamp patched per copy.
    trace::Trace one;
    trace::PacketRecord pkt;
    pkt.srcIp = 0x0a000001;
    pkt.dstIp = 0x0a000002;
    pkt.srcPort = 40000;
    pkt.dstPort = 80;
    pkt.tcpFlags = trace::tcp_flags::Ack;
    one.add(pkt);
    const std::vector<uint8_t> tmpl = trace::writeTsh(one);

    uint64_t emitted = 0;  // records fully or partially emitted
    size_t offset = 0;     // byte offset inside the current record
    auto generator = [&](uint8_t *out, size_t maxLen) -> size_t {
        size_t produced = 0;
        while (produced < maxLen && (emitted < records ||
                                     offset != 0)) {
            if (offset == 0 && emitted == records)
                break;
            size_t take = std::min(maxLen - produced,
                                   tmpl.size() - offset);
            std::memcpy(out + produced, tmpl.data() + offset, take);
            // Patch the big-endian seconds field when it is within
            // the copied range (offset 0..3 of the record).
            uint32_t sec = static_cast<uint32_t>(emitted / 1000);
            for (size_t b = 0; b < 4; ++b) {
                if (offset <= b && b < offset + take)
                    out[produced + (b - offset)] = static_cast<
                        uint8_t>(sec >> (8 * (3 - b)));
            }
            produced += take;
            offset += take;
            if (offset == tmpl.size()) {
                offset = 0;
                ++emitted;
            }
        }
        return produced;
    };

    uint64_t rssBefore = peakRssBytes();
    if (rssBefore == 0)
        GTEST_SKIP() << "kernel exposes no VmHWM in "
                        "/proc/self/status; cannot measure peak RSS";
    trace::TshSource src(
        std::make_unique<util::GeneratorByteSource>(generator));
    uint64_t packets = 0;
    std::vector<trace::PacketRecord> batch(4096);
    size_t n;
    while ((n = src.read(batch)) > 0)
        packets += n;
    uint64_t rssAfter = peakRssBytes();

    EXPECT_EQ(packets, records);
    EXPECT_EQ(src.bytesConsumed(), logicalBytes);

    // The stream was multi-GB; the reader may keep only batches.
    const uint64_t bound =
        underSanitizer() ? 1024ull << 20 : 256ull << 20;
    EXPECT_LT(rssAfter - rssBefore, bound)
        << "streaming read materialized a " << logicalBytes
        << "-byte input";
}

TEST(TraceIo, MmapSourceBoundsResidencyOnLargeFile)
{
    if (!util::MmapByteSource::supported())
        GTEST_SKIP() << "no mmap on this platform";
    if (underSanitizer())
        GTEST_SKIP() << "sanitizer shadow memory defeats the "
                        "VmHWM bound";

    // 320 MB on-disk file read through the mmap source: the
    // consumed-prefix release must keep the RSS delta well below
    // the file size.
    const size_t mb = 320;
    std::string path = tempPath("big_mmap.tsh");
    {
        trace::Trace chunk;
        trace::PacketRecord pkt;
        pkt.srcIp = 1;
        pkt.dstIp = 2;
        for (int i = 0; i < 100000; ++i) {
            pkt.timestampNs = static_cast<uint64_t>(i) * 1000;
            chunk.add(pkt);
        }
        auto bytes = trace::writeTsh(chunk);
        util::FileByteSink out(path);
        size_t written = 0;
        while (written < mb << 20) {
            out.write(bytes);
            written += bytes.size();
        }
        out.close();
    }

    uint64_t rssBefore = peakRssBytes();
    trace::TshSource src(
        std::make_unique<util::MmapByteSource>(path));
    std::vector<trace::PacketRecord> batch(4096);
    uint64_t packets = 0;
    size_t n;
    while ((n = src.read(batch)) > 0)
        packets += n;
    uint64_t rssAfter = peakRssBytes();

    EXPECT_GT(packets, (mb << 20) / trace::tshRecordBytes / 2);
    EXPECT_LT(rssAfter - rssBefore, 200ull << 20);
    std::remove(path.c_str());
}
