/**
 * @file
 * pcap savefile I/O: accepts both byte orders, microsecond and
 * nanosecond magics, and RAW or Ethernet link types; always writes
 * LINKTYPE_RAW files of bare IPv4+TCP headers (microsecond or
 * nanosecond timestamps). The incremental PcapSource/PcapSink are
 * the single implementation; the whole-buffer entry points wrap
 * them.
 */

#include "trace/pcap.hpp"

#include <algorithm>

#include "trace/tsh.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace fcc::trace {

namespace {

constexpr uint32_t magicUsec = 0xa1b2c3d4u;
constexpr uint32_t magicUsecSwap = 0xd4c3b2a1u;
constexpr uint32_t magicNsec = 0xa1b23c4du;
constexpr uint32_t magicNsecSwap = 0x4d3cb2a1u;

constexpr uint32_t linkRaw = 101;
constexpr uint32_t linkEthernet = 1;

} // namespace

void
parseIpv4Packet(const uint8_t *body, size_t len, PacketRecord &pkt)
{
    util::require(len >= 20, "readPcap: truncated IP header");
    util::require((body[0] >> 4) == 4, "readPcap: not IPv4");
    size_t ihl = static_cast<size_t>(body[0] & 0x0f) * 4;
    util::require(ihl >= 20 && len >= ihl,
                  "readPcap: bad IP header length");
    uint16_t totalLen = util::loadBe16(body + 2);
    pkt.ipId = util::loadBe16(body + 4);
    pkt.protocol = body[9];
    pkt.srcIp = util::loadBe32(body + 12);
    pkt.dstIp = util::loadBe32(body + 16);

    const uint8_t *l4 = body + ihl;
    size_t l4len = len - ihl;
    if (pkt.protocol == ip_proto::Tcp) {
        util::require(l4len >= 16, "readPcap: truncated TCP header");
        pkt.srcPort = util::loadBe16(l4);
        pkt.dstPort = util::loadBe16(l4 + 2);
        pkt.seq = util::loadBe32(l4 + 4);
        pkt.ack = util::loadBe32(l4 + 8);
        size_t dataOff = static_cast<size_t>(l4[12] >> 4) * 4;
        util::require(dataOff >= 20, "readPcap: bad TCP data offset");
        pkt.tcpFlags = l4[13];
        pkt.window = util::loadBe16(l4 + 14);
        size_t hdr = ihl + dataOff;
        pkt.payloadBytes = totalLen > hdr
            ? static_cast<uint16_t>(totalLen - hdr) : 0;
    } else if (pkt.protocol == ip_proto::Udp) {
        util::require(l4len >= 8, "readPcap: truncated UDP header");
        pkt.srcPort = util::loadBe16(l4);
        pkt.dstPort = util::loadBe16(l4 + 2);
        uint16_t udpLen = util::loadBe16(l4 + 4);
        pkt.payloadBytes = udpLen > 8
            ? static_cast<uint16_t>(udpLen - 8) : 0;
    } else {
        pkt.payloadBytes = totalLen > ihl
            ? static_cast<uint16_t>(totalLen - ihl) : 0;
    }
}

void
appendIpv4TcpHeader(const PacketRecord &pkt, std::vector<uint8_t> &out)
{
    auto putU16 = [&out](uint16_t v) {
        out.push_back(static_cast<uint8_t>(v >> 8));
        out.push_back(static_cast<uint8_t>(v));
    };
    auto putU32 = [&out](uint32_t v) {
        out.push_back(static_cast<uint8_t>(v >> 24));
        out.push_back(static_cast<uint8_t>(v >> 16));
        out.push_back(static_cast<uint8_t>(v >> 8));
        out.push_back(static_cast<uint8_t>(v));
    };
    size_t ipStart = out.size();
    out.push_back(0x45);
    out.push_back(0);
    putU16(pkt.ipTotalLength());
    putU16(pkt.ipId);
    putU16(0x4000);
    out.push_back(64);
    out.push_back(pkt.protocol);
    putU16(0);
    putU32(pkt.srcIp);
    putU32(pkt.dstIp);
    uint16_t csum = ipChecksum(
        std::span<const uint8_t>(out.data() + ipStart, 20));
    out[ipStart + 10] = static_cast<uint8_t>(csum >> 8);
    out[ipStart + 11] = static_cast<uint8_t>(csum);

    putU16(pkt.srcPort);
    putU16(pkt.dstPort);
    putU32(pkt.seq);
    putU32(pkt.ack);
    out.push_back(5 << 4);
    out.push_back(pkt.tcpFlags);
    putU16(pkt.window);
    putU16(0);  // TCP checksum (not stored in header traces)
    putU16(0);  // urgent pointer
}

// ---- PcapSource ----------------------------------------------------

PcapSource::PcapSource(std::unique_ptr<util::ByteSource> bytes)
    : in_(std::move(bytes))
{
    constexpr size_t globalHeader = 24;
    util::require(in_.fill(globalHeader, "readPcap: missing global header"),
                  "readPcap: missing global header");
    const uint8_t *hdr = in_.data();

    uint32_t magic = util::loadLe32(hdr);
    switch (magic) {
      case magicUsec:     swapped_ = false; nanos_ = false; break;
      case magicUsecSwap: swapped_ = true;  nanos_ = false; break;
      case magicNsec:     swapped_ = false; nanos_ = true;  break;
      case magicNsecSwap: swapped_ = true;  nanos_ = true;  break;
      default:
        throw util::Error("readPcap: bad magic number");
    }
    uint32_t link = util::loadLe32(hdr + 20);
    if (swapped_)
        link = util::byteSwap32(link);
    util::require(link == linkRaw || link == linkEthernet,
                  "readPcap: unsupported link type");
    l2skip_ = link == linkEthernet ? 14 : 0;
    in_.consume(globalHeader);
    consumed_ += globalHeader;
}

size_t
PcapSource::read(std::span<PacketRecord> batch)
{
    constexpr size_t recordHeader = 16;
    auto fix = [this](uint32_t v) {
        return swapped_ ? util::byteSwap32(v) : v;
    };
    size_t filled = 0;
    while (filled < batch.size()) {
        if (!in_.fill(recordHeader, "readPcap: truncated record header"))
            break;  // clean end of file
        const uint8_t *rec = in_.data();
        uint32_t sec = fix(util::loadLe32(rec));
        uint32_t frac = fix(util::loadLe32(rec + 4));
        uint32_t capLen = fix(util::loadLe32(rec + 8));
        // Reject out-of-range fractional timestamps for *both*
        // magics: a nanosecond file must stay below 1e9 just as a
        // microsecond file must stay below 1e6 — otherwise corrupt
        // captures silently produce non-monotonic timestamps.
        util::require(frac < (nanos_ ? 1000000000u : 1000000u),
                      "readPcap: timestamp fraction out of range");
        // libpcap's MAXIMUM_SNAPLEN; anything above is corruption,
        // not capture data — refuse before the window grows.
        util::require(capLen <= 262144,
                      "readPcap: capture length too large");

        size_t recLen = recordHeader + capLen;
        in_.fill(recLen, "readPcap: truncated record body");
        const uint8_t *body = in_.data() + recordHeader;
        in_.consume(recLen);
        consumed_ += recLen;

        PacketRecord &pkt = batch[filled];
        pkt = PacketRecord();
        pkt.timestampNs =
            static_cast<uint64_t>(sec) * 1000000000ull +
            (nanos_ ? frac : static_cast<uint64_t>(frac) * 1000ull);
        util::require(capLen >= l2skip_,
                      "readPcap: capture below link header size");
        parseIpv4Packet(body + l2skip_, capLen - l2skip_, pkt);
        ++filled;
    }
    return filled;
}

// ---- PcapSink ------------------------------------------------------

PcapSink::PcapSink(std::unique_ptr<util::ByteSink> out, bool nanos)
    : out_(std::move(out)), nanos_(nanos)
{
    std::vector<uint8_t> hdr;
    util::storeLe32(hdr, nanos_ ? magicNsec : magicUsec);
    hdr.push_back(2); hdr.push_back(0);   // version major (LE)
    hdr.push_back(4); hdr.push_back(0);   // version minor (LE)
    util::storeLe32(hdr, 0);       // thiszone
    util::storeLe32(hdr, 0);       // sigfigs
    util::storeLe32(hdr, 65535);   // snaplen
    util::storeLe32(hdr, linkRaw);
    out_->write(hdr);
}

void
PcapSink::write(std::span<const PacketRecord> batch)
{
    buf_.clear();
    for (const auto &pkt : batch) {
        util::storeLe32(buf_, static_cast<uint32_t>(pkt.timestampNs /
                                             1000000000ull));
        uint32_t frac = nanos_
            ? static_cast<uint32_t>(pkt.timestampNs % 1000000000ull)
            : static_cast<uint32_t>((pkt.timestampNs / 1000ull) %
                                    1000000ull);
        util::storeLe32(buf_, frac);
        util::storeLe32(buf_, 40);                   // captured length
        util::storeLe32(buf_, pkt.ipTotalLength());  // original length
        appendIpv4TcpHeader(pkt, buf_);
    }
    out_->write(buf_);
}

// ---- whole-buffer wrappers -----------------------------------------

std::vector<uint8_t>
writePcap(const Trace &trace, bool nanos)
{
    auto vec = std::make_unique<util::VectorByteSink>();
    auto *raw = vec.get();
    PcapSink sink(std::move(vec), nanos);
    sink.write(std::span<const PacketRecord>(trace.packets()));
    sink.close();
    return raw->take();
}

Trace
readPcap(std::span<const uint8_t> data)
{
    PcapSource src(std::make_unique<util::BufferByteSource>(data));
    return readAllPackets(src);
}

void
writePcapFile(const Trace &trace, const std::string &path)
{
    PcapSink sink(std::make_unique<util::FileByteSink>(path));
    sink.write(std::span<const PacketRecord>(trace.packets()));
    sink.close();
}

Trace
readPcapFile(const std::string &path)
{
    PcapSource src(util::openByteSource(path));
    return readAllPackets(src);
}

} // namespace fcc::trace
