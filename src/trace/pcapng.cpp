/**
 * @file
 * pcapng block-structured I/O: incremental section/interface/packet
 * walk with per-section endianness and per-interface timestamp
 * resolution; single-section LINKTYPE_RAW writer at nanosecond
 * resolution.
 */

#include "trace/pcapng.hpp"

#include <algorithm>

#include "trace/pcap.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace fcc::trace {

namespace {

constexpr uint32_t blockShb = 0x0a0d0d0au;
constexpr uint32_t blockIdb = 0x00000001u;
constexpr uint32_t blockPacketObsolete = 0x00000002u;
constexpr uint32_t blockSpb = 0x00000003u;
constexpr uint32_t blockEpb = 0x00000006u;

constexpr uint32_t byteOrderMagic = 0x1a2b3c4du;
constexpr uint32_t byteOrderMagicSwap = 0x4d3c2b1au;

constexpr uint16_t linkRaw = 101;
constexpr uint16_t linkEthernet = 1;

constexpr uint16_t optEndOfOpt = 0;
constexpr uint16_t optIfTsresol = 9;

/** Upper bound on one block: anything larger is corruption. */
constexpr uint32_t maxBlockLen = 1u << 24;

constexpr uint64_t pow10Table[10] = {
    1ull,       10ull,       100ull,       1000ull,      10000ull,
    100000ull,  1000000ull,  10000000ull,  100000000ull,
    1000000000ull,
};

/** Convert an if_tsresol tick count to nanoseconds. */
uint64_t
ticksToNs(uint64_t ticks, uint8_t tsresol)
{
    if (tsresol & 0x80) {
        int p = tsresol & 0x7f;
        util::require(p <= 63,
                      "pcapng: unsupported if_tsresol exponent");
#if defined(__SIZEOF_INT128__)
        unsigned __int128 wide =
            static_cast<unsigned __int128>(ticks) * 1000000000ull;
        return static_cast<uint64_t>(wide >> p);
#else
        // Without 128-bit math: exact whole-seconds part plus the
        // fractional ticks scaled in two 32-bit halves so nothing
        // overflows 64 bits (rem < 2^p, p <= 63).
        uint64_t whole = ticks >> p;
        uint64_t rem = ticks & ((uint64_t{1} << p) - 1);
        uint64_t hi = rem >> 32, lo = rem & 0xffffffffull;
        // rem * 1e9 = hi*1e9*2^32 + lo*1e9; shift each term by p.
        uint64_t frac;
        if (p >= 32)
            frac = ((hi * 1000000000ull) >> (p - 32)) +
                   ((lo * 1000000000ull) >> p);
        else
            frac = (hi * 1000000000ull) << (32 - p) |
                   ((lo * 1000000000ull) >> p);
        return whole * 1000000000ull + frac;
#endif
    }
    util::require(tsresol <= 18,
                  "pcapng: unsupported if_tsresol exponent");
    if (tsresol <= 9)
        return ticks * pow10Table[9 - tsresol];
    return ticks / pow10Table[tsresol - 9];
}

} // namespace

// ---- PcapngSource --------------------------------------------------

uint32_t
PcapngSource::fix(uint32_t v) const
{
    return swapped_ ? util::byteSwap32(v) : v;
}

uint16_t
PcapngSource::fix16(uint16_t v) const
{
    return swapped_ ? util::byteSwap16(v) : v;
}

PcapngSource::PcapngSource(std::unique_ptr<util::ByteSource> bytes)
    : in_(std::move(bytes))
{
    Block block;
    util::require(nextBlock(block) && block.type == blockShb,
                  "pcapng: missing section header block");
    beginSection(block.body);
    started_ = true;
}

/**
 * Frame and consume the next block: @p block.body is its payload in
 * place in the read window, valid until the next fill (the redundant
 * trailing length is verified and left out; for an SHB the
 * byte-order magic is skipped too, so the payload starts at the
 * version field).
 *
 * @returns false on a clean end of file.
 */
bool
PcapngSource::nextBlock(Block &block)
{
    if (!in_.fill(8, "pcapng: truncated block header"))
        return false;

    uint32_t rawType = util::loadLe32(in_.data());
    size_t already;  // bytes of the block before its payload
    if (rawType == blockShb) {
        // The byte-order magic governs this whole section, including
        // the length field of this very block.
        in_.fill(12, "pcapng: truncated section header");
        uint32_t magic = util::loadLe32(in_.data() + 8);
        if (magic == byteOrderMagic)
            swapped_ = false;
        else if (magic == byteOrderMagicSwap)
            swapped_ = true;
        else
            throw util::Error("pcapng: bad byte-order magic");
        block.type = blockShb;
        already = 12;
    } else {
        util::require(started_,
                      "pcapng: missing section header block");
        block.type = fix(rawType);
        already = 8;
    }

    uint32_t totalLen = fix(util::loadLe32(in_.data() + 4));
    util::require(totalLen >= already + 4 && totalLen % 4 == 0,
                  "pcapng: bad block length");
    util::require(totalLen <= maxBlockLen,
                  "pcapng: block too large");

    in_.fill(totalLen, "pcapng: truncated block");
    const uint8_t *p = in_.data();
    uint32_t trail = fix(util::loadLe32(p + totalLen - 4));
    util::require(trail == totalLen,
                  "pcapng: block length mismatch");
    block.body = {p + already, totalLen - already - 4};
    in_.consume(totalLen);
    consumed_ += totalLen;
    return true;
}

void
PcapngSource::beginSection(std::span<const uint8_t> body)
{
    util::require(body.size() >= 12,
                  "pcapng: truncated section header");
    uint16_t major = fix16(util::loadLe16(body.data()));
    util::require(major == 1,
                  "pcapng: unsupported section version");
    // A new section forgets the previous section's interfaces.
    interfaces_.clear();
}

void
PcapngSource::addInterface(std::span<const uint8_t> body)
{
    util::require(body.size() >= 8,
                  "pcapng: truncated interface block");
    Interface iface;
    iface.linkType = fix16(util::loadLe16(body.data()));

    // Options: (code, len, value padded to 4)* until opt_endofopt
    // or the end of the block.
    size_t pos = 8;
    while (pos + 4 <= body.size()) {
        uint16_t code = fix16(util::loadLe16(body.data() + pos));
        uint16_t len = fix16(util::loadLe16(body.data() + pos + 2));
        pos += 4;
        if (code == optEndOfOpt)
            break;
        util::require(pos + len <= body.size(),
                      "pcapng: truncated interface option");
        if (code == optIfTsresol && len == 1)
            iface.tsresol = body[pos];
        pos += (len + 3u) & ~3u;
    }
    interfaces_.push_back(iface);
}

void
PcapngSource::parsePacket(std::span<const uint8_t> body,
                          PacketRecord &pkt)
{
    util::require(body.size() >= 20,
                  "pcapng: truncated packet block");
    uint32_t ifaceId = fix(util::loadLe32(body.data()));
    uint32_t tsHigh = fix(util::loadLe32(body.data() + 4));
    uint32_t tsLow = fix(util::loadLe32(body.data() + 8));
    uint32_t capLen = fix(util::loadLe32(body.data() + 12));
    util::require(ifaceId < interfaces_.size(),
                  "pcapng: packet references unknown interface");
    const Interface &iface = interfaces_[ifaceId];
    util::require(iface.linkType == linkRaw ||
                      iface.linkType == linkEthernet,
                  "pcapng: unsupported link type");
    util::require(capLen <= body.size() - 20,
                  "pcapng: truncated packet data");

    pkt = PacketRecord();
    uint64_t ticks = static_cast<uint64_t>(tsHigh) << 32 | tsLow;
    pkt.timestampNs = ticksToNs(ticks, iface.tsresol);

    size_t l2skip = iface.linkType == linkEthernet ? 14 : 0;
    util::require(capLen >= l2skip,
                  "pcapng: capture below link header size");
    parseIpv4Packet(body.data() + 20 + l2skip, capLen - l2skip, pkt);
}

size_t
PcapngSource::read(std::span<PacketRecord> batch)
{
    size_t filled = 0;
    Block block;
    while (filled < batch.size()) {
        if (!nextBlock(block))
            break;
        switch (block.type) {
          case blockShb:
            beginSection(block.body);
            break;
          case blockIdb:
            addInterface(block.body);
            break;
          case blockEpb:
            parsePacket(block.body, batch[filled]);
            ++filled;
            break;
          case blockSpb:
            throw util::Error(
                "pcapng: simple packet block has no timestamp");
          case blockPacketObsolete:
            throw util::Error(
                "pcapng: obsolete packet block unsupported");
          default:
            break;  // statistics, name resolution, custom: skip
        }
    }
    return filled;
}

// ---- PcapngSink ----------------------------------------------------

PcapngSink::PcapngSink(std::unique_ptr<util::ByteSink> out)
    : out_(std::move(out))
{
    std::vector<uint8_t> hdr;

    // Section Header Block (28 bytes).
    util::storeLe32(hdr, blockShb);
    util::storeLe32(hdr, 28);
    util::storeLe32(hdr, byteOrderMagic);
    util::storeLe16(hdr, 1);  // version major
    util::storeLe16(hdr, 0);  // version minor
    util::storeLe32(hdr, 0xffffffffu);  // section length: unknown (-1)
    util::storeLe32(hdr, 0xffffffffu);
    util::storeLe32(hdr, 28);

    // Interface Description Block (32 bytes): LINKTYPE_RAW,
    // if_tsresol = 9 (nanoseconds — full PacketRecord precision).
    util::storeLe32(hdr, blockIdb);
    util::storeLe32(hdr, 32);
    util::storeLe16(hdr, linkRaw);
    util::storeLe16(hdr, 0);       // reserved
    util::storeLe32(hdr, 65535);   // snaplen
    util::storeLe16(hdr, optIfTsresol);
    util::storeLe16(hdr, 1);
    hdr.push_back(9);
    hdr.push_back(0); hdr.push_back(0); hdr.push_back(0);  // pad
    util::storeLe16(hdr, optEndOfOpt);
    util::storeLe16(hdr, 0);
    util::storeLe32(hdr, 32);

    out_->write(hdr);
}

void
PcapngSink::write(std::span<const PacketRecord> batch)
{
    buf_.clear();
    for (const auto &pkt : batch) {
        // Enhanced Packet Block: 20 B fixed + 40 B data + trailer.
        util::storeLe32(buf_, blockEpb);
        util::storeLe32(buf_, 72);
        util::storeLe32(buf_, 0);  // interface id
        util::storeLe32(buf_, static_cast<uint32_t>(pkt.timestampNs >> 32));
        util::storeLe32(buf_, static_cast<uint32_t>(pkt.timestampNs));
        util::storeLe32(buf_, 40);                   // captured length
        util::storeLe32(buf_, pkt.ipTotalLength());  // original length
        appendIpv4TcpHeader(pkt, buf_);       // 40 B, pad-free
        util::storeLe32(buf_, 72);
    }
    out_->write(buf_);
}

// ---- whole-buffer wrappers -----------------------------------------

std::vector<uint8_t>
writePcapng(const Trace &trace)
{
    auto vec = std::make_unique<util::VectorByteSink>();
    auto *raw = vec.get();
    PcapngSink sink(std::move(vec));
    sink.write(std::span<const PacketRecord>(trace.packets()));
    sink.close();
    return raw->take();
}

Trace
readPcapng(std::span<const uint8_t> data)
{
    PcapngSource src(std::make_unique<util::BufferByteSource>(data));
    return readAllPackets(src);
}

void
writePcapngFile(const Trace &trace, const std::string &path)
{
    PcapngSink sink(std::make_unique<util::FileByteSink>(path));
    sink.write(std::span<const PacketRecord>(trace.packets()));
    sink.close();
}

Trace
readPcapngFile(const std::string &path)
{
    PcapngSource src(util::openByteSource(path));
    return readAllPackets(src);
}

} // namespace fcc::trace
