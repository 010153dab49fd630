/**
 * @file
 * Minimal pcap (libpcap savefile) reader/writer, implemented from
 * scratch so the library has no external capture dependency.
 *
 * Written files use LINKTYPE_RAW (101): each packet body is the raw
 * 40-byte IPv4+TCP header (no payload — these are header traces). The
 * reader accepts both byte orders and both microsecond and nanosecond
 * magic numbers, and both RAW and Ethernet link types.
 *
 * The incremental PcapSource/PcapSink stream records through the
 * trace I/O subsystem (source.hpp) in bounded batches; the
 * whole-buffer readPcap()/writePcap() are thin wrappers over them.
 */

#ifndef FCC_TRACE_PCAP_HPP
#define FCC_TRACE_PCAP_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "trace/source.hpp"
#include "trace/trace.hpp"
#include "util/io.hpp"

namespace fcc::trace {

/**
 * Serialize a trace as a LINKTYPE_RAW pcap file — microsecond magic
 * by default, nanosecond magic (full PacketRecord precision) when
 * @p nanos is set.
 */
std::vector<uint8_t> writePcap(const Trace &trace, bool nanos = false);

/**
 * Parse a pcap byte buffer.
 *
 * Non-IPv4 packets and packets whose captured length is too short to
 * hold the TCP header prefix raise an error; this is a header-trace
 * library, silent skipping would bias every statistic downstream.
 *
 * @throws fcc::util::Error on malformed input.
 */
Trace readPcap(std::span<const uint8_t> data);

/** Write a trace to a pcap file. @throws fcc::util::Error on I/O. */
void writePcapFile(const Trace &trace, const std::string &path);

/** Read a pcap file. @throws fcc::util::Error on I/O or bad data. */
Trace readPcapFile(const std::string &path);

/**
 * Parse a raw IPv4 packet body (IP header + TCP/UDP prefix) into
 * @p pkt — the shared inner parser of the pcap and pcapng readers.
 * Leaves pkt.timestampNs untouched.
 *
 * @throws fcc::util::Error on truncated or non-IPv4 bodies.
 */
void parseIpv4Packet(const uint8_t *body, size_t len,
                     PacketRecord &pkt);

/**
 * Append the 40-byte raw IPv4+TCP header for @p pkt to @p out —
 * the shared body encoder of the pcap and pcapng writers.
 */
void appendIpv4TcpHeader(const PacketRecord &pkt,
                         std::vector<uint8_t> &out);

/**
 * Incremental pcap reader: records are parsed in place from one
 * refillable util::ReadWindow, so memory stays bounded by the window
 * (the backing ByteSource is typically an mmap with a read-buffer
 * fallback — see util::openByteSource).
 */
class PcapSource final : public TraceSource
{
  public:
    /** Reads and validates the global header. @throws Error */
    explicit PcapSource(std::unique_ptr<util::ByteSource> bytes);

    size_t read(std::span<PacketRecord> batch) override;
    uint64_t bytesConsumed() const override { return consumed_; }

  private:
    util::ReadWindow in_;
    uint64_t consumed_ = 0;
    bool swapped_ = false;
    bool nanos_ = false;
    size_t l2skip_ = 0;
};

/** Streaming pcap writer (LINKTYPE_RAW, 40-byte header bodies). */
class PcapSink final : public TraceSink
{
  public:
    explicit PcapSink(std::unique_ptr<util::ByteSink> out,
                      bool nanos = false);

    void write(std::span<const PacketRecord> batch) override;
    void close() override { out_->close(); }
    uint64_t bytesWritten() const override
    {
        return out_->bytesWritten();
    }

  private:
    std::unique_ptr<util::ByteSink> out_;
    std::vector<uint8_t> buf_;
    bool nanos_;
};

} // namespace fcc::trace

#endif // FCC_TRACE_PCAP_HPP
