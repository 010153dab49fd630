/**
 * @file
 * Header-level packet model.
 *
 * The paper works with TCP/IP header traces (no payload): the unit of
 * data is a 40-byte TCP/IP header plus timing. PacketRecord captures
 * every field any codec in this library reads, including the fields
 * the Van Jacobson baseline delta-encodes (sequence numbers, IP id,
 * window).
 */

#ifndef FCC_TRACE_PACKET_HPP
#define FCC_TRACE_PACKET_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

namespace fcc::trace {

/** TCP header flag bits (RFC 793 order, low bit = FIN). */
namespace tcp_flags {
constexpr uint8_t Fin = 0x01;
constexpr uint8_t Syn = 0x02;
constexpr uint8_t Rst = 0x04;
constexpr uint8_t Psh = 0x08;
constexpr uint8_t Ack = 0x10;
constexpr uint8_t Urg = 0x20;
} // namespace tcp_flags

/** IP protocol numbers used by the library. */
namespace ip_proto {
constexpr uint8_t Tcp = 6;
constexpr uint8_t Udp = 17;
} // namespace ip_proto

/**
 * One captured packet header.
 *
 * All integral fields are host-order; the capture formats (TSH, pcap)
 * convert to/from network order at the file boundary. Sizes follow the
 * paper's conventions: a stored header is 40 B of TCP/IP header plus
 * timing, and payloadBytes is the TCP payload length implied by the IP
 * total length.
 */
struct PacketRecord
{
    uint64_t timestampNs = 0;  ///< absolute capture time, nanoseconds
    uint32_t srcIp = 0;        ///< IPv4 source address
    uint32_t dstIp = 0;        ///< IPv4 destination address
    uint16_t srcPort = 0;      ///< TCP/UDP source port
    uint16_t dstPort = 0;      ///< TCP/UDP destination port
    uint8_t protocol = ip_proto::Tcp;  ///< IP protocol number
    uint8_t tcpFlags = 0;      ///< TCP flag byte (tcp_flags bits)
    uint16_t payloadBytes = 0; ///< TCP payload length in bytes
    uint32_t seq = 0;          ///< TCP sequence number
    uint32_t ack = 0;          ///< TCP acknowledgment number
    uint16_t window = 0;       ///< TCP advertised window
    uint16_t ipId = 0;         ///< IP identification field

    /** IP total length implied by a 20 B IP + 20 B TCP header. */
    uint16_t ipTotalLength() const
    {
        return static_cast<uint16_t>(40 + payloadBytes);
    }

    /** Timestamp in (truncated) microseconds. */
    uint64_t timestampUs() const { return timestampNs / 1000; }
    /** Timestamp in seconds as a double. */
    double timestampSec() const
    {
        return static_cast<double>(timestampNs) * 1e-9;
    }

    bool hasSyn() const { return tcpFlags & tcp_flags::Syn; }
    bool hasAck() const { return tcpFlags & tcp_flags::Ack; }
    bool hasFin() const { return tcpFlags & tcp_flags::Fin; }
    bool hasRst() const { return tcpFlags & tcp_flags::Rst; }

    /** Human-readable one-line rendering (for debugging / examples). */
    std::string str() const;
};

/**
 * Field-wise total order on packets, extending timestamp order with
 * every header field as tie-breaker. Reconstruction paths that merge
 * concurrently produced packets (codec/fcc streaming flush, the
 * query subsystem's chunk merge) sort with this instead of a bare
 * timestamp comparison: equal-timestamp packets would otherwise be
 * emitted in an order that depends on batch boundaries — i.e. on the
 * thread count — breaking byte-exact reproducibility. Because every
 * field is a key, packets that compare equal are bit-identical.
 */
inline bool
packetCanonicalLess(const PacketRecord &a, const PacketRecord &b)
{
    // Timestamps almost always differ: decide on them alone first.
    if (a.timestampNs != b.timestampNs)
        return a.timestampNs < b.timestampNs;
    auto key = [](const PacketRecord &p) {
        return std::tuple(p.srcIp, p.dstIp, p.srcPort, p.dstPort,
                          p.protocol, p.tcpFlags, p.payloadBytes,
                          p.seq, p.ack, p.window, p.ipId);
    };
    return key(a) < key(b);
}

/**
 * Fewest packets of a chunk that the reconstruction cuts into record
 * ranges across the pool (FccTraceCompressor::expandInto). A smaller
 * chunk expands on one thread: fanning it out would not pay for the
 * pool's hand-offs.
 */
inline constexpr size_t canonicalRadixMinPackets = 4096;

/**
 * Sort @p packets, whose keys timestampNs - @p base all agree above
 * bit @p bits, into packetCanonicalLess order, in place. The only
 * extra memory is a few count arrays on the stack. The chunk
 * expander places packets by the top bits of their key first and
 * finishes each such time bucket with this call.
 *
 * The bucket takes an in-place MSD ("American flag") radix sort on
 * 8-bit digits of its key, top digit first: the key is monotone in
 * the timestamp, so its buckets come out in timestamp order. Buckets
 * of at most 32 packets finish with an insertion sort, those under
 * 256 with std::sort, and so does a bucket whose key bits are used
 * up (one timestamp, ordered by the tie-breakers). The result is the
 * comparator's order: packetCanonicalLess is a total order and
 * packets that compare equal are bit-identical.
 */
void sortCanonicalBucket(std::span<PacketRecord> packets, uint64_t base,
                         unsigned bits);

/** Receives merged packets in order, one block per call. */
using PacketSpanSink = std::function<void(std::span<const PacketRecord>)>;

/** Most packets the streaming merge passes per PacketSpanSink call. */
inline constexpr size_t canonicalMergeBlock = 4096;

/**
 * Merge @p runs, each already in packetCanonicalLess order, in that
 * order: the merged packets with timestampNs below @p limitNs go to
 * @p emit, the rest are appended, still in order, to @p rest. The
 * one ordering routine of every reconstruction path — the
 * reconstruction loop (FccTraceCompressor::expandInto, behind
 * expand() and the streaming drain) and the query merge of chunk
 * runs (one archive's, or a catalog's across archives) — so they
 * cannot disagree on the order of equal-timestamp packets. A limit
 * of 0 emits nothing and leaves the whole merge in @p rest; a limit
 * of ~0 emits every packet a reconstruction can produce.
 *
 * The runs are consumed and no copy of the whole merge is built:
 * each @p emit call gets at most canonicalMergeBlock packets. Below
 * the limit, a k-way merge over the run heads (O(n log k)) fills a
 * block that is emitted each time it fills; once one run is left,
 * its prefix tops the block up and the remainder is emitted as
 * spans of that run, without a copy. A single non-empty run emits
 * its prefix the same way and moves whole into an empty @p rest
 * when nothing is below the limit.
 * Ties need no run tie-break: equal packets are bit-identical, so
 * either order gives the same bytes.
 */
void mergeCanonicalRuns(std::vector<std::vector<PacketRecord>> runs,
                        uint64_t limitNs, const PacketSpanSink &emit,
                        std::vector<PacketRecord> &rest);

/** Render an IPv4 address in dotted-quad notation. */
std::string formatIp(uint32_t addr);

/** Parse a dotted-quad IPv4 address. @throws fcc::util::Error */
uint32_t parseIp(const std::string &text);

/** Render a TCP flag byte like "SYN|ACK". */
std::string formatTcpFlags(uint8_t flags);

} // namespace fcc::trace

#endif // FCC_TRACE_PACKET_HPP
