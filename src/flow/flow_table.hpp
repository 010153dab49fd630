/**
 * @file
 * Flow assembly: demultiplex a time-ordered packet trace into
 * bidirectional TCP connections.
 *
 * Mirrors the paper's compressor front end (§3): packets are grouped
 * by canonical 5-tuple; a connection is flushed when its teardown
 * completes (RST, or the ACK following FINs in both directions), when
 * it stays idle longer than a timeout, or at end of trace. The
 * per-connection rules live in one place, Connection, which both
 * FlowTable and the online compressor (codec::fcc::CompressSession)
 * run, so analysis and compression split a trace into the same flows.
 */

#ifndef FCC_FLOW_FLOW_TABLE_HPP
#define FCC_FLOW_FLOW_TABLE_HPP

#include <cstddef>
#include <cstdint>
#include <tuple>
#include <vector>

#include "flow/flow_key.hpp"
#include "trace/trace.hpp"

namespace fcc::flow {

/**
 * The §3 rules of one open connection. The initiator is the sender
 * of the first packet, unless that packet is a SYN+ACK (capture
 * started mid-handshake), in which case the receiver initiated. The
 * connection ends on RST, on the pure ACK after FINs in both
 * directions, or — decided before the next packet is accounted — when
 * it has been idle longer than the timeout.
 */
struct Connection
{
    uint32_t clientIp = 0;
    uint32_t serverIp = 0;
    uint16_t clientPort = 0;
    uint16_t serverPort = 0;
    uint64_t lastNs = 0;  ///< timestamp of the latest packet
    bool finFromClient = false;
    bool finFromServer = false;

    /** Open a connection at its first packet (then observe() it). */
    explicit Connection(const trace::PacketRecord &first)
        : lastNs(first.timestampNs)
    {
        bool synAck = first.hasSyn() && first.hasAck();
        clientIp = synAck ? first.dstIp : first.srcIp;
        clientPort = synAck ? first.dstPort : first.srcPort;
        serverIp = synAck ? first.srcIp : first.dstIp;
        serverPort = synAck ? first.srcPort : first.dstPort;
    }

    /**
     * True when a packet of the same 5-tuple at @p nowNs starts a new
     * connection instead (ephemeral port reuse): the gap since the
     * latest packet exceeds @p idleTimeoutNs, in whole nanoseconds.
     * A timeout of 0 never expires.
     */
    bool
    idleExpired(uint64_t nowNs, uint64_t idleTimeoutNs) const
    {
        return idleTimeoutNs > 0 && nowNs - lastNs > idleTimeoutNs;
    }

    /** What observe() learned from one packet. */
    struct Step
    {
        bool fromClient = false;
        bool closed = false;  ///< teardown complete: flush the flow
    };

    /** Account one packet of this connection, the first included. */
    Step
    observe(const trace::PacketRecord &pkt)
    {
        Step step;
        step.fromClient =
            pkt.srcIp == clientIp && pkt.srcPort == clientPort;
        lastNs = pkt.timestampNs;
        if (pkt.hasFin()) {
            if (step.fromClient)
                finFromClient = true;
            else
                finFromServer = true;
        }
        // RST ends the connection immediately; a pure ACK after FINs
        // in both directions is the final ack of a graceful close.
        bool gracefulDone = finFromClient && finFromServer &&
                            !pkt.hasFin() && pkt.hasAck();
        step.closed = pkt.hasRst() || gracefulDone;
        return step;
    }
};

/** One assembled bidirectional connection. */
struct AssembledFlow
{
    FlowKey key;

    uint32_t clientIp = 0;   ///< connection initiator
    uint32_t serverIp = 0;
    uint16_t clientPort = 0;
    uint16_t serverPort = 0;

    /** Indices into the source trace, in time order. */
    std::vector<uint32_t> packetIndex;
    /** Direction of each packet (parallel to packetIndex). */
    std::vector<bool> fromClient;

    uint64_t firstTimestampNs = 0;

    size_t size() const { return packetIndex.size(); }
};

/** Flow assembly parameters. */
struct FlowTableConfig
{
    /** Idle gap that closes a connection (0 disables). */
    uint64_t idleTimeoutNs = 60ull * 1000000000ull;
};

/**
 * Sort key of the deterministic flow order: first-packet timestamp,
 * ties broken by the canonical 5-tuple. FlowTable's output and the
 * compressor's time-seq dataset are both in this order.
 */
inline auto
canonicalFlowOrderKey(uint64_t firstTimestampNs, const FlowKey &key)
{
    return std::tuple(firstTimestampNs, key.ipA, key.ipB, key.portA,
                      key.portB, key.protocol);
}

/** canonicalFlowOrderKey comparison on assembled flows. */
bool canonicalFlowLess(const AssembledFlow &a, const AssembledFlow &b);

/**
 * Assembles connections out of a packet trace.
 *
 * The input must be time-ordered; flows are returned in
 * canonicalFlowLess order, matching the paper's time-seq dataset
 * order.
 */
class FlowTable
{
  public:
    explicit FlowTable(const FlowTableConfig &cfg = {});

    /**
     * Group every packet of @p trace into connections.
     *
     * @throws fcc::util::Error if @p trace is not time-ordered.
     */
    std::vector<AssembledFlow> assemble(const trace::Trace &trace) const;

  private:
    FlowTableConfig cfg_;
};

} // namespace fcc::flow

#endif // FCC_FLOW_FLOW_TABLE_HPP
