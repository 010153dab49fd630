/**
 * @file
 * Flow assembly: demultiplex a time-ordered packet trace into
 * bidirectional TCP connections.
 *
 * Mirrors the paper's compressor front end (§3): packets are grouped
 * by canonical 5-tuple; a connection is flushed when its teardown
 * completes (RST, or the ACK following FINs in both directions), when
 * it stays idle longer than a timeout, or at end of trace. The
 * per-connection rules live in one place, Connection, and the open
 * connections in one table, OpenFlowIndex; both FlowTable and the
 * online compressor (codec::fcc::CompressSession) run on them, so
 * analysis and compression split a trace into the same flows.
 */

#ifndef FCC_FLOW_FLOW_TABLE_HPP
#define FCC_FLOW_FLOW_TABLE_HPP

#include <cstddef>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "flow/flow_key.hpp"
#include "trace/trace.hpp"

namespace fcc::flow {

/** Idle gap after which a 5-tuple's next packet starts a new
 *  connection (60 s). */
inline constexpr uint64_t flowIdleTimeoutNs = 60ull * 1000000000ull;

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
     * latest packet exceeds flowIdleTimeoutNs, in whole nanoseconds.
     */
    bool
    idleExpired(uint64_t nowNs) const
    {
        return nowNs - lastNs > flowIdleTimeoutNs;
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

/**
 * The open connections by 5-tuple: a linear-probing index whose
 * slots hold a key and a pool position, with backward-shift
 * deletion, doubled whenever it would pass half full. Closed flows
 * hand their State back to the pool, buffers included, for the next
 * flow to start in.
 *
 * State holds the flow's Connection as `conn`, is constructible from
 * the flow's first packet and has restart(first), which starts it
 * over as a new flow. Defined in the header so that a caller's
 * per-packet loop inlines it.
 */
template <class State>
class OpenFlowIndex
{
  public:
    OpenFlowIndex() { clear(); }

    /**
     * The slot of @p pkt's open flow, keyed @p key. A packet with no
     * open flow starts one; a flow idle longer than flowIdleTimeoutNs
     * (Connection::idleExpired) is first handed to @p closeExpired
     * and then restarted at @p pkt in the same slot (port reuse).
     * The caller then observes @p pkt on the returned flow.
     */
    template <class CloseExpired>
    size_t
    admit(const FlowKey &key, const trace::PacketRecord &pkt,
          CloseExpired &&closeExpired)
    {
        size_t slot = find(key);
        if (slots_[slot].flow == emptySlot)
            return start(slot, key, pkt);
        State &state = pool_[slots_[slot].flow];
        if (state.conn.idleExpired(pkt.timestampNs)) {
            closeExpired(state);
            state.restart(pkt);
        }
        return slot;
    }

    /** The open flow in index slot @p slot. */
    State &at(size_t slot) { return pool_[slots_[slot].flow]; }

    /** Close the flow in @p slot: its State returns to the pool. */
    void
    erase(size_t slot)
    {
        freeFlows_.push_back(slots_[slot].flow);
        --size_;
        // Backward shift: pull each later entry of the probe run into
        // the hole unless the hole lies before its home slot, so every
        // run stays gap-free and no tombstone is needed.
        size_t mask = slots_.size() - 1;
        size_t hole = slot;
        for (size_t i = (hole + 1) & mask; slots_[i].flow != emptySlot;
             i = (i + 1) & mask) {
            size_t fromHome = (i - home(slots_[i].key)) & mask;
            if (fromHome >= ((i - hole) & mask)) {
                slots_[hole] = slots_[i];
                hole = i;
            }
        }
        slots_[hole].flow = emptySlot;
    }

    /** Every open flow with its key, in index order. */
    std::vector<std::pair<FlowKey, State *>>
    entries()
    {
        std::vector<std::pair<FlowKey, State *>> out;
        out.reserve(size_);
        for (const Slot &entry : slots_)
            if (entry.flow != emptySlot)
                out.emplace_back(entry.key, &pool_[entry.flow]);
        return out;
    }

    /** Drop every flow and release the grown memory. */
    void
    clear()
    {
        slots_ = std::vector<Slot>(initialSlots);
        pool_ = {};
        freeFlows_ = {};
        size_ = 0;
    }

  private:
    static constexpr uint32_t emptySlot = ~0u;
    static constexpr size_t initialSlots = 1024;

    struct Slot
    {
        FlowKey key;
        uint32_t flow = emptySlot;  ///< position in pool_
    };

    size_t
    home(const FlowKey &key) const
    {
        return static_cast<size_t>(key.hash()) & (slots_.size() - 1);
    }

    /** Index slot of @p key, or of the empty slot it would take. */
    size_t
    find(const FlowKey &key) const
    {
        size_t mask = slots_.size() - 1;
        size_t i = home(key);
        while (slots_[i].flow != emptySlot && !(slots_[i].key == key))
            i = (i + 1) & mask;
        return i;
    }

    /** Open a flow at @p first in the empty slot @p slot of @p key;
     *  returns its slot (another one when the index grew). */
    size_t
    start(size_t slot, const FlowKey &key,
          const trace::PacketRecord &first)
    {
        if ((size_ + 1) * 2 > slots_.size()) {
            std::vector<Slot> old = std::move(slots_);
            slots_.assign(old.size() * 2, Slot{});
            for (const Slot &entry : old)
                if (entry.flow != emptySlot)
                    slots_[find(entry.key)] = entry;
            slot = find(key);
        }
        uint32_t flow;
        if (freeFlows_.empty()) {
            flow = static_cast<uint32_t>(pool_.size());
            pool_.emplace_back(first);
        } else {
            flow = freeFlows_.back();
            freeFlows_.pop_back();
            pool_[flow].restart(first);
        }
        slots_[slot] = Slot{key, flow};
        ++size_;
        return slot;
    }

    std::vector<Slot> slots_;  ///< power-of-two size
    std::vector<State> pool_;
    std::vector<uint32_t> freeFlows_;  ///< idle pool_ positions
    size_t size_ = 0;
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
    /**
     * Group every packet of @p trace into connections.
     *
     * @throws fcc::util::Error if @p trace is not time-ordered.
     */
    std::vector<AssembledFlow> assemble(const trace::Trace &trace) const;
};

} // namespace fcc::flow

#endif // FCC_FLOW_FLOW_TABLE_HPP
