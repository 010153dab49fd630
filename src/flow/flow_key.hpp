/**
 * @file
 * Canonical bidirectional flow identity.
 *
 * The paper defines a flow by the 5-tuple (source/destination address,
 * protocol, source/destination ports); its f2 parameter (ack
 * dependence) and its decompressor's client/server port assignment
 * treat the two directions of a TCP connection as one object. FlowKey
 * therefore canonicalizes the 5-tuple so both directions map to the
 * same key, and remembers enough to recover each packet's direction.
 */

#ifndef FCC_FLOW_FLOW_KEY_HPP
#define FCC_FLOW_FLOW_KEY_HPP

#include <cstdint>

#include "trace/packet.hpp"
#include "util/hash.hpp"

namespace fcc::flow {

/**
 * Direction-independent 5-tuple: endpoint A is the numerically
 * smaller (ip, port) pair, so a packet and its reply produce the
 * same key.
 */
struct FlowKey
{
    uint32_t ipA = 0;
    uint32_t ipB = 0;
    uint16_t portA = 0;
    uint16_t portB = 0;
    uint8_t protocol = 0;

    /** Build the canonical key for @p pkt. */
    static FlowKey
    fromPacket(const trace::PacketRecord &pkt)
    {
        FlowKey key;
        key.protocol = pkt.protocol;
        bool srcIsA = pkt.srcIp < pkt.dstIp ||
                      (pkt.srcIp == pkt.dstIp &&
                       pkt.srcPort <= pkt.dstPort);
        if (srcIsA) {
            key.ipA = pkt.srcIp;
            key.portA = pkt.srcPort;
            key.ipB = pkt.dstIp;
            key.portB = pkt.dstPort;
        } else {
            key.ipA = pkt.dstIp;
            key.portA = pkt.dstPort;
            key.ipB = pkt.srcIp;
            key.portB = pkt.srcPort;
        }
        return key;
    }

    /** True when @p pkt travels from endpoint A to endpoint B. */
    bool
    packetFromA(const trace::PacketRecord &pkt) const
    {
        return pkt.srcIp == ipA && pkt.srcPort == portA;
    }

    bool operator==(const FlowKey &) const = default;

    /** Mixing hash over all five fields. */
    uint64_t
    hash() const
    {
        uint64_t h = util::mix64(
            (static_cast<uint64_t>(ipA) << 32) | ipB);
        h = util::hashCombine(
            h, (static_cast<uint64_t>(portA) << 32) |
                   (static_cast<uint64_t>(portB) << 16) | protocol);
        return h;
    }
};

} // namespace fcc::flow

#endif // FCC_FLOW_FLOW_KEY_HPP
