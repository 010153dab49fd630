/**
 * @file
 * Bidirectional flow assembly: connections keyed by canonical
 * 5-tuple, each run through the §3 rules of Connection.
 */

#include "flow/flow_table.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace fcc::flow {

bool
canonicalFlowLess(const AssembledFlow &a, const AssembledFlow &b)
{
    return canonicalFlowOrderKey(a.firstTimestampNs, a.key) <
           canonicalFlowOrderKey(b.firstTimestampNs, b.key);
}

std::vector<AssembledFlow>
FlowTable::assemble(const trace::Trace &trace) const
{
    util::require(trace.isTimeOrdered(),
                  "FlowTable: input trace must be time-ordered");

    struct OpenFlow
    {
        explicit OpenFlow(const trace::PacketRecord &first)
            : conn(first)
        {
            flow.key = FlowKey::fromPacket(first);
            flow.firstTimestampNs = first.timestampNs;
            flow.clientIp = conn.clientIp;
            flow.clientPort = conn.clientPort;
            flow.serverIp = conn.serverIp;
            flow.serverPort = conn.serverPort;
        }

        void
        restart(const trace::PacketRecord &first)
        {
            *this = OpenFlow(first);
        }

        Connection conn;
        AssembledFlow flow;
    };
    OpenFlowIndex<OpenFlow> open;
    std::vector<AssembledFlow> done;

    for (uint32_t i = 0; i < trace.size(); ++i) {
        const trace::PacketRecord &pkt = trace[i];
        FlowKey key = FlowKey::fromPacket(pkt);
        size_t slot = open.admit(key, pkt, [&](OpenFlow &expired) {
            done.push_back(std::move(expired.flow));
        });
        OpenFlow &state = open.at(slot);
        Connection::Step step = state.conn.observe(pkt);
        state.flow.packetIndex.push_back(i);
        state.flow.fromClient.push_back(step.fromClient);
        if (step.closed) {
            done.push_back(std::move(state.flow));
            open.erase(slot);
        }
    }

    // Flows still open follow the closed ones, so a flow that ties
    // another's canonical key (a 5-tuple reused within one
    // nanosecond) keeps its close order, as in the compressor's
    // time-seq dataset.
    for (auto &entry : open.entries())
        done.push_back(std::move(entry.second->flow));
    std::stable_sort(done.begin(), done.end(), canonicalFlowLess);
    return done;
}

} // namespace fcc::flow
