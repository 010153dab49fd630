/**
 * @file
 * Bidirectional flow assembly: connections keyed by canonical
 * 5-tuple, each run through the §3 rules of Connection.
 */

#include "flow/flow_table.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/error.hpp"

namespace fcc::flow {

bool
canonicalFlowLess(const AssembledFlow &a, const AssembledFlow &b)
{
    return canonicalFlowOrderKey(a.firstTimestampNs, a.key) <
           canonicalFlowOrderKey(b.firstTimestampNs, b.key);
}

FlowTable::FlowTable(const FlowTableConfig &cfg)
    : cfg_(cfg)
{
}

std::vector<AssembledFlow>
FlowTable::assemble(const trace::Trace &trace) const
{
    util::require(trace.isTimeOrdered(),
                  "FlowTable: input trace must be time-ordered");

    struct OpenFlow
    {
        OpenFlow(const trace::PacketRecord &first, const FlowKey &key)
            : conn(first)
        {
            flow.key = key;
            flow.firstTimestampNs = first.timestampNs;
            flow.clientIp = conn.clientIp;
            flow.clientPort = conn.clientPort;
            flow.serverIp = conn.serverIp;
            flow.serverPort = conn.serverPort;
        }

        Connection conn;
        AssembledFlow flow;
    };
    std::unordered_map<FlowKey, OpenFlow> open;
    std::vector<AssembledFlow> done;

    for (uint32_t i = 0; i < trace.size(); ++i) {
        const trace::PacketRecord &pkt = trace[i];
        FlowKey key = FlowKey::fromPacket(pkt);

        auto it = open.find(key);
        if (it != open.end() &&
            it->second.conn.idleExpired(pkt.timestampNs,
                                        cfg_.idleTimeoutNs)) {
            done.push_back(std::move(it->second.flow));
            open.erase(it);
            it = open.end();
        }
        if (it == open.end())
            it = open.try_emplace(key, pkt, key).first;

        OpenFlow &state = it->second;
        Connection::Step step = state.conn.observe(pkt);
        state.flow.packetIndex.push_back(i);
        state.flow.fromClient.push_back(step.fromClient);
        if (step.closed) {
            done.push_back(std::move(state.flow));
            open.erase(it);
        }
    }

    for (auto &entry : open)
        done.push_back(std::move(entry.second.flow));
    std::sort(done.begin(), done.end(), canonicalFlowLess);
    return done;
}

} // namespace fcc::flow
