/**
 * @file
 * Trace container: stable time sort, order checking, duration and
 * time-window slicing over the packet vector.
 */

#include "trace/trace.hpp"

#include <algorithm>

namespace fcc::trace {

Trace::Trace(std::vector<PacketRecord> packets)
    : packets_(std::move(packets))
{
}

void
Trace::sortByTime()
{
    std::stable_sort(packets_.begin(), packets_.end(),
                     [](const PacketRecord &a, const PacketRecord &b) {
                         return a.timestampNs < b.timestampNs;
                     });
}

bool
Trace::isTimeOrdered() const
{
    return std::is_sorted(packets_.begin(), packets_.end(),
                          [](const PacketRecord &a, const PacketRecord &b) {
                              return a.timestampNs < b.timestampNs;
                          });
}

double
Trace::durationSec() const
{
    if (packets_.size() < 2)
        return 0.0;
    return static_cast<double>(packets_.back().timestampNs -
                               packets_.front().timestampNs) * 1e-9;
}

uint64_t
Trace::totalWireBytes() const
{
    uint64_t total = 0;
    for (const auto &pkt : packets_)
        total += pkt.ipTotalLength();
    return total;
}

Trace
Trace::sliceSeconds(double start, double length) const
{
    Trace out;
    if (packets_.empty())
        return out;
    uint64_t t0 = packets_.front().timestampNs;
    uint64_t lo = t0 + static_cast<uint64_t>(start * 1e9);
    uint64_t hi = lo + static_cast<uint64_t>(length * 1e9);
    for (const auto &pkt : packets_) {
        if (pkt.timestampNs >= lo && pkt.timestampNs < hi)
            out.add(pkt);
    }
    return out;
}

} // namespace fcc::trace
