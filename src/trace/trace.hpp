/**
 * @file
 * An in-memory packet trace: an ordered sequence of PacketRecords plus
 * aggregate queries every experiment needs (duration, byte volume,
 * time-window slicing).
 */

#ifndef FCC_TRACE_TRACE_HPP
#define FCC_TRACE_TRACE_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/packet.hpp"

namespace fcc::trace {

/** Ordered (by capture time) sequence of packet headers. */
class Trace
{
  public:
    Trace() = default;
    explicit Trace(std::vector<PacketRecord> packets);

    /** Append a packet; call sortByTime() if appends are unordered. */
    void add(const PacketRecord &pkt) { packets_.push_back(pkt); }

    /** Stable-sort packets by timestamp. */
    void sortByTime();

    /** True when timestamps are non-decreasing. */
    bool isTimeOrdered() const;

    size_t size() const { return packets_.size(); }
    bool empty() const { return packets_.empty(); }

    const PacketRecord &operator[](size_t i) const { return packets_[i]; }
    PacketRecord &operator[](size_t i) { return packets_[i]; }

    auto begin() const { return packets_.begin(); }
    auto end() const { return packets_.end(); }
    auto begin() { return packets_.begin(); }
    auto end() { return packets_.end(); }

    const std::vector<PacketRecord> &packets() const { return packets_; }

    /** Capture span in seconds (0 for traces with < 2 packets). */
    double durationSec() const;

    /** Sum of IP total lengths (wire bytes at header+payload level). */
    uint64_t totalWireBytes() const;

    /**
     * Copy of the packets whose timestamp lies in
     * [start, start + length) seconds relative to the first packet.
     */
    Trace sliceSeconds(double start, double length) const;

  private:
    std::vector<PacketRecord> packets_;
};

} // namespace fcc::trace

#endif // FCC_TRACE_TRACE_HPP
