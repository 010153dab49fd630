/**
 * @file
 * Shared pieces of the end-to-end benchmark: the clock, an
 * order-sensitive digest, order statistics, the peak-RSS probe and
 * the in-memory span log of the traced run.
 */

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "trace/packet.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

inline double
secondsBetween(int64_t startNs, int64_t endNs)
{
    return static_cast<double>(endNs - startNs) * 1e-9;
}

/** Order-sensitive 64-bit digest: equal iff the same words arrived in
 *  the same order (up to hash collisions). */
class Digest
{
  public:
    void
    add(uint64_t word)
    {
        h_ ^= word * 0x9E3779B97F4A7C15ull;
        h_ = ((h_ << 27) | (h_ >> 37)) * 0xC2B2AE3D27D4EB4Full + 1;
    }

    void
    addBytes(std::span<const uint8_t> bytes)
    {
        size_t i = 0;
        for (; i + 8 <= bytes.size(); i += 8) {
            uint64_t word = 0;
            std::memcpy(&word, bytes.data() + i, 8);
            add(word);
        }
        uint64_t tail = bytes.size();
        for (; i < bytes.size(); ++i)
            tail = (tail << 8) | bytes[i];
        add(tail);
    }

    void
    addPacket(const fcc::trace::PacketRecord &p)
    {
        add(p.timestampNs);
        add((uint64_t{p.srcIp} << 32) | p.dstIp);
        add((uint64_t{p.srcPort} << 48) | (uint64_t{p.dstPort} << 32) |
            (uint64_t{p.protocol} << 24) | (uint64_t{p.tcpFlags} << 16) |
            p.payloadBytes);
        add((uint64_t{p.seq} << 32) | p.ack);
        add((uint64_t{p.window} << 16) | p.ipId);
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0x6A09E667F3BCC908ull;
};

/** Median (mean of the middle pair for even counts); 0 when empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Harrell-Davis estimate of the @p q quantile, q in (0, 1): a
 * Beta-weighted average of all order statistics. Unlike a single order
 * statistic it stays steady where a mixed workload's latencies form
 * clusters with gaps between them. 0 when empty.
 */
double quantile(std::vector<double> v, double q);

/** Reset the kernel's peak-RSS mark (VmHWM) via clear_refs mode 5.
 *  Returns false when the kernel refuses. */
bool resetPeakRss();

/** Peak RSS (VmHWM) since the last reset, in MB (10^6 bytes). */
double peakRssMb();

/** One timed interval of the traced run. */
struct Span
{
    const char *name = "";
    int64_t startNs = 0;
    int64_t endNs = 0;
    int32_t parent = -1;   ///< index of the enclosing span, -1 for a root
    uint32_t request = 0;  ///< request id shared by one query's spans
};

/**
 * Spans of one thread, kept in memory until the run ends. A disabled
 * log records nothing and costs one branch per call.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled = false) : enabled_(enabled) {}

    int32_t
    open(const char *name, int32_t parent = -1, uint32_t request = 0)
    {
        if (!enabled_)
            return -1;
        spans_.push_back({name, nowNs(), 0, parent, request});
        return static_cast<int32_t>(spans_.size() - 1);
    }

    void
    close(int32_t id)
    {
        if (id >= 0)
            spans_[static_cast<size_t>(id)].endNs = nowNs();
    }

    /** Spans recorded so far; an index into it marks a position. */
    const std::vector<Span> &spans() const { return spans_; }

    /** Seconds spent in spans called @p name recorded at or after
     *  position @p from. */
    double
    seconds(std::string_view name, size_t from = 0) const
    {
        int64_t ns = 0;
        for (size_t i = from; i < spans_.size(); ++i)
            if (name == spans_[i].name)
                ns += spans_[i].endNs - spans_[i].startNs;
        return static_cast<double>(ns) * 1e-9;
    }

    /** Append @p other's spans, re-pointing their parent links. */
    void
    absorb(const SpanLog &other)
    {
        auto base = static_cast<int32_t>(spans_.size());
        for (Span span : other.spans_) {
            if (span.parent >= 0)
                span.parent += base;
            spans_.push_back(span);
        }
    }

  private:
    bool enabled_;
    std::vector<Span> spans_;
};

/** RAII span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name, int32_t parent = -1,
               uint32_t request = 0)
        : log_(log), id_(log.open(name, parent, request))
    {}
    ~ScopedSpan() { log_.close(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int32_t id() const { return id_; }

  private:
    SpanLog &log_;
    int32_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
