/**
 * @file
 * PacketRecord helpers: the canonical packet order (sort and k-way
 * run merge), dotted-quad IPv4 formatting/parsing and
 * human-readable one-line packet rendering.
 */

#include "trace/packet.hpp"

#include <algorithm>
#include <cstdio>

#include "util/error.hpp"

namespace fcc::trace {

void
sortCanonical(std::vector<PacketRecord> &packets)
{
    std::sort(packets.begin(), packets.end(),
              [](const PacketRecord &a, const PacketRecord &b) {
                  return packetCanonicalLess(a, b);
              });
}

std::vector<PacketRecord>
mergeCanonicalRuns(std::vector<std::vector<PacketRecord>> runs)
{
    struct Head
    {
        const PacketRecord *next;
        const PacketRecord *end;
    };
    std::vector<Head> heap;
    size_t total = 0;
    size_t lastRun = 0;
    for (size_t r = 0; r < runs.size(); ++r) {
        if (runs[r].empty())
            continue;
        heap.push_back({runs[r].data(),
                        runs[r].data() + runs[r].size()});
        total += runs[r].size();
        lastRun = r;
    }
    if (heap.size() <= 1)
        return heap.empty() ? std::vector<PacketRecord>{}
                            : std::move(runs[lastRun]);

    // Binary min-heap of run heads. The top is replaced and sifted
    // down once per packet: two comparisons while one run stays
    // smallest, the common case, as chunks overlap only at their
    // edges (pop_heap + push_heap would pay about 2 log k each time).
    auto before = [](const Head &a, const Head &b) {
        return packetCanonicalLess(*a.next, *b.next);
    };
    size_t n = heap.size();
    auto siftDown = [&](size_t i) {
        Head h = heap[i];
        for (;;) {
            size_t child = 2 * i + 1;
            if (child >= n)
                break;
            if (child + 1 < n && before(heap[child + 1], heap[child]))
                ++child;
            if (!before(heap[child], h))
                break;
            heap[i] = heap[child];
            i = child;
        }
        heap[i] = h;
    };
    for (size_t i = n / 2; i-- > 0;)
        siftDown(i);

    std::vector<PacketRecord> merged;
    merged.reserve(total);
    while (n > 1) {
        Head &top = heap[0];
        merged.push_back(*top.next++);
        if (top.next == top.end)
            heap[0] = heap[--n];
        siftDown(0);
    }
    // The last run left: its tail is already in order.
    merged.insert(merged.end(), heap[0].next, heap[0].end);
    return merged;
}

std::string
formatIp(uint32_t addr)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u",
                  (addr >> 24) & 0xff, (addr >> 16) & 0xff,
                  (addr >> 8) & 0xff, addr & 0xff);
    return buf;
}

uint32_t
parseIp(const std::string &text)
{
    unsigned a, b, c, d;
    char tail;
    int n = std::sscanf(text.c_str(), "%u.%u.%u.%u%c",
                        &a, &b, &c, &d, &tail);
    util::require(n == 4 && a < 256 && b < 256 && c < 256 && d < 256,
                  "parseIp: malformed IPv4 address");
    return (a << 24) | (b << 16) | (c << 8) | d;
}

std::string
formatTcpFlags(uint8_t flags)
{
    static const struct { uint8_t bit; const char *name; } names[] = {
        { tcp_flags::Syn, "SYN" }, { tcp_flags::Ack, "ACK" },
        { tcp_flags::Fin, "FIN" }, { tcp_flags::Rst, "RST" },
        { tcp_flags::Psh, "PSH" }, { tcp_flags::Urg, "URG" },
    };
    std::string out;
    for (const auto &entry : names) {
        if (flags & entry.bit) {
            if (!out.empty())
                out += '|';
            out += entry.name;
        }
    }
    return out.empty() ? "-" : out;
}

std::string
PacketRecord::str() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%.6fs %s:%u > %s:%u %s payload=%u",
                  timestampSec(),
                  formatIp(srcIp).c_str(), srcPort,
                  formatIp(dstIp).c_str(), dstPort,
                  formatTcpFlags(tcpFlags).c_str(), payloadBytes);
    return buf;
}

} // namespace fcc::trace
