/**
 * @file
 * PacketRecord helpers: the canonical packet order (bucket sort and
 * k-way run merge), dotted-quad IPv4 formatting/parsing and
 * human-readable one-line packet rendering.
 */

#include "trace/packet.hpp"

#include <algorithm>
#include <cstdio>

#include "util/error.hpp"

namespace fcc::trace {

namespace {

// A function object, so std::sort inlines the comparison.
constexpr auto canonicalLess = [](const PacketRecord &a,
                                  const PacketRecord &b) {
    return packetCanonicalLess(a, b);
};

// Inside the recursion: buckets below this size take std::sort,
// and those of at most insertionMaxPackets an insertion sort.
constexpr size_t radixMinBucket = 256;
constexpr size_t insertionMaxPackets = 32;

void
insertionSort(PacketRecord *first, PacketRecord *last)
{
    for (PacketRecord *i = first + 1; i < last; ++i) {
        if (!canonicalLess(*i, i[-1]))
            continue;
        PacketRecord v = *i;
        PacketRecord *j = i;
        do {
            *j = j[-1];
            --j;
        } while (j > first && canonicalLess(v, j[-1]));
        *j = v;
    }
}

/**
 * Sort [first, last) whose keys (timestampNs - base) agree above bit
 * @p bits: an in-place MSD ("American flag") radix sort on 8-bit
 * digits of the key, top digit first. The key is monotone in the
 * timestamp, and once its bits are used up a bucket holds a single
 * timestamp, which the comparator's tie-breakers finish.
 */
void
radixSortBucket(PacketRecord *first, PacketRecord *last, uint64_t base,
                unsigned bits)
{
    size_t n = static_cast<size_t>(last - first);
    while (n >= radixMinBucket && bits > 0) {
        unsigned width = std::min(bits, 8u);
        unsigned shift = bits - width;
        uint64_t mask = (uint64_t{1} << width) - 1;
        auto digit = [base, shift, mask](const PacketRecord &p) {
            return static_cast<unsigned>(
                ((p.timestampNs - base) >> shift) & mask);
        };
        bits = shift;

        size_t count[256] = {};
        for (const PacketRecord *p = first; p < last; ++p)
            ++count[digit(*p)];
        // One bucket holds everything: descend without a pass.
        if (count[digit(*first)] == n)
            continue;

        size_t head[256], end[256];
        size_t at = 0;
        for (unsigned b = 0; b <= mask; ++b) {
            head[b] = at;
            at += count[b];
            end[b] = at;
        }
        // Cycle leader: each out-of-place record is swapped straight
        // into the next free slot of its bucket.
        for (unsigned b = 0; b <= mask; ++b) {
            while (head[b] < end[b]) {
                PacketRecord v = first[head[b]];
                unsigned d = digit(v);
                while (d != b) {
                    std::swap(v, first[head[d]++]);
                    d = digit(v);
                }
                first[head[b]++] = v;
            }
        }

        PacketRecord *bucket = first;
        for (unsigned b = 0; b <= mask; ++b) {
            if (count[b] > 1)
                radixSortBucket(bucket, bucket + count[b], base, bits);
            bucket += count[b];
        }
        return;
    }
    if (n <= insertionMaxPackets)
        insertionSort(first, last);
    else
        std::sort(first, last, canonicalLess);
}

} // namespace

void
sortCanonicalBucket(std::span<PacketRecord> packets, uint64_t base,
                    unsigned bits)
{
    if (packets.size() > 1)
        radixSortBucket(packets.data(), packets.data() + packets.size(),
                        base, bits);
}

void
mergeCanonicalRuns(std::vector<std::vector<PacketRecord>> runs,
                   uint64_t limitNs, const PacketSpanSink &emit,
                   std::vector<PacketRecord> &rest)
{
    struct Head
    {
        const PacketRecord *next;
        const PacketRecord *end;
    };
    auto below = [limitNs](const PacketRecord &pkt) {
        return pkt.timestampNs < limitNs;
    };
    // A stretch of one run goes out as it is, one block at a time.
    auto emitSpan = [&emit](const PacketRecord *p, const PacketRecord *end) {
        while (p != end) {
            size_t take = std::min(static_cast<size_t>(end - p),
                                   canonicalMergeBlock);
            emit({p, take});
            p += take;
        }
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
    if (heap.empty())
        return;
    if (heap.size() == 1) {
        // One run: its prefix goes out without a copy, and the whole
        // run moves to an empty rest.
        std::vector<PacketRecord> &run = runs[lastRun];
        const PacketRecord *begin = run.data();
        const PacketRecord *cut = std::partition_point(
            begin, begin + run.size(), below);
        emitSpan(begin, cut);
        if (cut == begin && rest.empty())
            rest = std::move(run);
        else
            rest.insert(rest.end(), cut, begin + run.size());
        return;
    }

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
    auto pop = [&] {
        Head &top = heap[0];
        const PacketRecord &pkt = *top.next++;
        if (top.next == top.end)
            heap[0] = heap[--n];
        siftDown(0);
        return pkt;
    };

    // Below the limit: merge into a fixed block, written out each
    // time it fills. The merge is in order, so the first packet at
    // or past the limit ends this phase.
    std::vector<PacketRecord> block;
    if (below(*heap[0].next))
        block.reserve(std::min(total, canonicalMergeBlock));
    while (n > 1 && below(*heap[0].next)) {
        block.push_back(pop());
        if (block.size() == canonicalMergeBlock) {
            emit(block);
            block.clear();
        }
    }
    if (n == 1) {
        // The last run left is already in order: top the block up
        // from its prefix, then write the rest of that prefix
        // without a copy.
        const PacketRecord *next = heap[0].next;
        const PacketRecord *cut =
            std::partition_point(next, heap[0].end, below);
        if (!block.empty()) {
            size_t take = std::min(static_cast<size_t>(cut - next),
                                   canonicalMergeBlock - block.size());
            block.insert(block.end(), next, next + take);
            next += take;
            emit(block);
        }
        emitSpan(next, cut);
        heap[0].next = cut;
    } else if (!block.empty()) {
        emit(block);
    }

    // At or past the limit: the rest, still in order, to @p rest.
    size_t remaining = 0;
    for (size_t i = 0; i < n; ++i)
        remaining += static_cast<size_t>(heap[i].end - heap[i].next);
    rest.reserve(rest.size() + remaining);
    while (n > 1)
        rest.push_back(pop());
    rest.insert(rest.end(), heap[0].next, heap[0].end);
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
