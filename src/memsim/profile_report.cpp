/**
 * @file
 * Aggregation of per-packet MemoryRecorder samples into the
 * figure-ready series: access-count CDFs (Fig. 2) and miss-rate
 * bucket shares (Fig. 3).
 */

#include "memsim/profile_report.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace fcc::memsim {

double
trafficShareInAccessRange(const std::vector<PacketSample> &samples,
                          uint32_t lo, uint32_t hi)
{
    util::require(lo <= hi, "trafficShareInAccessRange: empty range");
    if (samples.empty())
        return 0.0;
    size_t inRange = 0;
    for (const auto &sample : samples)
        inRange += sample.accesses >= lo && sample.accesses <= hi;
    return static_cast<double>(inRange) /
           static_cast<double>(samples.size());
}

const char *
MissRateBuckets::label(size_t i)
{
    static const char *labels[count] = {"0%-5%", "5%-10%", "10%-20%",
                                        ">20%"};
    return i < count ? labels[i] : "?";
}

MissRateBuckets
missRateBuckets(const std::vector<PacketSample> &samples)
{
    MissRateBuckets buckets;
    if (samples.empty())
        return buckets;
    for (const auto &sample : samples) {
        double rate = sample.missRate();
        size_t idx;
        if (rate < 0.05)
            idx = 0;
        else if (rate < 0.10)
            idx = 1;
        else if (rate < 0.20)
            idx = 2;
        else
            idx = 3;
        buckets.share[idx] += 1.0;
    }
    for (double &share : buckets.share)
        share /= static_cast<double>(samples.size());
    return buckets;
}

double
meanAccesses(const std::vector<PacketSample> &samples)
{
    if (samples.empty())
        return 0.0;
    double total = 0;
    for (const auto &sample : samples)
        total += sample.accesses;
    return total / static_cast<double>(samples.size());
}

} // namespace fcc::memsim
