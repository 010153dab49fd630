/**
 * @file
 * Aggregation of per-packet samples into the curves the paper plots:
 * Figure 2's cumulative-traffic-vs-memory-accesses CDF and Figure 3's
 * traffic share per cache-miss-rate bucket.
 */

#ifndef FCC_MEMSIM_PROFILE_REPORT_HPP
#define FCC_MEMSIM_PROFILE_REPORT_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "memsim/memory_recorder.hpp"

namespace fcc::memsim {

/** Fraction of traffic with accesses in [lo, hi]. */
double
trafficShareInAccessRange(const std::vector<PacketSample> &samples,
                          uint32_t lo, uint32_t hi);

/** The paper's Figure 3 buckets: 0-5 %, 5-10 %, 10-20 %, > 20 %. */
struct MissRateBuckets
{
    static constexpr size_t count = 4;
    double share[count] = {};  ///< traffic fraction per bucket

    static const char *label(size_t i);
};

/** Bucket per-packet miss rates as in Figure 3. */
MissRateBuckets
missRateBuckets(const std::vector<PacketSample> &samples);

/** Mean per-packet access count. */
double meanAccesses(const std::vector<PacketSample> &samples);

} // namespace fcc::memsim

#endif // FCC_MEMSIM_PROFILE_REPORT_HPP
