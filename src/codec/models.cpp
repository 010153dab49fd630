/**
 * @file
 * The analytical ratio models of §5: per-flow-length equations 5
 * and 7 and their aggregation over a flow-length distribution
 * (equations 6 and 8).
 */

#include "codec/models.hpp"

#include "util/error.hpp"

namespace fcc::codec {

double
vjRatio(uint32_t n)
{
    util::require(n >= 1, "vjRatio: flow length must be >= 1");
    // First packet ships the full header; every later packet costs
    // the minimal encoded header.
    return (modelHeaderBytes +
            modelVjMinEncoded * static_cast<double>(n - 1)) /
           (modelHeaderBytes * static_cast<double>(n));
}

double
fccRatio(uint32_t n)
{
    util::require(n >= 1, "fccRatio: flow length must be >= 1");
    // One fixed-size time-seq record per flow; template datasets are
    // asymptotically constant and excluded from the per-flow model.
    return modelFccFlowBytes /
           (modelHeaderBytes * static_cast<double>(n));
}

double
peuhkuriRatio()
{
    return modelPeuhkuriPacketBytes / modelHeaderBytes;
}

double
aggregateRatio(
    const std::vector<std::pair<uint32_t, double>> &lengthDist,
    double (*perLength)(uint32_t))
{
    util::require(!lengthDist.empty(),
                  "aggregateRatio: empty length distribution");
    double compressed = 0.0;
    double original = 0.0;
    for (const auto &[n, p] : lengthDist) {
        util::require(p >= 0.0, "aggregateRatio: negative probability");
        double weight = p * static_cast<double>(n);
        compressed += weight * perLength(n);
        original += weight;
    }
    util::require(original > 0.0,
                  "aggregateRatio: distribution has zero mass");
    return compressed / original;
}

} // namespace fcc::codec
