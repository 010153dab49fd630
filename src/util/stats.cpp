/**
 * @file
 * Empirical CDF (sorted-sample quantiles / evaluation by binary
 * search).
 */

#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace fcc::util {

void
Ecdf::ensureSorted() const
{
    if (dirty_) {
        std::sort(sample_.begin(), sample_.end());
        dirty_ = false;
    }
}

double
Ecdf::at(double x) const
{
    if (sample_.empty())
        return 0.0;
    ensureSorted();
    auto it = std::upper_bound(sample_.begin(), sample_.end(), x);
    return static_cast<double>(it - sample_.begin()) /
           static_cast<double>(sample_.size());
}

double
Ecdf::quantile(double q) const
{
    require(!sample_.empty(), "Ecdf: quantile of empty sample");
    require(q >= 0.0 && q <= 1.0, "Ecdf: quantile out of [0,1]");
    ensureSorted();
    if (q == 0.0)
        return sample_.front();
    size_t idx = static_cast<size_t>(
        std::ceil(q * static_cast<double>(sample_.size()))) - 1;
    idx = std::min(idx, sample_.size() - 1);
    return sample_[idx];
}

double
Ecdf::ksDistance(const Ecdf &other) const
{
    require(!sample_.empty() && !other.sample_.empty(),
            "Ecdf: KS distance needs non-empty samples");
    ensureSorted();
    other.ensureSorted();
    double d = 0.0;
    for (double x : sample_)
        d = std::max(d, std::abs(at(x) - other.at(x)));
    for (double x : other.sample_)
        d = std::max(d, std::abs(at(x) - other.at(x)));
    return d;
}

} // namespace fcc::util
