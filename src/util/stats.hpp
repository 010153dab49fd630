/**
 * @file
 * Descriptive statistics: empirical CDFs. These back the
 * figure-regeneration benches (cumulative-traffic curves of Figs. 2
 * and 3) and the analysis layer's trace comparisons.
 */

#ifndef FCC_UTIL_STATS_HPP
#define FCC_UTIL_STATS_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fcc::util {

/**
 * Empirical CDF over a collected sample; supports quantile queries
 * and evaluation at arbitrary points.
 */
class Ecdf
{
  public:
    /** Add one observation. */
    void add(double x) { sample_.push_back(x); dirty_ = true; }

    size_t count() const { return sample_.size(); }

    /** P(X <= x) under the empirical distribution. */
    double at(double x) const;

    /**
     * Empirical quantile for @p q in [0, 1] (inverse CDF,
     * lower-value convention). Requires a non-empty sample.
     */
    double quantile(double q) const;

    /**
     * Two-sample Kolmogorov-Smirnov statistic between this sample
     * and @p other; the closeness metric used to compare original
     * and decompressed traces.
     */
    double ksDistance(const Ecdf &other) const;

  private:
    void ensureSorted() const;

    mutable std::vector<double> sample_;
    mutable bool dirty_ = false;
};

} // namespace fcc::util

#endif // FCC_UTIL_STATS_HPP
