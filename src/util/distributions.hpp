/**
 * @file
 * Random-variate distributions used by the synthetic workload
 * generators: exponential, bounded Pareto, lognormal, Zipf, and a
 * generic discrete (empirical) distribution.
 *
 * Each distribution is a small immutable object sampled with an
 * externally-supplied Rng, keeping all randomness owned by callers.
 */

#ifndef FCC_UTIL_DISTRIBUTIONS_HPP
#define FCC_UTIL_DISTRIBUTIONS_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace fcc::util {

/** Exponential distribution with rate lambda (mean 1/lambda). */
class Exponential
{
  public:
    /** @param lambda rate parameter; must be > 0. */
    explicit Exponential(double lambda);

    /** Draw one variate. */
    double sample(Rng &rng) const;

    /** Distribution mean (1 / lambda). */
    double mean() const { return 1.0 / lambda_; }

  private:
    double lambda_;
};

/**
 * Bounded Pareto distribution on [lo, hi] with shape alpha.
 *
 * Heavy-tailed; used for flow sizes and object sizes, matching the
 * "mice and elephants" structure the paper relies on.
 */
class BoundedPareto
{
  public:
    /**
     * @param alpha tail index; must be > 0.
     * @param lo lower bound; must be > 0.
     * @param hi upper bound; must be > lo.
     */
    BoundedPareto(double alpha, double lo, double hi);

    /** Draw one variate in [lo, hi]. */
    double sample(Rng &rng) const;

  private:
    double alpha_, lo_, hi_;
    double loPowA_, hiPowA_;
};

/** Lognormal distribution; used for round-trip times. */
class LogNormal
{
  public:
    /**
     * @param mu mean of the underlying normal.
     * @param sigma std-dev of the underlying normal; must be > 0.
     */
    LogNormal(double mu, double sigma);

    /** Draw one variate (> 0). */
    double sample(Rng &rng) const;

    /** Construct from the desired median and sigma. */
    static LogNormal fromMedian(double median, double sigma);

  private:
    double mu_, sigma_;
};

/**
 * Zipf distribution over ranks 1..n with exponent s; models server
 * popularity (spatial locality of destination addresses).
 *
 * Sampling is O(log n) via binary search over the precomputed CDF.
 */
class Zipf
{
  public:
    /**
     * @param n number of ranks; must be >= 1.
     * @param s exponent; must be >= 0 (0 = uniform).
     */
    Zipf(size_t n, double s);

    /** Draw a rank in [1, n]. */
    size_t sample(Rng &rng) const;

    size_t size() const { return cdf_.size(); }

  private:
    std::vector<double> cdf_;
};

/**
 * Discrete distribution over arbitrary (value, weight) pairs; also
 * serves as an empirical distribution estimated from data.
 */
class Discrete
{
  public:
    /**
     * @param values outcome for each category.
     * @param weights non-negative weight per category; at least one
     *                must be positive.
     */
    Discrete(std::vector<int64_t> values, std::vector<double> weights);

    /** Draw one category value. */
    int64_t sample(Rng &rng) const;

    size_t categories() const { return values_.size(); }
    int64_t valueAt(size_t i) const { return values_[i]; }

  private:
    std::vector<int64_t> values_;
    std::vector<double> cdf_;  // normalized, cdf_.back() == 1.0
};

} // namespace fcc::util

#endif // FCC_UTIL_DISTRIBUTIONS_HPP
