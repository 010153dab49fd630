/**
 * @file
 * Samplers for the workload-generator distributions: exponential
 * and bounded-Pareto via inverse transform, lognormal via
 * Box-Muller, Zipf and empirical Discrete via CDF inversion.
 * Parameter validation throws util::Error at construction.
 */

#include "util/distributions.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/error.hpp"

namespace fcc::util {

Exponential::Exponential(double lambda)
    : lambda_(lambda)
{
    require(lambda > 0.0, "Exponential: lambda must be positive");
}

double
Exponential::sample(Rng &rng) const
{
    return -std::log(rng.uniformPos()) / lambda_;
}

BoundedPareto::BoundedPareto(double alpha, double lo, double hi)
    : alpha_(alpha), lo_(lo), hi_(hi)
{
    require(alpha > 0.0, "BoundedPareto: alpha must be positive");
    require(lo > 0.0, "BoundedPareto: lo must be positive");
    require(hi > lo, "BoundedPareto: hi must exceed lo");
    loPowA_ = std::pow(lo_, alpha_);
    hiPowA_ = std::pow(hi_, alpha_);
}

double
BoundedPareto::sample(Rng &rng) const
{
    // Inverse-CDF of the truncated Pareto.
    double u = rng.uniform();
    double x = std::pow(
        (hiPowA_ * loPowA_) /
            (u * loPowA_ + (1.0 - u) * hiPowA_),
        1.0 / alpha_);
    return std::clamp(x, lo_, hi_);
}

LogNormal::LogNormal(double mu, double sigma)
    : mu_(mu), sigma_(sigma)
{
    require(sigma > 0.0, "LogNormal: sigma must be positive");
}

double
LogNormal::sample(Rng &rng) const
{
    // Box-Muller transform.
    double u1 = rng.uniformPos();
    double u2 = rng.uniform();
    double z = std::sqrt(-2.0 * std::log(u1)) *
               std::cos(2.0 * std::numbers::pi * u2);
    return std::exp(mu_ + sigma_ * z);
}

LogNormal
LogNormal::fromMedian(double median, double sigma)
{
    require(median > 0.0, "LogNormal: median must be positive");
    return LogNormal(std::log(median), sigma);
}

Zipf::Zipf(size_t n, double s)
{
    require(n >= 1, "Zipf: need at least one rank");
    require(s >= 0.0, "Zipf: exponent must be non-negative");
    cdf_.resize(n);
    double acc = 0.0;
    for (size_t k = 1; k <= n; ++k) {
        acc += 1.0 / std::pow(static_cast<double>(k), s);
        cdf_[k - 1] = acc;
    }
    for (double &v : cdf_)
        v /= acc;
}

size_t
Zipf::sample(Rng &rng) const
{
    double u = rng.uniform();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<size_t>(it - cdf_.begin()) + 1;
}

Discrete::Discrete(std::vector<int64_t> values, std::vector<double> weights)
    : values_(std::move(values))
{
    require(values_.size() == weights.size(),
            "Discrete: values/weights size mismatch");
    require(!values_.empty(), "Discrete: need at least one category");
    double total = 0.0;
    for (double w : weights) {
        require(w >= 0.0, "Discrete: negative weight");
        total += w;
    }
    require(total > 0.0, "Discrete: all weights zero");
    cdf_.resize(weights.size());
    double acc = 0.0;
    for (size_t i = 0; i < weights.size(); ++i) {
        acc += weights[i] / total;
        cdf_[i] = acc;
    }
    cdf_.back() = 1.0;
}

int64_t
Discrete::sample(Rng &rng) const
{
    double u = rng.uniform();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end())
        --it;
    return values_[static_cast<size_t>(it - cdf_.begin())];
}

} // namespace fcc::util
