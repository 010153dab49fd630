/**
 * @file
 * Out-of-line parts of common.hpp: the RSS probe and the quantile
 * estimator.
 */

#include "common.hpp"

#include <cmath>
#include <fstream>

namespace perfbench {

namespace {

/** Continued fraction of the incomplete beta function (modified
 *  Lentz method). */
double
betaContinuedFraction(double a, double b, double x)
{
    constexpr double tiny = 1e-300;
    auto guard = [](double v) { return std::fabs(v) < tiny ? tiny : v; };
    double c = 1.0;
    double d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
    double h = d;
    for (int m = 1; m <= 1000; ++m) {
        double even = m * (b - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m));
        d = 1.0 / guard(1.0 + even * d);
        c = guard(1.0 + even / c);
        h *= d * c;
        double odd = -(a + m) * (a + b + m) * x /
                     ((a + 2 * m) * (a + 1.0 + 2 * m));
        d = 1.0 / guard(1.0 + odd * d);
        c = guard(1.0 + odd / c);
        double step = d * c;
        h *= step;
        if (std::fabs(step - 1.0) < 1e-14)
            break;
    }
    return h;
}

/** Regularized incomplete beta function I_x(a, b). */
double
regularizedBeta(double a, double b, double x)
{
    if (x <= 0.0)
        return 0.0;
    if (x >= 1.0)
        return 1.0;
    double front = std::exp(std::lgamma(a + b) - std::lgamma(a) -
                            std::lgamma(b) + a * std::log(x) +
                            b * std::log1p(-x));
    if (x < (a + 1.0) / (a + b + 2.0))
        return front * betaContinuedFraction(a, b, x) / a;
    return 1.0 - front * betaContinuedFraction(b, a, 1.0 - x) / b;
}

} // namespace

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double n = static_cast<double>(v.size());
    double a = q * (n + 1.0);
    double b = (1.0 - q) * (n + 1.0);
    double estimate = 0.0;
    double below = 0.0;
    for (size_t i = 0; i < v.size(); ++i) {
        double upTo = regularizedBeta(a, b, static_cast<double>(i + 1) / n);
        estimate += (upTo - below) * v[i];
        below = upTo;
    }
    return estimate;
}

bool
resetPeakRss()
{
    std::ofstream refs("/proc/self/clear_refs");
    refs << "5";
    refs.close();
    return refs.good();
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) * 1024.0 / 1e6;
    return 0.0;
}

} // namespace perfbench
