/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic components of the library (workload generators,
 * sampling, synthetic tables) draw from Rng so experiments are exactly
 * reproducible from a seed. The core generator is xoshiro256**.
 */

#ifndef FCC_UTIL_RNG_HPP
#define FCC_UTIL_RNG_HPP

#include <cstdint>

namespace fcc::util {

/**
 * xoshiro256** 1.0 (Blackman & Vigna), seeded via SplitMix64.
 *
 * Satisfies the UniformRandomBitGenerator concept so it can also feed
 * <random> distributions if ever needed.
 */
class Rng
{
  public:
    using result_type = uint64_t;

    /** Seed deterministically; the same seed replays the stream. */
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Next raw 64-bit draw. */
    uint64_t next();

    uint64_t operator()() { return next(); }
    static constexpr uint64_t min() { return 0; }
    static constexpr uint64_t max() { return ~0ull; }

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in (0, 1] — safe as a log() argument. */
    double uniformPos();

    /** Uniform integer in [lo, hi] inclusive; requires lo <= hi. */
    uint64_t uniformInt(uint64_t lo, uint64_t hi);

    /** Bernoulli draw with probability @p p of returning true. */
    bool chance(double p);

  private:
    uint64_t s_[4];
};

} // namespace fcc::util

#endif // FCC_UTIL_RNG_HPP
