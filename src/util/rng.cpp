/**
 * @file
 * xoshiro256** generator core: SplitMix64 seed expansion, next(),
 * jump(), and the convenience helpers (uniform doubles, integer
 * ranges, Bernoulli chance()).
 */

#include "util/rng.hpp"

#include "util/error.hpp"
#include "util/hash.hpp"

namespace fcc::util {

namespace {

inline uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(uint64_t seed)
{
    // SplitMix64 expansion of the seed, per the xoshiro authors'
    // recommendation; guarantees a non-zero state.
    uint64_t x = seed;
    for (auto &word : s_) {
        x += 0x9e3779b97f4a7c15ull;
        word = mix64(x);
    }
}

uint64_t
Rng::next()
{
    uint64_t result = rotl(s_[1] * 5, 7) * 9;
    uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniformPos()
{
    return 1.0 - uniform();
}

uint64_t
Rng::uniformInt(uint64_t lo, uint64_t hi)
{
    FCC_ASSERT(lo <= hi, "uniformInt: empty range");
    uint64_t span = hi - lo + 1;
    if (span == 0)  // full 64-bit range
        return next();
    // Rejection sampling to avoid modulo bias.
    uint64_t limit = ~0ull - (~0ull % span);
    uint64_t v;
    do {
        v = next();
    } while (v >= limit);
    return lo + v % span;
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

} // namespace fcc::util
