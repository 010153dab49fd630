/**
 * @file
 * Set-associative LRU cache simulator: geometry validation, tag/
 * set decomposition and per-access hit/miss accounting.
 */

#include "memsim/cache_model.hpp"

#include <bit>

#include "util/error.hpp"

namespace fcc::memsim {

CacheModel::CacheModel(const CacheConfig &cfg)
    : cfg_(cfg)
{
    util::require(cfg_.lineBytes >= 4 &&
                      std::has_single_bit(cfg_.lineBytes),
                  "CacheModel: line size must be a power of two");
    util::require(cfg_.ways >= 1, "CacheModel: need >= 1 way");
    util::require(cfg_.sizeBytes % (cfg_.lineBytes * cfg_.ways) == 0,
                  "CacheModel: size not divisible by line*ways");
    uint32_t sets = cfg_.sets();
    util::require(sets >= 1 && std::has_single_bit(sets),
                  "CacheModel: set count must be a power of two");
    setShift_ = static_cast<uint32_t>(std::countr_zero(cfg_.lineBytes));
    setMask_ = sets - 1;
    lines_.assign(static_cast<size_t>(sets) * cfg_.ways, Line{});
}

bool
CacheModel::access(uint64_t addr, bool write)
{
    (void)write;  // write-allocate, no write-back modeling needed
    uint64_t lineAddr = addr >> setShift_;
    uint32_t set = static_cast<uint32_t>(lineAddr) & setMask_;
    uint64_t tag = lineAddr >> std::countr_zero(setMask_ + 1);

    Line *base = lines_.data() +
                 static_cast<size_t>(set) * cfg_.ways;
    ++clock_;

    Line *victim = base;
    for (uint32_t w = 0; w < cfg_.ways; ++w) {
        Line &line = base[w];
        if (line.valid && line.tag == tag) {
            line.lastUse = clock_;
            ++hits_;
            return true;
        }
        if (!line.valid) {
            victim = &line;
        } else if (victim->valid &&
                   line.lastUse < victim->lastUse) {
            victim = &line;
        }
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = clock_;
    ++misses_;
    return false;
}

} // namespace fcc::memsim
