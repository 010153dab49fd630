/**
 * @file
 * Set-associative LRU cache simulator used for the §6.2 cache-miss
 * study. Models a single-level data cache with true-LRU replacement;
 * only hit/miss behaviour is simulated (no latencies), which is what
 * the paper's Figure 3 reports.
 */

#ifndef FCC_MEMSIM_CACHE_MODEL_HPP
#define FCC_MEMSIM_CACHE_MODEL_HPP

#include <cstdint>
#include <vector>

namespace fcc::memsim {

/** Geometry of the simulated cache. */
struct CacheConfig
{
    uint32_t sizeBytes = 16 * 1024;  ///< total capacity
    uint32_t lineBytes = 32;         ///< cache line size
    uint32_t ways = 2;               ///< associativity

    uint32_t sets() const { return sizeBytes / (lineBytes * ways); }
};

/** Set-associative cache with true-LRU replacement. */
class CacheModel
{
  public:
    /**
     * @throws fcc::util::Error unless line size and set count are
     *         powers of two and the geometry is consistent.
     */
    explicit CacheModel(const CacheConfig &cfg = {});

    /**
     * Simulate one access to the line containing @p addr.
     * @return true on hit.
     */
    bool access(uint64_t addr, bool write = false);

    const CacheConfig &config() const { return cfg_; }
    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }

    double
    missRate() const
    {
        uint64_t total = hits_ + misses_;
        return total ? static_cast<double>(misses_) /
                           static_cast<double>(total)
                     : 0.0;
    }

  private:
    struct Line
    {
        uint64_t tag = 0;
        uint64_t lastUse = 0;
        bool valid = false;
    };

    CacheConfig cfg_;
    uint32_t setShift_;  ///< log2(lineBytes)
    uint32_t setMask_;   ///< sets - 1
    std::vector<Line> lines_;  ///< sets * ways, row-major by set
    uint64_t clock_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

} // namespace fcc::memsim

#endif // FCC_MEMSIM_CACHE_MODEL_HPP
