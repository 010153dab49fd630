/**
 * @file
 * Shared helpers for the self-contained bench binaries.
 *
 * Smoke mode (FCC_BENCH_SMOKE=1 in the environment) shrinks every
 * workload so each binary finishes in a couple of seconds — CI runs
 * the whole bench/ directory this way on every PR so the binaries
 * cannot silently rot. Numbers produced under smoke mode are for
 * liveness only, not for quoting.
 */

#ifndef FCC_BENCH_BENCH_COMMON_HPP
#define FCC_BENCH_BENCH_COMMON_HPP

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "trace/web_gen.hpp"

namespace fcc::bench {

/** True when the FCC_BENCH_SMOKE environment toggle is set. */
inline bool
smokeMode()
{
    const char *env = std::getenv("FCC_BENCH_SMOKE");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/**
 * Shrink a workload for smoke mode; returns the (possibly adjusted)
 * config so call sites stay one-liners. No-op outside smoke mode.
 */
inline trace::WebGenConfig
applySmoke(trace::WebGenConfig cfg)
{
    if (smokeMode()) {
        cfg.durationSec = std::min(cfg.durationSec, 3.0);
        cfg.flowsPerSec = std::min(cfg.flowsPerSec, 60.0);
    }
    return cfg;
}

/**
 * The cgroup-v1 cpuset `jobs` group's sched_load_balance flag as
 * text ("0" or "1"), or "unknown" when the file is absent. While it
 * is 0 the kernel balances nothing across the set's CPUs: a new
 * thread stays on its creator's CPU, so every thread of a process
 * can share one CPU and a parallel timing measures one CPU. A bench
 * that times threads reads it at start and at end and prints both.
 */
inline std::string
cpusetLoadBalance()
{
    std::FILE *f = std::fopen(
        "/sys/fs/cgroup/cpuset/jobs/cpuset.sched_load_balance", "r");
    if (f == nullptr)
        return "unknown";
    int value = -1;
    bool read = std::fscanf(f, "%d", &value) == 1;
    std::fclose(f);
    return read ? std::to_string(value) : "unknown";
}

/** The line printing cpusetLoadBalance() read at start and at end. */
inline void
printLoadBalance(const std::string &atStart)
{
    std::printf("# cpuset sched_load_balance: start %s, end %s\n",
                atStart.c_str(), cpusetLoadBalance().c_str());
}

/** Repetition count for timing loops: 1 in smoke mode, else @p n. */
inline int
smokeReps(int n)
{
    return smokeMode() ? 1 : n;
}

/**
 * Flat name -> value metric collection, written as a one-level JSON
 * object. The CI perf-regression gate (scripts/perf_check.py) merges
 * these files and compares them against bench/perf_baseline.json.
 */
class JsonMetrics
{
  public:
    void
    add(const std::string &name, double value)
    {
        metrics_.emplace_back(name, value);
    }

    /** Write the collected metrics; returns false on I/O failure. */
    bool
    writeTo(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::fprintf(f, "{\n");
        for (size_t i = 0; i < metrics_.size(); ++i)
            std::fprintf(f, "  \"%s\": %.6g%s\n",
                         metrics_[i].first.c_str(),
                         metrics_[i].second,
                         i + 1 < metrics_.size() ? "," : "");
        std::fprintf(f, "}\n");
        return std::fclose(f) == 0;
    }

  private:
    std::vector<std::pair<std::string, double>> metrics_;
};

} // namespace fcc::bench

#endif // FCC_BENCH_BENCH_COMMON_HPP
