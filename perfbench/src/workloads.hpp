/**
 * @file
 * The benchmark's workloads: how each one's capture file is generated
 * from the seed, and the codec configuration it is archived with.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>

#include "codec/fcc/fcc_codec.hpp"

namespace perfbench {

enum class WorkloadKind { Web, SynFlood, ElephantsGz };

struct Workload
{
    WorkloadKind kind = WorkloadKind::Web;
    /** FCC3 per-column entropy backend of the archives. */
    fcc::codec::backend::EntropyBackend backend =
        fcc::codec::backend::EntropyBackend::Deflate;
    /** Seal, commit and re-arm every N packets (fccd's record
     *  rollover); 0 = one archive for the whole capture. */
    uint64_t archivePackets = 0;
};

/** The workload called @p name. @throws fcc::util::Error if unknown. */
Workload findWorkload(const std::string &name, bool tiny);

/** A generated, fsync'd capture file. */
struct Inputs
{
    std::string path;
    uint64_t fileBytes = 0;
    uint64_t packets = 0;
    uint32_t crc32 = 0;  ///< CRC-32 of the file's bytes
};

/**
 * Generator seed of every workload's capture: the paper reproduction's
 * reference seed. The run's --seed draws the query mix instead; across
 * generator seeds the web trace's longest flows (a Pareto tail) moved
 * time-window query cost from 35 to 66 ms (README.md, noise sources).
 */
constexpr uint64_t captureSeed = 2005;

/**
 * Generate @p workload's capture into @p path and fsync it. @p tiny
 * shrinks it to a fraction of a second of work (self-test).
 */
Inputs generateInputs(const Workload &workload, bool tiny,
                      const std::string &path);

/**
 * The codec configuration `fcctool --index compress` and fccd use:
 * indexed FCC3, the workload's backend, @p threads workers
 * (0 = all cores).
 */
fcc::codec::fcc::FccConfig codecConfig(const Workload &workload,
                                       uint32_t threads);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
