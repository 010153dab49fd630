/**
 * @file
 * Workload table and capture generation (see README.md for why each
 * workload is in the set).
 */

#include "workloads.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "codec/deflate/deflate.hpp"
#include "trace/pcapng.hpp"
#include "trace/scenario_gen.hpp"
#include "trace/tsh.hpp"
#include "trace/web_gen.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"

namespace perfbench {

using fcc::codec::backend::EntropyBackend;

Workload
findWorkload(const std::string &name, bool tiny)
{
    if (name == "web")
        return {WorkloadKind::Web, EntropyBackend::Deflate, 0};
    if (name == "synflood")
        // fccd-style rollover: 600k packets -> 8 archives.
        return {WorkloadKind::SynFlood, EntropyBackend::RangeLanes,
                tiny ? 750u : 75000u};
    if (name == "elephants-gz")
        return {WorkloadKind::ElephantsGz, EntropyBackend::Deflate, 0};
    throw fcc::util::Error("unknown workload '" + name +
                           "' (web, synflood, elephants-gz)");
}


namespace {

/** Flush @p path's data (file or directory) to disk. */
void
fsyncPath(const std::string &path)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    fcc::util::require(fd >= 0, "cannot open " + path + " to fsync");
    int rc = ::fsync(fd);
    ::close(fd);
    fcc::util::require(rc == 0, "fsync failed on " + path);
}

fcc::trace::Trace
generateTrace(const Workload &workload, bool tiny)
{
    const uint64_t seed = captureSeed;
    using namespace fcc::trace;
    switch (workload.kind) {
    case WorkloadKind::Web: {
        WebGenConfig cfg;
        cfg.seed = seed;
        cfg.durationSec = tiny ? 2.0 : 60.0;
        cfg.flowsPerSec = tiny ? 150.0 : 1000.0;
        return WebTrafficGenerator(cfg).generate();
    }
    case WorkloadKind::SynFlood: {
        ScenarioConfig cfg = scenarioDefaults(ScenarioKind::SynFlood, seed);
        cfg.flows = tiny ? 6000 : 600000;
        cfg.durationSec = tiny ? 2.0 : 60.0;
        return ScenarioGenerator(cfg).generate();
    }
    case WorkloadKind::ElephantsGz: {
        ScenarioConfig cfg =
            scenarioDefaults(ScenarioKind::Elephants, seed);
        cfg.flows = tiny ? 40 : 1500;
        cfg.durationSec = tiny ? 2.0 : 60.0;
        return ScenarioGenerator(cfg).generate();
    }
    }
    throw fcc::util::Error("unhandled workload kind");
}

void
writeBytes(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.close();
    fcc::util::require(out.good(), "cannot write " + path);
}

} // namespace

Inputs
generateInputs(const Workload &workload, bool tiny, const std::string &path)
{
    std::vector<uint8_t> bytes;
    uint64_t packets = 0;
    {
        fcc::trace::Trace trace = generateTrace(workload, tiny);
        packets = trace.size();
        if (workload.kind == WorkloadKind::ElephantsGz)
            bytes = fcc::codec::deflate::gzipCompress(
                fcc::trace::writePcapng(trace));
        else
            bytes = fcc::trace::writeTsh(trace);
    }
    writeBytes(path, bytes);
    fsyncPath(path);
    std::filesystem::path parent =
        std::filesystem::absolute(path).parent_path();
    fsyncPath(parent.string());

    Inputs inputs;
    inputs.path = path;
    inputs.fileBytes = bytes.size();
    inputs.packets = packets;
    inputs.crc32 = fcc::util::Crc32::of(bytes);
    return inputs;
}

fcc::codec::fcc::FccConfig
codecConfig(const Workload &workload, uint32_t threads)
{
    fcc::codec::fcc::FccConfig cfg;
    cfg.container = fcc::codec::fcc::ContainerFormat::Fcc3;
    cfg.index = true;
    cfg.backend = workload.backend;
    cfg.threads = threads;
    return cfg;
}

} // namespace perfbench
