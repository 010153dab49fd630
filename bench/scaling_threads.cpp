/**
 * @file
 * Thread-scaling study of FCC compression and decompression: wall
 * time, throughput (MB/s of TSH input, packets/s) and speedup at
 * 1/2/4/8 threads on the synthetic web trace, plus a byte-identity
 * check between every thread count (the codec's determinism
 * contract) on the compressed and the reconstructed bytes; the bench
 * exits non-zero when a row differs. Compression is one session
 * whose feed runs one shard per thread (the library-default FCC2
 * container serializes serially); decompression expands chunks in
 * parallel. A last table decompresses an elephants-scenario archive
 * of one chunk of long flows, which expands across the pool from 2
 * threads up (FccTraceCompressor::expandInto).
 *
 * Run: ./build/bench/scaling_threads [--smoke] [--json out.json]
 *
 * The JSON output feeds the CI perf-regression gate; see
 * scripts/perf_check.py.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "codec/fcc/fcc_codec.hpp"
#include "trace/scenario_gen.hpp"
#include "trace/tsh.hpp"
#include "trace/web_gen.hpp"
#include "util/thread_pool.hpp"

using namespace fcc;
namespace fccc = fcc::codec::fcc;

namespace {

double
secondsOf(const std::function<void()> &fn, int reps)
{
    double best = 1e100;
    for (int r = 0; r < reps; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        fn();
        auto t1 = std::chrono::steady_clock::now();
        best = std::min(
            best, std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = bench::smokeMode();
    std::string jsonPath;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            jsonPath = argv[++i];
    }
    bench::JsonMetrics metrics;
    const std::string balanceAtStart = bench::cpusetLoadBalance();

    trace::WebGenConfig cfg;
    cfg.seed = 2005;
    cfg.durationSec = smoke ? 3.0 : 90.0;
    cfg.flowsPerSec = smoke ? 60.0 : 250.0;
    trace::WebTrafficGenerator gen(cfg);
    trace::Trace trace = gen.generate();

    double tshMb = static_cast<double>(trace.size() *
                                       trace::tshRecordBytes) /
                   1e6;
    unsigned hw = util::ThreadPool::hardwareThreads();
    std::printf("# thread scaling of FCC compression and "
                "decompression\n");
    std::printf("# workload: synthetic web trace, seed=%llu, "
                "%zu packets, %.1f MB as TSH%s\n",
                static_cast<unsigned long long>(cfg.seed),
                trace.size(), tshMb, smoke ? " (smoke mode)" : "");
    std::printf("# hardware threads: %u%s\n\n", hw,
                hw < 4 ? " — speedups are bounded by the machine, "
                         "not the pipeline"
                       : "");

    const int reps = smoke ? 1 : 3;
    const uint32_t threadCounts[] = {1, 2, 4, 8};

    bool allIdentical = true;
    std::vector<uint8_t> reference;
    double baseCompress = 0.0;
    std::printf("## compression\n");
    std::printf("%8s %10s %10s %12s %9s %10s\n", "threads", "time_s",
                "MB/s", "packets/s", "speedup", "identical");
    for (uint32_t t : threadCounts) {
        fccc::FccConfig fcfg;
        fcfg.threads = t;
        fccc::FccTraceCompressor codec(fcfg);
        std::vector<uint8_t> bytes;
        double sec = secondsOf([&] { bytes = codec.compress(trace); },
                               reps);
        if (t == 1) {
            reference = bytes;
            baseCompress = sec;
        }
        bool same = bytes == reference;
        allIdentical = allIdentical && same;
        std::printf("%8u %10.3f %10.1f %12.0f %8.2fx %10s\n", t, sec,
                    tshMb / sec,
                    static_cast<double>(trace.size()) / sec,
                    baseCompress / sec, same ? "yes" : "NO!");
        metrics.add("fcc_compress_mbps_t" + std::to_string(t),
                    tshMb / sec);
    }

    double baseExpand = 0.0;
    std::vector<uint8_t> referenceTsh;
    std::printf("\n## decompression\n");
    std::printf("%8s %10s %10s %12s %9s %10s\n", "threads", "time_s",
                "MB/s", "packets/s", "speedup", "identical");
    for (uint32_t t : threadCounts) {
        fccc::FccConfig fcfg;
        fcfg.threads = t;
        fccc::FccTraceCompressor codec(fcfg);
        trace::Trace restored;
        double sec = secondsOf(
            [&] { restored = codec.decompress(reference); }, reps);
        std::vector<uint8_t> tsh = trace::writeTsh(restored);
        if (t == 1) {
            baseExpand = sec;
            referenceTsh = tsh;
        }
        bool same = tsh == referenceTsh;
        allIdentical = allIdentical && same;
        std::printf("%8u %10.3f %10.1f %12.0f %8.2fx %10s\n", t, sec,
                    tshMb / sec,
                    static_cast<double>(restored.size()) / sec,
                    baseExpand / sec, same ? "yes" : "NO!");
        metrics.add("fcc_decompress_mbps_t" + std::to_string(t),
                    tshMb / sec);
    }

    // One chunk (1,500 records or fewer, under chunkRecords) of at
    // least trace::canonicalRadixMinPackets packets: the shape of
    // perfbench's elephants-gz archive, at its size outside smoke
    // mode.
    trace::ScenarioConfig ecfg =
        trace::scenarioDefaults(trace::ScenarioKind::Elephants, 2005);
    ecfg.flows = smoke ? 300 : 1500;
    ecfg.durationSec = smoke ? 10.0 : 60.0;
    trace::Trace elephants = trace::ScenarioGenerator(ecfg).generate();
    double elephantsMb = static_cast<double>(elephants.size() *
                                             trace::tshRecordBytes) /
                         1e6;
    std::vector<uint8_t> oneChunk =
        fccc::FccTraceCompressor().compress(elephants);
    double baseSingle = 0.0;
    std::vector<uint8_t> singleTsh;
    std::printf("\n## single-chunk decompression (elephants, %zu "
                "packets, %.1f MB as TSH)\n",
                elephants.size(), elephantsMb);
    std::printf("%8s %10s %10s %12s %9s %10s\n", "threads", "time_s",
                "MB/s", "packets/s", "speedup", "identical");
    for (uint32_t t : threadCounts) {
        fccc::FccConfig fcfg;
        fcfg.threads = t;
        fccc::FccTraceCompressor codec(fcfg);
        trace::Trace restored;
        double sec = secondsOf(
            [&] { restored = codec.decompress(oneChunk); }, reps);
        std::vector<uint8_t> tsh = trace::writeTsh(restored);
        if (t == 1) {
            baseSingle = sec;
            singleTsh = tsh;
        }
        bool same = tsh == singleTsh;
        allIdentical = allIdentical && same;
        std::printf("%8u %10.3f %10.1f %12.0f %8.2fx %10s\n", t, sec,
                    elephantsMb / sec,
                    static_cast<double>(restored.size()) / sec,
                    baseSingle / sec, same ? "yes" : "NO!");
        if (t == 1 || t == 4)
            metrics.add("fcc_decompress_single_chunk_mbps_t" +
                            std::to_string(t),
                        elephantsMb / sec);
    }

    std::printf("\n# identical=yes on every row is the determinism "
                "contract: thread count\n# changes wall time only, "
                "never the compressed or reconstructed bytes.\n");
    bench::printLoadBalance(balanceAtStart);

    if (!jsonPath.empty()) {
        if (!metrics.writeTo(jsonPath)) {
            std::fprintf(stderr, "cannot write %s\n",
                         jsonPath.c_str());
            return 1;
        }
        std::printf("# metrics written to %s\n", jsonPath.c_str());
    }
    return allIdentical ? 0 : 1;
}
