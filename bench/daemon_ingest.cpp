/**
 * @file
 * Archiver-daemon ingest throughput: MB/s of the archive::Daemon
 * loop over a replayed TSH capture, with and without chunk/archive
 * rotation, plus the structural warm-re-arm check — a template
 * store carried across seal()/reArm() must create fewer clusters in
 * the second epoch than a cold restart does.
 *
 * Run: ./build/bench/daemon_ingest [--smoke] [--json out.json]
 *
 * The rotation cell uses aggressive bounds (an archive every ~1/8
 * of the trace, a chunk cut every 512 records) so the measured gap
 * against the single-archive baseline is the cost of the seal /
 * fsync / re-arm machinery itself. The warm-re-arm check is
 * structural (cluster counts, not wall time) and hard-fails the
 * binary — CI trips on a broken carry path even in smoke mode.
 * JSON output feeds the CI perf gate; see scripts/perf_check.py.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>

#include "bench_common.hpp"
#include "archive/daemon.hpp"
#include "codec/fcc/session.hpp"
#include "trace/source.hpp"
#include "trace/trace.hpp"
#include "trace/tsh.hpp"
#include "trace/web_gen.hpp"
#include "util/io.hpp"

using namespace fcc;
namespace fs = std::filesystem;

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

/** One timed daemon run over @p input into a fresh directory. */
archive::DaemonReport
runOnce(const std::string &input, const std::string &outDir,
        const codec::fcc::IngestPolicy &policy)
{
    fs::remove_all(outDir);
    fs::create_directories(outDir);
    archive::DaemonConfig cfg;
    cfg.input = input;
    cfg.inputFormat = trace::parseTraceFormatSpec("tsh");
    cfg.outputDir = outDir;
    cfg.codec.container = codec::fcc::ContainerFormat::Fcc3;
    cfg.codec.index = true;
    cfg.ingest = policy;
    codec::fcc::IngestControl control;
    return archive::Daemon(cfg).run(control);
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

    trace::WebGenConfig gen;
    gen.seed = 2005;
    gen.durationSec = smoke ? 3.0 : 30.0;
    gen.flowsPerSec = smoke ? 60.0 : 200.0;
    trace::Trace trace = trace::WebTrafficGenerator(gen).generate();

    const std::string input = "daemon_ingest_tmp.tsh";
    const std::string outDir = "daemon_ingest_tmp.out";
    {
        auto sink = trace::openTraceSink(
            input, trace::parseTraceFormatSpec("tsh"));
        trace::writeAllPackets(*sink, trace);
    }
    const double inputMb =
        static_cast<double>(fs::file_size(input)) / 1e6;

    std::printf("# archiver daemon ingest throughput\n");
    std::printf("# workload: %zu packets, %.1f MB TSH%s\n\n",
                trace.size(), inputMb,
                smoke ? " (smoke mode)" : "");

    const int reps = smoke ? 1 : 3;
    bench::JsonMetrics metrics;

    // --- baseline: one epoch, no rotation -------------------------
    archive::DaemonReport report;
    double baseSec = secondsOf(
        [&] { report = runOnce(input, outDir, {}); }, reps);
    double baseMbps = inputMb / baseSec;
    std::printf("%-22s %8.1f MB/s  (%llu archive)\n",
                "ingest (no rotation)", baseMbps,
                static_cast<unsigned long long>(
                    report.sealed.size()));
    metrics.add("daemon_ingest_mbps", baseMbps);

    // --- rotating: frequent chunk cuts + archive rollover ---------
    codec::fcc::IngestPolicy rotation;
    rotation.chunkRecords = 512;
    rotation.archiveRecords = std::max<uint64_t>(
        trace.size() / 8, 1);
    double rotSec = secondsOf(
        [&] { report = runOnce(input, outDir, rotation); }, reps);
    double rotMbps = inputMb / rotSec;
    std::printf("%-22s %8.1f MB/s  (%llu archives, %llu chunks)\n",
                "ingest (rotating)", rotMbps,
                static_cast<unsigned long long>(
                    report.sealed.size()),
                static_cast<unsigned long long>(
                    report.stats.chunksSealed));
    std::printf("%-22s %8.2fx\n", "rotation overhead",
                baseSec > 0 ? rotSec / baseSec : 0.0);
    metrics.add("daemon_ingest_rotating_mbps", rotMbps);

    // --- structural: warm re-arm vs cold restart ------------------
    // Same split input through a carried-store session and a cold
    // one; the carried store must re-use earlier clusters, so its
    // second epoch creates strictly fewer than the cold restart's.
    {
        size_t half = trace.size() / 2;
        std::span<const trace::PacketRecord> all(trace.packets());
        std::span<const trace::PacketRecord> first =
            all.subspan(0, half);
        std::span<const trace::PacketRecord> second =
            all.subspan(half);
        codec::fcc::FccConfig cfg;
        cfg.container = codec::fcc::ContainerFormat::Fcc3;

        auto secondEpochTemplates = [&](bool carry) {
            codec::fcc::SessionOptions opt;
            opt.carryTemplates = carry;
            codec::fcc::CompressSession session(cfg, opt);
            session.feed(first);
            codec::fcc::SealInfo info;
            session.seal(&info);
            session.reArm();
            session.feed(second);
            session.seal(&info);
            return info.templatesNew;
        };
        uint64_t warm = secondEpochTemplates(true);
        uint64_t cold = secondEpochTemplates(false);
        std::printf("%-22s %8llu clusters (cold %llu)\n",
                    "warm re-arm epoch 2",
                    static_cast<unsigned long long>(warm),
                    static_cast<unsigned long long>(cold));
        if (warm >= cold) {
            std::fprintf(stderr,
                         "FAIL: carried template store created %llu "
                         "clusters in epoch 2, cold restart %llu — "
                         "the carry path is not re-using clusters\n",
                         static_cast<unsigned long long>(warm),
                         static_cast<unsigned long long>(cold));
            return 1;
        }
        metrics.add("daemon_warm_template_reduction",
                    static_cast<double>(cold) /
                        static_cast<double>(std::max<uint64_t>(
                            warm, 1)));
    }

    fs::remove_all(outDir);
    fs::remove(input);

    if (!jsonPath.empty()) {
        if (!metrics.writeTo(jsonPath)) {
            std::fprintf(stderr, "cannot write %s\n",
                         jsonPath.c_str());
            return 1;
        }
        std::printf("\n# metrics written to %s\n", jsonPath.c_str());
    }
    return 0;
}
