/**
 * @file
 * Source/sink throughput of the streaming trace I/O subsystem:
 * MB/s and packets/s for writing and reading each supported capture
 * format (TSH, pcap, pcapng, gzip'd TSH and pcapng), plus the mmap
 * vs buffered-stdio read comparison for the flat formats.
 *
 * Run: ./build/bench/io_throughput [--smoke] [--json out.json]
 *
 * Read throughput is measured over *container* bytes consumed (for
 * the gzip formats that is the decompressed stream, the honest unit
 * of parser work). The JSON output feeds the CI perf-regression
 * gate; see scripts/perf_check.py.
 *
 * Outside smoke mode a last cell reads the 21.3 MB perfbench
 * elephants capture gzip'd (81 slots of the read-ahead ring; the
 * smoke gz cells fit in one slot and decode on the caller). It has
 * no CI floor. Its timing depends on whether the helper thread gets
 * a CPU of its own, so the cpuset sched_load_balance flag is printed
 * at start and end.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "codec/deflate/deflate.hpp"
#include "trace/pcap.hpp"
#include "trace/pcapng.hpp"
#include "trace/scenario_gen.hpp"
#include "trace/source.hpp"
#include "trace/tsh.hpp"
#include "trace/web_gen.hpp"
#include "util/io.hpp"

using namespace fcc;

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

struct ReadResult
{
    uint64_t packets = 0;
    uint64_t containerBytes = 0;
};

/** Drain a source built by @p open, counting packets and bytes. */
ReadResult
drain(const std::function<std::unique_ptr<trace::TraceSource>()> &open)
{
    auto src = open();
    ReadResult result;
    std::vector<trace::PacketRecord> batch(4096);
    size_t n;
    while ((n = src->read(batch)) > 0)
        result.packets += n;
    result.containerBytes = src->bytesConsumed();
    return result;
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

    const std::string balanceAtStart = bench::cpusetLoadBalance();
    trace::WebGenConfig cfg;
    cfg.seed = 2005;
    cfg.durationSec = smoke ? 3.0 : 60.0;
    cfg.flowsPerSec = smoke ? 60.0 : 200.0;
    trace::WebTrafficGenerator gen(cfg);
    trace::Trace trace = gen.generate();
    const double packets = static_cast<double>(trace.size());

    std::printf("# streaming trace I/O throughput\n");
    std::printf("# workload: synthetic web trace, %zu packets%s\n\n",
                trace.size(), smoke ? " (smoke mode)" : "");
    std::printf("%-12s %12s %12s %14s\n", "format", "write_MB/s",
                "read_MB/s", "read_pkts/s");

    const int reps = smoke ? 1 : 3;
    bench::JsonMetrics metrics;

    struct Format
    {
        const char *name;
        bool gzip;
    };
    const Format formats[] = {
        {"tsh", false},     {"pcap", false},     {"pcapng", false},
        {"tsh.gz", true},   {"pcapng.gz", true},
    };

    // --- mmap vs stdio on the flat TSH container ---
    // First, so that no format cell's heap state reaches it: a cell
    // reads about 100 KB in smoke mode, and whether its buffers land
    // on pages an earlier cell already faulted in moved this reading
    // by half.
    {
        std::string path = "io_throughput_tmp.stdio.tsh";
        auto sink = trace::openTraceSink(path);
        trace::writeAllPackets(*sink, trace);
        struct SourceKind
        {
            const char *label;
            const char *metric;
            bool mmap;  ///< openByteSource's default, else plain stdio
        };
        const SourceKind kinds[] = {
            {"tsh (mmap)", "io_tsh_read_mmap_mbps", true},
            {"tsh (stdio)", "io_tsh_read_stdio_mbps", false},
        };
        for (const SourceKind &k : kinds) {
            auto open = [&] {
                std::unique_ptr<util::ByteSource> src =
                    k.mmap ? util::openByteSource(path)
                           : std::make_unique<util::FileByteSource>(path);
                return std::make_unique<trace::TshSource>(std::move(src));
            };
            drain(open);  // untimed: the file's pages are cached
            ReadResult rd;
            double sec = secondsOf([&] { rd = drain(open); }, reps);
            double mb = static_cast<double>(rd.containerBytes) / 1e6;
            std::printf("%-12s %12s %12.1f %14.0f\n", k.label, "-",
                        mb / sec, packets / sec);
            metrics.add(k.metric, mb / sec);
        }
        std::remove(path.c_str());
    }

    for (const auto &fmt : formats) {
        std::string base(fmt.name);
        std::string inner = fmt.gzip
            ? base.substr(0, base.size() - 3)
            : base;
        std::string path = "io_throughput_tmp." + base;

        // --- write ---
        double writeSec = 0.0;
        if (!fmt.gzip) {
            trace::TraceFormatSpec spec =
                trace::parseTraceFormatSpec(inner);
            writeSec = secondsOf(
                [&] {
                    auto sink = trace::openTraceSink(path, spec);
                    trace::writeAllPackets(*sink, trace);
                },
                reps);
        } else {
            // gzip output is produced one-shot (the encoder is not
            // streaming); timed anyway for the table.
            writeSec = secondsOf(
                [&] {
                    std::vector<uint8_t> raw;
                    if (inner == "tsh")
                        raw = trace::writeTsh(trace);
                    else
                        raw = trace::writePcapng(trace);
                    auto gz = codec::deflate::gzipCompress(raw);
                    util::FileByteSink out(path);
                    out.write(gz);
                    out.close();
                },
                reps);
        }

        // --- read (auto-detected, mmap-preferred path) ---
        auto open = [&] { return trace::openTraceSource(path); };
        // A gzip cell's first read pays page faults for its inflate
        // buffers and ring, which vary with what earlier cells left
        // on the heap: time a read that follows an untimed one.
        if (fmt.gzip)
            drain(open);
        ReadResult rd;
        double readSec = secondsOf([&] { rd = drain(open); }, reps);

        double containerMb =
            static_cast<double>(rd.containerBytes) / 1e6;
        double writeMb = containerMb;  // same container either way
        std::printf("%-12s %12.1f %12.1f %14.0f\n", fmt.name,
                    writeMb / writeSec, containerMb / readSec,
                    packets / readSec);
        std::string key(fmt.name);
        for (auto &c : key)
            if (c == '.')
                c = '_';
        metrics.add("io_" + key + "_write_mbps", writeMb / writeSec);
        metrics.add("io_" + key + "_read_mbps",
                    containerMb / readSec);
        std::remove(path.c_str());
    }

    // --- full-size gzip read: the perfbench elephants capture ---
    if (!smoke) {
        trace::ScenarioConfig ecfg = trace::scenarioDefaults(
            trace::ScenarioKind::Elephants, 2005);
        ecfg.flows = 1500;
        ecfg.durationSec = 60.0;
        trace::Trace elephants = trace::ScenarioGenerator(ecfg).generate();
        std::string path = "io_throughput_tmp.elephants.pcapng.gz";
        {
            auto gz = codec::deflate::gzipCompress(
                trace::writePcapng(elephants));
            util::FileByteSink out(path);
            out.write(gz);
            out.close();
        }
        auto open = [&] { return trace::openTraceSource(path); };
        drain(open);  // untimed: page cache and heap
        ReadResult rd;
        double sec = secondsOf([&] { rd = drain(open); }, 5);
        double mb = static_cast<double>(rd.containerBytes) / 1e6;
        std::printf("%-12s %12s %12.1f %14.0f  (%.1f MB, %.4f s)\n",
                    "elephants.gz", "-", mb / sec,
                    static_cast<double>(rd.packets) / sec, mb, sec);
        metrics.add("io_elephants_pcapng_gz_read_mbps", mb / sec);
        std::remove(path.c_str());
    }
    bench::printLoadBalance(balanceAtStart);

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
