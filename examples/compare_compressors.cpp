/**
 * @file
 * Compare all four compression methods on a trace — the paper's §5
 * study as a command-line tool.
 *
 * Usage:
 *   ./build/examples/compare_compressors [--threads N]
 *       [--container fcc2|fcc3]
 *       [--backend store|deflate|range|range-lanes]
 *       [capture.file]
 *
 * The input format (TSH, pcap, pcapng, each optionally gzip'd) is
 * auto-detected from magic bytes via the trace I/O subsystem;
 * --threads sets the FCC pipeline's worker count (0 = all cores,
 * the default — the compressed bytes are identical either way).
 * --container/--backend pick the FCC wire container for the "fcc"
 * row; independent of that, extra rows report the columnar FCC3
 * container under every entropy backend, next to the FCC2 baseline.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "codec/compressor.hpp"
#include "codec/fcc/fcc_codec.hpp"
#include "trace/source.hpp"
#include "trace/tsh.hpp"
#include "trace/web_gen.hpp"
#include "util/error.hpp"

#include "tools/cli.hpp"

using namespace fcc;

namespace {

trace::Trace
loadTrace(const char *file)
{
    if (file == nullptr) {
        std::printf("no input file given; using a synthetic web "
                    "trace (60 s)\n");
        trace::WebGenConfig cfg;
        cfg.seed = 7;
        cfg.durationSec = 60.0;
        cfg.flowsPerSec = 80.0;
        trace::WebTrafficGenerator gen(cfg);
        return gen.generate();
    }
    trace::DetectedFormat detected;
    auto src = trace::openTraceSource(file, {}, &detected);
    std::printf("input format: %s (auto-detected)\n",
                trace::traceFormatName(detected.format,
                                       detected.gzip).c_str());
    return trace::readAllPackets(*src);
}

} // namespace

int
main(int argc, char **argv)
{
    codec::fcc::FccConfig fccCfg;

    cli::FlagSet flags(
        "[options] [trace.pcap|trace.tsh]",
        "Compare the paper's four compression methods (§5) on a\n"
        "trace; with no input file, a deterministic synthetic web\n"
        "trace is used. Input format (TSH, pcap, pcapng, each\n"
        "optionally gzip'd) is auto-detected.");
    flags.add("--threads", "N",
              "FCC pipeline workers, 0 = all cores\n"
              "(default; compressed bytes never depend\n"
              "on it)",
              [&](const char *v) {
                  fccCfg.threads = static_cast<uint32_t>(
                      cli::parseUnsigned("--threads", v, 0,
                                         UINT32_MAX));
              });
    flags.add("--container", "FMT",
              "fcc2|fcc3 wire container of the \"fcc\"\n"
              "row (default fcc2)",
              [&](const char *v) {
                  fccCfg.container =
                      codec::fcc::parseContainerName(v);
              });
    flags.add("--backend", "NAME",
              "store|deflate|range|range-lanes — FCC3\n"
              "per-column entropy backend (default\n"
              "deflate)",
              [&](const char *v) {
                  fccCfg.backend =
                      codec::backend::parseBackendName(v);
              });
    flags.add("--fidelity", "TIER",
              "exact|quantized|header|flow — fidelity tier\n"
              "of the fcc rows (default exact; lossy tiers\n"
              "need --container fcc3)",
              [&](const char *v) {
                  fccCfg.fidelity =
                      codec::fcc::parseFidelityName(v);
              });
    flags.add("--quantum-us", "N",
              "timestamp grid of the quantized tier in\n"
              "microseconds (default 1000)",
              [&](const char *v) {
                  fccCfg.quantumUs = cli::parseUnsigned(
                      "--quantum-us", v, 1, UINT64_MAX);
              });

    cli::ParseResult parsed = flags.parse(argc, argv);
    if (parsed.exit)
        return parsed.code;
    int arg = parsed.next;

    // A lossy tier needs the columnar container; the "fcc" row
    // keeps the library default (fcc2) otherwise.
    if (fccCfg.fidelity != codec::fcc::Fidelity::Exact)
        fccCfg.container = codec::fcc::ContainerFormat::Fcc3;

    trace::Trace input;
    try {
        fccCfg.validate();
        input = loadTrace(arg < argc ? argv[arg] : nullptr);
    } catch (const util::Error &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
    if (!input.isTimeOrdered())
        input.sortByTime();

    std::printf("trace: %zu packets, %.1f s, %.2f MB as TSH\n\n",
                input.size(), input.durationSec(),
                static_cast<double>(input.size() *
                                    trace::tshRecordBytes) /
                    1e6);

    std::printf("%-12s %14s %9s %9s %s\n", "method", "bytes",
                "ratio", "lossless", "notes");
    for (const auto &codec : codec::makeAllCodecs(fccCfg)) {
        auto report = codec::measure(*codec, input);
        const char *note = "";
        if (report.codec == "gzip")
            note = "deflate on the TSH bytes";
        else if (report.codec == "vj")
            note = "RFC1144 deltas, 3B CID + 2B time";
        else if (report.codec == "peuhkuri")
            note = "flow table + per-packet records";
        else if (report.codec == "fcc")
            note = "flow clustering (this paper)";
        std::printf("%-12s %14llu %8.2f%% %9s %s\n",
                    report.codec.c_str(),
                    static_cast<unsigned long long>(
                        report.compressedBytes),
                    100.0 * report.ratio(),
                    codec->lossless() ? "yes" : "no", note);
    }

    // The columnar container under each entropy backend, against
    // the same denominator as the rows above.
    const codec::backend::EntropyBackend backends[] = {
        codec::backend::EntropyBackend::Store,
        codec::backend::EntropyBackend::Deflate,
        codec::backend::EntropyBackend::Range,
    };
    for (auto backend : backends) {
        codec::fcc::FccConfig cfg = fccCfg;
        cfg.container = codec::fcc::ContainerFormat::Fcc3;
        cfg.backend = backend;
        codec::fcc::FccTraceCompressor fcc3(cfg);
        auto report = codec::measure(fcc3, input);
        std::string name =
            std::string("fcc3+") + codec::backend::backendName(
                                       backend);
        std::printf("%-12s %14llu %8.2f%% %9s %s\n", name.c_str(),
                    static_cast<unsigned long long>(
                        report.compressedBytes),
                    100.0 * report.ratio(), "no",
                    "columnar container, per-column codecs");
    }
    return 0;
}
