/**
 * @file
 * E2 — the §5 compression-ratio table: measured ratio of every
 * method against its analytical model (equations 5-8) evaluated on
 * the workload's own flow-length distribution.
 *
 * With --json the binary also emits compression *factors*
 * (uncompressed/compressed, higher = better) for the FCC containers
 * on the deterministic seed-2005 workload; the CI ratio-regression
 * gate compares them against bench/ratio_baseline.json so a codec
 * change cannot silently lose ratio (see scripts/perf_check.py).
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "bench_common.hpp"

#include "codec/fcc/fcc_codec.hpp"
#include "experiments/experiments.hpp"

int
main(int argc, char **argv)
{
    std::string jsonPath;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            jsonPath = argv[++i];
    fcc::bench::JsonMetrics metrics;

    fcc::trace::WebGenConfig cfg;
    cfg.seed = 2005;
    cfg.durationSec = 40.0;
    cfg.flowsPerSec = 100.0;
    cfg = fcc::bench::applySmoke(cfg);

    auto rows = fcc::experiments::runRatioComparison(cfg);

    std::printf("# Section 5: compression ratio, measured vs "
                "analytical (eqs. 5-8)\n");
    std::printf("%-10s %12s %12s %10s\n", "method", "measured",
                "analytical", "paper");
    const char *paperValue[] = {"~50%", "~30%", "~16%", "~3%"};
    size_t i = 0;
    for (const auto &row : rows) {
        if (row.analytical > 0)
            std::printf("%-10s %11.2f%% %11.2f%% %10s\n",
                        row.method.c_str(), 100.0 * row.measured,
                        100.0 * row.analytical, paperValue[i]);
        else
            std::printf("%-10s %11.2f%% %12s %10s\n",
                        row.method.c_str(), 100.0 * row.measured,
                        "-", paperValue[i]);
        ++i;
    }

    fcc::trace::WebTrafficGenerator gen(cfg);
    auto trace = gen.generate();
    double tshBytes = static_cast<double>(trace.size() * 44);

    // Extension: the columnar FCC3 container, per-column codecs +
    // deflate backend.
    {
        fcc::codec::fcc::FccConfig cfg3;
        cfg3.container = fcc::codec::fcc::ContainerFormat::Fcc3;
        fcc::codec::fcc::FccTraceCompressor fcc3(cfg3);
        size_t bytes = fcc3.compress(trace).size();
        double ratio = static_cast<double>(bytes) / tshBytes;
        std::printf("%-10s %11.2f%% %12s %10s\n", "fcc3",
                    100.0 * ratio, "-", "(ours)");
        metrics.add("fcc3_deflate_ratio_factor",
                    tshBytes / static_cast<double>(bytes));
    }

    // The FCC2 baseline factor the CI ratio gate tracks.
    {
        fcc::codec::fcc::FccTraceCompressor fcc2;
        size_t bytes = fcc2.compress(trace).size();
        metrics.add("fcc_ratio_factor",
                    tshBytes / static_cast<double>(bytes));
    }

    // Dataset-level accounting of the proposed method (§5: "8 bytes
    // are sufficient to represent each flow").
    fcc::codec::fcc::FccTraceCompressor fccCodec;
    fcc::codec::fcc::FccCompressStats stats;
    fccCodec.compressWithStats(trace, stats);
    std::printf("\n# proposed-method dataset breakdown\n");
    auto pct = [&stats](uint64_t bytes) {
        return 100.0 * static_cast<double>(bytes) /
               static_cast<double>(stats.sizes.total());
    };
    std::printf("short-flows-template: %8llu B (%5.1f%%)\n",
                static_cast<unsigned long long>(
                    stats.sizes.shortTemplateBytes),
                pct(stats.sizes.shortTemplateBytes));
    std::printf("long-flows-template:  %8llu B (%5.1f%%)\n",
                static_cast<unsigned long long>(
                    stats.sizes.longTemplateBytes),
                pct(stats.sizes.longTemplateBytes));
    std::printf("address:              %8llu B (%5.1f%%)\n",
                static_cast<unsigned long long>(
                    stats.sizes.addressBytes),
                pct(stats.sizes.addressBytes));
    std::printf("time-seq:             %8llu B (%5.1f%%)\n",
                static_cast<unsigned long long>(
                    stats.sizes.timeSeqBytes),
                pct(stats.sizes.timeSeqBytes));
    std::printf("time-seq bytes/flow:  %8.2f (paper: ~8)\n",
                static_cast<double>(stats.sizes.timeSeqBytes) /
                    static_cast<double>(stats.flows));
    std::printf("clusters: %llu for %llu short flows "
                "(hit rate %.1f%%)\n",
                static_cast<unsigned long long>(
                    stats.shortTemplatesCreated),
                static_cast<unsigned long long>(stats.shortFlows),
                100.0 * stats.hitRate());

    if (!jsonPath.empty()) {
        if (!metrics.writeTo(jsonPath)) {
            std::fprintf(stderr, "cannot write %s\n",
                         jsonPath.c_str());
            return 1;
        }
        std::printf("# metrics written to %s\n", jsonPath.c_str());
    }
    return 0;
}
