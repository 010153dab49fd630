/**
 * @file
 * Per-column microbenchmark of the FCC3 codec layer: encode and
 * decode throughput (MB/s of raw u64 column data) and compression
 * ratio for every field-codec × entropy-backend cell, measured on
 * the real columns of the seed-2005 synthetic web trace.
 *
 * Run: ./build/bench/micro_columns [--smoke] [--json out.json]
 *
 * Every cell is round-trip verified: the bench fails if a decode
 * does not return the encoded column or backend input.
 *
 * The JSON output feeds the CI perf-regression gate; see
 * scripts/perf_check.py and bench/perf_baseline.json.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "codec/backend/backend.hpp"
#include "codec/fcc/fcc_codec.hpp"
#include "codec/field/field_codec.hpp"
#include "trace/web_gen.hpp"

using namespace fcc;
namespace fccc = fcc::codec::fcc;
namespace field = fcc::codec::field;
namespace backend = fcc::codec::backend;

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

struct Column
{
    const char *name;
    std::vector<uint64_t> values;
};

/** The interesting FCC3 columns of the seed-2005 datasets. */
std::vector<Column>
buildColumns(const fccc::Datasets &d)
{
    std::vector<Column> cols;
    Column shortS{"short_s", {}};
    for (const auto &tmpl : d.shortTemplates)
        for (uint16_t s : tmpl.values)
            shortS.values.push_back(s);
    cols.push_back(std::move(shortS));

    Column longIpt{"long_ipt", {}};
    for (const auto &tmpl : d.longTemplates)
        longIpt.values.insert(longIpt.values.end(),
                              tmpl.iptUs.begin(), tmpl.iptUs.end());
    cols.push_back(std::move(longIpt));

    Column addr{"addr", {}};
    for (uint32_t a : d.addresses)
        addr.values.push_back(a);
    cols.push_back(std::move(addr));

    Column tsTime{"ts_time", {}};
    Column tsIsLong{"ts_islong", {}};
    Column tsTemplate{"ts_template", {}};
    Column tsRtt{"ts_rtt", {}};
    for (const auto &rec : d.timeSeq) {
        tsTime.values.push_back(rec.firstTimestampUs);
        tsIsLong.values.push_back(rec.isLong ? 1 : 0);
        tsTemplate.values.push_back(rec.templateIndex);
        if (!rec.isLong)
            tsRtt.values.push_back(rec.rttUs);
    }
    cols.push_back(std::move(tsTime));
    cols.push_back(std::move(tsIsLong));
    cols.push_back(std::move(tsTemplate));
    cols.push_back(std::move(tsRtt));
    return cols;
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
    const int reps = smoke ? 2 : 5;

    trace::WebGenConfig cfg;
    cfg.seed = 2005;
    cfg.durationSec = smoke ? 3.0 : 60.0;
    cfg.flowsPerSec = smoke ? 60.0 : 200.0;
    trace::WebTrafficGenerator gen(cfg);
    trace::Trace trace = gen.generate();

    fccc::FccConfig fcfg;
    fcfg.threads = 1;
    fccc::FccTraceCompressor codec(fcfg);
    fccc::FccCompressStats stats;
    fccc::Datasets d = codec.buildDatasets(trace, stats);
    auto columns = buildColumns(d);

    std::printf("# per-column codec x backend study, seed=2005, "
                "%zu packets%s\n\n", trace.size(),
                smoke ? " (smoke mode)" : "");

    // ---- field codecs, per column ----
    const field::FieldCodec codecs[] = {
        field::FieldCodec::Plain, field::FieldCodec::ZigzagDelta,
        field::FieldCodec::Dict, field::FieldCodec::Rle};
    std::printf("## field codecs (raw MB = 8 B/value)\n");
    std::printf("%-12s %8s %-8s %9s %9s %8s %6s\n", "column",
                "values", "codec", "enc MB/s", "dec MB/s", "bytes",
                "ratio");
    for (const auto &col : columns) {
        double rawMb =
            static_cast<double>(col.values.size() * 8) / 1e6;
        field::FieldCodec chosen = field::chooseCodec(col.values);
        for (field::FieldCodec fc : codecs) {
            std::vector<uint8_t> encoded;
            double encSec = secondsOf(
                [&] { encoded = field::encodeColumn(col.values, fc); },
                reps);
            std::vector<uint64_t> decoded;
            double decSec = secondsOf(
                [&] {
                    decoded = field::decodeColumn(encoded, fc,
                                                  col.values.size());
                },
                reps);
            if (decoded != col.values) {
                std::fprintf(stderr, "round-trip MISMATCH: %s/%s\n",
                             col.name, field::fieldCodecName(fc));
                return 1;
            }
            double rawBytes =
                static_cast<double>(col.values.size() * 8);
            std::printf(
                "%-12s %8zu %-8s%s %8.1f %9.1f %8zu %5.1f%%\n",
                col.name, col.values.size(),
                field::fieldCodecName(fc), fc == chosen ? "*" : " ",
                encSec > 0 ? rawMb / encSec : 0.0,
                decSec > 0 ? rawMb / decSec : 0.0, encoded.size(),
                rawBytes > 0 ? 100.0 *
                                   static_cast<double>(
                                       encoded.size()) /
                                   rawBytes
                             : 0.0);
        }
    }
    std::printf("(* = chooseCodec pick)\n");

    // Gate metrics: the chosen codec on its signature column.
    auto gateField = [&](const char *colName, field::FieldCodec fc,
                         const char *metric) {
        for (const auto &col : columns) {
            if (std::strcmp(col.name, colName) != 0)
                continue;
            double rawMb =
                static_cast<double>(col.values.size() * 8) / 1e6;
            std::vector<uint8_t> encoded;
            double encSec = secondsOf(
                [&] { encoded = field::encodeColumn(col.values, fc); },
                reps);
            double decSec = secondsOf(
                [&] {
                    field::decodeColumn(encoded, fc,
                                        col.values.size());
                },
                reps);
            metrics.add(std::string(metric) + "_enc_mbps",
                        encSec > 0 ? rawMb / encSec : 0.0);
            metrics.add(std::string(metric) + "_dec_mbps",
                        decSec > 0 ? rawMb / decSec : 0.0);
        }
    };
    gateField("ts_time", field::FieldCodec::ZigzagDelta,
              "col_zigzag");
    gateField("ts_islong", field::FieldCodec::Rle, "col_rle");
    gateField("ts_rtt", field::FieldCodec::Dict, "col_dict");
    gateField("long_ipt", field::FieldCodec::Plain, "col_plain");

    // ---- entropy backends, on the plain-encoded ts_time column ----
    std::printf("\n## entropy backends (input: varint ts_time)\n");
    std::printf("%-12s %9s %9s %8s %6s\n", "backend", "enc MB/s",
                "dec MB/s", "bytes", "ratio");
    const backend::EntropyBackend backends[] = {
        backend::EntropyBackend::Store,
        backend::EntropyBackend::Deflate,
        backend::EntropyBackend::Range,
        backend::EntropyBackend::RangeLanes};
    for (const auto &col : columns) {
        if (std::strcmp(col.name, "ts_time") != 0)
            continue;
        auto encoded = field::encodeColumn(col.values,
                                           field::FieldCodec::Plain);
        double inMb = static_cast<double>(encoded.size()) / 1e6;
        for (backend::EntropyBackend b : backends) {
            std::vector<uint8_t> packed;
            double encSec = secondsOf(
                [&] { packed = backend::entropyCompress(encoded, b); },
                reps);
            std::vector<uint8_t> unpacked;
            double decSec = secondsOf(
                [&] {
                    unpacked = backend::entropyDecompress(
                        packed, b, encoded.size());
                },
                reps);
            if (unpacked != encoded) {
                std::fprintf(stderr, "round-trip MISMATCH: %s\n",
                             backend::backendName(b));
                return 1;
            }
            std::printf("%-12s %9.1f %9.1f %8zu %5.1f%%\n",
                        backend::backendName(b),
                        encSec > 0 ? inMb / encSec : 0.0,
                        decSec > 0 ? inMb / decSec : 0.0,
                        packed.size(),
                        100.0 * static_cast<double>(packed.size()) /
                            static_cast<double>(encoded.size()));
            if (b != backend::EntropyBackend::Store) {
                std::string name =
                    std::string("backend_") +
                    backend::backendName(b);
                for (char &c : name)
                    if (c == '-')
                        c = '_';
                metrics.add(name + "_enc_mbps",
                            encSec > 0 ? inMb / encSec : 0.0);
                metrics.add(name + "_dec_mbps",
                            decSec > 0 ? inMb / decSec : 0.0);
            }
        }
    }

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
