/**
 * @file
 * google-benchmark microbenchmarks of the from-scratch DEFLATE:
 * compression/decompression throughput on TSH trace bytes, and
 * streaming gunzip through GzipInflateSource over a gzip'd web TSH
 * and the gzip'd elephants pcapng of the end-to-end benchmark
 * (scenario generator seed 2005, 1,500 transfers, 21.3 MB), each
 * compared against system zlib when available; and the zlib encode
 * of a web long_ipt column (the seal's largest deflate job) at 1
 * thread and split into LZ77 segments on a 4-thread pool, as the
 * columnar encoder runs it. The cpuset sched_load_balance flag is
 * printed at start and end: a 4-thread time taken while it read 0
 * measures one CPU.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>

#include "bench_common.hpp"
#include "codec/deflate/deflate.hpp"
#include "codec/deflate/inflate_stream.hpp"
#include "codec/fcc/session.hpp"
#include "codec/field/field_codec.hpp"
#include "trace/pcapng.hpp"
#include "trace/scenario_gen.hpp"
#include "trace/tsh.hpp"
#include "trace/web_gen.hpp"
#include "util/io.hpp"
#include "util/thread_pool.hpp"

#if __has_include(<zlib.h>)
#include <zlib.h>
#define FCC_HAVE_ZLIB 1
#endif

using namespace fcc;

namespace {

const std::vector<uint8_t> &
tshBytes()
{
    static std::vector<uint8_t> bytes = [] {
        trace::WebGenConfig cfg;
        cfg.seed = 77;
        cfg.durationSec = 6.0;
        cfg.flowsPerSec = 80.0;
        trace::WebTrafficGenerator gen(cfg);
        return trace::writeTsh(gen.generate());
    }();
    return bytes;
}

/** The gzip'd inputs of the streaming cases, with their sizes. */
struct GzInput
{
    std::vector<uint8_t> gz;
    size_t rawSize;
};

const GzInput &
webTshGz()
{
    static GzInput in{codec::deflate::gzipCompress(tshBytes()),
                      tshBytes().size()};
    return in;
}

const GzInput &
elephantsPcapngGz()
{
    static GzInput in = [] {
        auto cfg = trace::scenarioDefaults(trace::ScenarioKind::Elephants,
                                           2005);
        cfg.flows = 1500;
        cfg.durationSec = 60.0;
        auto pcapng =
            trace::writePcapng(trace::ScenarioGenerator(cfg).generate());
        return GzInput{codec::deflate::gzipCompress(pcapng),
                       pcapng.size()};
    }();
    return in;
}

/**
 * The field-coded long_ipt column of the perfbench web capture
 * (generator seed 2005, 60 s at 1,000 flows/s: 531 KB), as the seal
 * deflates it. Smoke mode shrinks the trace.
 */
const std::vector<uint8_t> &
longIptColumn()
{
    static std::vector<uint8_t> column = [] {
        trace::WebGenConfig cfg;
        cfg.seed = 2005;
        cfg.durationSec = 60.0;
        cfg.flowsPerSec = 1000.0;
        trace::Trace tr =
            trace::WebTrafficGenerator(bench::applySmoke(cfg)).generate();
        codec::fcc::FccConfig fcc;
        fcc.threads = 1;
        codec::fcc::CompressSession session(fcc);
        session.feed(tr.packets());
        std::vector<uint64_t> ipt;
        for (const auto &tmpl : session.sealDatasets().longTemplates)
            ipt.insert(ipt.end(), tmpl.iptUs.begin(), tmpl.iptUs.end());
        return codec::field::encodeColumn(
            ipt, codec::field::chooseCodec(ipt));
    }();
    return column;
}

/**
 * zlib-encode the long_ipt column: serially at one thread, else as
 * min(threads, size / two windows) LZ77 segments parsed on a pool.
 */
void
BM_OurZlibLongIpt(benchmark::State &state)
{
    const auto &column = longIptColumn();
    auto threads = static_cast<unsigned>(state.range(0));
    util::ThreadPool pool(threads);
    size_t segments = std::min<size_t>(
        threads, column.size() / (2 * codec::deflate::windowSize));
    for (auto _ : state) {
        std::vector<uint8_t> out;
        if (threads == 1) {
            out = codec::deflate::zlibCompress(column);
        } else {
            codec::deflate::Lz77SegmentedParse parse(
                column,
                codec::deflate::lz77EvenStarts(column.size(), segments));
            pool.parallelFor(parse.segments(), [&](size_t k) {
                parse.parseSegment(k);
            });
            out = codec::deflate::zlibCompress(parse);
        }
        benchmark::DoNotOptimize(out);
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * column.size()));
}

/** Drain a GzipInflateSource in 64 KiB reads, as the trace readers do. */
void
gunzipStream(benchmark::State &state, const GzInput &in)
{
    std::vector<uint8_t> buf(1 << 16);
    for (auto _ : state) {
        codec::deflate::GzipInflateSource src(
            std::make_unique<util::BufferByteSource>(
                std::span<const uint8_t>(in.gz)));
        size_t total = 0, n;
        while ((n = src.read(buf.data(), buf.size())) > 0)
            total += n;
        benchmark::DoNotOptimize(total);
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * in.rawSize));
}

void
BM_OurGunzipStreamWebTsh(benchmark::State &state)
{
    gunzipStream(state, webTshGz());
}

void
BM_OurGunzipStreamElephantsPcapng(benchmark::State &state)
{
    gunzipStream(state, elephantsPcapngGz());
}

void
BM_OurDeflate(benchmark::State &state)
{
    const auto &data = tshBytes();
    for (auto _ : state) {
        auto out = codec::deflate::deflateCompress(data);
        benchmark::DoNotOptimize(out);
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * data.size()));
}

void
BM_OurInflate(benchmark::State &state)
{
    const auto &data = tshBytes();
    auto compressed = codec::deflate::deflateCompress(data);
    for (auto _ : state) {
        auto out = codec::deflate::inflate(compressed);
        benchmark::DoNotOptimize(out);
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * data.size()));
}

#ifdef FCC_HAVE_ZLIB
void
BM_ZlibDeflate(benchmark::State &state)
{
    const auto &data = tshBytes();
    uLongf bound = ::compressBound(static_cast<uLong>(data.size()));
    std::vector<uint8_t> out(bound);
    for (auto _ : state) {
        uLongf len = bound;
        ::compress2(out.data(), &len, data.data(),
                    static_cast<uLong>(data.size()), 6);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * data.size()));
}

void
BM_ZlibInflate(benchmark::State &state)
{
    const auto &data = tshBytes();
    uLongf bound = ::compressBound(static_cast<uLong>(data.size()));
    std::vector<uint8_t> compressed(bound);
    uLongf compLen = bound;
    ::compress2(compressed.data(), &compLen, data.data(),
                static_cast<uLong>(data.size()), 6);
    std::vector<uint8_t> out(data.size());
    for (auto _ : state) {
        uLongf len = out.size();
        ::uncompress(out.data(), &len, compressed.data(), compLen);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * data.size()));
}

/** zlib's streaming gunzip over the same input, same read size. */
void
zlibGunzipStream(benchmark::State &state, const GzInput &in)
{
    std::vector<uint8_t> buf(1 << 16);
    for (auto _ : state) {
        z_stream zs{};
        ::inflateInit2(&zs, 31);
        zs.next_in = const_cast<Bytef *>(in.gz.data());
        zs.avail_in = static_cast<uInt>(in.gz.size());
        int rc;
        do {
            zs.next_out = buf.data();
            zs.avail_out = static_cast<uInt>(buf.size());
            rc = ::inflate(&zs, Z_NO_FLUSH);
        } while (rc == Z_OK);
        benchmark::DoNotOptimize(zs.total_out);
        ::inflateEnd(&zs);
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * in.rawSize));
}

void
BM_ZlibGunzipStreamWebTsh(benchmark::State &state)
{
    zlibGunzipStream(state, webTshGz());
}

void
BM_ZlibGunzipStreamElephantsPcapng(benchmark::State &state)
{
    zlibGunzipStream(state, elephantsPcapngGz());
}
#endif  // FCC_HAVE_ZLIB

} // namespace

BENCHMARK(BM_OurDeflate)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OurZlibLongIpt)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_OurInflate)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OurGunzipStreamWebTsh)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OurGunzipStreamElephantsPcapng)->Unit(benchmark::kMillisecond);
#ifdef FCC_HAVE_ZLIB
BENCHMARK(BM_ZlibDeflate)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ZlibInflate)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ZlibGunzipStreamWebTsh)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ZlibGunzipStreamElephantsPcapng)
    ->Unit(benchmark::kMillisecond);
#endif

int
main(int argc, char **argv)
{
    std::string balanceAtStart = bench::cpusetLoadBalance();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    bench::printLoadBalance(balanceAtStart);
    return 0;
}
