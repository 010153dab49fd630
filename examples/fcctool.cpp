/**
 * @file
 * fcctool — command-line front end to the library, the tool a
 * downstream user would actually run.
 *
 *   fcctool compress   <in>      <out.fcc>   streaming compression
 *   fcctool decompress <in.fcc>  <out>       streaming decompression
 *   fcctool info       <file>                describe a file
 *   fcctool convert    <in> <out>            any-to-any format copy
 *
 * Inputs may be TSH, pcap or pcapng, each optionally gzip'd; the
 * format is auto-detected from magic bytes (TSH by heuristic).
 * Everything streams through the trace I/O subsystem, so memory
 * stays bounded whatever the file size.
 *
 * Options (before the subcommand):
 *   --threshold <pct>    similarity threshold (default 2.0, eq. 4)
 *   --cutoff <n>         short/long split (default 50)
 *   --threads <n>        pipeline workers (0 = all cores, default;
 *                        the feed's shards and the seal's column
 *                        jobs; a gzip'd input inflates on one more
 *                        thread)
 *   --chunk-records <n>  time-seq records per chunk, >= 1 (default
 *                        4096; the unit of parallel decode and
 *                        random access)
 *   --container <fmt>    fcc2|fcc3 (default fcc3, the columnar
 *                        container; decompression auto-detects
 *                        these and the legacy fcc1/hybrid files)
 *   --backend <name>     store|deflate|range|range-lanes — FCC3
 *                        per-column entropy backend (default
 *                        deflate)
 *   --index              compress: write a seekable archive (FCC3
 *                        chunk/flow index for fccquery);
 *                        info: also print the per-chunk index table
 *   --in-format <fmt>    auto|tsh|pcap|pcapng[.gz]  (default auto)
 *   --out-format <fmt>   auto|tsh|pcap|pcapng       (default auto:
 *                        decompress/convert pick by extension)
 *   --help               full flag reference
 *
 * `info` on an .fcc file prints the container version and whether
 * the file carries a chunk/flow index (an explicit "none" when it
 * does not — absence is a property, not an empty table); for FCC3
 * it adds the per-column table (field codec, entropy backend,
 * encoded and stored bytes) and the per-dataset *compressed*
 * sizes — where the file's bytes actually go, not the pre-backend
 * serialized sizes.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "codec/deflate/deflate.hpp"
#include "codec/fcc/datasets.hpp"
#include "codec/fcc/fcc_codec.hpp"
#include "codec/fcc/index.hpp"
#include "codec/fcc/stream.hpp"
#include "flow/flow_stats.hpp"
#include "flow/flow_table.hpp"
#include "trace/source.hpp"
#include "util/error.hpp"

#include "tools/cli.hpp"

using namespace fcc;

namespace {

bool
hasSuffix(const std::string &text, const char *suffix)
{
    std::string s(suffix);
    return text.size() >= s.size() &&
           text.compare(text.size() - s.size(), s.size(), s) == 0;
}

/** True when @p path starts with an FCC container magic. */
bool
isFccFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    char head[4] = {};
    in.read(head, sizeof(head));
    return in.gcount() == 4 && head[0] == 'F' && head[1] == 'C' &&
           head[2] == 'C' && head[3] >= '1' && head[3] <= '3';
}

/**
 * True when @p path starts like a zlib stream (CMF 0x78) — possibly
 * the hybrid whole-blob-deflated FCC container, but 0x78 is only a
 * guess ('x', or a TSH timestamp from 2033), so callers must be
 * ready to fall back.
 */
bool
isZlibStart(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    char head[1] = {};
    in.read(head, sizeof(head));
    return in.gcount() == 1 && head[0] == 0x78;
}

void
infoTrace(const std::string &path,
          const trace::TraceFormatSpec &inFormat)
{
    trace::DetectedFormat detected;
    auto src = trace::openTraceSource(path, inFormat, &detected);
    trace::Trace tr = trace::readAllPackets(*src);

    flow::FlowTable table;
    auto flows = table.assemble(tr);
    auto stats = flow::computeFlowStats(flows, tr);
    std::printf("format:          %s\n",
                trace::traceFormatName(detected.format,
                                       detected.gzip).c_str());
    std::printf("packets:         %zu\n", tr.size());
    std::printf("duration:        %.3f s\n", tr.durationSec());
    std::printf("wire bytes:      %llu\n",
                static_cast<unsigned long long>(
                    tr.totalWireBytes()));
    std::printf("flows:           %llu (%.1f%% short)\n",
                static_cast<unsigned long long>(stats.flows),
                100.0 * stats.shortFlowShare());
    std::printf("mean flow len:   %.1f packets\n",
                stats.meanFlowLength());
}

void
infoFcc(const std::string &path, bool showIndex)
{
    std::ifstream in(path, std::ios::binary);
    util::require(in.good(), "cannot open " + path);
    std::vector<uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    size_t fileBytes = bytes.size();
    bool hybrid = !bytes.empty() && bytes[0] == 0x78;
    if (hybrid)
        bytes = codec::deflate::zlibDecompress(bytes);

    codec::fcc::ContainerStat stat;
    auto d = codec::fcc::deserialize(bytes, nullptr, &stat);
    std::printf("FCC compressed trace (%zu bytes%s)\n", fileBytes,
                hybrid ? ", whole-blob deflate" : "");
    if (stat.version == 3)
        std::printf("container:        FCC3 columnar (%zu chunks%s)\n",
                    d.chunkSizes.size(),
                    stat.hasIndex ? ", indexed" : "");
    else if (stat.version == 2)
        std::printf("container:        FCC2 (%zu chunks)\n",
                    d.chunkSizes.size());
    else
        std::printf("container:        FCC1 (single stream)\n");
    // Index absence is a property of the file, not an empty table:
    // say it explicitly either way.
    if (stat.hasIndex)
        std::printf("index:            %zu chunks, %llu bytes "
                    "(%.1f%% of file)\n",
                    d.chunkSizes.size(),
                    static_cast<unsigned long long>(
                        stat.sizes.indexBytes),
                    fileBytes ? 100.0 *
                                    static_cast<double>(
                                        stat.sizes.indexBytes) /
                                    static_cast<double>(fileBytes)
                              : 0.0);
    else
        std::printf("index:            none (random access needs "
                    "a full decode; write with --index)\n");
    if (stat.fidelity == codec::fcc::Fidelity::Quantized)
        std::printf("fidelity:         quantized (%llu us grid)\n",
                    static_cast<unsigned long long>(
                        stat.quantumUs));
    else
        std::printf("fidelity:         %s\n",
                    codec::fcc::fidelityName(stat.fidelity));
    std::printf("weights:          {%u, %u, %u}\n", d.weights.w1,
                d.weights.w2, d.weights.w3);
    if (d.fidelity == codec::fcc::Fidelity::Flow) {
        // Flow-tier archives carry per-flow records, no templates.
        std::printf("flows (records):  %zu\n",
                    d.flowRecords.size());
        std::printf("addresses:        %zu\n", d.addresses.size());
        uint64_t packets = 0;
        for (const auto &fl : d.flowRecords)
            packets += fl.packets;
        std::printf("packets counted:  %llu (not reconstructable "
                    "at this tier)\n",
                    static_cast<unsigned long long>(packets));
    } else {
        std::printf("flows (time-seq): %zu\n", d.timeSeq.size());
        std::printf("short templates:  %zu\n",
                    d.shortTemplates.size());
        std::printf("long templates:   %zu\n",
                    d.longTemplates.size());
        std::printf("addresses:        %zu\n", d.addresses.size());
        uint64_t packets = 0;
        for (const auto &rec : d.timeSeq)
            packets += rec.isLong
                ? d.longTemplates[rec.templateIndex].sValues.size()
                : d.shortTemplates[rec.templateIndex].size();
        std::printf("packets encoded:  %llu\n",
                    static_cast<unsigned long long>(packets));
    }

    // Where the container's bytes actually go. For FCC3 these are
    // the post-backend (compressed) sizes; for FCC1/FCC2 the stream
    // is its own serialization, optionally deflated as one blob.
    std::printf("\n%-22s %10s\n", "dataset",
                stat.version == 3 ? "stored B" : "bytes");
    std::printf("%-22s %10llu\n", "short-flows-template",
                static_cast<unsigned long long>(
                    stat.sizes.shortTemplateBytes));
    std::printf("%-22s %10llu\n", "long-flows-template",
                static_cast<unsigned long long>(
                    stat.sizes.longTemplateBytes));
    std::printf("%-22s %10llu\n", "address",
                static_cast<unsigned long long>(
                    stat.sizes.addressBytes));
    std::printf("%-22s %10llu\n", "time-seq",
                static_cast<unsigned long long>(
                    stat.sizes.timeSeqBytes));
    std::printf("%-22s %10llu\n", "header",
                static_cast<unsigned long long>(
                    stat.sizes.headerBytes));
    if (hybrid)
        std::printf("(whole-blob deflate: %zu serialized -> %zu "
                    "file bytes)\n",
                    bytes.size(), fileBytes);

    if (stat.version == 3) {
        std::printf("\n%-12s %-7s %-8s %10s %10s %10s\n", "column",
                    "codec", "backend", "values", "encoded B",
                    "stored B");
        for (const auto &col : stat.columns)
            std::printf("%-12s %-7s %-8s %10llu %10llu %10llu\n",
                        col.name.c_str(),
                        codec::field::fieldCodecName(col.codec),
                        codec::backend::backendName(col.backend),
                        static_cast<unsigned long long>(col.values),
                        static_cast<unsigned long long>(
                            col.encodedBytes),
                        static_cast<unsigned long long>(
                            col.storedBytes));
        if (stat.hasIndex)
            std::printf("(indexed archive: ts_* rows aggregate the "
                        "per-chunk frames;\n tags show chunk 0's "
                        "choice)\n");
    }

    if (showIndex && stat.hasIndex) {
        auto index = codec::fcc::readArchiveIndex(bytes);
        util::require(index.has_value(),
                      "fcc index: footer vanished mid-info");
        std::printf("\nindex (gap %u us):\n", index->gapUs);
        std::printf("%6s %10s %10s %8s %8s %12s %12s %8s\n",
                    "chunk", "offset", "bytes", "flows", "packets",
                    "first (s)", "last <= (s)", "bloom b");
        for (size_t c = 0; c < index->chunks.size(); ++c) {
            const auto &s = index->chunks[c];
            std::printf(
                "%6zu %10llu %10llu %8llu %8llu %12.3f %12.3f "
                "%8u\n",
                c, static_cast<unsigned long long>(s.byteOffset),
                static_cast<unsigned long long>(s.byteLength),
                static_cast<unsigned long long>(s.records),
                static_cast<unsigned long long>(s.packets),
                static_cast<double>(s.minFirstUs) * 1e-6,
                static_cast<double>(s.maxEndUs) * 1e-6,
                s.bloomBits);
        }
    } else if (showIndex) {
        std::printf("\n(no index table: the file has no index "
                    "block)\n");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    codec::fcc::FccConfig cfg;
    // The tool writes the columnar container by default; the library
    // default stays FCC2 (the paper's row layout), which --container
    // fcc2 selects.
    cfg.container = codec::fcc::ContainerFormat::Fcc3;
    trace::TraceFormatSpec inFormat, outFormat;
    bool showIndex = false;

    cli::FlagSet flags(
        "[options] <command> ...",
        "Streaming compression front end. Inputs may be TSH, pcap\n"
        "or pcapng, each optionally gzip'd; the format is\n"
        "auto-detected from magic bytes. Options come before the\n"
        "command.");
    flags.epilog(
        "commands:\n"
        "  compress   <in>      <out.fcc>   (in: any trace format)\n"
        "  decompress <in.fcc>  <out>\n"
        "  info       <file>                (trace or .fcc)\n"
        "  convert    <in> <out>            (any format to any)");
    flags.add("--threshold", "PCT",
              "similarity threshold of eq. 4 (default 2.0)",
              [&](const char *v) {
                  cfg.rule.percent = std::atof(v);
              });
    flags.add("--cutoff", "N",
              "short/long flow split in packets (default 50)",
              [&](const char *v) {
                  cfg.shortLimit = static_cast<uint32_t>(
                      cli::parseUnsigned("--cutoff", v, 0,
                                         UINT32_MAX));
              });
    flags.add("--threads", "N",
              "pipeline workers, 0 = all cores (default;\n"
              "the feed's shards and the seal's column\n"
              "jobs; output bytes never depend on it; a\n"
              "gzip'd input inflates on one more thread)",
              [&](const char *v) {
                  cfg.threads = static_cast<uint32_t>(
                      cli::parseUnsigned("--threads", v, 0,
                                         UINT32_MAX));
              });
    flags.add("--chunk-records", "N",
              "time-seq records per chunk, >= 1 (default\n"
              "4096; the unit of parallel decode and of\n"
              "random access — see --index)",
              [&](const char *v) {
                  cfg.chunkRecords = static_cast<uint32_t>(
                      cli::parseUnsigned("--chunk-records", v, 1,
                                         UINT32_MAX));
              });
    flags.add("--container", "FMT",
              "fcc2|fcc3 wire container (default fcc3;\n"
              "decompression also reads legacy fcc1)",
              [&](const char *v) {
                  cfg.container =
                      codec::fcc::parseContainerName(v);
              });
    flags.add("--backend", "NAME",
              "store|deflate|range|range-lanes — FCC3\n"
              "per-column entropy backend (default\n"
              "deflate)",
              [&](const char *v) {
                  cfg.backend =
                      codec::backend::parseBackendName(v);
              });
    flags.add("--index",
              "compress: write a seekable archive\n"
              "(chunk/flow index; fcc3 only, see fccquery);\n"
              "info: print the per-chunk index table",
              [&] {
                  cfg.index = true;
                  showIndex = true;
              });
    flags.add("--fidelity", "TIER",
              "exact|quantized|header|flow — fidelity tier\n"
              "of the written archive (default exact; lossy\n"
              "tiers need the fcc3 container, see\n"
              "docs/FIDELITY.md)",
              [&](const char *v) {
                  cfg.fidelity = codec::fcc::parseFidelityName(v);
              });
    flags.add("--quantum-us", "N",
              "timestamp grid of the quantized tier in\n"
              "microseconds (default 1000)",
              [&](const char *v) {
                  cfg.quantumUs = cli::parseUnsigned(
                      "--quantum-us", v, 1, UINT64_MAX);
              });
    flags.add("--in-format", "FMT",
              "auto|tsh|pcap|pcapng[.gz] (default auto:\n"
              "detect by magic bytes)",
              [&](const char *v) {
                  inFormat = trace::parseTraceFormatSpec(v);
              });
    flags.add("--out-format", "FMT",
              "auto|tsh|pcap|pcapng (default auto: pick by\n"
              "output extension)",
              [&](const char *v) {
                  outFormat = trace::parseTraceFormatSpec(v);
              });

    cli::ParseResult parsed = flags.parse(argc, argv);
    if (parsed.exit)
        return parsed.code;
    int arg = parsed.next;
    if (arg >= argc) {
        flags.printHelp(argv[0], stderr);
        return 2;
    }
    std::string command = argv[arg++];

    try {
        // One uniform config check before any command touches a
        // file — the same entry point the sessions validate with.
        cfg.validate();
        if (command == "compress" && arg + 1 < argc) {
            auto stats = codec::fcc::compressTraceFile(
                argv[arg], argv[arg + 1], cfg, inFormat);
            cli::printCompressStats(stats);
            return 0;
        }
        if (command == "decompress" && arg + 1 < argc) {
            auto stats = codec::fcc::decompressTraceFile(
                argv[arg], argv[arg + 1], cfg, outFormat);
            cli::printDecompressStats(stats);
            return 0;
        }
        if (command == "info" && arg < argc) {
            std::string path = argv[arg];
            if (hasSuffix(path, ".fcc") || isFccFile(path)) {
                infoFcc(path, showIndex);
            } else if (isZlibStart(path)) {
                // Could be a whole-blob-deflated FCC file or just a
                // trace whose first byte happens to be 0x78.
                try {
                    infoFcc(path, showIndex);
                } catch (const util::Error &) {
                    infoTrace(path, inFormat);
                }
            } else {
                infoTrace(path, inFormat);
            }
            return 0;
        }
        if (command == "convert" && arg + 1 < argc) {
            auto src = trace::openTraceSource(argv[arg], inFormat);
            auto sink = trace::openTraceSink(argv[arg + 1],
                                             outFormat);
            std::vector<trace::PacketRecord> batch(4096);
            uint64_t packets = 0;
            size_t n;
            while ((n = src->read(batch)) > 0) {
                sink->write(std::span<const trace::PacketRecord>(
                    batch.data(), n));
                packets += n;
            }
            sink->close();
            std::printf("converted %llu packets\n",
                        static_cast<unsigned long long>(packets));
            return 0;
        }
    } catch (const util::Error &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
    flags.printHelp(argv[0], stderr);
    return 2;
}
