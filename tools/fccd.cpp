/**
 * @file
 * fccd — the continuous-capture archiver daemon.
 *
 *   fccd [options] <input> <outdir>
 *
 * Consumes a packet stream — a capture file (TSH/pcap/pcapng,
 * optionally replayed at --rate), a FIFO, or with --listen a socket
 * endpoint a producer connects to — and cuts it into sealed,
 * indexed FCC3 archives in <outdir>, one per epoch, with a
 * crash-safe CATALOG file that fccserve/fccquery can consume at any
 * moment (docs/DAEMON.md). The process scaffolding lives here; the
 * rest is archive::Daemon, which tests drive in-process, around the
 * ingest loop fcctool also runs (codec::fcc::ingest).
 *
 * Signals: SIGTERM/SIGINT seal what is buffered and exit; SIGHUP
 * seals at the next batch edge (rotate-now). SIGKILL loses only
 * the unsealed epoch — everything sealed is durable by the
 * fsync-before-footer discipline of archive::ArchiveWriter.
 * SIGXFSZ is ignored: past a file-size limit the commit fails,
 * removes its partial archive, and fccd exits 1 with the error.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "archive/daemon.hpp"
#include "codec/backend/backend.hpp"
#include "trace/source.hpp"
#include "util/error.hpp"

#include "tools/cli.hpp"

using namespace fcc;

namespace {

codec::fcc::IngestControl gControl;

extern "C" void
onStop(int)
{
    gControl.stop.store(true);
}

extern "C" void
onRotate(int)
{
    gControl.rotateNow.store(true);
}

} // namespace

int
main(int argc, char **argv)
{
    archive::DaemonConfig config;
    // The daemon's product is the seekable archive: FCC3 with the
    // chunk/flow index, ready for fccserve the moment it seals.
    config.codec.container = codec::fcc::ContainerFormat::Fcc3;
    config.codec.index = true;
    config.ingest.archiveRecords = 1u << 20;

    cli::FlagSet flags(
        "[options] <input> <outdir>",
        "Continuous-capture archiver: ingest a packet stream and\n"
        "seal it into indexed FCC3 archives with a crash-safe\n"
        "catalog (docs/DAEMON.md). <input> is a trace file or FIFO\n"
        "path, or with --listen a socket endpoint (unix:/p,\n"
        "tcp:host:port) accepting one producer. SIGTERM seals and\n"
        "exits; SIGHUP seals and re-arms now.");
    flags.add("--listen",
              "treat <input> as a socket endpoint to\n"
              "accept one producer connection on (flat\n"
              "TSH records)",
              [&] { config.listen = true; });
    flags.add("--in-format", "FMT",
              "auto|tsh|pcap|pcapng[.gz] (default auto,\n"
              "which also works on a FIFO)",
              [&](const char *v) {
                  config.inputFormat =
                      trace::parseTraceFormatSpec(v);
              });
    flags.add("--prefix", "NAME",
              "archive file name prefix (default\n"
              "\"archive\": archive-000000.fcc, ...)",
              [&](const char *v) { config.prefix = v; });
    flags.add("--archive-records", "N",
              "seal + re-arm after N packets per epoch\n"
              "(default 1048576; 0 = only by time/signal)",
              [&](const char *v) {
                  config.ingest.archiveRecords =
                      cli::parseUnsigned("--archive-records", v);
              });
    flags.add("--archive-ms", "N",
              "seal + re-arm after N wall milliseconds\n"
              "(default 0 = off)",
              [&](const char *v) {
                  config.ingest.archiveWallMs =
                      cli::parseUnsigned("--archive-ms", v);
              });
    flags.add("--rotate-records", "N",
              "cut a chunk after N packets (default 0:\n"
              "only the codec's --chunk-records slicing)",
              [&](const char *v) {
                  config.ingest.chunkRecords =
                      cli::parseUnsigned("--rotate-records", v);
              });
    flags.add("--rotate-ms", "N",
              "cut a chunk after N wall milliseconds\n"
              "(default 0 = off)",
              [&](const char *v) {
                  config.ingest.chunkWallMs =
                      cli::parseUnsigned("--rotate-ms", v);
              });
    flags.add("--rate", "PPS",
              "replay pacing in packets per second\n"
              "(default 0 = as fast as the input delivers)",
              [&](const char *v) {
                  config.ingest.replayRate = std::atof(v);
                  if (config.ingest.replayRate < 0)
                      throw util::Error(
                          "--rate: must be non-negative");
              });
    flags.add("--cold-epochs",
              "do not carry the template store across\n"
              "re-arms (every epoch clusters from scratch)",
              [&] { config.session.carryTemplates = false; });
    flags.add("--chunk-records", "N",
              "time-seq records per codec chunk (default\n"
              "4096; the unit of parallel decode and\n"
              "random access)",
              [&](const char *v) {
                  config.codec.chunkRecords =
                      static_cast<uint32_t>(cli::parseUnsigned(
                          "--chunk-records", v, 1, UINT32_MAX));
              });
    flags.add("--backend", "NAME",
              "store|deflate|range|range-lanes — FCC3\n"
              "per-column entropy backend (default\n"
              "deflate)",
              [&](const char *v) {
                  config.codec.backend =
                      codec::backend::parseBackendName(v);
              });
    flags.add("--threads", "N",
              "pipeline workers, 0 = all cores (default;\n"
              "the feed's shards and the seal's column\n"
              "jobs; output bytes never depend on it; a\n"
              "gzip'd input inflates on one more thread)",
              [&](const char *v) {
                  config.codec.threads =
                      static_cast<uint32_t>(cli::parseUnsigned(
                          "--threads", v, 0, UINT32_MAX));
              });
    flags.add("--fidelity", "TIER",
              "exact|quantized|header|flow — fidelity tier\n"
              "of the sealed archives (default exact; see\n"
              "docs/FIDELITY.md — flow-tier archives serve\n"
              "aggregate queries only)",
              [&](const char *v) {
                  config.codec.fidelity =
                      codec::fcc::parseFidelityName(v);
              });
    flags.add("--quantum-us", "N",
              "timestamp grid of the quantized tier in\n"
              "microseconds (default 1000)",
              [&](const char *v) {
                  config.codec.quantumUs = cli::parseUnsigned(
                      "--quantum-us", v, 1, UINT64_MAX);
              });

    cli::ParseResult parsed = flags.parse(argc, argv);
    if (parsed.exit)
        return parsed.code;
    if (parsed.next + 2 != argc) {
        flags.printHelp(argv[0], stderr);
        return 2;
    }
    config.input = argv[parsed.next];
    config.outputDir = argv[parsed.next + 1];

    try {
        archive::Daemon daemon(config);

        std::signal(SIGINT, onStop);
        std::signal(SIGTERM, onStop);
        std::signal(SIGHUP, onRotate);
        // A file-size limit then fails the write ("File too large")
        // instead of killing the daemon mid-archive.
        std::signal(SIGXFSZ, SIG_IGN);

        std::printf("fccd: %s -> %s\n", config.input.c_str(),
                    config.outputDir.c_str());
        std::fflush(stdout);

        archive::DaemonReport report = daemon.run(
            gControl, [](const archive::CatalogEntry &entry) {
                std::printf(
                    "sealed %s: %llu flows, %llu packets, "
                    "%llu bytes\n",
                    entry.name.c_str(),
                    static_cast<unsigned long long>(
                        entry.records),
                    static_cast<unsigned long long>(
                        entry.packets),
                    static_cast<unsigned long long>(entry.bytes));
                std::fflush(stdout);
            });

        cli::printCompressStats(report.stats);
        return 0;
    } catch (const util::Error &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
}
