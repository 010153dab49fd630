/**
 * @file
 * The continuous-capture archiver under test: session seal/re-arm
 * equivalence with one-shot runs, chunk rotation, the catalog's
 * crash-recovery contract, the in-process daemon loop — and the
 * headline scenario, SIGKILL'ing a live fccd child mid-archive and
 * proving every *sealed* archive survived intact and queryable.
 * The child binary's path arrives via FCCD_BIN (set by CMake);
 * the kill test skips when it is absent.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "archive/catalog_file.hpp"
#include "archive/daemon.hpp"
#include "archive/writer.hpp"
#include "codec/fcc/session.hpp"
#include "codec/fcc/stream.hpp"
#include "query/catalog.hpp"
#include "query/expr.hpp"
#include "trace/pcapng.hpp"
#include "trace/source.hpp"
#include "trace/tsh.hpp"
#include "trace/web_gen.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"

#include "test_common.hpp"

using namespace fcc;
namespace fccc = fcc::codec::fcc;
namespace fs = std::filesystem;

namespace {

trace::Trace
webTrace(uint64_t seed, double seconds)
{
    trace::WebGenConfig cfg;
    cfg.seed = seed;
    cfg.durationSec = seconds;
    cfg.flowsPerSec = 80.0;
    trace::WebTrafficGenerator gen(cfg);
    return gen.generate();
}

using fcc::test::tempDir;
using fcc::test::tempPath;

std::vector<uint8_t>
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

const trace::TraceFormatSpec kTsh =
    trace::parseTraceFormatSpec("tsh");

/** Drain one archive into an in-memory trace. */
trace::Trace
decodeArchive(const std::string &path, const fccc::FccConfig &cfg)
{
    fccc::DecompressSession session(cfg);
    session.open(path);
    trace::Trace out;
    trace::CollectTraceSink sink(out);
    session.drainTo(sink);
    return out;
}

} // namespace

// A cold session's epochs are bit-identical to independent one-shot
// runs over the split input, at every thread count — the re-arm
// path reuses the exact one-shot machinery.
TEST(Daemon, SealReArmMatchesSplitOneShotRuns)
{
    trace::Trace original = webTrace(91, 8.0);
    size_t half = original.size() / 2;
    trace::Trace first, second;
    for (size_t i = 0; i < original.size(); ++i)
        (i < half ? first : second).add(original[i]);

    for (uint32_t threads : {1u, 2u, 4u, 8u}) {
        fccc::FccConfig cfg;
        cfg.container = fccc::ContainerFormat::Fcc3;
        cfg.index = true;
        cfg.chunkRecords = 256;
        cfg.threads = threads;

        std::string oneShot1 = tempPath("split_a.fcc");
        std::string oneShot2 = tempPath("split_b.fcc");
        {
            trace::MemoryTraceSource src(first);
            fccc::compressSource(src, oneShot1, cfg);
        }
        {
            trace::MemoryTraceSource src(second);
            fccc::compressSource(src, oneShot2, cfg);
        }

        fccc::SessionOptions cold;
        cold.carryTemplates = false;
        fccc::CompressSession session(cfg, cold);
        session.feed({first.packets().data(), first.size()});
        std::vector<uint8_t> epoch1 = session.seal();
        session.reArm();
        session.feed({second.packets().data(), second.size()});
        std::vector<uint8_t> epoch2 = session.seal();

        EXPECT_EQ(epoch1, readFileBytes(oneShot1))
            << "threads=" << threads;
        EXPECT_EQ(epoch2, readFileBytes(oneShot2))
            << "threads=" << threads;

        EXPECT_EQ(session.stats().epochs, 2u);
        EXPECT_EQ(session.stats().archivesSealed, 2u);
        EXPECT_EQ(session.stats().packets, original.size());
    }
}

// Template carry keeps archives self-contained: a warm epoch decodes
// on its own, reconstructs the same packets, and creates fewer new
// clusters than the cold run over the same slice.
TEST(Daemon, CarriedTemplatesStaySelfContained)
{
    trace::Trace original = webTrace(17, 8.0);
    size_t half = original.size() / 2;
    trace::Trace first, second;
    for (size_t i = 0; i < original.size(); ++i)
        (i < half ? first : second).add(original[i]);

    fccc::FccConfig cfg;
    cfg.container = fccc::ContainerFormat::Fcc3;
    cfg.chunkRecords = 256;

    fccc::CompressSession warm(cfg);  // carryTemplates default on
    warm.feed({first.packets().data(), first.size()});
    std::string epoch1 = tempPath("warm_1.fcc");
    warm.sealToFile(epoch1);
    warm.reArm();
    warm.feed({second.packets().data(), second.size()});
    fccc::SealInfo info2;
    std::vector<uint8_t> epoch2 = warm.seal(&info2);
    std::string epoch2Path = tempPath("warm_2.fcc");
    {
        std::ofstream out(epoch2Path, std::ios::binary);
        out.write(reinterpret_cast<const char *>(epoch2.data()),
                  static_cast<std::streamsize>(epoch2.size()));
    }

    // Cold baseline over the same second half.
    fccc::SessionOptions coldOpts;
    coldOpts.carryTemplates = false;
    fccc::CompressSession cold(cfg, coldOpts);
    cold.feed({second.packets().data(), second.size()});
    fccc::SealInfo coldInfo;
    cold.seal(&coldInfo);

    // The warm store had the first epoch's clusters to match
    // against, so it created strictly fewer new ones.
    EXPECT_LT(info2.templatesNew, coldInfo.templatesNew);

    // Decode each epoch independently; together they reconstruct
    // exactly as the one-shot pipeline would have.
    trace::Trace a = decodeArchive(epoch1, cfg);
    trace::Trace b = decodeArchive(epoch2Path, cfg);
    EXPECT_EQ(a.size() + b.size(), original.size());
}

// rotateChunk() cuts the FCC3 chunk layout mid-stream without
// breaking decode equivalence or the archive's index.
TEST(Daemon, RotateChunkCutsIndexedLayout)
{
    trace::Trace original = webTrace(43, 6.0);
    fccc::FccConfig cfg;
    cfg.container = fccc::ContainerFormat::Fcc3;
    cfg.index = true;
    cfg.chunkRecords = 100000;  // no record slicing: cuts only

    fccc::CompressSession session(cfg);
    size_t third = original.size() / 3;
    session.feed({original.packets().data(), third});
    session.rotateChunk();
    session.feed({original.packets().data() + third,
                  original.size() - third});
    fccc::SealInfo info;
    std::vector<uint8_t> bytes = session.seal(&info);
    EXPECT_GE(info.chunks, 2u);
    EXPECT_EQ(session.stats().chunksSealed, info.chunks);

    std::string path = tempPath("rotated.fcc");
    {
        std::ofstream out(path, std::ios::binary);
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
    }
    trace::Trace restored = decodeArchive(path, cfg);
    EXPECT_EQ(restored.size(), original.size());
}

// The catalog survives every recoverable crash state: a sealed
// archive missing its line, a line whose archive vanished, a torn
// tail line, and a leftover .partial.
TEST(Daemon, CatalogRecoversFromCrashStates)
{
    std::string dir = tempDir("catalog_recovery");
    trace::Trace original = webTrace(7, 4.0);
    fccc::FccConfig cfg;
    cfg.container = fccc::ContainerFormat::Fcc3;
    cfg.index = true;
    cfg.chunkRecords = 256;

    archive::ArchiveWriter writer(dir);
    fccc::CompressSession session(cfg);
    size_t half = original.size() / 2;
    session.feed({original.packets().data(), half});
    fccc::SealInfo infoA;
    std::vector<uint8_t> bytesA = session.seal(&infoA);
    archive::CatalogEntry entryA = writer.commit(bytesA, infoA);
    session.reArm();
    session.feed({original.packets().data() + half,
                  original.size() - half});
    fccc::SealInfo infoB;
    std::vector<uint8_t> bytesB = session.seal(&infoB);
    archive::CatalogEntry entryB = writer.commit(bytesB, infoB);

    // Crash state 1: sealed archive whose catalog line never made
    // it — drop B's line (truncate to just A's).
    std::string catalogPath =
        dir + "/" + archive::CatalogFile::fileName();
    {
        std::string lineA = archive::formatCatalogLine(entryA);
        std::ofstream out(catalogPath,
                          std::ios::binary | std::ios::trunc);
        out << lineA;
        // Crash state 2: a line for an archive that vanished.
        archive::CatalogEntry ghost = entryA;
        ghost.name = "archive-000099.fcc";
        out << archive::formatCatalogLine(ghost);
        // Crash state 3: a torn tail (power cut mid-append).
        out << "fccar1 archive-000100.fcc 123";
    }
    // Crash state 4: a .partial from a seal that never finished.
    { std::ofstream(dir + "/archive-000101.fcc.partial") << "x"; }

    std::vector<archive::CatalogEntry> repaired =
        archive::recoverCatalog(dir);
    ASSERT_EQ(repaired.size(), 2u);
    EXPECT_EQ(repaired[0], entryA);
    EXPECT_EQ(repaired[1], entryB);  // re-described from its bytes
    EXPECT_FALSE(
        fs::exists(dir + "/archive-000101.fcc.partial"));

    // The repaired file itself parses back to the same set, and a
    // fresh writer resumes numbering past both archives.
    std::vector<archive::CatalogEntry> reloaded =
        archive::loadCatalog(dir);
    EXPECT_EQ(reloaded.size(), 2u);
    archive::ArchiveWriter resumed(dir);
    EXPECT_EQ(resumed.nextSequence(), 2u);
}

// The in-process daemon loop: record-based rollover seals multiple
// archives whose concatenated decode is the whole input, and the
// catalog lists exactly the sealed set.
TEST(Daemon, InProcessRunSealsAndCatalogs)
{
    std::string dir = tempDir("daemon_run");
    trace::Trace original = webTrace(29, 6.0);
    std::string tshIn = tempPath("daemon_in.tsh");
    trace::writeTshFile(original, tshIn);

    archive::DaemonConfig config;
    config.input = tshIn;
    config.inputFormat = kTsh;
    config.outputDir = dir;
    config.codec.container = fccc::ContainerFormat::Fcc3;
    config.codec.index = true;
    config.codec.chunkRecords = 128;
    config.rotation.archiveRecords = original.size() / 3;

    archive::Daemon daemon(config);
    archive::DaemonControl control;
    archive::DaemonReport report = daemon.run(control);

    EXPECT_GE(report.sealed.size(), 3u);
    EXPECT_EQ(report.stats.packets, original.size());
    EXPECT_EQ(report.stats.archivesSealed, report.sealed.size());

    std::vector<archive::CatalogEntry> listed =
        archive::loadCatalog(dir);
    ASSERT_EQ(listed.size(), report.sealed.size());

    uint64_t decoded = 0;
    fccc::DecompressSession reader(config.codec);
    for (const archive::CatalogEntry &entry : listed) {
        std::string path = dir + "/" + entry.name;
        std::vector<uint8_t> bytes = readFileBytes(path);
        EXPECT_EQ(bytes.size(), entry.bytes);
        EXPECT_EQ(util::Crc32::of(bytes), entry.crc32);
        reader.open(path);
        trace::Trace part;
        trace::CollectTraceSink sink(part);
        fccc::StreamStats s = reader.drainTo(sink);
        EXPECT_EQ(s.packets, entry.packets);
        EXPECT_EQ(s.flows, entry.records);
        decoded += part.size();
    }
    EXPECT_EQ(decoded, original.size());
    EXPECT_EQ(reader.stats().epochs, listed.size());
}

// The read that ends the input can consume trailing blocks and
// return no packet; their bytes still count, as in the one-shot
// compressor. 1280 packets fill five whole 256-packet read batches,
// so the end-of-input read is the one that meets the last block.
TEST(Daemon, CountsTrailingInputBytes)
{
    trace::Trace web = webTrace(31, 6.0);
    ASSERT_GE(web.size(), 1280u);
    trace::Trace original;
    for (size_t i = 0; i < 1280; ++i)
        original.add(web[i]);
    std::vector<uint8_t> bytes = trace::writePcapng(original);
    // An Interface Statistics Block without options: type 5, length
    // 24, interface 0, a zero timestamp, the length again.
    for (uint32_t word : {5u, 24u, 0u, 0u, 0u, 24u})
        for (int shift = 0; shift < 32; shift += 8)
            bytes.push_back(static_cast<uint8_t>(word >> shift));
    std::string in = tempPath("daemon_isb.pcapng");
    {
        std::ofstream out(in, std::ios::binary);
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
    }

    archive::DaemonConfig config;
    config.input = in;
    config.outputDir = tempDir("daemon_isb");
    fccc::StreamStats oneShot = fccc::compressTraceFile(
        in, tempPath("daemon_isb.fcc"), config.codec);

    archive::Daemon daemon(config);
    archive::DaemonControl control;
    archive::DaemonReport report = daemon.run(control);
    EXPECT_EQ(report.stats.packets, original.size());
    EXPECT_EQ(report.stats.inputBytes, bytes.size());
    EXPECT_EQ(report.stats.inputBytes, oneShot.inputBytes);
}

// The headline crash test: SIGKILL a live fccd child mid-archive.
// Everything it sealed must decode bit-deterministically, match the
// recovered catalog, and be queryable through the serving path.
TEST(Daemon, FccdChildSurvivesSigkill)
{
    const char *bin = std::getenv("FCCD_BIN");
    if (bin == nullptr || bin[0] == '\0')
        GTEST_SKIP() << "FCCD_BIN not set";

    std::string dir = tempDir("fccd_kill");
    trace::Trace original = webTrace(61, 20.0);
    std::string tshIn = tempPath("fccd_kill_in.tsh");
    trace::writeTshFile(original, tshIn);

    // Pace the replay so the kill lands mid-run: ~4k pps with an
    // archive sealed every 500 packets gives a steady seal stream.
    pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        ::execl(bin, bin, "--in-format", "tsh",
                "--archive-records", "500", "--chunk-records",
                "128", "--rate", "4000", tshIn.c_str(),
                dir.c_str(), static_cast<char *>(nullptr));
        std::_Exit(127);  // exec failed
    }

    // Wait for a few sealed archives, then kill without mercy.
    std::string catalogPath =
        dir + "/" + archive::CatalogFile::fileName();
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(60);
    size_t sealed = 0;
    while (std::chrono::steady_clock::now() < deadline) {
        sealed = archive::loadCatalog(dir).size();
        if (sealed >= 3)
            break;
        int status = 0;
        ASSERT_EQ(::waitpid(child, &status, WNOHANG), 0)
            << "fccd exited early (status " << status << ")";
        std::this_thread::sleep_for(
            std::chrono::milliseconds(20));
    }
    ASSERT_GE(sealed, 3u) << "no archives sealed before timeout";
    ASSERT_EQ(::kill(child, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));

    // Recovery reconciles whatever instant the kill hit.
    std::vector<archive::CatalogEntry> entries =
        archive::recoverCatalog(dir);
    ASSERT_GE(entries.size(), 3u);

    fccc::FccConfig cfg;
    cfg.container = fccc::ContainerFormat::Fcc3;
    cfg.index = true;
    cfg.chunkRecords = 128;
    uint64_t packets = 0;
    for (const archive::CatalogEntry &entry : entries) {
        std::string path = dir + "/" + entry.name;
        std::vector<uint8_t> bytes = readFileBytes(path);
        ASSERT_EQ(bytes.size(), entry.bytes) << entry.name;
        ASSERT_EQ(util::Crc32::of(bytes), entry.crc32)
            << entry.name;

        // Bit-exact round trip: the decode is thread-count
        // invariant, so two decodes at different widths must
        // produce identical TSH bytes.
        fccc::FccConfig one = cfg, four = cfg;
        one.threads = 1;
        four.threads = 4;
        std::string outA = tempPath("kill_a.tsh");
        std::string outB = tempPath("kill_b.tsh");
        fccc::decompressTraceFile(path, outA, one, kTsh);
        fccc::decompressTraceFile(path, outB, four, kTsh);
        EXPECT_EQ(readFileBytes(outA), readFileBytes(outB))
            << entry.name;
        packets += entry.packets;
    }
    EXPECT_LT(packets, original.size());  // it died mid-trace

    // And the serving path consumes the recovered directory.
    query::ArchiveCatalog catalog =
        query::ArchiveCatalog::fromCatalogFile(dir, cfg);
    EXPECT_EQ(catalog.size(), entries.size());
    trace::Trace matched;
    trace::CollectTraceSink sink(matched);
    query::CatalogQueryStats qs =
        catalog.run(query::parseExpr("flow.packets >= 1"), sink);
    EXPECT_EQ(qs.packetsMatched, packets);
}
