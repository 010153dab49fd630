/**
 * @file
 * The continuous-capture archiver under test: session seal/re-arm
 * equivalence with one-shot runs, chunk rotation, the catalog's
 * crash-recovery contract, the ingest loop fcctool and fccd share
 * (record and wall bounds, control flags, empty input), the
 * in-process daemon over a file and a FIFO — and the
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
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
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

void
writeFileBytes(const std::string &path,
               const std::vector<uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
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
    writeFileBytes(epoch1, warm.seal());
    warm.reArm();
    warm.feed({second.packets().data(), second.size()});
    fccc::SealInfo info2;
    std::string epoch2Path = tempPath("warm_2.fcc");
    writeFileBytes(epoch2Path, warm.seal(&info2));

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
    writeFileBytes(path, bytes);
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
    config.ingest.archiveRecords = original.size() / 3;

    archive::Daemon daemon(config);
    fccc::IngestControl control;
    archive::DaemonReport report = daemon.run(control);

    EXPECT_GE(report.sealed.size(), 3u);
    EXPECT_EQ(report.stats.packets, original.size());
    EXPECT_EQ(report.stats.archivesSealed, report.sealed.size());
    EXPECT_EQ(report.stats.epochs, report.sealed.size());

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
    writeFileBytes(in, bytes);

    archive::DaemonConfig config;
    config.input = in;
    config.outputDir = tempDir("daemon_isb");
    fccc::StreamStats oneShot = fccc::compressTraceFile(
        in, tempPath("daemon_isb.fcc"), config.codec);

    archive::Daemon daemon(config);
    fccc::IngestControl control;
    archive::DaemonReport report = daemon.run(control);
    EXPECT_EQ(report.stats.packets, original.size());
    EXPECT_EQ(report.stats.inputBytes, bytes.size());
    EXPECT_EQ(report.stats.inputBytes, oneShot.inputBytes);
}

// ---- the ingest loop (codec::fcc::ingest) ------------------------

namespace {

/** A TraceSource that runs a hook after each read (read count). */
class HookedSource final : public trace::TraceSource
{
  public:
    HookedSource(trace::TraceSource &inner,
                 std::function<void(size_t)> afterRead)
        : inner_(inner), afterRead_(std::move(afterRead))
    {}

    size_t
    read(std::span<trace::PacketRecord> batch) override
    {
        size_t n = inner_.read(batch);
        afterRead_(++reads_);
        return n;
    }

    uint64_t bytesConsumed() const override
    {
        return inner_.bytesConsumed();
    }

  private:
    trace::TraceSource &inner_;
    std::function<void(size_t)> afterRead_;
    size_t reads_ = 0;
};

/** The first @p n packets of a web trace (asserts it has them). */
trace::Trace
webPrefix(size_t n)
{
    trace::Trace web = webTrace(37, 10.0);
    EXPECT_GE(web.size(), n);
    trace::Trace out;
    for (size_t i = 0; i < n && i < web.size(); ++i)
        out.add(web[i]);
    return out;
}

fccc::FccConfig
loopConfig()
{
    fccc::FccConfig cfg;
    cfg.container = fccc::ContainerFormat::Fcc3;
    cfg.index = true;
    cfg.chunkRecords = 64;
    return cfg;
}

/** Run ingest() over @p trace on a cold session; every archive. */
std::vector<std::vector<uint8_t>>
ingestCold(trace::TraceSource &src, const fccc::IngestPolicy &policy,
           fccc::IngestControl &control, fccc::StreamStats *stats)
{
    fccc::SessionOptions cold;
    cold.carryTemplates = false;
    fccc::CompressSession session(loopConfig(), cold);
    std::vector<std::vector<uint8_t>> archives;
    fccc::ingest(src, session, policy, control,
                 [&](std::span<const uint8_t> bytes,
                     const fccc::SealInfo &info) {
                     EXPECT_EQ(info.bytes, bytes.size());
                     archives.emplace_back(bytes.begin(), bytes.end());
                 });
    EXPECT_TRUE(session.sealed());
    *stats = session.stats();
    return archives;
}

/** compressSource over packets [begin, end) of @p trace. */
std::vector<uint8_t>
oneShotSlice(const trace::Trace &trace, size_t begin, size_t end)
{
    trace::Trace slice;
    for (size_t i = begin; i < end; ++i)
        slice.add(trace[i]);
    trace::MemoryTraceSource src(slice);
    std::string path = tempPath("slice.fcc");
    fccc::compressSource(src, path, loopConfig());
    return readFileBytes(path);
}

/** The archives a cold run cut at @p sizes must be one-shot runs
 *  over the same consecutive slices. */
void
expectSlices(const trace::Trace &trace,
             const std::vector<std::vector<uint8_t>> &archives,
             const std::vector<size_t> &sizes, const char *what)
{
    ASSERT_EQ(archives.size(), sizes.size()) << what;
    size_t begin = 0;
    for (size_t a = 0; a < sizes.size(); ++a) {
        EXPECT_EQ(archives[a],
                  oneShotSlice(trace, begin, begin + sizes[a]))
            << what << ", archive " << a;
        begin += sizes[a];
    }
    EXPECT_EQ(begin, trace.size()) << what;
}

} // namespace

// Archive record bounds inside one read batch, exactly on one, and
// across several: each sealed epoch is the one-shot archive of its
// slice, and no epoch is re-armed after the last seal.
TEST(Ingest, ArchiveBoundsMatchOneShotSlices)
{
    ASSERT_EQ(fccc::ingestBatchRecords, 256u);
    trace::Trace trace = webPrefix(2560);  // ten whole batches
    for (uint64_t bound : {100u, 256u, 300u, 1000u}) {
        fccc::IngestPolicy policy;
        policy.archiveRecords = bound;
        trace::MemoryTraceSource src(trace);
        fccc::IngestControl control;
        fccc::StreamStats stats;
        auto archives = ingestCold(src, policy, control, &stats);

        std::vector<size_t> sizes(trace.size() / bound, bound);
        if (trace.size() % bound != 0)
            sizes.push_back(trace.size() % bound);
        std::string what = "bound " + std::to_string(bound);
        expectSlices(trace, archives, sizes, what.c_str());
        EXPECT_EQ(stats.archivesSealed, sizes.size()) << what;
        EXPECT_EQ(stats.epochs, sizes.size()) << what;
        EXPECT_EQ(stats.packets, trace.size()) << what;
        EXPECT_EQ(stats.inputBytes,
                  trace.size() * trace::tshRecordBytes)
            << what;
    }
}

// Chunk record bounds cut where a session calling rotateChunk() at
// the same packet counts cuts, also where a chunk bound and an
// archive bound fall on the same packet (the chunk is cut first).
TEST(Ingest, RotateRecordsMatchRotateChunkCalls)
{
    trace::Trace trace = webPrefix(2560);
    const std::pair<uint64_t, uint64_t> cases[] = {
        {100, 0}, {300, 0}, {300, 900}, {128, 500}};
    for (auto [chunkRecords, archiveRecords] : cases) {
        fccc::IngestPolicy policy;
        policy.chunkRecords = chunkRecords;
        policy.archiveRecords = archiveRecords;
        trace::MemoryTraceSource src(trace);
        fccc::IngestControl control;
        fccc::StreamStats stats;
        auto archives = ingestCold(src, policy, control, &stats);

        fccc::SessionOptions cold;
        cold.carryTemplates = false;
        fccc::CompressSession session(loopConfig(), cold);
        std::vector<std::vector<uint8_t>> expected;
        uint64_t sinceChunk = 0, epochFed = 0;
        for (const trace::PacketRecord &pkt : trace.packets()) {
            session.feed({&pkt, 1});
            if (++sinceChunk == chunkRecords) {
                session.rotateChunk();
                sinceChunk = 0;
            }
            if (++epochFed == archiveRecords) {
                expected.push_back(session.seal());
                session.reArm();
                sinceChunk = epochFed = 0;
            }
        }
        if (epochFed != 0)
            expected.push_back(session.seal());

        EXPECT_EQ(archives, expected)
            << "chunk " << chunkRecords << ", archive "
            << archiveRecords;
        EXPECT_EQ(stats.chunksSealed, session.stats().chunksSealed);
    }
}

// rotateNow seals at the next batch edge; stop seals what is
// buffered and leaves the rest of the input unread.
TEST(Ingest, ControlFlagsActAtBatchEdges)
{
    trace::Trace trace = webPrefix(2560);
    const size_t batch = fccc::ingestBatchRecords;
    {
        fccc::IngestControl control;
        trace::MemoryTraceSource inner(trace);
        HookedSource src(inner, [&](size_t reads) {
            if (reads == 3)
                control.rotateNow.store(true);
        });
        fccc::StreamStats stats;
        auto archives = ingestCold(src, {}, control, &stats);
        expectSlices(trace, archives,
                     {3 * batch, trace.size() - 3 * batch},
                     "rotateNow");
        EXPECT_FALSE(control.rotateNow.load());
    }
    {
        fccc::IngestControl control;
        trace::MemoryTraceSource inner(trace);
        HookedSource src(inner, [&](size_t reads) {
            if (reads == 2)
                control.stop.store(true);
        });
        fccc::StreamStats stats;
        auto archives = ingestCold(src, {}, control, &stats);
        ASSERT_EQ(archives.size(), 1u);
        EXPECT_EQ(archives[0], oneShotSlice(trace, 0, 2 * batch));
        EXPECT_EQ(stats.packets, 2 * batch);
        EXPECT_EQ(stats.inputBytes, 2 * batch * trace::tshRecordBytes);
    }
}

// A wall-clock chunk bound cuts on its own, without a record bound
// beside it: a source that takes 2 ms a batch crosses a 1 ms bound
// at every batch edge.
TEST(Ingest, WallChunkBoundCutsAlone)
{
    trace::Trace trace = webPrefix(2560);
    trace::MemoryTraceSource inner(trace);
    HookedSource src(inner, [](size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    });
    fccc::IngestPolicy policy;
    policy.chunkWallMs = 1;
    fccc::FccConfig cfg = loopConfig();
    cfg.chunkRecords = 1u << 20;  // no record slicing: cuts only
    fccc::CompressSession session(cfg);
    fccc::IngestControl control;
    uint64_t chunks = 0;
    fccc::ingest(src, session, policy, control,
                 [&](std::span<const uint8_t>,
                     const fccc::SealInfo &info) {
                     chunks = info.chunks;
                 });
    EXPECT_GE(chunks, 2u);
}

// An empty input: fcctool writes one empty archive, fccd none, and
// the loop leaves the session armed.
TEST(Ingest, EmptyInputArchives)
{
    std::string tshIn = tempPath("empty_in.tsh");
    writeFileBytes(tshIn, {});

    std::string fcc = tempPath("empty.fcc");
    fccc::StreamStats oneShot =
        fccc::compressTraceFile(tshIn, fcc, {}, kTsh);
    EXPECT_EQ(oneShot.archivesSealed, 1u);
    EXPECT_EQ(oneShot.packets, 0u);
    EXPECT_EQ(decodeArchive(fcc, {}).size(), 0u);

    archive::DaemonConfig config;
    config.input = tshIn;
    config.inputFormat = kTsh;
    config.outputDir = tempDir("empty_daemon");
    fccc::IngestControl control;
    archive::DaemonReport report =
        archive::Daemon(config).run(control);
    EXPECT_TRUE(report.sealed.empty());
    EXPECT_EQ(report.stats.archivesSealed, 0u);
    EXPECT_EQ(report.stats.epochs, 1u);
    EXPECT_TRUE(archive::loadCatalog(config.outputDir).empty());
}

// The Daemon reads a FIFO like the file it is fed from: the same
// archive, the same catalog line, and one epoch for one archive.
TEST(Daemon, IngestsFromFifo)
{
    trace::Trace original = webTrace(53, 4.0);
    std::vector<uint8_t> tsh = trace::writeTsh(original);
    std::string file = tempPath("daemon_fifo_src.tsh");
    writeFileBytes(file, tsh);

    std::vector<std::vector<archive::CatalogEntry>> listed;
    std::vector<std::vector<uint8_t>> bytes;
    for (bool fifo : {false, true}) {
        archive::DaemonConfig config;
        config.input = fifo ? tempPath("daemon.fifo") : file;
        config.inputFormat = kTsh;
        config.outputDir = tempDir(fifo ? "daemon_fifo" : "daemon_file");
        config.codec.container = fccc::ContainerFormat::Fcc3;
        config.codec.index = true;
        std::jthread writer;
        if (fifo)
            writer = fcc::test::feedFifo(config.input, tsh);
        fccc::IngestControl control;
        archive::DaemonReport report =
            archive::Daemon(config).run(control);

        EXPECT_EQ(report.stats.packets, original.size());
        EXPECT_EQ(report.stats.inputBytes, tsh.size());
        EXPECT_EQ(report.stats.archivesSealed, 1u);
        EXPECT_EQ(report.stats.epochs, 1u);
        listed.push_back(archive::loadCatalog(config.outputDir));
        ASSERT_EQ(listed.back().size(), 1u);
        bytes.push_back(readFileBytes(config.outputDir + "/" +
                                      listed.back()[0].name));
    }
    EXPECT_EQ(listed[0], listed[1]);
    EXPECT_EQ(bytes[0], bytes[1]);
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

namespace {

/**
 * Run FCCD_BIN on @p args with its stderr in @p errPath and, when
 * @p fileLimit is set, a soft RLIMIT_FSIZE of that many bytes on the
 * child alone. Returns the wait status.
 */
int
runFccd(const char *bin, const std::vector<std::string> &args,
        const std::string &errPath, rlim_t fileLimit)
{
    std::vector<char *> argv = {const_cast<char *>(bin)};
    for (const std::string &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);
    pid_t child = ::fork();
    if (child == 0) {
        int fd = ::open(errPath.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0)
            ::dup2(fd, STDERR_FILENO);
        if (fileLimit != RLIM_INFINITY) {
            rlimit lim;
            ::getrlimit(RLIMIT_FSIZE, &lim);
            lim.rlim_cur = fileLimit;
            ::setrlimit(RLIMIT_FSIZE, &lim);
        }
        ::execv(bin, argv.data());
        std::_Exit(127);  // exec failed
    }
    int status = -1;
    if (child > 0)
        ::waitpid(child, &status, 0);
    return status;
}

} // namespace

// Past a file-size limit (the stand-in for a full disk) a commit
// fails cleanly: fccd exits 1 with the error instead of dying of
// SIGXFSZ, no partial archive stays behind, and the CATALOG lists
// exactly the archives committed before the failure.
TEST(Daemon, FccdFileSizeLimitFailsCleanly)
{
    const char *bin = std::getenv("FCCD_BIN");
    if (bin == nullptr || bin[0] == '\0')
        GTEST_SKIP() << "FCCD_BIN not set";

    std::string tshIn = tempPath("fccd_fsize_in.tsh");
    trace::writeTshFile(webTrace(67, 20.0), tshIn);
    auto args = [&](const std::string &dir) {
        return std::vector<std::string>{"--in-format", "tsh",
                                        "--archive-records", "2000",
                                        tshIn, dir};
    };

    // Unlimited: the archives and their sizes.
    std::string full = tempDir("fccd_fsize_full");
    int status = runFccd(bin, args(full), tempPath("fccd_fsize_full.err"),
                         RLIM_INFINITY);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
    std::vector<archive::CatalogEntry> all = archive::loadCatalog(full);
    ASSERT_GE(all.size(), 3u);

    // A limit the first archive fits under and a later one does not.
    const uint64_t limit = all[0].bytes;
    size_t fits = 1;
    while (fits < all.size() && all[fits].bytes <= limit)
        ++fits;
    ASSERT_LT(fits, all.size()) << "no archive larger than the first";

    std::string dir = tempDir("fccd_fsize");
    std::string errPath = tempPath("fccd_fsize.err");
    status = runFccd(bin, args(dir), errPath, limit);
    ASSERT_TRUE(WIFEXITED(status)) << "fccd died of a signal: " << status;
    EXPECT_EQ(WEXITSTATUS(status), 1);
    std::ifstream errFile(errPath);
    std::string err((std::istreambuf_iterator<char>(errFile)),
                    std::istreambuf_iterator<char>());
    EXPECT_NE(err.find("File too large"), std::string::npos) << err;

    for (const auto &entry : std::filesystem::directory_iterator(dir))
        EXPECT_NE(entry.path().extension(), ".partial")
            << entry.path();
    std::vector<archive::CatalogEntry> kept = archive::loadCatalog(dir);
    ASSERT_EQ(kept.size(), fits);
    for (size_t i = 0; i < fits; ++i) {
        EXPECT_EQ(kept[i], all[i]) << i;
        EXPECT_EQ(readFileBytes(dir + "/" + kept[i].name),
                  readFileBytes(full + "/" + all[i].name))
            << kept[i].name;
    }
}
