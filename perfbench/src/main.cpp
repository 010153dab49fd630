/**
 * @file
 * fccbench — the end-to-end benchmark program (see README.md).
 *
 *   fccbench --workload web|synflood|elephants-gz --seed N
 *            --seconds S --trace 0|1 [--tiny] [--corrupt]
 *            [--spans-out FILE]
 *
 * Runs in the current directory, which it fills with the generated
 * capture and archives. Prints `#`-prefixed progress lines, then one
 * JSON object as the last line of stdout: with --trace 0 the
 * end-to-end metrics, with --trace 1 the per-layer metrics. Exits 1
 * when any correctness check fails (a failed operation), 2 on usage
 * errors. `--probe KIND` (setup, ingest, decompress, serve) is the
 * child-process side of the probes below.
 */

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "codec/fcc/fcc_codec.hpp"
#include "common.hpp"
#include "phases.hpp"
#include "query/catalog.hpp"
#include "util/error.hpp"
#include "util/io.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace fcc;

namespace {

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    bool corrupt = false;
    std::string spansOut;
    std::string probe;  ///< run one operation in this fresh process
};

/** Counts operations and failed correctness checks. */
class Gate
{
  public:
    void
    check(bool ok, const std::string &what)
    {
        ++attempted_;
        if (!ok) {
            ++failed_;
            std::fprintf(stderr, "fccbench: check failed: %s\n",
                         what.c_str());
        }
    }

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }

  private:
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/** Metrics in emission order. */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        entries_.push_back({name, value, unit});
    }

    /** The result line; non-finite values fail the gate. */
    std::string
    json(Gate &gate) const
    {
        std::string out = "{";
        for (size_t i = 0; i < entries_.size(); ++i) {
            const Entry &e = entries_[i];
            bool finite = std::isfinite(e.value);
            gate.check(finite, e.name + " is finite");
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.17g",
                          finite ? e.value : 0.0);
            out += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " +
                   buf + ", \"unit\": \"" + e.unit + "\"}";
        }
        return out + "}";
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

/**
 * Keep every core busy for @p seconds before anything is timed. After
 * the machine idles, a fresh process can otherwise run its pool work
 * serially for its whole life (README.md, noise sources).
 */
void
spinAllCores(unsigned cores, double seconds)
{
    std::atomic<uint64_t> sink{0};
    int64_t stop = nowNs() + static_cast<int64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < cores; ++c)
        threads.emplace_back([&sink, stop, c] {
            uint64_t x = c + 1;
            while (nowNs() < stop)
                for (int i = 0; i < 4096; ++i)
                    x = x * 6364136223846793005ull + 1442695040888963407ull;
            sink += x;
        });
    for (std::thread &t : threads)
        t.join();
}

constexpr const char *keptDir = "archives";  // served + decompressed
constexpr const char *repDir = "rep";        // timed ingest reps
constexpr double mb = 1e6;

/** How --seconds splits: rounds of ingest + decompress + cold starts,
 *  then the serve windows. */
struct Budget
{
    double rounds, serve;
};

Budget
budgetFor(double seconds)
{
    return {0.6 * seconds, 0.4 * seconds};
}

/** Phase state shared by the untraced and traced runs. */
struct Context
{
    int64_t startNs = nowNs();
    std::string self;  ///< this binary, for probe processes
    Args args;
    Workload workload;
    Inputs inputs;
    Budget budget{};
    size_t minReps = 3;
    size_t mixSize = 120;
    size_t minQueries = 120;  // one whole mix; p90 keeps >= 12 beyond it
    size_t serveWindows = 3;
    size_t setupProbesPerRound = 10;
    size_t rssProbes = 3;
    size_t probeQueries = 30;
    ServeOptions serve;
    Gate gate;
    Metrics metrics;
    SpanLog off{false};
    SpanLog log{true};
    IngestRun reference;  ///< warm-up ingest, kept for the later phases
};

bool
sameArchives(const IngestRun &a, const IngestRun &b)
{
    return a.archives == b.archives && a.packets == b.packets;
}

/** Untimed warm-up ingest into keptDir: the byte-identity reference. */
void
referenceIngest(Context &ctx)
{
    ctx.reference =
        ingestOnce(ctx.workload, ctx.inputs, 0, keptDir, ctx.off);
    ctx.gate.check(ctx.reference.packets == ctx.inputs.packets,
                   "ingest seals every input packet");
    ctx.gate.check(
        countDiskMismatches(keptDir, ctx.reference.archives) == 0,
        "committed archives read back byte-identical");
}

void
checkIngestRep(Context &ctx, const IngestRun &run, uint32_t threads)
{
    ctx.gate.check(sameArchives(run, ctx.reference) &&
                       countDiskMismatches(repDir, run.archives) == 0,
                   "archive bytes identical at threads=" +
                       std::to_string(threads) +
                       " and across repetitions");
}

/** Flip one byte of the first kept archive (self-test of the gate). */
void
corruptOneByte()
{
    std::string path = catalogPaths(keptDir).front();
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    std::streamoff middle = f.tellg() / 2;
    f.seekg(middle);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x20);
    f.seekp(middle);
    f.write(&byte, 1);
    std::printf("# corrupted one byte of %s\n", path.c_str());
}

/** Untimed decompress of keptDir: the reconstruction reference. */
DecompressRun
referenceDecompress(Context &ctx, const std::vector<std::string> &paths)
{
    ctx.gate.check(
        countDiskMismatches(keptDir, ctx.reference.archives) == 0,
        "served archives match the committed bytes");
    DecompressRun ref = decompressOnce(paths, 0, ctx.off);
    ctx.gate.check(ref.packets == ctx.inputs.packets,
                   "decompress reconstructs every packet");
    return ref;
}

/** Expected answers of every query index @p run served. */
std::map<size_t, Replay>
replayServed(Context &ctx, const std::vector<Query> &mix,
             const ServeRun &run, SpanLog &log)
{
    codec::fcc::FccConfig cfg;
    cfg.threads = ctx.serve.decodeThreads;
    query::ArchiveCatalog catalog =
        query::ArchiveCatalog::fromCatalogFile(keptDir, cfg);
    // Replay each distinct expression once (aggregates also by kind).
    std::map<std::string, Replay> byText;
    std::map<size_t, Replay> expected;
    for (const ServedQuery &s : run.served) {
        if (expected.count(s.query))
            continue;
        const Query &q = mix[s.query];
        std::string key = std::to_string(static_cast<int>(q.type)) + ":" +
                          std::to_string(static_cast<int>(q.kind)) + ":" +
                          q.text;
        if (!byText.count(key))
            byText[key] = replayQuery(catalog, q, log,
                                      static_cast<uint32_t>(s.query));
        expected[s.query] = byText[key];
    }
    return expected;
}

void
checkServed(Context &ctx, const std::vector<Query> &mix,
            const ServeRun &run, const std::map<size_t, Replay> &expected)
{
    for (const ServedQuery &s : run.served) {
        const Answer &want = expected.at(s.query).answer;
        ctx.gate.check(s.answer.ok && s.answer.count == want.count &&
                           s.answer.digest == want.digest,
                       "served answer equals in-process answer for '" +
                           mix[s.query].text + "'");
    }
    ctx.gate.check(run.clientFailures == 0,
                   "query clients and server ran clean: " + run.error);
    ctx.gate.check(run.requestsServed == run.requestsAttempted,
                   "server answered every request sent (" +
                       std::to_string(run.requestsServed) + " of " +
                       std::to_string(run.requestsAttempted) + ")");
}

std::vector<double>
latencies(const ServeRun &run, const std::vector<Query> &mix,
          const QueryType *only = nullptr)
{
    std::vector<double> v;
    for (const ServedQuery &s : run.served)
        if (!only || mix[s.query].type == *only)
            v.push_back(s.latencyMs);
    return v;
}

/** Progress line: seconds since the process started. */
void
mark(const Context &ctx, const char *what)
{
    std::printf("# %.2f s: %s\n", secondsBetween(ctx.startNs, nowNs()),
                what);
}

/** Wall times of one timed operation, in run order. */
void
printWalls(const char *what, const std::vector<double> &walls)
{
    std::printf("# %s walls (s):", what);
    for (double w : walls)
        std::printf(" %.4f", w);
    std::printf("\n");
}

int
usage(const char *message)
{
    std::fprintf(stderr,
                 "fccbench: %s\nusage: fccbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--tiny] [--corrupt] "
                 "[--spans-out FILE]\n",
                 message);
    return 2;
}

// ---- probes: one operation in a fresh process -------------------------
//
// Peak RSS and cold start are properties of a fresh process: in a
// long-lived one they depend on what earlier repetitions left in the
// allocator's arenas and glibc's thread-stack cache (README.md, noise
// sources). A probe re-executes this binary with --probe KIND in the
// same directory; it runs one operation over the files already there
// and prints "probe <seconds> <peak RSS MB>".

struct ProbeResult
{
    bool ok = false;
    double seconds = 0.0;
    double rssMb = 0.0;
};

ProbeResult
runProbe(const Context &ctx, const std::string &kind)
{
    std::vector<std::string> args = {
        ctx.self, "--probe", kind, "--workload", ctx.args.workload,
        "--seed", std::to_string(ctx.args.seed), "--seconds", "1"};
    if (ctx.args.tiny)
        args.push_back("--tiny");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    int fds[2];
    if (::pipe(fds) != 0)
        return {};
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    pid_t pid = 0;
    int rc = posix_spawn(&pid, ctx.self.c_str(), &actions, nullptr,
                         argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    std::string out;
    char buf[256];
    for (ssize_t n; (n = ::read(fds[0], buf, sizeof buf)) > 0;)
        out.append(buf, static_cast<size_t>(n));
    ::close(fds[0]);
    int status = 0;
    if (rc != 0 || ::waitpid(pid, &status, 0) != pid)
        return {};
    ProbeResult result;
    result.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
                std::sscanf(out.c_str(), "probe %lf %lf", &result.seconds,
                            &result.rssMb) == 2;
    return result;
}

std::string
inputName(const Workload &workload)
{
    return workload.kind == WorkloadKind::ElephantsGz ? "input.pcapng.gz"
                                                      : "input.tsh";
}

/** The --probe side: one operation, its time and its peak RSS. */
int
probeMain(Context &ctx)
{
    const std::string &kind = ctx.args.probe;
    double seconds = 0.0;
    bool ok = true;
    if (kind == "setup") {
        seconds = coldStart(keptDir, ctx.serve);
    } else if (kind == "ingest") {
        Inputs inputs;
        inputs.path = inputName(ctx.workload);
        ok = resetPeakRss();
        seconds = ingestOnce(ctx.workload, inputs, 0, repDir, ctx.off).wallS;
        std::filesystem::remove_all(repDir);
    } else if (kind == "decompress") {
        std::vector<std::string> paths = catalogPaths(keptDir);
        ok = resetPeakRss();
        seconds = decompressOnce(paths, 0, ctx.off).wallS;
    } else if (kind == "serve") {
        std::vector<Query> mix =
            buildQueryMix(keptDir, ctx.args.seed, ctx.mixSize);
        size_t cursor = 0;
        ok = resetPeakRss();
        ServeRun run = serveMix(keptDir, mix, ctx.serve, 0.0,
                                ctx.probeQueries, false, cursor);
        ok = ok && run.clientFailures == 0;
        seconds = run.wallS;
    } else {
        return usage(("unknown probe " + kind).c_str());
    }
    std::printf("probe %.9g %.9g\n", seconds, peakRssMb());
    return ok ? 0 : 1;
}

/** Median seconds and peak RSS of @p count probes of @p kind; a failed
 *  probe fails the gate. */
ProbeResult
probeMedian(Context &ctx, const std::string &kind, size_t count,
            std::vector<double> *samples = nullptr)
{
    std::vector<double> seconds, rss;
    for (size_t i = 0; i < count; ++i) {
        ProbeResult r = runProbe(ctx, kind);
        ctx.gate.check(r.ok, kind + " probe process ran clean");
        if (!r.ok)
            continue;
        seconds.push_back(r.seconds);
        rss.push_back(r.rssMb);
    }
    if (samples)
        samples->insert(samples->end(), seconds.begin(), seconds.end());
    return {!seconds.empty(), median(seconds), median(rss)};
}

// ---- the untraced run: end-to-end metrics ---------------------------

void
runEndToEnd(Context &ctx)
{
    const double tshMb =
        static_cast<double>(ctx.inputs.packets) * 44.0 / mb;
    const double fileMb = static_cast<double>(ctx.inputs.fileBytes) / mb;
    Metrics &m = ctx.metrics;

    mark(ctx, "set-up done");
    referenceIngest(ctx);
    if (ctx.args.corrupt)
        corruptOneByte();
    std::vector<std::string> paths = catalogPaths(keptDir);

    // Rounds: every round repeats each timed operation once, so all of
    // them sample the same stretch of machine time. Index 0 runs on all
    // cores, index 1 on one thread.
    std::vector<double> ingest[2], decompress[2], starts;
    try {
        DecompressRun ref = referenceDecompress(ctx, paths);
        int64_t stop = nowNs() + static_cast<int64_t>(
                                     ctx.budget.rounds * 1e9);
        while (nowNs() < stop || decompress[1].size() < ctx.minReps) {
            for (uint32_t threads : {0u, 1u}) {
                IngestRun in = ingestOnce(ctx.workload, ctx.inputs, threads,
                                          repDir, ctx.off);
                ingest[threads].push_back(in.wallS);
                checkIngestRep(ctx, in, threads);

                DecompressRun out = decompressOnce(paths, threads, ctx.off);
                decompress[threads].push_back(out.wallS);
                ctx.gate.check(out.packets == ref.packets &&
                                   out.digest == ref.digest,
                               "reconstruction identical at threads=" +
                                   std::to_string(threads));
            }
            probeMedian(ctx, "setup", ctx.setupProbesPerRound, &starts);
        }
    } catch (const std::exception &e) {
        ctx.gate.check(false, std::string("ingest/decompress: ") + e.what());
    }
    std::filesystem::remove_all(repDir);
    mark(ctx, "rounds done");
    printWalls("ingest all-cores", ingest[0]);
    printWalls("ingest one-thread", ingest[1]);
    printWalls("decompress all-cores", decompress[0]);
    printWalls("decompress one-thread", decompress[1]);
    m.add("ingest_mbps", fileMb / median(ingest[0]), "MB/s");
    m.add("ingest_1t_mbps", fileMb / median(ingest[1]), "MB/s");
    m.add("archive_ratio",
          static_cast<double>(ctx.reference.archiveBytes) /
              (44.0 * static_cast<double>(ctx.reference.packets)),
          "ratio");
    m.add("decompress_mbps", tshMb / median(decompress[0]), "MB/s");
    m.add("decompress_1t_mbps", tshMb / median(decompress[1]), "MB/s");

    // Serve: closed-loop windows of two clients; then every answer is
    // checked in-process.
    try {
        std::vector<Query> mix =
            buildQueryMix(keptDir, ctx.args.seed, ctx.mixSize);
        Digest mixDigest;
        for (const Query &q : mix)
            mixDigest.addBytes(std::span<const uint8_t>(
                reinterpret_cast<const uint8_t *>(q.text.data()),
                q.text.size()));
        std::printf("# query mix: %zu queries, digest %016llx\n", mix.size(),
                    static_cast<unsigned long long>(mixDigest.value()));
        ServeRun all;
        size_t cursor = 0;
        for (size_t w = 0; w < ctx.serveWindows; ++w) {
            ServeRun run = serveMix(
                keptDir, mix, ctx.serve, ctx.budget.serve / ctx.serveWindows,
                ctx.minQueries / ctx.serveWindows, false, cursor);
            all.wallS += run.wallS;
            all.served.insert(all.served.end(), run.served.begin(),
                              run.served.end());
            all.requestsAttempted += run.requestsAttempted;
            all.requestsServed += run.requestsServed;
            all.clientFailures += run.clientFailures;
            if (!run.error.empty())
                all.error = run.error;
        }
        mark(ctx, "serve done");
        checkServed(ctx, mix, all, replayServed(ctx, mix, all, ctx.off));
        mark(ctx, "served answers checked");
        std::vector<double> lat = latencies(all, mix);
        std::printf("# queries served: %zu in %.3f s; p50 ms by type:",
                    lat.size(), all.wallS);
        for (QueryType type :
             {QueryType::Server, QueryType::Window, QueryType::Aggregate})
            std::printf(" %s %.3f", queryTypeName(type),
                        quantile(latencies(all, mix, &type), 0.5));
        std::printf("\n");
        m.add("query_qps", static_cast<double>(lat.size()) / all.wallS,
              "1/s");
        m.add("query_p50_ms", quantile(lat, 0.5), "ms");
        m.add("query_p90_ms", quantile(lat, 0.9), "ms");
    } catch (const std::exception &e) {
        ctx.gate.check(false, std::string("serve: ") + e.what());
    }

    // Peak RSS of each path in fresh processes.
    for (const char *kind : {"ingest", "decompress", "serve"}) {
        ProbeResult r = probeMedian(ctx, kind, ctx.rssProbes);
        std::printf("# %s probe: %.4f s, peak RSS %.2f MB\n", kind,
                    r.seconds, r.rssMb);
        m.add(std::string(kind) + "_rss_mb", r.rssMb, "MB");
    }

    mark(ctx, "probes done");
    std::printf("# cold starts: %zu, p10/p50/p90 %.1f/%.1f/%.1f us\n",
                starts.size(), 1e6 * quantile(starts, 0.1),
                1e6 * quantile(starts, 0.5), 1e6 * quantile(starts, 0.9));
    m.add("setup_s", median(starts), "s");
}

// ---- the traced run: per-layer metrics -------------------------------

double
selfSeconds(const SpanLog &log, int32_t root, std::string_view name)
{
    return log.seconds(name, static_cast<size_t>(root));
}

double
spanSeconds(const SpanLog &log, int32_t root)
{
    const Span &s = log.spans()[static_cast<size_t>(root)];
    return secondsBetween(s.startNs, s.endNs);
}

void
runLayers(Context &ctx)
{
    Metrics &m = ctx.metrics;
    SpanLog &log = ctx.log;
    auto warn = [](const char *phase, double unattributed) {
        if (unattributed > 0.10)
            std::printf("# WARNING: %s layer spans cover only %.1f%% of "
                        "its wall time\n",
                        phase, 100.0 * (1.0 - unattributed));
    };

    // Rounds of untraced and traced all-cores repetitions; the traced
    // ones give the layer split, both give the tracing overhead.
    referenceIngest(ctx);
    std::vector<std::string> paths = catalogPaths(keptDir);
    DecompressRun ref = referenceDecompress(ctx, paths);
    std::map<std::string, std::vector<double>> layer;
    std::vector<double> plainWall, tracedWall, plainDecomp, tracedDecomp;
    int64_t stop = nowNs() + static_cast<int64_t>(ctx.budget.rounds * 1e9);
    while (nowNs() < stop || tracedDecomp.size() < ctx.minReps) {
        for (bool traced : {false, true}) {
            IngestRun in = ingestOnce(ctx.workload, ctx.inputs, 0, repDir,
                                      traced ? log : ctx.off);
            checkIngestRep(ctx, in, 0);
            (traced ? tracedWall : plainWall).push_back(in.wallS);
            if (traced) {
                double covered = 0.0;
                for (const char *name :
                     {"trace.open", "trace.read", "codec.feed", "codec.seal",
                      "archive.commit", "codec.rearm"}) {
                    double s = selfSeconds(log, in.rootSpan, name);
                    layer[name].push_back(s);
                    covered += s;
                }
                layer["ingest.unattributed"].push_back(
                    1.0 - covered / spanSeconds(log, in.rootSpan));
            }

            DecompressRun out =
                decompressOnce(paths, 0, traced ? log : ctx.off);
            ctx.gate.check(out.packets == ref.packets &&
                               out.digest == ref.digest,
                           "reconstruction identical across repetitions");
            (traced ? tracedDecomp : plainDecomp).push_back(out.wallS);
            if (traced) {
                double decode = selfSeconds(log, out.rootSpan, "codec.decode");
                double drain = selfSeconds(log, out.rootSpan, "codec.drain");
                double sink = selfSeconds(log, out.rootSpan, "trace.sink");
                layer["codec.decode"].push_back(decode);
                layer["codec.expand"].push_back(drain - sink);
                layer["trace.sink"].push_back(sink);
                layer["decompress.unattributed"].push_back(
                    1.0 - (decode + drain) / spanSeconds(log, out.rootSpan));
            }
        }
    }
    std::filesystem::remove_all(repDir);
    double readS = median(layer["trace.read"]);
    m.add("trace.read_s", readS, "s");
    m.add("trace.read_mbps",
          static_cast<double>(ctx.inputs.fileBytes) / mb / readS, "MB/s");
    m.add("codec.feed_s", median(layer["codec.feed"]), "s");
    m.add("codec.seal_s", median(layer["codec.seal"]), "s");
    m.add("archive.commit_s", median(layer["archive.commit"]), "s");
    m.add("archive.commits",
          static_cast<double>(ctx.reference.seals.size()), "count");
    uint64_t flows = 0, templatesNew = 0;
    for (const codec::fcc::SealInfo &seal : ctx.reference.seals) {
        flows += seal.records;
        templatesNew += seal.templatesNew;
    }
    m.add("flow.flows", static_cast<double>(flows), "count");
    m.add("flow.templates_new", static_cast<double>(templatesNew),
          "count");
    m.add("flow.templates_per_kflow",
          flows ? 1000.0 * static_cast<double>(templatesNew) /
                      static_cast<double>(flows)
                : 0.0,
          "1/kflow");
    double ingestUnattributed = median(layer["ingest.unattributed"]);
    warn("ingest", ingestUnattributed);

    // Seal split: re-serialize the sealed datasets with the workload's
    // backend and with Store (the difference is the entropy backend).
    {
        std::vector<std::vector<uint8_t>> archives;
        for (const std::string &path : catalogPaths(keptDir)) {
            std::vector<uint8_t> owned;
            auto source = util::openByteSource(path);
            std::span<const uint8_t> bytes =
                util::readAllBytes(*source, owned);
            archives.emplace_back(bytes.begin(), bytes.end());
        }
        std::vector<codec::fcc::Datasets> datasets;
        for (const auto &bytes : archives)
            datasets.push_back(codec::fcc::deserializeAuto(bytes, 0));
        codec::fcc::FccConfig cfg = codecConfig(ctx.workload, 0);
        codec::fcc::FccConfig store = cfg;
        store.backend = codec::backend::EntropyBackend::Store;
        std::vector<double> withBackend, withStore;
        bool identical = true;
        for (int rep = 0; rep < 3; ++rep) {
            for (const codec::fcc::FccConfig *c : {&cfg, &store}) {
                int64_t t0 = nowNs();
                for (size_t i = 0; i < datasets.size(); ++i) {
                    ScopedSpan span(log, c == &cfg ? "codec.serialize"
                                                   : "codec.serialize_store");
                    codec::fcc::SizeBreakdown breakdown;
                    std::vector<uint8_t> out = codec::fcc::serializeDatasets(
                        datasets[i], *c, breakdown);
                    if (c == &cfg)
                        identical = identical && out == archives[i];
                }
                (c == &cfg ? withBackend : withStore)
                    .push_back(secondsBetween(t0, nowNs()));
            }
        }
        ctx.gate.check(identical, "re-serialized datasets reproduce the "
                                  "sealed archive bytes");
        m.add("codec.serialize_s", median(withBackend), "s");
        m.add("codec.serialize_store_s", median(withStore), "s");
    }

    m.add("codec.decode_s", median(layer["codec.decode"]), "s");
    m.add("codec.expand_s", median(layer["codec.expand"]), "s");
    m.add("trace.sink_s", median(layer["trace.sink"]), "s");
    double decompressUnattributed =
        median(layer["decompress.unattributed"]);
    warn("decompress", decompressUnattributed);

    // Serve, then the same mix replayed in-process.
    std::vector<Query> mix =
        buildQueryMix(keptDir, ctx.args.seed, ctx.mixSize);
    size_t cursor = 0;
    ServeRun run = serveMix(keptDir, mix, ctx.serve, ctx.budget.serve,
                            ctx.minQueries, true, cursor);
    std::map<size_t, Replay> expected = replayServed(ctx, mix, run, log);
    checkServed(ctx, mix, run, expected);

    std::vector<double> planMs, execMs;
    double chunksDecoded = 0, chunksTotal = 0, bytesRead = 0,
           fileBytes = 0, archivesPruned = 0, archives = 0,
           aggTouched = 0, aggReconstruct = 0;
    for (const ServedQuery &s : run.served) {
        const Replay &r = expected.at(s.query);
        planMs.push_back(r.planMs);
        execMs.push_back(r.execMs);
        if (mix[s.query].type == QueryType::Aggregate) {
            aggTouched += static_cast<double>(r.aggStats.bytesTouched);
            aggReconstruct +=
                static_cast<double>(r.aggStats.reconstructBytes);
        } else {
            chunksDecoded += static_cast<double>(r.stats.chunksDecoded);
            chunksTotal += static_cast<double>(r.stats.chunksTotal);
            bytesRead += static_cast<double>(r.stats.bytesRead);
            fileBytes += static_cast<double>(r.stats.fileBytes);
            archivesPruned += static_cast<double>(r.stats.archivesPruned);
            archives += static_cast<double>(r.stats.archives);
        }
    }
    auto frac = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    double clientP50 = quantile(latencies(run, mix), 0.5);
    double execP50 = quantile(execMs, 0.5);
    m.add("query.plan_ms", quantile(planMs, 0.5), "ms");
    m.add("query.exec_ms", execP50, "ms");
    m.add("query.chunks_decoded_frac", frac(chunksDecoded, chunksTotal),
          "ratio");
    m.add("query.bytes_read_frac", frac(bytesRead, fileBytes), "ratio");
    m.add("query.archives_pruned_frac", frac(archivesPruned, archives),
          "ratio");
    m.add("query.agg_touched_frac", frac(aggTouched, aggReconstruct),
          "ratio");
    for (QueryType type :
         {QueryType::Server, QueryType::Window, QueryType::Aggregate}) {
        std::string name = queryTypeName(type);
        m.add(name + "_p50_ms", quantile(latencies(run, mix, &type), 0.5),
              "ms");
    }
    m.add("server.overhead_ms", clientP50 - execP50, "ms");
    m.add("server.requests", static_cast<double>(run.requestsServed),
          "count");

    double clientBusy = 0.0;
    for (const Span &s : run.spans.spans())
        clientBusy += secondsBetween(s.startNs, s.endNs);
    double serveUnattributed =
        1.0 - clientBusy / (static_cast<double>(ctx.serve.clients) *
                            run.wallS);
    warn("serve", serveUnattributed);
    m.add("ingest.unattributed_frac", ingestUnattributed, "ratio");
    m.add("decompress.unattributed_frac", decompressUnattributed, "ratio");
    m.add("serve.unattributed_frac", serveUnattributed, "ratio");
    m.add("trace_overhead_frac",
          (median(tracedWall) + median(tracedDecomp)) /
                  (median(plainWall) + median(plainDecomp)) -
              1.0,
          "ratio");
    log.absorb(run.spans);
}

/** Spans as CSV: name,start_ns,end_ns,parent,request (run-relative). */
void
writeSpans(const SpanLog &log, const std::string &path)
{
    std::ofstream out(path, std::ios::trunc);
    out << "name,start_ns,end_ns,parent,request\n";
    int64_t origin = log.spans().empty() ? 0 : log.spans().front().startNs;
    for (const Span &s : log.spans())
        out << s.name << ',' << s.startNs - origin << ','
            << s.endNs - origin << ',' << s.parent << ',' << s.request
            << '\n';
}


int
run(int argc, char **argv)
{
    Context ctx;
    ctx.self = argv[0];
    Args &args = ctx.args;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw util::Error(flag + " needs a value");
            return argv[++i];
        };
        if (flag == "--workload")
            args.workload = value();
        else if (flag == "--seed")
            args.seed = std::stoull(value());
        else if (flag == "--seconds")
            args.seconds = std::stod(value());
        else if (flag == "--trace")
            args.trace = value() != "0";
        else if (flag == "--tiny")
            args.tiny = true;
        else if (flag == "--corrupt")
            args.corrupt = true;
        else if (flag == "--spans-out")
            args.spansOut = value();
        else if (flag == "--probe")
            args.probe = value();
        else
            return usage(("unknown flag " + flag).c_str());
    }
    if (args.workload.empty() || !(args.seconds > 0))
        return usage("--workload and a positive --seconds are required");

    ctx.workload = findWorkload(args.workload, args.tiny);
    ctx.budget = budgetFor(args.seconds);
    if (args.tiny) {
        ctx.minReps = 1;
        ctx.minQueries = 12;
        ctx.mixSize = 12;
        ctx.probeQueries = 6;
    }
    if (!args.probe.empty())
        return probeMain(ctx);
    unsigned cores = std::max(1u, std::thread::hardware_concurrency());

    // Set-up, untimed: inputs on disk and fsync'd, every core warmed.
    ctx.inputs =
        generateInputs(ctx.workload, args.tiny, inputName(ctx.workload));
    std::printf("# inputs: %s %llu bytes, %llu packets, crc32 %08x\n",
                ctx.inputs.path.c_str(),
                static_cast<unsigned long long>(ctx.inputs.fileBytes),
                static_cast<unsigned long long>(ctx.inputs.packets),
                ctx.inputs.crc32);
    spinAllCores(cores, args.tiny ? 0.2 : 1.5);

    if (args.trace)
        runLayers(ctx);
    else
        runEndToEnd(ctx);

    if (!args.spansOut.empty())
        writeSpans(ctx.log, args.spansOut);
    std::string metrics = ctx.metrics.json(ctx.gate);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                ctx.gate.failed() == 0 ? "true" : "false",
                static_cast<unsigned long long>(ctx.gate.attempted()),
                static_cast<unsigned long long>(ctx.gate.failed()),
                metrics.c_str());
    return ctx.gate.failed() == 0 ? 0 : 1;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "fccbench: %s\n", e.what());
        return 1;
    }
}
