/**
 * @file
 * Ingest, decompress, serve and cold-start paths (phases.hpp).
 */

#include "phases.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <thread>

#include "archive/catalog_file.hpp"
#include "archive/writer.hpp"
#include "query/catalog.hpp"
#include "query/expr.hpp"
#include "trace/source.hpp"
#include "trace/tsh.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/io.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace fcc;

// ---- ingest ----------------------------------------------------------

IngestRun
ingestOnce(const Workload &workload, const Inputs &inputs,
           uint32_t threads, const std::string &dir, SpanLog &log)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
    archive::ArchiveWriter writer(dir);
    codec::fcc::CompressSession session(codecConfig(workload, threads));
    std::vector<trace::PacketRecord> batch(4096);  // compressSource's
    std::vector<std::vector<uint8_t>> sealed;
    IngestRun run;

    int64_t start = nowNs();
    run.rootSpan = log.open("ingest");
    int32_t root = run.rootSpan;
    std::unique_ptr<trace::TraceSource> source;
    {
        ScopedSpan span(log, "trace.open", root);
        source = trace::openTraceSource(inputs.path);
    }
    auto sealEpoch = [&] {
        codec::fcc::SealInfo info;
        std::vector<uint8_t> bytes;
        {
            ScopedSpan span(log, "codec.seal", root);
            bytes = session.seal(&info);
        }
        archive::CatalogEntry entry;
        {
            ScopedSpan span(log, "archive.commit", root);
            entry = writer.commit(bytes, info);
        }
        run.archives.push_back({entry.name, 0, 0});
        run.seals.push_back(info);
        sealed.push_back(std::move(bytes));
    };
    uint64_t epochFed = 0;
    for (;;) {
        size_t got = 0;
        {
            ScopedSpan span(log, "trace.read", root);
            got = source->read(batch);
        }
        if (got == 0)
            break;
        for (size_t i = 0; i < got;) {
            size_t take = got - i;
            if (workload.archivePackets != 0)
                take = std::min<uint64_t>(
                    take, workload.archivePackets - epochFed);
            {
                ScopedSpan span(log, "codec.feed", root);
                session.feed(std::span<const trace::PacketRecord>(
                    batch.data() + i, take));
            }
            i += take;
            epochFed += take;
            if (workload.archivePackets != 0 &&
                epochFed == workload.archivePackets) {
                sealEpoch();
                ScopedSpan span(log, "codec.rearm", root);
                session.reArm();
                epochFed = 0;
            }
        }
    }
    if (epochFed != 0 || sealed.empty())
        sealEpoch();
    log.close(root);
    run.wallS = secondsBetween(start, nowNs());

    for (size_t i = 0; i < sealed.size(); ++i) {
        run.archives[i].bytes = sealed[i].size();
        run.archives[i].crc32 = util::Crc32::of(sealed[i]);
        run.archiveBytes += sealed[i].size();
        run.packets += run.seals[i].packets;
    }
    return run;
}

size_t
countDiskMismatches(const std::string &dir,
                    const std::vector<ArchiveDigest> &expected)
{
    size_t bad = 0;
    for (const ArchiveDigest &want : expected) {
        fs::path path = fs::path(dir) / want.name;
        ArchiveDigest got{want.name, 0, 0};
        if (fs::exists(path)) {
            std::vector<uint8_t> owned;
            auto source = util::openByteSource(path.string());
            std::span<const uint8_t> bytes =
                util::readAllBytes(*source, owned);
            got.bytes = bytes.size();
            got.crc32 = util::Crc32::of(bytes);
        }
        if (!(got == want))
            ++bad;
    }
    return bad;
}

std::vector<std::string>
catalogPaths(const std::string &dir)
{
    std::vector<std::string> paths;
    for (const archive::CatalogEntry &entry : archive::loadCatalog(dir))
        paths.push_back(dir + "/" + entry.name);
    return paths;
}

// ---- decompress ------------------------------------------------------

namespace {

/** Counts and digests reconstructed packets; never touches a file. */
class DigestSink final : public trace::TraceSink
{
  public:
    DigestSink(SpanLog &log, const int32_t &parent)
        : log_(log), parent_(parent)
    {}

    void
    write(std::span<const trace::PacketRecord> batch) override
    {
        ScopedSpan span(log_, "trace.sink", parent_);
        for (const trace::PacketRecord &pkt : batch)
            digest_.addPacket(pkt);
        packets_ += batch.size();
    }
    void close() override {}
    uint64_t bytesWritten() const override
    {
        return packets_ * trace::tshRecordBytes;
    }

    uint64_t packets() const { return packets_; }
    uint64_t digest() const { return digest_.value(); }

  private:
    SpanLog &log_;
    const int32_t &parent_;  ///< the enclosing drainTo span
    Digest digest_;
    uint64_t packets_ = 0;
};

} // namespace

DecompressRun
decompressOnce(const std::vector<std::string> &paths, uint32_t threads,
               SpanLog &log)
{
    codec::fcc::FccConfig cfg;
    cfg.threads = threads;
    codec::fcc::DecompressSession session(cfg);
    int32_t drainSpan = -1;
    DigestSink sink(log, drainSpan);
    DecompressRun run;

    int64_t start = nowNs();
    run.rootSpan = log.open("decompress");
    for (const std::string &path : paths) {
        {
            ScopedSpan span(log, "codec.decode", run.rootSpan);
            session.open(path);
        }
        ScopedSpan span(log, "codec.drain", run.rootSpan);
        drainSpan = span.id();
        session.drainTo(sink);
    }
    log.close(run.rootSpan);
    run.wallS = secondsBetween(start, nowNs());
    run.packets = sink.packets();
    run.digest = sink.digest();
    return run;
}

// ---- serve -----------------------------------------------------------

const char *
queryTypeName(QueryType type)
{
    switch (type) {
    case QueryType::Server: return "query.server";
    case QueryType::Window: return "query.window";
    case QueryType::Aggregate: return "query.agg";
    }
    return "query";
}

namespace {

std::string
dottedQuad(uint32_t ip)
{
    return std::to_string(ip >> 24) + "." +
           std::to_string((ip >> 16) & 0xFF) + "." +
           std::to_string((ip >> 8) & 0xFF) + "." +
           std::to_string(ip & 0xFF);
}

/** Digest of records as the wire carries them: 44-byte TSH. */
class TshDigest
{
  public:
    void
    add(const trace::PacketRecord &pkt)
    {
        scratch_.clear();
        trace::encodeTshRecord(pkt, scratch_);
        digest_.addBytes(scratch_);
        ++count_;
    }

    Answer answer() const { return {count_, digest_.value(), true}; }

  private:
    std::vector<uint8_t> scratch_;
    Digest digest_;
    uint64_t count_ = 0;
};

class TshDigestSink final : public trace::TraceSink
{
  public:
    void
    write(std::span<const trace::PacketRecord> batch) override
    {
        for (const trace::PacketRecord &pkt : batch)
            digest.add(pkt);
    }
    void close() override {}
    uint64_t bytesWritten() const override { return 0; }

    TshDigest digest;
};

Answer
aggregateAnswer(const query::AggregateResult &result)
{
    Digest digest;
    for (const query::ServerAggregate &s : result.servers) {
        digest.add(s.serverIp);
        digest.add(s.flows);
        digest.add(s.packets);
        digest.add(s.wireBytes);
    }
    for (uint64_t bucket : result.histogram)
        digest.add(bucket);
    uint64_t flows = 0;
    for (const query::ServerAggregate &s : result.servers)
        flows += s.flows;
    return {flows, digest.value(), true};
}

/** One server thread over one catalog; stops and joins on scope exit
 *  (also when the caller throws). */
class RunningServer
{
  public:
    RunningServer(const query::ArchiveCatalog &catalog,
                  const util::SocketEndpoint &endpoint,
                  const ServeOptions &opts)
        : server_(catalog, endpoint, serverConfig(opts)),
          thread_([this] {
              try {
                  server_.serve();
              } catch (const std::exception &e) {
                  error_ = e.what();
              }
          })
    {}

    ~RunningServer() { finish(); }

    RunningServer(const RunningServer &) = delete;
    RunningServer &operator=(const RunningServer &) = delete;

    /** Stop, join, and return the accept loop's error (empty if
     *  none). */
    std::string
    finish()
    {
        server_.stop();
        if (thread_.joinable())
            thread_.join();
        return error_;
    }

    const query::QueryServer &server() const { return server_; }

  private:
    static query::ServerConfig
    serverConfig(const ServeOptions &opts)
    {
        query::ServerConfig cfg;
        cfg.threads = opts.poolThreads;
        return cfg;
    }

    query::QueryServer server_;
    std::string error_;  ///< written by thread_ before it ends
    std::thread thread_;
};

query::ArchiveCatalog
openCatalog(const std::string &dir, const ServeOptions &opts)
{
    codec::fcc::FccConfig cfg;
    cfg.threads = opts.decodeThreads;
    return query::ArchiveCatalog::fromCatalogFile(dir, cfg);
}

} // namespace

std::vector<Query>
buildQueryMix(const std::string &dir, uint64_t seed, size_t count)
{
    std::vector<archive::CatalogEntry> entries = archive::loadCatalog(dir);
    util::require(!entries.empty(), "benchmark: empty catalog in " + dir);
    uint64_t loUs = entries.front().minFirstUs;
    uint64_t hiUs = 0;
    for (const archive::CatalogEntry &entry : entries) {
        loUs = std::min(loUs, entry.minFirstUs);
        hiUs = std::max(hiUs, entry.maxLastUs);
    }
    std::vector<uint32_t> addresses;
    {
        codec::fcc::DecompressSession session;
        session.open(dir + "/" + entries.front().name);
        addresses = session.datasets().addresses;
    }
    util::require(!addresses.empty(), "benchmark: no addresses");

    util::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x51ED);
    auto pickAddress = [&] {
        return addresses[rng.uniformInt(0, addresses.size() - 1)];
    };
    uint64_t windowUs = 1000000;
    uint64_t spanUs = hiUs > loUs + windowUs ? hiUs - loUs - windowUs : 0;

    // Windows are stratified: the k-th of n starts uniformly inside the
    // k-th n-th of the span, so every mix covers the whole trace.
    const size_t windows = (count + 1) / 3;
    std::vector<Query> mix;
    size_t aggregates = 0;
    size_t windowIndex = 0;
    for (size_t i = 0; i < count; ++i) {
        Query q;
        q.type = static_cast<QueryType>(i % 3);
        switch (q.type) {
        case QueryType::Server:
            q.text = "server = " + dottedQuad(pickAddress());
            break;
        case QueryType::Window: {
            double slot = (static_cast<double>(windowIndex++) + rng.uniform()) /
                          static_cast<double>(windows);
            uint64_t t = loUs + static_cast<uint64_t>(
                                    slot * static_cast<double>(spanUs));
            q.text = "time within [" + query::formatSecondsUs(t) + ", " +
                     query::formatSecondsUs(t + windowUs) + "]";
            break;
        }
        case QueryType::Aggregate:
            if (aggregates++ % 2 == 0) {
                q.kind = query::AggregateKind::FlowCounts;
                q.text = "flow.packets >= 51";
            } else {
                q.kind = query::AggregateKind::TopTalkers;
                q.text = "server in " +
                         std::to_string(rng.uniformInt(0, 255)) + ".0.0.0/8";
            }
            break;
        }
        mix.push_back(std::move(q));
    }
    return mix;
}

Replay
replayQuery(const query::ArchiveCatalog &catalog, const Query &q,
            SpanLog &log, uint32_t request)
{
    Replay replay;
    query::Expr expr = query::parseExpr(q.text);
    int64_t t0 = nowNs();
    {
        ScopedSpan span(log, "query.plan", -1, request);
        size_t planned = 0;
        for (size_t i = 0; i < catalog.size(); ++i)
            if (catalog.archive(i).hasIndex())
                planned += catalog.archive(i).plan(expr).size();
        util::require(planned <= (size_t{1} << 40), "implausible plan");
    }
    int64_t t1 = nowNs();
    {
        ScopedSpan span(log, "query.exec", -1, request);
        if (q.type == QueryType::Aggregate) {
            query::AggregateRequest req;
            req.kind = q.kind;
            req.expr = expr;
            req.topK = q.topK;
            query::AggregateResult result = catalog.aggregate(req);
            replay.answer = aggregateAnswer(result);
            replay.aggStats = result.stats;
        } else {
            TshDigestSink sink;
            replay.stats = catalog.run(expr, sink);
            replay.answer = sink.digest.answer();
        }
    }
    int64_t t2 = nowNs();
    replay.planMs = static_cast<double>(t1 - t0) * 1e-6;
    replay.execMs = static_cast<double>(t2 - t1) * 1e-6;
    return replay;
}

ServeRun
serveMix(const std::string &dir, const std::vector<Query> &mix,
         const ServeOptions &opts, double seconds, size_t minQueries,
         bool traced, size_t &cursor)
{
    ServeRun run;
    run.spans = SpanLog(traced);
    query::ArchiveCatalog catalog = openCatalog(dir, opts);
    util::SocketEndpoint endpoint =
        util::SocketEndpoint::parse("unix:" + opts.socket);
    RunningServer server(catalog, endpoint, opts);

    struct Client
    {
        std::vector<ServedQuery> served;
        SpanLog log;
        uint64_t sent = 0;
        std::string error;
    };
    std::vector<Client> clients(opts.clients);
    for (Client &c : clients)
        c.log = SpanLog(traced);
    std::atomic<size_t> ready{0};
    std::atomic<bool> go{false};
    std::atomic<size_t> next{cursor};
    std::atomic<size_t> completed{0};
    std::atomic<int64_t> deadline{0};
    std::atomic<int64_t> hardStop{0};

    auto clientLoop = [&](Client &me) {
        try {
            query::QueryClient client(endpoint);
            ++me.sent;
            client.ping();
            ++ready;
            while (!go.load())
                std::this_thread::yield();
            for (;;) {
                int64_t now = nowNs();
                if (now >= hardStop.load() ||
                    (now >= deadline.load() &&
                     completed.load() >= minQueries))
                    break;
                size_t n = next.fetch_add(1);
                size_t index = n % mix.size();
                const Query &q = mix[index];
                ServedQuery served;
                served.query = index;
                ++me.sent;
                int32_t span = me.log.open(queryTypeName(q.type), -1,
                                           static_cast<uint32_t>(n));
                int64_t t0 = nowNs();
                if (q.type == QueryType::Aggregate) {
                    query::AggregateResult result =
                        client.aggregate(q.kind, q.topK, q.text);
                    served.latencyMs =
                        static_cast<double>(nowNs() - t0) * 1e-6;
                    me.log.close(span);
                    served.answer = aggregateAnswer(result);
                } else {
                    query::QueryResponse resp = client.query(q.text);
                    served.latencyMs =
                        static_cast<double>(nowNs() - t0) * 1e-6;
                    me.log.close(span);
                    TshDigest digest;
                    for (const trace::PacketRecord &pkt : resp.records)
                        digest.add(pkt);
                    served.answer = digest.answer();
                    served.answer.ok = resp.packets == resp.records.size();
                }
                me.served.push_back(served);
                ++completed;
            }
        } catch (const std::exception &e) {
            me.error = e.what();
            ++ready;  // never leave the starter waiting
        }
    };

    std::vector<std::thread> threads;
    for (Client &c : clients)
        threads.emplace_back(clientLoop, std::ref(c));
    while (ready.load() < clients.size())
        std::this_thread::yield();
    int64_t start = nowNs();
    deadline = start + static_cast<int64_t>(seconds * 1e9);
    hardStop = start + static_cast<int64_t>((seconds + 60.0) * 1e9);
    go = true;
    for (std::thread &t : threads)
        t.join();
    run.wallS = secondsBetween(start, nowNs());
    cursor = next.load();

    std::string serveError = server.finish();
    run.requestsServed = server.server().requestsServed();
    for (Client &c : clients) {
        run.requestsAttempted += c.sent;
        run.served.insert(run.served.end(), c.served.begin(),
                          c.served.end());
        run.spans.absorb(c.log);
        if (!c.error.empty()) {
            ++run.clientFailures;
            run.error = c.error;
        }
    }
    if (!serveError.empty()) {
        ++run.clientFailures;
        run.error = serveError;
    }
    return run;
}

double
coldStart(const std::string &dir, const ServeOptions &opts)
{
    util::SocketEndpoint endpoint =
        util::SocketEndpoint::parse("unix:" + opts.socket);
    int64_t t0 = nowNs();
    query::ArchiveCatalog catalog = openCatalog(dir, opts);
    RunningServer server(catalog, endpoint, opts);
    query::QueryClient client(endpoint);
    client.ping();
    double seconds = secondsBetween(t0, nowNs());
    std::string error = server.finish();
    util::require(error.empty(), "server: " + error);
    return seconds;
}

} // namespace perfbench
