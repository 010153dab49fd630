/**
 * @file
 * fccserve protocol and concurrency tests.
 *
 * One QueryServer instance (Unix socket, shared fixture) backs the
 * whole suite: protocol round trips through QueryClient, raw-frame
 * probes for every malformed-input path of the server's request
 * decoder (bad version, unknown opcode, truncated payload, trailing
 * bytes, oversized frame), and a multi-client stress run whose every
 * thread cross-checks its responses against locally computed
 * answers. An extra test covers TCP with an ephemeral port. The
 * whole file is a no-op on platforms without the server.
 */

#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "codec/fcc/fcc_codec.hpp"
#include "codec/fcc/stream.hpp"
#include "query/catalog.hpp"
#include "query/expr.hpp"
#include "query/server.hpp"
#include "trace/source.hpp"
#include "trace/tsh.hpp"
#include "trace/web_gen.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/io.hpp"

#include "test_common.hpp"

using namespace fcc;
namespace fccc = fcc::codec::fcc;

namespace {

using fcc::test::tempPath;

/**
 * Two small sealed archives, a catalog over them, and one running
 * QueryServer on a Unix socket — shared by every test (the server
 * is immutable state; concurrent tests are exactly the production
 * workload).
 */
struct ServerFixture
{
    std::string dir = tempPath("server_dir");
    std::string socketPath = tempPath("fccserve_test.sock");
    fccc::FccConfig cfg;
    std::unique_ptr<query::ArchiveCatalog> catalog;
    std::unique_ptr<query::QueryServer> server;
    std::thread thread;

    ServerFixture()
    {
        std::filesystem::create_directories(dir);
        cfg.container = fccc::ContainerFormat::Fcc3;
        cfg.chunkRecords = 64;
        cfg.threads = 1;
        fccc::FccConfig idxCfg = cfg;
        idxCfg.index = true;
        for (int i = 0; i < 2; ++i) {
            trace::WebGenConfig gen;
            gen.seed = 7100 + static_cast<uint64_t>(i);
            gen.durationSec = 3.0;
            gen.flowsPerSec = 40.0;
            trace::Trace tr = trace::WebTrafficGenerator(gen).generate();
            std::string tsh = tempPath(
                ("server_" + std::to_string(i) + ".tsh").c_str());
            trace::writeTshFile(tr, tsh);
            fccc::compressTraceFile(
                tsh, dir + "/arch" + std::to_string(i) + ".fcc",
                idxCfg);
            std::remove(tsh.c_str());
        }
        catalog = std::make_unique<query::ArchiveCatalog>(dir, cfg);
        std::remove(socketPath.c_str());
        query::ServerConfig serverCfg;
        serverCfg.threads = 4;
        server = std::make_unique<query::QueryServer>(
            *catalog,
            util::SocketEndpoint::parse("unix:" + socketPath),
            serverCfg);
        thread = std::thread([this] { server->serve(); });
    }

    ~ServerFixture()
    {
        server->stop();
        thread.join();
        server.reset();
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }

    util::SocketEndpoint
    endpoint() const
    {
        return server->endpoint();
    }
};

ServerFixture &
fixture()
{
    static ServerFixture f;
    return f;
}

std::vector<uint8_t>
tshBytes(const std::vector<trace::PacketRecord> &packets)
{
    std::vector<uint8_t> bytes;
    for (const trace::PacketRecord &p : packets)
        trace::encodeTshRecord(p, bytes);
    return bytes;
}

/** What the server must answer for @p exprText, computed locally. */
std::vector<trace::PacketRecord>
localAnswer(const ServerFixture &f, const std::string &exprText)
{
    trace::Trace out;
    trace::CollectTraceSink sink(out);
    f.catalog->run(query::parseExpr(exprText), sink);
    return out.packets();
}

/**
 * A raw protocol peer: hand-built frames, no QueryClient
 * convenience — the tool for probing malformed input.
 */
struct RawPeer
{
    util::SocketFd fd;

    explicit RawPeer(const util::SocketEndpoint &endpoint)
        : fd(util::connectSocket(endpoint))
    {
    }

    void
    sendFrame(std::span<const uint8_t> body)
    {
        uint8_t len[4] = {
            static_cast<uint8_t>(body.size()),
            static_cast<uint8_t>(body.size() >> 8),
            static_cast<uint8_t>(body.size() >> 16),
            static_cast<uint8_t>(body.size() >> 24),
        };
        util::sendAll(fd.get(), len);
        util::sendAll(fd.get(), body);
    }

    /** @returns false when the server closed the connection. */
    bool
    recvFrame(std::vector<uint8_t> &body)
    {
        uint8_t len[4];
        if (util::recvFully(fd.get(), len, sizeof len) == 0)
            return false;
        uint64_t n = static_cast<uint64_t>(len[0]) |
                     static_cast<uint64_t>(len[1]) << 8 |
                     static_cast<uint64_t>(len[2]) << 16 |
                     static_cast<uint64_t>(len[3]) << 24;
        body.resize(static_cast<size_t>(n));
        if (n > 0)
            util::recvFully(fd.get(), body.data(), body.size());
        return true;
    }

    /** Send @p body, expect a response, return its status byte. */
    query::Status
    statusOf(std::span<const uint8_t> body)
    {
        sendFrame(body);
        std::vector<uint8_t> response;
        EXPECT_TRUE(recvFrame(response));
        EXPECT_GE(response.size(), 2u);
        EXPECT_EQ(response[0], query::protocolVersion);
        return static_cast<query::Status>(response[1]);
    }
};

} // namespace

TEST(Server, PingAndListArchives)
{
    ServerFixture &f = fixture();
    query::QueryClient client(f.endpoint());
    client.ping();

    std::vector<query::ArchiveInfo> archives =
        client.listArchives();
    ASSERT_EQ(archives.size(), 2u);
    for (size_t i = 0; i < archives.size(); ++i) {
        const query::FccArchive &local = f.catalog->archive(i);
        EXPECT_EQ(archives[i].path, local.path());
        EXPECT_TRUE(archives[i].hasIndex);
        EXPECT_EQ(archives[i].fileBytes, local.fileBytes());
        EXPECT_GT(archives[i].chunks, 0u);
    }
}

TEST(Server, QueryBytesIdenticalToLocalRun)
{
    ServerFixture &f = fixture();
    query::QueryClient client(f.endpoint());
    const std::string expr =
        "server in 128.0.0.0/8 or flow.packets >= 20";

    query::QueryResponse resp = client.query(expr);
    std::vector<trace::PacketRecord> want = localAnswer(f, expr);
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(resp.packets, want.size());
    EXPECT_EQ(tshBytes(resp.records), tshBytes(want));
    EXPECT_EQ(resp.stats.packetsMatched, want.size());
    EXPECT_EQ(resp.stats.archives, 2u);

    // Count-only: same totals, no record payload.
    query::QueryResponse count =
        client.query(expr, /*countOnly=*/true);
    EXPECT_EQ(count.packets, want.size());
    EXPECT_TRUE(count.records.empty());

    // Forced full decode: same bytes through the other path.
    query::QueryResponse full = client.query(
        expr, /*countOnly=*/false, /*forceFullDecode=*/true);
    EXPECT_EQ(tshBytes(full.records), tshBytes(want));
    EXPECT_EQ(full.stats.chunksDecoded, full.stats.chunksTotal);
}

TEST(Server, AggregateMatchesLocalRun)
{
    ServerFixture &f = fixture();
    query::QueryClient client(f.endpoint());

    query::AggregateRequest req;
    req.kind = query::AggregateKind::TopTalkers;
    req.topK = 5;
    req.expr = query::parseExpr("flow.packets >= 2");
    query::AggregateResult want = f.catalog->aggregate(req);

    query::AggregateResult got = client.aggregate(
        req.kind, req.topK, "flow.packets >= 2");
    EXPECT_EQ(got.stats.usedIndex, want.stats.usedIndex);
    EXPECT_EQ(got.stats.flowsAggregated,
              want.stats.flowsAggregated);
    EXPECT_EQ(got.stats.bytesTouched, want.stats.bytesTouched);
    ASSERT_EQ(got.servers.size(), want.servers.size());
    for (size_t i = 0; i < got.servers.size(); ++i) {
        EXPECT_EQ(got.servers[i].serverIp,
                  want.servers[i].serverIp);
        EXPECT_EQ(got.servers[i].flows, want.servers[i].flows);
        EXPECT_EQ(got.servers[i].packets,
                  want.servers[i].packets);
        EXPECT_EQ(got.servers[i].wireBytes,
                  want.servers[i].wireBytes);
    }
    EXPECT_EQ(got.histogram, want.histogram);
}

TEST(Server, BadExpressionIsBadRequestAndConnectionSurvives)
{
    ServerFixture &f = fixture();
    query::QueryClient client(f.endpoint());
    EXPECT_THROW(client.query("server in"), util::Error);
    try {
        client.query("server in");
    } catch (const util::Error &e) {
        EXPECT_NE(std::string(e.what()).find("server: "),
                  std::string::npos);
    }
    // The error was answered in-band: the same connection keeps
    // working.
    client.ping();
    EXPECT_FALSE(localAnswer(f, "all").empty());
}

TEST(Server, MalformedFramesGetErrorStatusNotCrash)
{
    ServerFixture &f = fixture();
    RawPeer peer(f.endpoint());

    // Wrong protocol version.
    EXPECT_EQ(peer.statusOf(std::vector<uint8_t>{0x7f, 0x00}),
              query::Status::BadRequest);
    // Unknown opcode.
    EXPECT_EQ(peer.statusOf(std::vector<uint8_t>{
                  query::protocolVersion, 0x09}),
              query::Status::BadRequest);
    // Truncated query payload (flags byte missing).
    EXPECT_EQ(peer.statusOf(std::vector<uint8_t>{
                  query::protocolVersion, 0x02}),
              query::Status::BadRequest);
    // Trailing bytes after a ping.
    EXPECT_EQ(peer.statusOf(std::vector<uint8_t>{
                  query::protocolVersion, 0x00, 0xaa}),
              query::Status::BadRequest);
    // Unknown aggregate kind (kind=9, topK=1, expr "all").
    {
        util::ByteWriter w;
        w.u8(query::protocolVersion);
        w.u8(static_cast<uint8_t>(query::Opcode::Aggregate));
        w.u8(9);
        w.u32(1);
        const char *text = "all";
        w.blob(std::span<const uint8_t>(
            reinterpret_cast<const uint8_t *>(text), 3));
        EXPECT_EQ(peer.statusOf(w.take()),
                  query::Status::BadRequest);
    }
    // An empty frame (no version byte at all).
    EXPECT_EQ(peer.statusOf(std::vector<uint8_t>{}),
              query::Status::BadRequest);
    // The connection survived every error above.
    EXPECT_EQ(peer.statusOf(std::vector<uint8_t>{
                  query::protocolVersion, 0x00}),
              query::Status::Ok);
}

TEST(Server, OversizedFrameClosesConnection)
{
    ServerFixture &f = fixture();
    RawPeer peer(f.endpoint());
    // Announce a frame larger than the server's 1 MiB request cap;
    // the server cannot trust anything that follows, so it hangs
    // up instead of answering.
    uint8_t len[4] = {0xff, 0xff, 0xff, 0xff};
    util::sendAll(peer.fd.get(), len);
    std::vector<uint8_t> response;
    EXPECT_FALSE(peer.recvFrame(response));

    // A fresh connection is unaffected.
    query::QueryClient client(f.endpoint());
    client.ping();
}

TEST(Server, MidFrameDisconnectLeavesServerServing)
{
    ServerFixture &f = fixture();
    {
        RawPeer peer(f.endpoint());
        // Announce 100 bytes, send 3, vanish.
        uint8_t len[4] = {100, 0, 0, 0};
        util::sendAll(peer.fd.get(), len);
        uint8_t partial[3] = {1, 2, 3};
        util::sendAll(peer.fd.get(), partial);
    }
    query::QueryClient client(f.endpoint());
    client.ping();
}

TEST(Server, ConcurrentClientsGetConsistentAnswers)
{
    ServerFixture &f = fixture();
    const std::string expr =
        "server in 128.0.0.0/8 or flow.packets >= 10";
    const std::vector<uint8_t> want = tshBytes(localAnswer(f, expr));
    ASSERT_FALSE(want.empty());

    constexpr int kClients = 8;
    constexpr int kRequests = 12;
    std::atomic<int> failures{0};
    uint64_t before = f.server->requestsServed();

    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            try {
                query::QueryClient client(f.endpoint());
                for (int i = 0; i < kRequests; ++i) {
                    switch ((c + i) % 3) {
                    case 0: {
                        query::QueryResponse resp =
                            client.query(expr);
                        if (tshBytes(resp.records) != want)
                            ++failures;
                        break;
                    }
                    case 1: {
                        query::QueryResponse resp = client.query(
                            expr, /*countOnly=*/true);
                        if (resp.packets * trace::tshRecordBytes !=
                            want.size())
                            ++failures;
                        break;
                    }
                    default: {
                        query::AggregateResult agg =
                            client.aggregate(
                                query::AggregateKind::FlowCounts,
                                10, expr);
                        if (agg.servers.empty())
                            ++failures;
                        break;
                    }
                    }
                }
            } catch (const std::exception &) {
                ++failures;
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_GE(f.server->requestsServed() - before,
              uint64_t{kClients} * kRequests);
}

TEST(Server, TcpEphemeralPortRoundTrip)
{
    ServerFixture &f = fixture();
    query::QueryServer server(
        *f.catalog, util::SocketEndpoint::parse("tcp:127.0.0.1:0"));
    EXPECT_NE(server.endpoint().port, 0);
    std::thread t([&] { server.serve(); });
    {
        query::QueryClient client(server.endpoint());
        client.ping();
        EXPECT_EQ(client.listArchives().size(), 2u);
    }
    server.stop();
    t.join();
}

#else // !(__unix__ || __APPLE__)

TEST(Server, SkippedOnThisPlatform)
{
    GTEST_SKIP() << "fccserve requires POSIX sockets";
}

#endif

