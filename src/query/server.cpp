/**
 * @file
 * QueryServer / QueryClient implementation. Wire layout is specified
 * in docs/PROTOCOL.md; keep the two in lockstep.
 */

#include "query/server.hpp"

#include "trace/tsh.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define FCC_HAVE_SERVER 1
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#else
#define FCC_HAVE_SERVER 0
#endif

namespace fcc::query {

namespace {

/** Hard cap the server accepts for one request frame (1 MiB). */
constexpr uint64_t maxRequestBytes = uint64_t{1} << 20;

/** Hard cap a client accepts for one response frame (1 GiB). */
constexpr uint64_t maxResponseBytes = uint64_t{1} << 30;

void
writeFrame(int fd, std::span<const uint8_t> body)
{
    uint8_t len[4];
    uint64_t n = body.size();
    util::require(n <= 0xffffffffu, "protocol: frame too large");
    len[0] = static_cast<uint8_t>(n);
    len[1] = static_cast<uint8_t>(n >> 8);
    len[2] = static_cast<uint8_t>(n >> 16);
    len[3] = static_cast<uint8_t>(n >> 24);
    util::sendAll(fd, len);
    util::sendAll(fd, body);
}

/**
 * Read one frame. @returns false on a clean end-of-stream between
 * frames. @throws on truncation or a frame beyond @p maxBytes.
 */
bool
readFrame(int fd, uint64_t maxBytes, std::vector<uint8_t> &body)
{
    uint8_t len[4];
    if (util::recvFully(fd, len, sizeof len) == 0)
        return false;
    uint64_t n = static_cast<uint64_t>(len[0]) |
                 static_cast<uint64_t>(len[1]) << 8 |
                 static_cast<uint64_t>(len[2]) << 16 |
                 static_cast<uint64_t>(len[3]) << 24;
    util::require(n <= maxBytes, "protocol: frame exceeds limit");
    body.resize(static_cast<size_t>(n));
    if (n > 0)
        util::recvFully(fd, body.data(), body.size());
    return true;
}

std::string
readText(util::ByteReader &r)
{
    std::span<const uint8_t> view = r.blobView();
    return std::string(reinterpret_cast<const char *>(view.data()),
                       view.size());
}

void
writeText(util::ByteWriter &w, std::string_view text)
{
    w.blob(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t *>(text.data()),
        text.size()));
}

void
writeCatalogStats(util::ByteWriter &w,
                  const CatalogQueryStats &stats)
{
    w.u64(stats.archives);
    w.u64(stats.archivesPruned);
    w.u64(stats.chunksTotal);
    w.u64(stats.chunksDecoded);
    w.u64(stats.fileBytes);
    w.u64(stats.bytesRead);
    w.u64(stats.flowsMatched);
    w.u64(stats.packetsMatched);
}

CatalogQueryStats
readCatalogStats(util::ByteReader &r)
{
    CatalogQueryStats stats;
    stats.archives = r.u64();
    stats.archivesPruned = r.u64();
    stats.chunksTotal = r.u64();
    stats.chunksDecoded = r.u64();
    stats.fileBytes = r.u64();
    stats.bytesRead = r.u64();
    stats.flowsMatched = r.u64();
    stats.packetsMatched = r.u64();
    return stats;
}

void
writeAggregate(util::ByteWriter &w, const AggregateResult &result)
{
    const AggregateStats &s = result.stats;
    w.u8(s.usedIndex ? 1 : 0);
    w.u64(s.chunksTotal);
    w.u64(s.chunksPlanned);
    w.u64(s.fileBytes);
    w.u64(s.bytesTouched);
    w.u64(s.reconstructBytes);
    w.u64(s.flowsAggregated);
    w.varint(result.servers.size());
    for (const ServerAggregate &row : result.servers) {
        w.u32(row.serverIp);
        w.u64(row.flows);
        w.u64(row.packets);
        w.u64(row.wireBytes);
    }
    w.varint(result.histogram.size());
    for (uint64_t n : result.histogram)
        w.u64(n);
}

AggregateResult
readAggregate(util::ByteReader &r)
{
    AggregateResult result;
    AggregateStats &s = result.stats;
    s.usedIndex = r.u8() != 0;
    s.chunksTotal = r.u64();
    s.chunksPlanned = r.u64();
    s.fileBytes = r.u64();
    s.bytesTouched = r.u64();
    s.reconstructBytes = r.u64();
    s.flowsAggregated = r.u64();
    uint64_t servers = r.varint();
    util::require(servers <= r.remaining() / 28,
                  "protocol: server table overruns frame");
    result.servers.reserve(static_cast<size_t>(servers));
    for (uint64_t i = 0; i < servers; ++i) {
        ServerAggregate row;
        row.serverIp = r.u32();
        row.flows = r.u64();
        row.packets = r.u64();
        row.wireBytes = r.u64();
        result.servers.push_back(row);
    }
    uint64_t buckets = r.varint();
    util::require(buckets <= r.remaining() / 8,
                  "protocol: histogram overruns frame");
    result.histogram.assign(static_cast<size_t>(buckets), 0);
    for (uint64_t b = 0; b < buckets; ++b)
        result.histogram[static_cast<size_t>(b)] = r.u64();
    return result;
}

/** Sink streaming matches straight into TSH wire records. */
class TshBytesSink final : public trace::TraceSink
{
  public:
    explicit TshBytesSink(std::vector<uint8_t> &out) : out_(out) {}
    void
    write(std::span<const trace::PacketRecord> batch) override
    {
        for (const trace::PacketRecord &pkt : batch)
            trace::encodeTshRecord(pkt, out_);
        packets_ += batch.size();
    }
    void close() override {}
    uint64_t bytesWritten() const override { return out_.size(); }
    uint64_t packets() const { return packets_; }

  private:
    std::vector<uint8_t> &out_;
    uint64_t packets_ = 0;
};

std::vector<uint8_t>
errorResponse(Status status, const std::string &message)
{
    util::ByteWriter w;
    w.u8(protocolVersion);
    w.u8(static_cast<uint8_t>(status));
    writeText(w, message);
    return w.take();
}

} // namespace

#if FCC_HAVE_SERVER

QueryServer::QueryServer(const ArchiveCatalog &catalog,
                         const util::SocketEndpoint &endpoint,
                         const ServerConfig &cfg)
    : catalog_(catalog), cfg_(cfg), endpoint_(endpoint)
{
    listener_ = util::listenSocket(endpoint_);
    if (endpoint_.kind == util::SocketEndpoint::Kind::Tcp &&
        endpoint_.port == 0)
        endpoint_.port = listener_.localPort();
    if (::pipe(stopPipe_) != 0)
        throw util::Error("server: cannot create stop pipe");
}

QueryServer::~QueryServer()
{
    stop();
    for (int fd : {stopPipe_[0], stopPipe_[1]})
        if (fd >= 0)
            ::close(fd);
    listener_.reset();
    if (endpoint_.kind == util::SocketEndpoint::Kind::Unix)
        ::unlink(endpoint_.path.c_str());
}

void
QueryServer::stop()
{
    if (stopping_.exchange(true))
        return;
    uint8_t byte = 1;
    // Best-effort wakeup; serve() also rechecks the flag.
    [[maybe_unused]] ssize_t n =
        ::write(stopPipe_[1], &byte, 1);
}

void
QueryServer::serve()
{
    util::ThreadPool pool(cfg_.threads);
    while (!stopping_.load()) {
        pollfd fds[2];
        fds[0].fd = listener_.get();
        fds[0].events = POLLIN;
        fds[1].fd = stopPipe_[0];
        fds[1].events = POLLIN;
        int rc = ::poll(fds, 2, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            throw util::Error("server: poll failed");
        }
        if (fds[1].revents != 0 || stopping_.load())
            break;
        if ((fds[0].revents & POLLIN) == 0)
            continue;
        int conn = ::accept(listener_.get(), nullptr, nullptr);
        if (conn < 0)
            continue;  // transient (peer gone before accept)
        {
            std::lock_guard<std::mutex> lock(mutex_);
            connections_.insert(conn);
        }
        pool.submit([this, conn] { handleConnection(conn); });
    }
    // Unblock every job still parked in recv/send, then drain them
    // (the pool destructor runs the remaining queue to completion).
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (int fd : connections_)
            ::shutdown(fd, SHUT_RDWR);
    }
    pool.wait();
}

void
QueryServer::handleConnection(int fd)
{
    try {
        std::vector<uint8_t> body;
        while (!stopping_.load() &&
               readFrame(fd, maxRequestBytes, body)) {
            std::vector<uint8_t> response;
            try {
                response = handleRequest(body);
            } catch (const util::Error &e) {
                response =
                    errorResponse(Status::BadRequest, e.what());
            } catch (const std::exception &e) {
                response =
                    errorResponse(Status::ServerError, e.what());
            }
            requests_.fetch_add(1);
            writeFrame(fd, response);
        }
    } catch (...) {
        // Peer vanished mid-frame or mid-send; nothing to tell it.
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        connections_.erase(fd);
    }
    ::close(fd);
}

#else // !FCC_HAVE_SERVER

QueryServer::QueryServer(const ArchiveCatalog &catalog,
                         const util::SocketEndpoint &endpoint,
                         const ServerConfig &cfg)
    : catalog_(catalog), cfg_(cfg), endpoint_(endpoint)
{
    throw util::Error(
        "fccserve is not supported on this platform");
}

QueryServer::~QueryServer() = default;
void
QueryServer::stop()
{
}
void
QueryServer::serve()
{
}
void
QueryServer::handleConnection(int)
{
}

#endif // FCC_HAVE_SERVER

std::vector<uint8_t>
QueryServer::handleRequest(std::span<const uint8_t> body)
{
    util::ByteReader r(body);
    util::require(r.u8() == protocolVersion,
                  "protocol: unsupported version");
    uint8_t opcode = r.u8();

    util::ByteWriter w;
    w.u8(protocolVersion);
    w.u8(static_cast<uint8_t>(Status::Ok));

    switch (static_cast<Opcode>(opcode)) {
    case Opcode::Ping:
        util::require(r.exhausted(),
                      "protocol: trailing request bytes");
        return w.take();

    case Opcode::ListArchives: {
        util::require(r.exhausted(),
                      "protocol: trailing request bytes");
        w.varint(catalog_.size());
        for (size_t i = 0; i < catalog_.size(); ++i) {
            const FccArchive &a = catalog_.archive(i);
            writeText(w, a.path());
            w.u8(a.hasIndex() ? 1 : 0);
            w.u64(a.fileBytes());
            w.varint(a.hasIndex() ? a.index().chunks.size() : 0);
        }
        return w.take();
    }

    case Opcode::Query: {
        uint8_t flags = r.u8();
        std::string exprText = readText(r);
        util::require(r.exhausted(),
                      "protocol: trailing request bytes");
        Expr expr = parseExpr(exprText);
        bool countOnly = (flags & queryFlagCountOnly) != 0;
        bool full = (flags & queryFlagFullDecode) != 0;

        std::vector<uint8_t> records;
        CatalogQueryStats stats;
        uint64_t packets = 0;
        if (countOnly) {
            NullTraceSink sink;
            stats = catalog_.run(expr, sink, full);
            packets = sink.packets();
        } else {
            TshBytesSink sink(records);
            stats = catalog_.run(expr, sink, full);
            packets = sink.packets();
        }
        writeCatalogStats(w, stats);
        w.u8(countOnly ? 0 : 1);
        w.u64(packets);
        if (!countOnly)
            w.bytes(records);
        return w.take();
    }

    case Opcode::Aggregate: {
        uint8_t kind = r.u8();
        uint32_t topK = r.u32();
        std::string exprText = readText(r);
        util::require(r.exhausted(),
                      "protocol: trailing request bytes");
        util::require(
            kind <= static_cast<uint8_t>(
                        AggregateKind::TopTalkers),
            "protocol: unknown aggregate kind");
        AggregateRequest req;
        req.kind = static_cast<AggregateKind>(kind);
        req.topK = topK;
        req.expr = parseExpr(exprText);
        AggregateResult result = catalog_.aggregate(req);
        writeAggregate(w, result);
        return w.take();
    }
    }
    throw util::Error("protocol: unknown opcode");
}

// ---- client ---------------------------------------------------------

QueryClient::QueryClient(const util::SocketEndpoint &endpoint)
    : fd_(util::connectSocket(endpoint))
{
}

std::vector<uint8_t>
QueryClient::roundTrip(std::span<const uint8_t> request)
{
    writeFrame(fd_.get(), request);
    std::vector<uint8_t> body;
    util::require(readFrame(fd_.get(), maxResponseBytes, body),
                  "protocol: server closed the connection");
    util::ByteReader r(body);
    util::require(r.u8() == protocolVersion,
                  "protocol: unsupported server version");
    Status status = static_cast<Status>(r.u8());
    if (status != Status::Ok) {
        util::ByteReader er(body);
        er.skip(2);
        throw util::Error("server: " + readText(er));
    }
    // Return the payload after the two header bytes.
    return std::vector<uint8_t>(body.begin() + 2, body.end());
}

void
QueryClient::ping()
{
    util::ByteWriter w;
    w.u8(protocolVersion);
    w.u8(static_cast<uint8_t>(Opcode::Ping));
    std::vector<uint8_t> payload = roundTrip(w.take());
    util::require(payload.empty(),
                  "protocol: unexpected ping payload");
}

std::vector<ArchiveInfo>
QueryClient::listArchives()
{
    util::ByteWriter w;
    w.u8(protocolVersion);
    w.u8(static_cast<uint8_t>(Opcode::ListArchives));
    std::vector<uint8_t> payload = roundTrip(w.take());
    util::ByteReader r(payload);
    uint64_t count = r.varint();
    util::require(count <= r.remaining(),
                  "protocol: archive list overruns frame");
    std::vector<ArchiveInfo> out;
    out.reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
        ArchiveInfo info;
        info.path = readText(r);
        info.hasIndex = r.u8() != 0;
        info.fileBytes = r.u64();
        info.chunks = r.varint();
        out.push_back(std::move(info));
    }
    util::require(r.exhausted(),
                  "protocol: trailing response bytes");
    return out;
}

QueryResponse
QueryClient::query(const std::string &exprText, bool countOnly,
                   bool forceFullDecode)
{
    util::ByteWriter w;
    w.u8(protocolVersion);
    w.u8(static_cast<uint8_t>(Opcode::Query));
    uint8_t flags = 0;
    if (countOnly)
        flags |= queryFlagCountOnly;
    if (forceFullDecode)
        flags |= queryFlagFullDecode;
    w.u8(flags);
    writeText(w, exprText);

    std::vector<uint8_t> payload = roundTrip(w.take());
    util::ByteReader r(payload);
    QueryResponse resp;
    resp.stats = readCatalogStats(r);
    bool hasRecords = r.u8() != 0;
    resp.packets = r.u64();
    if (hasRecords) {
        util::require(r.remaining() ==
                          resp.packets * trace::tshRecordBytes,
                      "protocol: record payload size mismatch");
        resp.records.reserve(
            static_cast<size_t>(resp.packets));
        std::span<const uint8_t> raw(
            payload.data() + (payload.size() - r.remaining()),
            r.remaining());
        for (uint64_t i = 0; i < resp.packets; ++i)
            resp.records.push_back(trace::decodeTshRecord(
                raw.data() + i * trace::tshRecordBytes));
    } else {
        util::require(r.exhausted(),
                      "protocol: trailing response bytes");
    }
    return resp;
}

AggregateResult
QueryClient::aggregate(AggregateKind kind, uint32_t topK,
                       const std::string &exprText)
{
    util::ByteWriter w;
    w.u8(protocolVersion);
    w.u8(static_cast<uint8_t>(Opcode::Aggregate));
    w.u8(static_cast<uint8_t>(kind));
    w.u32(topK);
    writeText(w, exprText);
    std::vector<uint8_t> payload = roundTrip(w.take());
    util::ByteReader r(payload);
    AggregateResult result = readAggregate(r);
    util::require(r.exhausted(),
                  "protocol: trailing response bytes");
    return result;
}

} // namespace fcc::query
