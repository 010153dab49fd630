/**
 * @file
 * fccserve — the query serving layer: a QueryServer exposing one
 * ArchiveCatalog over a Unix or TCP socket, and the QueryClient the
 * tools and tests speak to it with.
 *
 * Protocol (normative spec: docs/PROTOCOL.md): both directions carry
 * length-prefixed frames — a little-endian u32 byte count, then that
 * many body bytes. A request body is `u8 version, u8 opcode,
 * op-specific payload`; a response body is `u8 version, u8 status,
 * payload` (an error payload is a varint-length message string).
 * Query results travel as 44-byte TSH records — the same encoding
 * `fccquery --out FILE --out-format tsh` writes, which is what makes
 * server and local results byte-comparable. Aggregates travel as
 * their full result model (per-server table + histogram); top-K
 * truncation is a render-time concern.
 *
 * Concurrency: the server owns one accept loop (serve(), blocking)
 * and a util::ThreadPool; every accepted connection becomes one pool
 * job that handles its requests sequentially, so concurrent clients
 * are served by concurrent pool workers against the shared immutable
 * catalog (FccArchive query paths are const and thread-safe). stop()
 * is thread-safe: it wakes the accept loop via a self-pipe, open
 * connections are shut down, and serve() returns once every job has
 * drained.
 */

#ifndef FCC_QUERY_SERVER_HPP
#define FCC_QUERY_SERVER_HPP

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "query/aggregate.hpp"
#include "query/catalog.hpp"
#include "util/io.hpp"

namespace fcc::query {

/** Protocol version byte both sides send. */
constexpr uint8_t protocolVersion = 1;

/** Request opcodes. */
enum class Opcode : uint8_t
{
    Ping = 0,
    ListArchives = 1,
    Query = 2,
    Aggregate = 3,
};

/** Response status byte. */
enum class Status : uint8_t
{
    Ok = 0,
    BadRequest = 1,   ///< malformed frame, bad expression, ...
    ServerError = 2,  ///< archive-side failure
};

/** Query request flag bits. */
constexpr uint8_t queryFlagCountOnly = 0x01;
constexpr uint8_t queryFlagFullDecode = 0x02;

/** Server tuning. */
struct ServerConfig
{
    /** Pool workers = concurrent requests (0 = hardware threads). */
    uint32_t threads = 0;
};

/**
 * Serves one immutable catalog on one endpoint. Construction binds
 * and listens (so the endpoint is ready — and an ephemeral TCP port
 * resolved — before any thread enters serve()).
 */
class QueryServer
{
  public:
    /** @throws fcc::util::Error when the endpoint cannot be bound. */
    QueryServer(const ArchiveCatalog &catalog,
                const util::SocketEndpoint &endpoint,
                const ServerConfig &cfg = {});
    ~QueryServer();

    QueryServer(const QueryServer &) = delete;
    QueryServer &operator=(const QueryServer &) = delete;

    /** The bound endpoint (TCP port 0 resolved to the real port). */
    const util::SocketEndpoint &endpoint() const { return endpoint_; }

    /**
     * Accept loop: blocks until stop(). Each accepted connection is
     * handled as one thread-pool job; returns after every job has
     * drained.
     */
    void serve();

    /** Wake serve() and shut it down. Thread-safe, idempotent. */
    void stop();

    /** Requests answered so far (any status). */
    uint64_t
    requestsServed() const
    {
        return requests_.load();
    }

  private:
    void handleConnection(int fd);
    std::vector<uint8_t>
    handleRequest(std::span<const uint8_t> body);

    const ArchiveCatalog &catalog_;
    ServerConfig cfg_;
    util::SocketEndpoint endpoint_;
    util::SocketFd listener_;
    int stopPipe_[2] = {-1, -1};
    std::atomic<bool> stopping_{false};
    std::atomic<uint64_t> requests_{0};
    std::mutex mutex_;             ///< guards connections_
    std::set<int> connections_;    ///< fds owned by live jobs
};

/** One catalog member as reported by ListArchives. */
struct ArchiveInfo
{
    std::string path;
    bool hasIndex = false;
    uint64_t fileBytes = 0;
    uint64_t chunks = 0;
};

/** A filter query's answer. */
struct QueryResponse
{
    CatalogQueryStats stats;
    uint64_t packets = 0;
    /** Empty for count-only queries. */
    std::vector<trace::PacketRecord> records;
};

/**
 * Blocking client for the fccserve protocol: one connection, one
 * outstanding request at a time.
 */
class QueryClient
{
  public:
    /** Connects. @throws fcc::util::Error */
    explicit QueryClient(const util::SocketEndpoint &endpoint);

    /** Round-trip an empty request. @throws on protocol mismatch. */
    void ping();

    std::vector<ArchiveInfo> listArchives();

    /**
     * Run @p exprText (the grammar of query/expr.hpp) server-side.
     * @throws fcc::util::Error with the server's message on a
     *         BadRequest/ServerError status.
     */
    QueryResponse query(const std::string &exprText,
                        bool countOnly = false,
                        bool forceFullDecode = false);

    /** Run an aggregate server-side; @p exprText as in query(). */
    AggregateResult aggregate(AggregateKind kind, uint32_t topK,
                              const std::string &exprText);

  private:
    std::vector<uint8_t>
    roundTrip(std::span<const uint8_t> request);

    util::SocketFd fd_;
};

} // namespace fcc::query

#endif // FCC_QUERY_SERVER_HPP
