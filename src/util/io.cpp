/**
 * @file
 * ByteSource implementations: buffered stdio reads, mmap with
 * sequential-access advice and consumed-prefix release, memory and
 * generator adapters, the refillable read window, and the
 * mmap-or-stdio factory.
 */

#include "util/io.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "util/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define FCC_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define FCC_HAVE_MMAP 0
#endif

namespace fcc::util {

// ---- BufferByteSource ----------------------------------------------

size_t
BufferByteSource::read(uint8_t *out, size_t maxLen)
{
    size_t n = std::min(maxLen, view_.size() - pos_);
    if (n == 0)
        return 0;  // empty views may have a null data()
    std::memcpy(out, view_.data() + pos_, n);
    pos_ += n;
    return n;
}

// ---- FileByteSource ------------------------------------------------

FileByteSource::FileByteSource(const std::string &path)
    : file_(std::fopen(path.c_str(), "rb"))
{
    require(file_ != nullptr, "cannot open file: " + path);
}

size_t
FileByteSource::read(uint8_t *out, size_t maxLen)
{
    size_t n = std::fread(out, 1, maxLen, file_.get());
    require(n > 0 || !std::ferror(file_.get()),
            "file read error");
    return n;
}

// ---- MmapByteSource ------------------------------------------------

bool
MmapByteSource::supported()
{
    return FCC_HAVE_MMAP != 0;
}

#if FCC_HAVE_MMAP

namespace {
/** Release granularity: how much consumed data to keep resident. */
constexpr size_t releaseChunk = 64u << 20;
} // namespace

MmapByteSource::MmapByteSource(const std::string &path)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    require(fd >= 0, "cannot open file: " + path);
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        throw Error("cannot stat file: " + path);
    }
    size_ = static_cast<size_t>(st.st_size);
    if (size_ > 0) {
        map_ = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
        if (map_ == MAP_FAILED) {
            ::close(fd);
            throw Error("cannot mmap file: " + path);
        }
        ::madvise(map_, size_, MADV_SEQUENTIAL);
    }
    ::close(fd);
}

MmapByteSource::~MmapByteSource()
{
    if (map_ != nullptr)
        ::munmap(map_, size_);
}

size_t
MmapByteSource::read(uint8_t *out, size_t maxLen)
{
    size_t n = std::min(maxLen, size_ - pos_);
    if (n == 0)
        return 0;  // zero-byte files never map (map_ is null)
    std::memcpy(out, static_cast<const uint8_t *>(map_) + pos_, n);
    pos_ += n;

    // Drop fully consumed pages so RSS stays bounded on huge files.
    if (pos_ - released_ >= 2 * releaseChunk) {
        size_t upTo = (pos_ - releaseChunk) & ~(releaseChunk - 1);
        if (upTo > released_) {
            ::madvise(static_cast<uint8_t *>(map_) + released_,
                      upTo - released_, MADV_DONTNEED);
            released_ = upTo;
        }
    }
    return n;
}

std::span<const uint8_t>
MmapByteSource::contiguous() const
{
    return {static_cast<const uint8_t *>(map_) + pos_, size_ - pos_};
}

#else // !FCC_HAVE_MMAP

MmapByteSource::MmapByteSource(const std::string &path)
{
    (void)path;
    throw Error("mmap is not supported on this platform");
}

MmapByteSource::~MmapByteSource() = default;

size_t
MmapByteSource::read(uint8_t *, size_t)
{
    return 0;
}

std::span<const uint8_t>
MmapByteSource::contiguous() const
{
    return {};
}

#endif // FCC_HAVE_MMAP

// ---- GeneratorByteSource -------------------------------------------

size_t
GeneratorByteSource::read(uint8_t *out, size_t maxLen)
{
    if (done_ || maxLen == 0)
        return 0;
    size_t n = gen_(out, maxLen);
    if (n == 0)
        done_ = true;
    return n;
}

// ---- PrefixedByteSource --------------------------------------------

size_t
PrefixedByteSource::read(uint8_t *out, size_t maxLen)
{
    if (pos_ < prefix_.size()) {
        size_t n = std::min(maxLen, prefix_.size() - pos_);
        std::memcpy(out, prefix_.data() + pos_, n);
        pos_ += n;
        return n;
    }
    return rest_ ? rest_->read(out, maxLen) : 0;
}

// ---- ReadWindow ----------------------------------------------------

bool
ReadWindow::refill(size_t n, const char *what)
{
    size_t have = end_ - pos_;
    if (n + refillBytes > cap_) {
        // Grow without zero-filling: only bytes read are touched.
        size_t cap = std::max(n, size_t{4096}) + refillBytes;
        std::unique_ptr<uint8_t[]> grown(new uint8_t[cap]);
        if (have > 0)
            std::memcpy(grown.get(), buf_.get() + pos_, have);
        buf_ = std::move(grown);
        cap_ = cap;
    } else if (pos_ > 0 && have > 0) {
        std::memmove(buf_.get(), buf_.get() + pos_, have);
    }
    pos_ = 0;
    end_ = have;
    while (end_ < n) {
        size_t got = src_->read(buf_.get() + end_, cap_ - end_);
        if (got == 0) {
            require(end_ == 0, what);
            return false;
        }
        end_ += got;
    }
    return true;
}

// ---- FileByteSink --------------------------------------------------

FileByteSink::FileByteSink(const std::string &path)
    : file_(std::fopen(path.c_str(), "wb"))
{
    require(file_ != nullptr, "cannot open output file: " + path);
}

FileByteSink::~FileByteSink()
{
    if (file_ != nullptr)
        std::fclose(file_);  // best effort; close() reports errors
}

void
FileByteSink::write(std::span<const uint8_t> data)
{
    require(file_ != nullptr, "write to closed sink");
    if (data.empty())
        return;
    size_t n = std::fwrite(data.data(), 1, data.size(), file_);
    require(n == data.size(), "short write");
    written_ += n;
}

void
FileByteSink::close()
{
    if (file_ == nullptr)
        return;
    int rc = std::fflush(file_);
    rc |= std::fclose(file_);
    file_ = nullptr;
    require(rc == 0, "error closing output file");
}

// ---- factory -------------------------------------------------------

std::unique_ptr<ByteSource>
openByteSource(const std::string &path)
{
#if FCC_HAVE_MMAP
    // Map only a regular file with bytes in it, decided before any
    // open(): a FIFO, pipe or /proc file reports size 0, and opening
    // a FIFO's read end just to probe it SIGPIPEs its writer.
    struct stat st;
    if (::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode) &&
        st.st_size > 0)
        return std::make_unique<MmapByteSource>(path);
#endif
    return std::make_unique<FileByteSource>(path);
}

std::span<const uint8_t>
readAllBytes(ByteSource &src, std::vector<uint8_t> &owned)
{
    std::span<const uint8_t> bytes = src.contiguous();
    if (!bytes.empty())
        return bytes;
    uint8_t buf[1 << 16];
    size_t got;
    while ((got = src.read(buf, sizeof(buf))) > 0)
        owned.insert(owned.end(), buf, buf + got);
    return {owned.data(), owned.size()};
}

// ---- sockets --------------------------------------------------------

SocketEndpoint
SocketEndpoint::parse(const std::string &text)
{
    if (text.rfind("unix:", 0) == 0) {
        SocketEndpoint e;
        e.kind = Kind::Unix;
        e.path = text.substr(5);
        require(!e.path.empty(),
                "endpoint: unix: requires a socket path");
        return e;
    }
    if (text.rfind("tcp:", 0) == 0) {
        SocketEndpoint e;
        e.kind = Kind::Tcp;
        std::string rest = text.substr(4);
        size_t colon = rest.rfind(':');
        require(colon != std::string::npos,
                "endpoint: tcp: requires host:port");
        e.host = rest.substr(0, colon);
        std::string portText = rest.substr(colon + 1);
        require(!portText.empty(), "endpoint: missing port");
        uint32_t port = 0;
        for (char c : portText) {
            require(c >= '0' && c <= '9',
                    "endpoint: malformed port");
            port = port * 10 + static_cast<uint32_t>(c - '0');
            require(port <= 65535, "endpoint: port out of range");
        }
        e.port = static_cast<uint16_t>(port);
        return e;
    }
    throw Error("endpoint: expected 'unix:/path' or "
                "'tcp:host:port', got '" +
                text + "'");
}

std::string
SocketEndpoint::str() const
{
    if (kind == Kind::Unix)
        return "unix:" + path;
    return "tcp:" + host + ":" + std::to_string(port);
}

#if FCC_HAVE_MMAP
#define FCC_HAVE_SOCKETS 1
#else
#define FCC_HAVE_SOCKETS 0
#endif

#if FCC_HAVE_SOCKETS

} // namespace fcc::util

#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>

#include <cerrno>

namespace fcc::util {

namespace {

[[noreturn]] void
socketError(const std::string &what)
{
    throw Error(what + ": " + std::strerror(errno));
}

SocketFd
tcpSocket(const SocketEndpoint &endpoint, bool forListen)
{
    std::string host = endpoint.host;
    if (host.empty())
        host = forListen ? "0.0.0.0" : "127.0.0.1";
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    if (forListen)
        hints.ai_flags = AI_PASSIVE;
    addrinfo *res = nullptr;
    std::string portText = std::to_string(endpoint.port);
    int rc = ::getaddrinfo(host.c_str(), portText.c_str(), &hints,
                           &res);
    if (rc != 0)
        throw Error("endpoint: cannot resolve '" + host +
                    "': " + gai_strerror(rc));
    std::string lastError = "no usable address";
    for (addrinfo *ai = res; ai; ai = ai->ai_next) {
        SocketFd fd(::socket(ai->ai_family, ai->ai_socktype,
                             ai->ai_protocol));
        if (!fd.valid())
            continue;
        if (forListen) {
            int one = 1;
            ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one,
                         sizeof one);
            if (::bind(fd.get(), ai->ai_addr, ai->ai_addrlen) ==
                0) {
                ::freeaddrinfo(res);
                return fd;
            }
        } else if (::connect(fd.get(), ai->ai_addr,
                             ai->ai_addrlen) == 0) {
            ::freeaddrinfo(res);
            return fd;
        }
        lastError = std::strerror(errno);
    }
    ::freeaddrinfo(res);
    throw Error("socket " + endpoint.str() + ": " + lastError);
}

sockaddr_un
unixAddress(const SocketEndpoint &endpoint)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    require(endpoint.path.size() < sizeof(addr.sun_path),
            "endpoint: unix socket path too long");
    std::memcpy(addr.sun_path, endpoint.path.c_str(),
                endpoint.path.size() + 1);
    return addr;
}

} // namespace

void
SocketFd::reset()
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
}

uint16_t
SocketFd::localPort() const
{
    sockaddr_storage addr{};
    socklen_t len = sizeof addr;
    if (::getsockname(fd_, reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0)
        socketError("getsockname");
    if (addr.ss_family == AF_INET)
        return ntohs(
            reinterpret_cast<const sockaddr_in *>(&addr)->sin_port);
    if (addr.ss_family == AF_INET6)
        return ntohs(reinterpret_cast<const sockaddr_in6 *>(&addr)
                         ->sin6_port);
    throw Error("localPort: not an IP socket");
}

SocketFd
listenSocket(const SocketEndpoint &endpoint)
{
    // Pending connections the kernel queues before accept().
    constexpr int backlog = 16;
    if (endpoint.kind == SocketEndpoint::Kind::Unix) {
        SocketFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
        if (!fd.valid())
            socketError("socket(AF_UNIX)");
        sockaddr_un addr = unixAddress(endpoint);
        ::unlink(endpoint.path.c_str());  // stale socket file
        if (::bind(fd.get(), reinterpret_cast<sockaddr *>(&addr),
                   sizeof addr) != 0)
            socketError("bind " + endpoint.str());
        if (::listen(fd.get(), backlog) != 0)
            socketError("listen " + endpoint.str());
        return fd;
    }
    SocketFd fd = tcpSocket(endpoint, true);
    if (::listen(fd.get(), backlog) != 0)
        socketError("listen " + endpoint.str());
    return fd;
}

SocketFd
connectSocket(const SocketEndpoint &endpoint)
{
    if (endpoint.kind == SocketEndpoint::Kind::Unix) {
        SocketFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
        if (!fd.valid())
            socketError("socket(AF_UNIX)");
        sockaddr_un addr = unixAddress(endpoint);
        if (::connect(fd.get(),
                      reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) != 0)
            socketError("connect " + endpoint.str());
        return fd;
    }
    return tcpSocket(endpoint, false);
}

void
sendAll(int fd, std::span<const uint8_t> data)
{
#ifdef MSG_NOSIGNAL
    constexpr int sendFlags = MSG_NOSIGNAL;
#else
    constexpr int sendFlags = 0;
#endif
    size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::send(fd, data.data() + off,
                           data.size() - off, sendFlags);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            socketError("send");
        }
        off += static_cast<size_t>(n);
    }
}

size_t
recvFully(int fd, uint8_t *out, size_t len)
{
    size_t total = 0;
    while (total < len) {
        ssize_t n = ::recv(fd, out + total, len - total, 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            socketError("recv");
        }
        if (n == 0) {
            require(total == 0,
                    "socket: connection closed mid-frame");
            return 0;
        }
        total += static_cast<size_t>(n);
    }
    return total;
}

#else  // !FCC_HAVE_SOCKETS

namespace {
[[noreturn]] void
noSockets()
{
    throw Error("sockets are not supported on this platform");
}
} // namespace

void
SocketFd::reset()
{
    fd_ = -1;
}

uint16_t
SocketFd::localPort() const
{
    noSockets();
}

SocketFd
listenSocket(const SocketEndpoint &)
{
    noSockets();
}

SocketFd
connectSocket(const SocketEndpoint &)
{
    noSockets();
}

void
sendAll(int, std::span<const uint8_t>)
{
    noSockets();
}

size_t
recvFully(int, uint8_t *, size_t)
{
    noSockets();
}

#endif // FCC_HAVE_SOCKETS

} // namespace fcc::util
