/**
 * @file
 * Pull-style byte streams — the bottom layer of the streaming trace
 * I/O subsystem.
 *
 * A ByteSource yields bytes in caller-sized chunks so record parsers
 * above it (TSH, pcap, pcapng) never materialize a whole file. The
 * concrete sources are a memory-mapped file reader (with madvise-based
 * residency trimming so multi-GB inputs stay at a bounded RSS), a
 * buffered stdio fallback, an in-memory span, and a generator adapter
 * used to synthesize arbitrarily large test inputs. openByteSource()
 * maps a regular file when the platform supports mmap and reads
 * everything else (FIFOs, pipes, /proc) through stdio.
 */

#ifndef FCC_UTIL_IO_HPP
#define FCC_UTIL_IO_HPP

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace fcc::util {

/**
 * Pull interface for a finite byte stream.
 *
 * read() fills up to @p maxLen bytes and returns how many were
 * produced; 0 means end of stream (and every later call returns 0).
 * Short reads before the end are allowed — callers that need exact
 * counts should loop (see ReadWindow).
 */
class ByteSource
{
  public:
    virtual ~ByteSource() = default;

    /** Produce up to @p maxLen bytes into @p out ; 0 = end. */
    virtual size_t read(uint8_t *out, size_t maxLen) = 0;

    /**
     * Whole remaining content as one contiguous span, when the
     * implementation holds it anyway (memory buffer, mmap). Empty
     * span = not available; callers must then stream via read().
     * The span is invalidated by read() and by destruction.
     */
    virtual std::span<const uint8_t> contiguous() const { return {}; }
};

/** Non-owning (or owning, via the vector overload) memory source. */
class BufferByteSource : public ByteSource
{
  public:
    /** View @p data ; the memory must outlive the source. */
    explicit BufferByteSource(std::span<const uint8_t> data)
        : view_(data)
    {}

    /** Take ownership of @p data. */
    explicit BufferByteSource(std::vector<uint8_t> data)
        : owned_(std::move(data)),
          view_(owned_.data(), owned_.size())
    {}

    size_t read(uint8_t *out, size_t maxLen) override;

    std::span<const uint8_t> contiguous() const override
    {
        return view_.subspan(pos_);
    }

  private:
    std::vector<uint8_t> owned_;
    std::span<const uint8_t> view_;
    size_t pos_ = 0;
};

/** Buffered stdio file source — the portable fallback. */
class FileByteSource : public ByteSource
{
  public:
    /** @throws fcc::util::Error when the file cannot be opened. */
    explicit FileByteSource(const std::string &path);

    size_t read(uint8_t *out, size_t maxLen) override;

  private:
    struct Closer
    {
        void operator()(std::FILE *f) const
        {
            if (f)
                std::fclose(f);
        }
    };
    std::unique_ptr<std::FILE, Closer> file_;
};

/**
 * Memory-mapped file source.
 *
 * The mapping is advised for sequential access, and the consumed
 * prefix is released (MADV_DONTNEED) every ~64 MiB so reading a
 * multi-GB trace keeps resident memory bounded instead of paging the
 * whole file in. contiguous() exposes the remaining mapping, which
 * lets zero-copy consumers (the gzip decorator, whole-buffer parsers)
 * skip the memcpy.
 */
class MmapByteSource : public ByteSource
{
  public:
    /** True when this platform supports mmap at all. */
    static bool supported();

    /** @throws fcc::util::Error when the file cannot be mapped. */
    explicit MmapByteSource(const std::string &path);
    ~MmapByteSource() override;

    MmapByteSource(const MmapByteSource &) = delete;
    MmapByteSource &operator=(const MmapByteSource &) = delete;

    size_t read(uint8_t *out, size_t maxLen) override;

    std::span<const uint8_t> contiguous() const override;

  private:
    void *map_ = nullptr;
    size_t size_ = 0;
    size_t pos_ = 0;
    size_t released_ = 0;  ///< bytes already MADV_DONTNEED'd
};

/**
 * Adapter that pulls bytes from a callback — used to synthesize
 * arbitrarily large logical streams (bounded-memory tests, load
 * generators) without touching the disk. The callback fills up to
 * maxLen bytes and returns the count; 0 ends the stream.
 */
class GeneratorByteSource : public ByteSource
{
  public:
    using Generator = std::function<size_t(uint8_t *out, size_t maxLen)>;

    explicit GeneratorByteSource(Generator gen) : gen_(std::move(gen)) {}

    size_t read(uint8_t *out, size_t maxLen) override;

  private:
    Generator gen_;
    bool done_ = false;
};

/**
 * Replays an already-read prefix (format sniffing) before delegating
 * to the underlying source for the rest of the stream.
 */
class PrefixedByteSource : public ByteSource
{
  public:
    PrefixedByteSource(std::vector<uint8_t> prefix,
                       std::unique_ptr<ByteSource> rest)
        : prefix_(std::move(prefix)), rest_(std::move(rest))
    {}

    size_t read(uint8_t *out, size_t maxLen) override;

  private:
    std::vector<uint8_t> prefix_;
    size_t pos_ = 0;
    std::unique_ptr<ByteSource> rest_;
};

/**
 * A refillable read window over a ByteSource, for record parsers that
 * read in place. fill(n) makes the next @p n bytes contiguous at
 * data(); consume(n) steps past a parsed record. A refill moves the
 * unconsumed tail to the front and pulls at least refillBytes more,
 * so a pointer into the window is valid until the next fill().
 * Callers validate a record's length before asking for it: the
 * window grows to whatever one fill() asks for.
 */
class ReadWindow
{
  public:
    /** Least free space offered to each refill's reads. */
    static constexpr size_t refillBytes = size_t{1} << 16;

    explicit ReadWindow(std::unique_ptr<ByteSource> src)
        : src_(std::move(src))
    {}

    /**
     * Make at least @p n bytes available at data().
     * @returns false on a clean end of stream: no byte left.
     * @throws fcc::util::Error tagged with @p what when the stream
     *         ends with between 1 and n - 1 bytes left.
     */
    bool
    fill(size_t n, const char *what)
    {
        return end_ - pos_ >= n || refill(n, what);
    }

    const uint8_t *data() const { return buf_.get() + pos_; }

    /** Step past @p n bytes of a previous fill(). */
    void consume(size_t n) { pos_ += n; }

  private:
    bool refill(size_t n, const char *what);

    std::unique_ptr<ByteSource> src_;
    std::unique_ptr<uint8_t[]> buf_;
    size_t cap_ = 0;
    size_t pos_ = 0;  ///< first unconsumed byte
    size_t end_ = 0;  ///< end of the bytes read so far
};

/**
 * Push interface for a finite byte stream — the write-side twin of
 * ByteSource. close() finalizes the stream (flush, error check) and
 * is idempotent; destruction without close() is best-effort.
 */
class ByteSink
{
  public:
    virtual ~ByteSink() = default;

    /** Append @p data. @throws fcc::util::Error on I/O failure. */
    virtual void write(std::span<const uint8_t> data) = 0;

    /** Flush and finalize. @throws fcc::util::Error on I/O failure. */
    virtual void close() = 0;

    /** Total bytes accepted so far. */
    virtual uint64_t bytesWritten() const = 0;
};

/** Buffered stdio file sink. */
class FileByteSink : public ByteSink
{
  public:
    /** @throws fcc::util::Error when the file cannot be opened. */
    explicit FileByteSink(const std::string &path);
    ~FileByteSink() override;

    void write(std::span<const uint8_t> data) override;
    void close() override;
    uint64_t bytesWritten() const override { return written_; }

  private:
    std::FILE *file_ = nullptr;
    uint64_t written_ = 0;
};

/** Sink that accumulates into an in-memory vector. */
class VectorByteSink : public ByteSink
{
  public:
    void write(std::span<const uint8_t> data) override
    {
        buf_.insert(buf_.end(), data.begin(), data.end());
    }
    void close() override {}
    uint64_t bytesWritten() const override { return buf_.size(); }

    /** Move the accumulated bytes out. */
    std::vector<uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<uint8_t> buf_;
};

/**
 * Open @p path for streaming reads: memory-mapped when it names a
 * non-empty regular file and the platform allows, buffered stdio
 * otherwise (a FIFO, a pipe such as /dev/stdin, a /proc file).
 *
 * @throws fcc::util::Error when the file cannot be opened.
 */
std::unique_ptr<ByteSource> openByteSource(const std::string &path);

/**
 * The whole remaining stream of @p src as one span: zero-copy via
 * contiguous() when the source is mmap'd or in-memory, otherwise
 * drained into @p owned. The span is valid while both @p src and
 * @p owned live (and no further read() is issued).
 */
std::span<const uint8_t> readAllBytes(ByteSource &src,
                                      std::vector<uint8_t> &owned);

// ---- sockets --------------------------------------------------------
//
// Minimal blocking-socket layer for the query serving subsystem
// (query/server.hpp): endpoint addressing, listen/connect, and
// exact-count send/receive. POSIX only — on platforms without BSD
// sockets every entry point throws fcc::util::Error, mirroring how
// MmapByteSource degrades.

/**
 * A serving address: `unix:/path/to.sock` or `tcp:host:port`.
 * For TCP, an empty host means "every interface" when listening and
 * localhost when connecting; port 0 asks the kernel for an
 * ephemeral port (read it back with SocketFd::localPort()).
 */
struct SocketEndpoint
{
    enum class Kind : uint8_t
    {
        Unix,
        Tcp,
    };

    Kind kind = Kind::Unix;
    std::string path;  ///< Unix: filesystem path of the socket
    std::string host;  ///< TCP: address or name
    uint16_t port = 0; ///< TCP

    /** Parse the text form. @throws fcc::util::Error */
    static SocketEndpoint parse(const std::string &text);

    /** Canonical text form ("unix:/x", "tcp:host:port"). */
    std::string str() const;
};

/** Owning socket file descriptor (close on destruction). */
class SocketFd
{
  public:
    SocketFd() = default;
    explicit SocketFd(int fd) : fd_(fd) {}
    ~SocketFd() { reset(); }

    SocketFd(SocketFd &&other) noexcept : fd_(other.fd_)
    {
        other.fd_ = -1;
    }
    SocketFd &
    operator=(SocketFd &&other) noexcept
    {
        if (this != &other) {
            reset();
            fd_ = other.fd_;
            other.fd_ = -1;
        }
        return *this;
    }
    SocketFd(const SocketFd &) = delete;
    SocketFd &operator=(const SocketFd &) = delete;

    int get() const { return fd_; }
    bool valid() const { return fd_ >= 0; }

    /** Close now (idempotent). */
    void reset();

    /** Release ownership without closing. */
    int
    release()
    {
        int fd = fd_;
        fd_ = -1;
        return fd;
    }

    /** The locally bound TCP port (after listenSocket with port 0).
     *  @throws fcc::util::Error on a non-IP socket. */
    uint16_t localPort() const;

  private:
    int fd_ = -1;
};

/**
 * Bind + listen on @p endpoint. A Unix endpoint unlinks a stale
 * socket file first; callers should unlink the path again after the
 * listener closes. @throws fcc::util::Error
 */
SocketFd listenSocket(const SocketEndpoint &endpoint);

/** Blocking connect to @p endpoint. @throws fcc::util::Error */
SocketFd connectSocket(const SocketEndpoint &endpoint);

/** Send all of @p data (loops over partial sends, no SIGPIPE).
 *  @throws fcc::util::Error when the peer goes away. */
void sendAll(int fd, std::span<const uint8_t> data);

/**
 * Receive exactly @p len bytes.
 * @returns @p len, or 0 on a clean end-of-stream before the first
 *          byte (peer closed between frames).
 * @throws fcc::util::Error when the stream ends mid-way or on a
 *         socket error.
 */
size_t recvFully(int fd, uint8_t *out, size_t len);

} // namespace fcc::util

#endif // FCC_UTIL_IO_HPP
