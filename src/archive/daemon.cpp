/**
 * @file
 * Daemon::run — recover the catalog, open the input, run the
 * ingest loop (codec/fcc/stream.hpp) and commit what it seals
 * (writer.hpp documents the commit discipline).
 */

#include "archive/daemon.hpp"

#include <cerrno>
#include <cstring>
#include <memory>

#include <sys/socket.h>
#include <unistd.h>

#include "archive/writer.hpp"
#include "util/error.hpp"
#include "util/io.hpp"

namespace fcc::archive {

namespace {

/**
 * A ByteSource over one accepted socket connection: the live-input
 * path. Producers stream flat TSH records; end-of-stream is the
 * peer closing.
 */
class SocketByteSource final : public util::ByteSource
{
  public:
    explicit SocketByteSource(util::SocketFd fd)
        : fd_(std::move(fd))
    {}

    size_t
    read(uint8_t *out, size_t maxLen) override
    {
        for (;;) {
            ssize_t got = ::recv(fd_.get(), out, maxLen, 0);
            if (got >= 0)
                return static_cast<size_t>(got);
            if (errno == EINTR)
                continue;
            throw util::Error(std::string("recv: ") +
                              std::strerror(errno));
        }
    }

  private:
    util::SocketFd fd_;
};

/** Open the configured input as a streaming TraceSource. */
std::unique_ptr<trace::TraceSource>
openInput(const DaemonConfig &config)
{
    if (!config.listen)
        return trace::openTraceSource(config.input,
                                      config.inputFormat);

    util::SocketEndpoint endpoint =
        util::SocketEndpoint::parse(config.input);
    util::SocketFd listener = util::listenSocket(endpoint);
    int fd;
    do {
        fd = ::accept(listener.get(), nullptr, nullptr);
    } while (fd < 0 && errno == EINTR);
    util::require(fd >= 0, std::string("accept: ") +
                               std::strerror(errno));
    if (endpoint.kind == util::SocketEndpoint::Kind::Unix)
        ::unlink(endpoint.path.c_str());
    return std::make_unique<trace::TshSource>(
        std::make_unique<SocketByteSource>(util::SocketFd(fd)));
}

} // namespace

Daemon::Daemon(const DaemonConfig &config) : config_(config)
{
    config_.codec.validate();
    util::require(!config_.outputDir.empty(),
                  "fccd: an output directory is required");
}

DaemonReport
Daemon::run(codec::fcc::IngestControl &control,
            const std::function<void(const CatalogEntry &)> &onSeal)
{
    DaemonReport report;
    report.recovered = recoverCatalog(config_.outputDir).size();

    ArchiveWriter writer(config_.outputDir, config_.prefix);
    codec::fcc::CompressSession session(config_.codec,
                                        config_.session);
    std::unique_ptr<trace::TraceSource> source = openInput(config_);

    codec::fcc::ingest(
        *source, session, config_.ingest, control,
        [&](std::span<const uint8_t> bytes,
            const codec::fcc::SealInfo &info) {
            report.sealed.push_back(writer.commit(bytes, info));
            if (onSeal)
                onSeal(report.sealed.back());
        });
    report.stats = session.stats();
    return report;
}

} // namespace fcc::archive
