/**
 * @file
 * Daemon::run — ingest, pace, rotate, seal (daemon.hpp documents
 * the policies; writer.hpp the commit discipline it leans on).
 */

#include "archive/daemon.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "archive/writer.hpp"
#include "util/error.hpp"
#include "util/io.hpp"

namespace fcc::archive {

namespace {

using Clock = std::chrono::steady_clock;

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
Daemon::run(DaemonControl &control,
            const std::function<void(const CatalogEntry &)> &onSeal)
{
    DaemonReport report;
    report.recovered = recoverCatalog(config_.outputDir).size();

    ArchiveWriter writer(config_.outputDir, config_.prefix);
    codec::fcc::CompressSession session(config_.codec,
                                        config_.session);
    std::unique_ptr<trace::TraceSource> source =
        openInput(config_);

    const RotationPolicy &policy = config_.rotation;
    uint64_t sinceChunk = 0;   // packets fed since the last cut
    uint64_t epochFed = 0;     // packets fed this epoch
    uint64_t totalFed = 0;
    uint64_t lastInputBytes = 0;
    Clock::time_point started = Clock::now();
    Clock::time_point chunkStart = started;
    Clock::time_point epochStart = started;

    auto wallMs = [](Clock::time_point since) {
        return static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                Clock::now() - since)
                .count());
    };

    auto sealEpoch = [&] {
        if (epochFed == 0) {
            // Idle epoch: nothing buffered, nothing written — just
            // restart the clocks.
            chunkStart = epochStart = Clock::now();
            sinceChunk = 0;
            return;
        }
        codec::fcc::SealInfo info;
        std::vector<uint8_t> bytes = session.seal(&info);
        CatalogEntry entry = writer.commit(bytes, info);
        report.sealed.push_back(entry);
        if (onSeal)
            onSeal(entry);
        session.reArm();
        epochFed = 0;
        sinceChunk = 0;
        chunkStart = epochStart = Clock::now();
    };

    std::vector<trace::PacketRecord> batch(256);
    for (;;) {
        if (control.stop.load(std::memory_order_relaxed))
            break;
        if (control.rotateNow.exchange(
                false, std::memory_order_relaxed))
            sealEpoch();

        size_t got = source->read(batch);
        if (got == 0)
            break;

        for (size_t i = 0; i < got; ++i) {
            session.feed(batch[i]);
            ++epochFed;
            ++totalFed;
            if (policy.chunkRecords != 0 &&
                ++sinceChunk >= policy.chunkRecords) {
                session.rotateChunk();
                sinceChunk = 0;
                chunkStart = Clock::now();
            }
            if (policy.archiveRecords != 0 &&
                epochFed >= policy.archiveRecords)
                sealEpoch();
        }
        uint64_t consumed = source->bytesConsumed();
        session.addInputBytes(consumed - lastInputBytes);
        lastInputBytes = consumed;

        // Wall-clock bounds, checked once per batch: good enough at
        // batch granularity, and free of per-packet clock reads.
        if (policy.chunkWallMs != 0 && sinceChunk != 0 &&
            wallMs(chunkStart) >= policy.chunkWallMs) {
            session.rotateChunk();
            sinceChunk = 0;
            chunkStart = Clock::now();
        }
        if (policy.archiveWallMs != 0 && epochFed != 0 &&
            wallMs(epochStart) >= policy.archiveWallMs)
            sealEpoch();

        // Replay pacing: sleep off any lead over the target rate.
        if (config_.replayRate > 0) {
            double targetSec = static_cast<double>(totalFed) /
                               config_.replayRate;
            double actualSec =
                std::chrono::duration<double>(Clock::now() -
                                              started)
                    .count();
            if (targetSec > actualSec)
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(targetSec -
                                                  actualSec));
        }
    }
    // The read that ends the input can consume trailing blocks (a
    // pcapng statistics block, say) and return no packet.
    session.addInputBytes(source->bytesConsumed() - lastInputBytes);

    sealEpoch();
    report.stats = session.stats();
    return report;
}

} // namespace fcc::archive
