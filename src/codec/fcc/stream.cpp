/**
 * @file
 * The ingest loop and the streaming FCC entry points over it:
 * compression runs ingest() into one CompressSession; decompression
 * opens one archive in a DecompressSession and drains it through the
 * §4 bounded-memory flush.
 */

#include "codec/fcc/stream.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "codec/fcc/session.hpp"
#include "util/io.hpp"

namespace fcc::codec::fcc {

void
ingest(trace::TraceSource &src, CompressSession &session,
       const IngestPolicy &policy, IngestControl &control,
       const std::function<void(std::span<const uint8_t> archive,
                                const SealInfo &info)> &onSeal)
{
    using Clock = std::chrono::steady_clock;
    using Ms = std::chrono::milliseconds;

    // Packets fed since the last chunk cut, in this epoch, in all.
    uint64_t sinceChunk = 0, epochFed = 0, totalFed = 0;
    uint64_t lastInputBytes = 0;
    Clock::time_point started = Clock::now();
    Clock::time_point chunkStart = started, epochStart = started;

    auto cutChunk = [&] {
        session.rotateChunk();
        sinceChunk = 0;
        chunkStart = Clock::now();
    };
    // An idle epoch seals nothing: it only restarts the clocks.
    auto sealEpoch = [&] {
        if (epochFed != 0) {
            SealInfo info;
            std::vector<uint8_t> bytes = session.seal(&info);
            onSeal(bytes, info);
        }
        epochFed = 0;
        sinceChunk = 0;
        chunkStart = epochStart = Clock::now();
    };

    std::vector<trace::PacketRecord> batch(ingestBatchRecords);
    for (;;) {
        if (control.stop.load(std::memory_order_relaxed))
            break;
        if (control.rotateNow.exchange(
                false, std::memory_order_relaxed))
            sealEpoch();

        size_t got = src.read(batch);
        // Even the read that ends the input can consume bytes (a
        // trailing pcapng statistics block, say).
        uint64_t consumed = src.bytesConsumed();
        session.addInputBytes(consumed - lastInputBytes);
        lastInputBytes = consumed;
        if (got == 0)
            break;

        for (size_t i = 0; i < got;) {
            size_t take = got - i;
            if (policy.chunkRecords != 0)
                take = std::min<uint64_t>(
                    take, policy.chunkRecords - sinceChunk);
            if (policy.archiveRecords != 0)
                take = std::min<uint64_t>(
                    take, policy.archiveRecords - epochFed);
            if (session.sealed())
                session.reArm();
            session.feed(std::span<const trace::PacketRecord>(
                batch.data() + i, take));
            i += take;
            sinceChunk += take;
            epochFed += take;
            totalFed += take;
            // A zero bound never matches: this span fed a packet.
            if (sinceChunk == policy.chunkRecords)
                cutChunk();
            if (epochFed == policy.archiveRecords)
                sealEpoch();
        }

        // Wall-clock bounds, checked once per batch: good enough at
        // batch granularity, and free of per-packet clock reads.
        if (policy.chunkWallMs != 0 && sinceChunk != 0 &&
            Clock::now() - chunkStart >= Ms(policy.chunkWallMs))
            cutChunk();
        if (policy.archiveWallMs != 0 && epochFed != 0 &&
            Clock::now() - epochStart >= Ms(policy.archiveWallMs))
            sealEpoch();

        // Replay pacing: sleep off any lead over the target rate.
        if (policy.replayRate > 0)
            std::this_thread::sleep_until(
                started + std::chrono::duration<double>(
                              totalFed / policy.replayRate));
    }
    sealEpoch();
}

StreamStats
compressSource(trace::TraceSource &src, const std::string &fccPath,
               const FccConfig &cfg)
{
    CompressSession session(cfg);
    auto writeFile = [&](std::span<const uint8_t> bytes,
                         const SealInfo &) {
        util::FileByteSink out(fccPath);
        out.write(bytes);
        out.close();
    };
    IngestControl control;
    ingest(src, session, {}, control, writeFile);
    // ingest() seals no empty epoch; an empty input still gets its
    // (empty) archive.
    if (!session.sealed())
        writeFile(session.seal(), {});
    return session.stats();
}

StreamStats
compressTraceFile(const std::string &inPath,
                  const std::string &fccPath, const FccConfig &cfg,
                  const trace::TraceFormatSpec &format)
{
    auto src = trace::openTraceSource(inPath, format);
    return compressSource(*src, fccPath, cfg);
}

StreamStats
decompressTraceFile(const std::string &fccPath,
                    const std::string &outPath, const FccConfig &cfg,
                    const trace::TraceFormatSpec &format)
{
    // Decode the input fully before opening (and truncating) the
    // output path: a corrupt .fcc must not clobber an existing file.
    DecompressSession session(cfg);
    session.open(fccPath);
    auto sink = trace::openTraceSink(outPath, format);
    return session.drainTo(*sink);
}

} // namespace fcc::codec::fcc
