/**
 * @file
 * One-shot streaming FCC entry points, each a thin shell over a
 * single-epoch session (session.hpp): compression feeds a
 * TraceSource into a CompressSession and seals once; decompression
 * opens one archive in a DecompressSession and drains it through
 * the §4 bounded-memory flush.
 */

#include "codec/fcc/stream.hpp"

#include "codec/fcc/session.hpp"

namespace fcc::codec::fcc {

StreamStats
compressSource(trace::TraceSource &src, const std::string &fccPath,
               const FccConfig &cfg)
{
    CompressSession session(cfg);

    std::vector<trace::PacketRecord> batch(4096);
    size_t n;
    while ((n = src.read(batch)) > 0)
        session.feed(std::span<const trace::PacketRecord>(
            batch.data(), n));
    session.addInputBytes(src.bytesConsumed());

    session.sealToFile(fccPath);
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
