/**
 * @file
 * golden_gen — (re)generate the golden-archive corpus under
 * tests/golden/ that tests/test_golden.cpp pins the readers
 * against. The corpus does not pin the writers: test_golden only
 * decodes, so a writer whose bytes change still passes it. The
 * writers' bytes are pinned by Stream.WriterKnownAnswerBytes
 * (tests/test_stream.cpp).
 *
 *   golden_gen <golden-dir>
 *
 * Writes, from one deterministic synthetic trace:
 *  - source.tsh: the input trace (provenance; the goldens are
 *    self-contained, the test never re-compresses it),
 *  - one archive per writable container/backend/layout/fidelity
 *    cell,
 *  - the expected decompression references: expected-chunked.tsh
 *    (every chunked container — FCC2 and all FCC3 variants decode
 *    identically), expected-quantized.tsh and expected-header.tsh
 *    (the lossy tiers' documented reconstructions).
 *
 * The layouts that are no longer written — fcc1.fcc, the unchunked
 * fcc3-unchunked.fcc and their reference expected-fcc1.tsh — stay
 * committed as they are; this tool cannot regenerate them.
 *
 * Run this ONLY when the wire format intentionally changes, and
 * commit the regenerated corpus together with the format bump —
 * test_golden failing after an innocent-looking change means the
 * change was not innocent.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "codec/fcc/fcc_codec.hpp"
#include "trace/tsh.hpp"
#include "trace/web_gen.hpp"
#include "util/error.hpp"

using namespace fcc;
namespace fccc = fcc::codec::fcc;

namespace {

void
writeBytes(const std::string &path,
           const std::vector<uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    util::require(out.good(), "cannot open " + path);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    util::require(out.good(), "cannot write " + path);
}

struct Spec
{
    const char *name;
    fccc::ContainerFormat container;
    codec::backend::EntropyBackend backend;
    bool index;
    fccc::Fidelity fidelity;
};

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: %s <golden-dir>\n", argv[0]);
        return 2;
    }
    const std::string dir = argv[1];

    // The corpus trace: small enough to keep the committed archives
    // a few KB each, busy enough to exercise short and long flows,
    // multiple chunks (chunkRecords = 64 below) and the index.
    trace::WebGenConfig webCfg;
    webCfg.seed = 11;
    webCfg.durationSec = 4.0;
    webCfg.flowsPerSec = 30.0;
    trace::WebTrafficGenerator gen(webCfg);
    trace::Trace original = gen.generate();

    using Backend = codec::backend::EntropyBackend;
    const Spec specs[] = {
        {"fcc2.fcc", fccc::ContainerFormat::Fcc2, Backend::Deflate,
         false, fccc::Fidelity::Exact},
        {"fcc3-store.fcc", fccc::ContainerFormat::Fcc3,
         Backend::Store, false, fccc::Fidelity::Exact},
        {"fcc3-store-indexed.fcc", fccc::ContainerFormat::Fcc3,
         Backend::Store, true, fccc::Fidelity::Exact},
        {"fcc3-deflate.fcc", fccc::ContainerFormat::Fcc3,
         Backend::Deflate, false, fccc::Fidelity::Exact},
        {"fcc3-deflate-indexed.fcc", fccc::ContainerFormat::Fcc3,
         Backend::Deflate, true, fccc::Fidelity::Exact},
        {"fcc3-range.fcc", fccc::ContainerFormat::Fcc3,
         Backend::Range, false, fccc::Fidelity::Exact},
        {"fcc3-range-indexed.fcc", fccc::ContainerFormat::Fcc3,
         Backend::Range, true, fccc::Fidelity::Exact},
        {"fcc3-range-lanes.fcc", fccc::ContainerFormat::Fcc3,
         Backend::RangeLanes, false, fccc::Fidelity::Exact},
        {"fcc3-range-lanes-indexed.fcc",
         fccc::ContainerFormat::Fcc3, Backend::RangeLanes, true,
         fccc::Fidelity::Exact},
        {"fcc3-quantized-indexed.fcc", fccc::ContainerFormat::Fcc3,
         Backend::Deflate, true, fccc::Fidelity::Quantized},
        {"fcc3-header-indexed.fcc", fccc::ContainerFormat::Fcc3,
         Backend::Deflate, true, fccc::Fidelity::Header},
        {"fcc3-flow-indexed.fcc", fccc::ContainerFormat::Fcc3,
         Backend::Deflate, true, fccc::Fidelity::Flow},
    };

    try {
        trace::writeTshFile(original, dir + "/source.tsh");

        // The decode reference of the exact cells, written by the
        // first and cross-checked against every other.
        std::vector<uint8_t> chunkedRef;

        for (const Spec &spec : specs) {
            fccc::FccConfig cfg;
            cfg.container = spec.container;
            cfg.backend = spec.backend;
            cfg.index = spec.index;
            cfg.fidelity = spec.fidelity;
            cfg.chunkRecords = 64;
            cfg.validate();

            fccc::FccTraceCompressor codec(cfg);
            std::vector<uint8_t> compressed =
                codec.compress(original);
            writeBytes(dir + "/" + spec.name, compressed);

            std::string refName;
            if (spec.fidelity == fccc::Fidelity::Flow) {
                std::printf("%-28s %6zu bytes  (no packet "
                            "reconstruction)\n",
                            spec.name, compressed.size());
                continue;
            }
            trace::Trace decoded = codec.decompress(compressed);
            std::vector<uint8_t> tsh = trace::writeTsh(decoded);

            switch (spec.fidelity) {
              case fccc::Fidelity::Quantized:
                refName = "expected-quantized.tsh";
                writeBytes(dir + "/" + refName, tsh);
                break;
              case fccc::Fidelity::Header:
                refName = "expected-header.tsh";
                writeBytes(dir + "/" + refName, tsh);
                break;
              default:
                refName = "expected-chunked.tsh";
                if (chunkedRef.empty()) {
                    chunkedRef = tsh;
                    writeBytes(dir + "/" + refName, tsh);
                }
                util::require(tsh == chunkedRef,
                              std::string(spec.name) +
                                  ": chunked decode diverges from "
                                  "expected-chunked.tsh");
                break;
            }
            std::printf("%-28s %6zu bytes  -> %s\n", spec.name,
                        compressed.size(), refName.c_str());
        }
        std::printf("golden corpus written to %s\n", dir.c_str());
        return 0;
    } catch (const util::Error &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
}
