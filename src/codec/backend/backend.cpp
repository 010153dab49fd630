/**
 * @file
 * Entropy-backend dispatch: store (identity), deflate (zlib
 * container from codec/deflate) and the adaptive range coder.
 */

#include "codec/backend/backend.hpp"

#include "codec/backend/range_coder.hpp"
#include "codec/deflate/deflate.hpp"
#include "util/error.hpp"

namespace fcc::codec::backend {

const char *
backendName(EntropyBackend backend)
{
    switch (backend) {
      case EntropyBackend::Store:
        return "store";
      case EntropyBackend::Deflate:
        return "deflate";
      case EntropyBackend::Range:
        return "range";
      case EntropyBackend::RangeLanes:
        return "range-lanes";
    }
    return "?";
}

EntropyBackend
parseBackendName(const std::string &name)
{
    for (uint8_t t = 0; t < entropyBackendCount; ++t)
        if (name == backendName(static_cast<EntropyBackend>(t)))
            return static_cast<EntropyBackend>(t);
    throw util::Error("unknown entropy backend: " + name);
}

std::vector<uint8_t>
entropyCompress(std::span<const uint8_t> data, EntropyBackend backend)
{
    switch (backend) {
      case EntropyBackend::Store:
        return {data.begin(), data.end()};
      case EntropyBackend::Deflate:
        return deflate::zlibCompress(data);
      case EntropyBackend::Range:
        return rangeCompress(data);
      case EntropyBackend::RangeLanes:
        return rangeCompressLanes(data);
    }
    throw util::Error("backend: bad backend tag");
}

std::vector<uint8_t>
entropyDecompress(std::span<const uint8_t> data,
                  EntropyBackend backend, size_t rawSize)
{
    std::vector<uint8_t> out;
    switch (backend) {
      case EntropyBackend::Store:
        out.assign(data.begin(), data.end());
        break;
      case EntropyBackend::Deflate:
        out = deflate::zlibDecompress(data, rawSize);
        break;
      case EntropyBackend::Range:
        out = rangeDecompress(data, rawSize);
        break;
      case EntropyBackend::RangeLanes:
        out = rangeDecompressLanes(data, rawSize);
        break;
      default:
        throw util::Error("backend: bad backend tag");
    }
    util::require(out.size() == rawSize,
                  "backend: decompressed size mismatch");
    return out;
}

} // namespace fcc::codec::backend
