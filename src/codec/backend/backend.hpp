/**
 * @file
 * Entropy backends: the final byte-squeezing stage of the columnar
 * FCC3 container (codec/fcc/datasets). A backend is a pure
 * bytes-to-bytes transform applied to one field-codec-encoded column
 * at a time:
 *
 *  - Store:   identity — already-dense columns, and the fallback
 *             whenever a backend would expand a column;
 *  - Deflate: the built-in zlib container (codec/deflate);
 *  - Range:   adaptive order-0 range coder (range_coder.hpp) — no
 *             match finding, so it wins on short, high-entropy-byte
 *             columns where DEFLATE's headers and match machinery
 *             only add overhead;
 *  - RangeLanes: the same coder split into independent lanes
 *             (rangeCompressLanes), each a "range" stream of its
 *             slice, so a decoder may interleave them — trades a
 *             little ratio on large columns. Opt-in: "range"
 *             columns keep tag 2.
 *
 * The one-byte tag stored next to each column makes every column
 * self-describing, so a single file can mix backends (the encoder
 * falls back to Store per column when the requested backend does
 * not pay).
 */

#ifndef FCC_CODEC_BACKEND_BACKEND_HPP
#define FCC_CODEC_BACKEND_BACKEND_HPP

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace fcc::codec::backend {

/** Wire tag of a column's entropy stage (one byte per column). */
enum class EntropyBackend : uint8_t
{
    Store = 0,
    Deflate = 1,
    Range = 2,
    RangeLanes = 3,
};

/** Number of defined backends (tags are 0 .. count-1). */
constexpr uint8_t entropyBackendCount = 4;

/**
 * Human-readable backend name ("store", "deflate", "range",
 * "range-lanes").
 */
const char *backendName(EntropyBackend backend);

/** Parse a name accepted by backendName(). @throws util::Error */
EntropyBackend parseBackendName(const std::string &name);

/** Compress @p data under @p backend. */
std::vector<uint8_t> entropyCompress(std::span<const uint8_t> data,
                                     EntropyBackend backend);

/**
 * Decompress @p data back to exactly @p rawSize bytes.
 * @throws fcc::util::Error on malformed input or a size mismatch.
 */
std::vector<uint8_t> entropyDecompress(std::span<const uint8_t> data,
                                       EntropyBackend backend,
                                       size_t rawSize);

} // namespace fcc::codec::backend

#endif // FCC_CODEC_BACKEND_BACKEND_HPP
