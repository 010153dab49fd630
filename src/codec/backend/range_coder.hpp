/**
 * @file
 * Adaptive order-0 binary range coder.
 *
 * The classic Witten–Neal–Cleary arithmetic coder with 32-bit
 * low/high registers and E3 underflow counting, driven by a bit-tree
 * byte model: each byte is coded as 8 binary decisions whose context
 * is the byte's already-coded prefix bits (255 adaptive
 * probabilities), so the model learns the column's byte distribution
 * as it streams — no table is transmitted. This is the third entropy
 * backend of the columnar FCC3 container (codec/backend), squeezing
 * varint-dense columns that DEFLATE's 3-byte minimum match cannot
 * touch.
 *
 * The coder is fully deterministic: the same input always produces
 * the same bits, independent of threads or platform.
 */

#ifndef FCC_CODEC_BACKEND_RANGE_CODER_HPP
#define FCC_CODEC_BACKEND_RANGE_CODER_HPP

#include <cstdint>
#include <span>
#include <vector>

namespace fcc::codec::backend {

/** Compress @p data with the adaptive order-0 range coder. */
std::vector<uint8_t> rangeCompress(std::span<const uint8_t> data);

/**
 * Decompress a rangeCompress() stream of exactly @p rawSize bytes.
 * @throws fcc::util::Error on a truncated stream.
 */
std::vector<uint8_t> rangeDecompress(std::span<const uint8_t> data,
                                     size_t rawSize);

/** Upper bound on the lane count of a "range-lanes" payload. */
constexpr uint8_t rangeMaxLanes = 8;

/**
 * Deterministic lane count for a block of @p rawSize bytes: derived
 * from the size alone (never the thread count), so the wire
 * bytes are reproducible everywhere. Small blocks stay single-lane —
 * splitting them would cost ratio for no independent work.
 */
size_t rangeLaneCount(size_t rawSize);

/**
 * Compress @p data as independent range-coded lanes (the
 * "range-lanes" entropy backend, tag 3).
 *
 * The block is split into rangeLaneCount() contiguous, near-equal
 * slices; each lane is the rangeCompress() stream of its slice, with
 * its own adaptive model. Payload: one lane-count byte, varint byte
 * lengths of all lanes but the last, then the concatenated lane
 * streams.
 */
std::vector<uint8_t> rangeCompressLanes(std::span<const uint8_t> data);

/**
 * Decompress a rangeCompressLanes() payload of exactly @p rawSize
 * bytes. Accepts any lane count 1..rangeMaxLanes, so blocks written
 * with a different lane policy still decode.
 * @throws fcc::util::Error on a malformed header or truncated lane.
 */
std::vector<uint8_t> rangeDecompressLanes(std::span<const uint8_t> data,
                                          size_t rawSize);

} // namespace fcc::codec::backend

#endif // FCC_CODEC_BACKEND_RANGE_CODER_HPP
