/**
 * @file
 * Field codecs: reversible per-column integer transforms used by the
 * columnar FCC3 container (codec/fcc/datasets).
 *
 * A column is a homogeneous sequence of u64 values (timestamps,
 * template indices, S values, run flags, ...). Each codec turns the
 * column into a byte stream whose layout fits one value shape:
 *
 *  - Plain:       one LEB128 varint per value (the FCC1/FCC2 idiom);
 *  - ZigzagDelta: varint of the zigzag-mapped difference to the
 *                 previous value — near-sorted columns (timestamps)
 *                 collapse to single-byte deltas;
 *  - Dict:        first-appearance dictionary plus one varint index
 *                 per value — low-cardinality columns (RTTs,
 *                 template indices of hot clusters);
 *  - Rle:         (value, run-length) varint pairs — constant runs
 *                 (S/L flags, chunk sizes).
 *
 * Codecs are self-describing only through the one-byte tag the
 * container stores next to each column; chooseCodec() sizes all four
 * encodings analytically (no trial buffers) and picks the smallest,
 * ties broken by the lowest tag so the choice is deterministic.
 */

#ifndef FCC_CODEC_FIELD_FIELD_CODEC_HPP
#define FCC_CODEC_FIELD_FIELD_CODEC_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>


namespace fcc::codec::field {

/** Wire tag of a column's transform (one byte in the container). */
enum class FieldCodec : uint8_t
{
    Plain = 0,
    ZigzagDelta = 1,
    Dict = 2,
    Rle = 3,
};

/** Number of defined codecs (tags are 0 .. count-1). */
constexpr uint8_t fieldCodecCount = 4;

/** Human-readable codec name ("plain", "zigzag", "dict", "rle"). */
const char *fieldCodecName(FieldCodec codec);

/** Map a signed delta onto the unsigned varint domain. */
inline uint64_t
zigzagEncode(int64_t v)
{
    return (static_cast<uint64_t>(v) << 1) ^
           static_cast<uint64_t>(v >> 63);
}

/** Inverse of zigzagEncode(). */
inline int64_t
zigzagDecode(uint64_t v)
{
    return static_cast<int64_t>(v >> 1) ^
           -static_cast<int64_t>(v & 1);
}

/** Exact encoded byte size of @p values under @p codec. */
uint64_t encodedSize(std::span<const uint64_t> values,
                     FieldCodec codec);

/**
 * Floor every value onto the @p quantum grid in place (the quantized
 * fidelity tier's column transform; order-preserving). @p quantum
 * must be >= 1. @throws fcc::util::Error otherwise.
 */
void floorToGrid(std::span<uint64_t> values, uint64_t quantum);

/**
 * True when every value is a multiple of @p quantum — the read-side
 * twin of floorToGrid(), used to validate quantized-tier columns.
 * @throws fcc::util::Error when @p quantum is 0.
 */
bool isOnGrid(std::span<const uint64_t> values, uint64_t quantum);

/**
 * Smallest-output codec for @p values: sizes all four encodings and
 * returns the winner (lowest tag on ties). Deterministic.
 */
FieldCodec chooseCodec(std::span<const uint64_t> values);

/**
 * Encode @p values under @p codec. Plain, zigzag and dict run on the
 * batch varint paths (util::varintEncodeBatch).
 */
std::vector<uint8_t> encodeColumn(std::span<const uint64_t> values,
                                  FieldCodec codec);

/**
 * Decode exactly @p count values from @p data; the whole buffer must
 * be consumed. @throws fcc::util::Error on malformed input (trailing
 * bytes, out-of-range dictionary index, run overflow, ...).
 */
std::vector<uint64_t> decodeColumn(std::span<const uint8_t> data,
                                   FieldCodec codec, size_t count);

} // namespace fcc::codec::field

#endif // FCC_CODEC_FIELD_FIELD_CODEC_HPP
