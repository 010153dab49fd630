/**
 * @file
 * DEFLATE (RFC 1951) encoder and decoder, plus the zlib (RFC 1950)
 * and gzip (RFC 1952) containers, implemented from scratch.
 *
 * The encoder emits stored, fixed-Huffman or dynamic-Huffman blocks,
 * whichever is cheapest per block; the decoder accepts any conforming
 * stream (it is cross-validated against system zlib in the test
 * suite). This is the paper's GZIP baseline (§5, ~50 % ratio).
 */

#ifndef FCC_CODEC_DEFLATE_DEFLATE_HPP
#define FCC_CODEC_DEFLATE_DEFLATE_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "codec/compressor.hpp"
#include "codec/deflate/lz77.hpp"

namespace fcc::codec::deflate {

/** Compress @p data into a raw DEFLATE stream. */
std::vector<uint8_t>
deflateCompress(std::span<const uint8_t> data);

/**
 * Decompress a raw DEFLATE stream. @p sizeHint, when the caller
 * knows the decoded size, lets the output be allocated once.
 * @throws fcc::util::Error on any malformed construct.
 */
std::vector<uint8_t> inflate(std::span<const uint8_t> data,
                             size_t sizeHint = 0);

/** Wrap deflate in the 2-byte-header + Adler-32 zlib format. */
std::vector<uint8_t>
zlibCompress(std::span<const uint8_t> data);

/**
 * zlibCompress(parse.data()) from a segmented parse whose segments
 * have all been parsed: it stitches them and emits the blocks
 * straight from the segments' token lists. The same bytes.
 */
std::vector<uint8_t>
zlibCompress(Lz77SegmentedParse &parse);

/**
 * Unwrap a zlib stream, verifying the Adler-32 checksum. @p sizeHint
 * as for inflate().
 */
std::vector<uint8_t> zlibDecompress(std::span<const uint8_t> data,
                                    size_t sizeHint = 0);

/** Wrap deflate in the gzip member format (CRC-32 + length trailer). */
std::vector<uint8_t>
gzipCompress(std::span<const uint8_t> data);

/**
 * Unwrap a gzip member, verifying CRC-32 and length. Optional header
 * fields (FEXTRA / FNAME / FCOMMENT / FHCRC) are skipped.
 */
std::vector<uint8_t> gzipDecompress(std::span<const uint8_t> data);

/**
 * The GZIP baseline of the paper's Figure 1: serialize the trace as
 * TSH and gzip it. Lossless.
 */
class GzipTraceCompressor : public TraceCompressor
{
  public:
    std::string name() const override { return "gzip"; }
    bool lossless() const override { return true; }

    std::vector<uint8_t>
    compress(const trace::Trace &trace) const override;

    trace::Trace
    decompress(std::span<const uint8_t> data) const override;
};

} // namespace fcc::codec::deflate

#endif // FCC_CODEC_DEFLATE_DEFLATE_HPP
