/**
 * @file
 * Resumable DEFLATE decoding and the streaming gzip byte source.
 *
 * InflateStream is the library's single DEFLATE decoder. It reads the
 * compressed input through a 64-bit bit buffer, decodes Huffman codes
 * with table lookups (HuffmanDecoder) and writes into a linear output
 * buffer whose front holds the 32 KiB back-reference window. read()
 * streams output in caller-sized pieces through an internal buffer
 * that slides when full; readAll() decodes straight into one vector
 * and backs the one-shot inflate() in deflate.hpp, so the zlib
 * cross-validation tests exercise this decoder too.
 *
 * GzipInflateSource layers RFC 1952 member framing on top and plugs
 * into the trace I/O stack as a fcc::util::ByteSource decorator: a
 * gzip-compressed trace is read with memory bounded by the
 * *compressed* size (zero-copy from an mmap'd file) plus the window —
 * the decompressed stream is never materialized.
 */

#ifndef FCC_CODEC_DEFLATE_INFLATE_STREAM_HPP
#define FCC_CODEC_DEFLATE_INFLATE_STREAM_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "codec/deflate/huffman.hpp"
#include "util/checksum.hpp"
#include "util/io.hpp"

namespace fcc::codec::deflate {

/**
 * Incremental DEFLATE (RFC 1951) decoder over a complete compressed
 * buffer. The compressed memory must outlive the stream. Output comes
 * either piecewise from read() or all at once from readAll(); one
 * stream uses one of the two.
 */
class InflateStream
{
  public:
    explicit InflateStream(std::span<const uint8_t> compressed);

    /**
     * Decode up to @p maxLen further bytes into @p out.
     * @returns the number of bytes produced; 0 means the final block
     *          has been fully decoded.
     * @throws fcc::util::Error on any malformed construct.
     */
    size_t read(uint8_t *out, size_t maxLen);

    /**
     * Decode the whole stream into one vector. @p sizeHint, when the
     * caller knows the decoded size, sizes the vector up front.
     * @throws fcc::util::Error on any malformed construct.
     */
    std::vector<uint8_t> readAll(size_t sizeHint = 0);

    /** True once the final block has been consumed and drained. */
    bool finished() const { return done_ && drained_ == bufEnd_; }

    /**
     * Bytes of compressed input consumed, rounded up to a whole byte
     * — the offset where container framing (a gzip trailer) resumes.
     * Only meaningful once finished().
     */
    size_t compressedBytesConsumed() const
    {
        return (inPos_ * 8 - bitCount_ + 7) / 8;
    }

  private:
    size_t decode(uint8_t *buf, size_t pos, size_t cap);
    size_t decodeHuffman(uint8_t *buf, size_t pos, size_t cap);
    size_t copyStored(uint8_t *buf, size_t pos, size_t cap);
    void readBlockHeader();
    void readDynamicTables();
    void refill();
    uint32_t bits(unsigned n);
    unsigned symbol(const HuffmanDecoder &code);

    // Compressed input and the 64-bit bit buffer over it. Bits at
    // and above bitCount_ are zero or the next, not yet counted,
    // input bits — never anything else.
    const uint8_t *in_;
    size_t inLen_;
    size_t inPos_ = 0;
    uint64_t bitBuf_ = 0;
    unsigned bitCount_ = 0;

    // Block state.
    bool done_ = false;
    bool inBlock_ = false;
    bool finalBlock_ = false;
    bool storedBlock_ = false;
    uint32_t storedLeft_ = 0;
    const HuffmanDecoder *lit_ = nullptr;
    const HuffmanDecoder *dist_ = nullptr;
    std::optional<HuffmanDecoder> dynLit_, dynDist_;

    // read()'s output buffer: up to 32 KiB of history, then decoded
    // bytes not yet handed out (drained_ .. bufEnd_).
    std::vector<uint8_t> buf_;
    size_t bufEnd_ = 0;
    size_t drained_ = 0;
};

/**
 * Streaming gzip (RFC 1952) reader as a ByteSource decorator.
 *
 * Accepts one or more concatenated members, verifies each member's
 * CRC-32 and ISIZE trailer as the stream is drained, and rejects
 * trailing garbage. When the inner source exposes its content
 * contiguously (mmap, memory buffer) no copy of the compressed data
 * is made.
 */
class GzipInflateSource : public util::ByteSource
{
  public:
    /** @throws fcc::util::Error when the first member header is bad. */
    explicit GzipInflateSource(std::unique_ptr<util::ByteSource> inner);

    size_t read(uint8_t *out, size_t maxLen) override;

  private:
    void startMember();

    std::unique_ptr<util::ByteSource> inner_;  ///< keeps mmap alive
    std::vector<uint8_t> owned_;               ///< slurped fallback
    std::span<const uint8_t> data_;            ///< whole gzip file
    size_t pos_ = 0;                           ///< current member offset
    std::unique_ptr<InflateStream> stream_;
    util::Crc32 crc_;
    uint64_t memberBytes_ = 0;
    bool done_ = false;
};

/**
 * Parse a gzip member header starting at @p data .
 * @returns the size of the header (offset of the deflate payload).
 * @throws fcc::util::Error on a malformed or truncated header.
 */
size_t gzipHeaderSize(std::span<const uint8_t> data);

} // namespace fcc::codec::deflate

#endif // FCC_CODEC_DEFLATE_INFLATE_STREAM_HPP
