/**
 * @file
 * Resumable DEFLATE decoding and the streaming gzip byte source.
 *
 * InflateStream is the library's single DEFLATE decoder. It reads the
 * compressed input through a 64-bit bit buffer, decodes Huffman codes
 * with table lookups (HuffmanDecoder) and writes into a linear output
 * buffer whose front holds the 32 KiB back-reference window. decode()
 * fills a caller's buffer piece by piece (the gzip source's ring
 * slots); readAll() decodes straight into one vector and backs the
 * one-shot inflate() in deflate.hpp, so the zlib cross-validation
 * tests exercise this decoder too.
 *
 * GzipInflateSource layers RFC 1952 member framing on top and plugs
 * into the trace I/O stack as a fcc::util::ByteSource decorator: a
 * helper thread inflates up to 1 MiB ahead of the reader, which
 * checks each member's CRC-32 on its own thread. A gzip-compressed
 * trace is read with memory bounded by the *compressed* size
 * (zero-copy from an mmap'd file) plus the window and that ring —
 * the decompressed stream is never materialized.
 */

#ifndef FCC_CODEC_DEFLATE_INFLATE_STREAM_HPP
#define FCC_CODEC_DEFLATE_INFLATE_STREAM_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "codec/deflate/huffman.hpp"
#include "util/checksum.hpp"
#include "util/io.hpp"

namespace fcc::codec::deflate {

/**
 * Incremental DEFLATE (RFC 1951) decoder over a complete compressed
 * buffer. The compressed memory must outlive the stream. Output comes
 * either piecewise from decode() or all at once from readAll(); one
 * stream uses one of the two.
 */
class InflateStream
{
  public:
    /**
     * Free room decode() needs below its cap to decode one more
     * symbol: the longest match (258 bytes) plus the 32 bytes a match
     * copy may write past its end.
     */
    static constexpr size_t symbolRoom = 290;

    explicit InflateStream(std::span<const uint8_t> compressed);

    /**
     * Decode the whole stream into one vector. @p sizeHint, when the
     * caller knows the decoded size, sizes the vector up front.
     * @throws fcc::util::Error on any malformed construct.
     */
    std::vector<uint8_t> readAll(size_t sizeHint = 0);

    /**
     * Decode into @p buf from @p pos until the final block ends or
     * fewer than symbolRoom bytes are free below @p cap.
     * buf[0, pos) is the history back-references may reach into: up
     * to 32 KiB, all of the stream's output when it has less. On a
     * malformed construct it stops, sets error() and returns the end
     * of the symbols before it. A stream feeds one of readAll() and
     * decode().
     * @returns the end of the decoded bytes in @p buf.
     */
    size_t decode(uint8_t *buf, size_t pos, size_t cap);

    /** The error decode() stopped at, or null. */
    std::exception_ptr error() const { return error_; }

    /** True once the final block has been decoded. */
    bool finished() const { return done_; }

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

    // The first error and, while a step runs, where its output stood
    // before the symbol that failed.
    std::exception_ptr error_;
    size_t stopped_ = 0;
};

/**
 * Streaming gzip (RFC 1952) reader as a ByteSource decorator that
 * reads ahead.
 *
 * A helper thread parses the member headers and inflates into a ring
 * of ringSlots slots of slotBytes each, decoding straight into a slot
 * behind a copy of the member's last 32 KiB. The constructor fills
 * the first slot itself and starts the helper only when the stream
 * goes on past it, so a stream of up to one slot starts no thread.
 * read() copies out of the ring on the caller's thread and verifies
 * each member's CRC-32 and ISIZE trailer there, so the checksum
 * overlaps the next slot's inflate. A slot never spans two members:
 * the slot that ends one carries the trailer's expected CRC and
 * size. Accepts one or more concatenated members and rejects
 * trailing garbage. An error (a malformed stream or trailer) reaches
 * read() after every byte decoded before it, and every later read()
 * rethrows it.
 *
 * Memory is the compressed size (none when the inner source exposes
 * its content contiguously, as mmap and memory buffers do) plus the
 * ring: 1 MiB of slots, each behind 32 KiB of window. The helper
 * thread is the source's own: FccConfig::threads does not count it.
 * Destruction stops and joins it.
 */
class GzipInflateSource : public util::ByteSource
{
  public:
    /** @throws fcc::util::Error when the first member header is bad. */
    explicit GzipInflateSource(std::unique_ptr<util::ByteSource> inner);
    ~GzipInflateSource() override;

    GzipInflateSource(const GzipInflateSource &) = delete;
    GzipInflateSource &operator=(const GzipInflateSource &) = delete;

    size_t read(uint8_t *out, size_t maxLen) override;

  private:
    static constexpr size_t ringSlots = 4;
    static constexpr size_t slotBytes = size_t{1} << 18;
    /** Room ahead of each slot for the window it decodes against. */
    static constexpr size_t slotHistory = size_t{1} << 15;

    /** One ring slot's decoded bytes and what follows them. */
    struct Slot
    {
        size_t size = 0;           ///< decoded bytes in the slot
        bool endsMember = false;   ///< the member's trailer follows
        bool last = false;         ///< no member follows
        uint32_t wantCrc = 0;      ///< trailer CRC-32, if endsMember
        uint32_t wantSize = 0;     ///< trailer ISIZE, if endsMember
        std::exception_ptr error;  ///< raised after the slot's bytes
    };

    // The filling side: the helper thread, and the constructor for
    // slot 0. inflateSlot() and fillSlot() return false once nothing
    // follows the slot.
    void inflateAhead(uint64_t first);
    bool inflateSlot(uint64_t k);
    bool fillSlot(Slot &slot, uint8_t *bytes);
    void startMember();
    /** Slot k's decoded bytes, slotHistory into its room. */
    uint8_t *slotData(uint64_t k) const
    {
        return ring_.get() + (k % ringSlots) * (slotHistory + slotBytes) +
               slotHistory;
    }

    // Either side: wait for @p ready (the other side last published
    // from @p otherCpu), and store what the other side may wait on
    // under the mutex, then wake it.
    template <class Ready>
    void await(const std::atomic<int> &otherCpu, const Ready &ready);
    template <class T> void publish(std::atomic<T> &flag, T value);

    std::unique_ptr<util::ByteSource> inner_;  ///< keeps mmap alive
    std::vector<uint8_t> owned_;               ///< slurped fallback
    std::span<const uint8_t> data_;            ///< whole gzip file

    // The filling side's: the current member, its inflate state, and
    // the member's last history_ bytes, which end at historyEnd_ in
    // the slot filled last.
    size_t pos_ = 0;
    std::unique_ptr<InflateStream> stream_;
    size_t history_ = 0;
    const uint8_t *historyEnd_ = nullptr;

    // The ring. Slot k lives at k % ringSlots; the helper fills slots
    // [freed_, freed_ + ringSlots) and publishes them through filled_,
    // the caller reads [freed_, filled_) and hands them back.
    std::unique_ptr<uint8_t[]> ring_;
    Slot slots_[ringSlots];
    std::atomic<uint64_t> filled_{0};
    std::atomic<uint64_t> freed_{0};
    std::atomic<bool> stop_{false};
    std::atomic<int> fillerCpu_{-1};  ///< where the helper last filled
    std::atomic<int> readerCpu_{-1};  ///< where the caller last freed
    std::mutex mutex_;
    std::condition_variable wake_;

    // The caller's: the read position in slot freed_ and the member
    // checks.
    size_t slotPos_ = 0;
    util::Crc32 crc_;
    uint64_t memberBytes_ = 0;
    bool done_ = false;
    std::exception_ptr failed_;

    std::thread helper_;  ///< last: starts once the rest is built;
                          ///< none for a one-slot stream
};

/**
 * Parse a gzip member header starting at @p data .
 * @returns the size of the header (offset of the deflate payload).
 * @throws fcc::util::Error on a malformed or truncated header.
 */
size_t gzipHeaderSize(std::span<const uint8_t> data);

} // namespace fcc::codec::deflate

#endif // FCC_CODEC_DEFLATE_INFLATE_STREAM_HPP
