/**
 * @file
 * Little-endian byte-oriented serialization primitives.
 *
 * ByteWriter appends primitive values to a growable buffer; ByteReader
 * consumes them back, throwing fcc::util::Error on truncation. All
 * multi-byte integers are little-endian on the wire. Variable-length
 * integers use LEB128-style base-128 encoding.
 */

#ifndef FCC_UTIL_BYTES_HPP
#define FCC_UTIL_BYTES_HPP

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace fcc::util {

// Unaligned scalar load/store and byte-swap primitives shared by
// the trace-format parsers (TSH and pcap are big-endian on the
// wire, pcap/pcapng may be either order per file/section). All are
// memcpy-based: a single unaligned move on every mainstream target,
// with no UB on any alignment.

inline uint16_t
byteSwap16(uint16_t v)
{
    return static_cast<uint16_t>((v >> 8) | (v << 8));
}

inline uint32_t
byteSwap32(uint32_t v)
{
    return (v >> 24) | ((v >> 8) & 0xff00u) |
           ((v << 8) & 0xff0000u) | (v << 24);
}

inline uint64_t
byteSwap64(uint64_t v)
{
    return (uint64_t{byteSwap32(static_cast<uint32_t>(v))} << 32) |
           byteSwap32(static_cast<uint32_t>(v >> 32));
}

inline uint16_t
loadLe16(const uint8_t *p)
{
    uint16_t v;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::big)
        v = byteSwap16(v);
    return v;
}

inline uint32_t
loadLe32(const uint8_t *p)
{
    uint32_t v;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::big)
        v = byteSwap32(v);
    return v;
}

inline uint64_t
loadLe64(const uint8_t *p)
{
    uint64_t v;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::big)
        v = byteSwap64(v);
    return v;
}

inline uint16_t
loadBe16(const uint8_t *p)
{
    return byteSwap16(loadLe16(p));
}

inline uint32_t
loadBe32(const uint8_t *p)
{
    return byteSwap32(loadLe32(p));
}

inline void
storeLe16(std::vector<uint8_t> &out, uint16_t v)
{
    if constexpr (std::endian::native == std::endian::big)
        v = byteSwap16(v);
    uint8_t b[sizeof v];
    std::memcpy(b, &v, sizeof v);
    out.insert(out.end(), b, b + sizeof v);
}

inline void
storeLe32(std::vector<uint8_t> &out, uint32_t v)
{
    if constexpr (std::endian::native == std::endian::big)
        v = byteSwap32(v);
    uint8_t b[sizeof v];
    std::memcpy(b, &v, sizeof v);
    out.insert(out.end(), b, b + sizeof v);
}

inline void
storeLe64(std::vector<uint8_t> &out, uint64_t v)
{
    if constexpr (std::endian::native == std::endian::big)
        v = byteSwap64(v);
    uint8_t b[sizeof v];
    std::memcpy(b, &v, sizeof v);
    out.insert(out.end(), b, b + sizeof v);
}

inline void
storeBe16(std::vector<uint8_t> &out, uint16_t v)
{
    storeLe16(out, byteSwap16(v));
}

inline void
storeBe32(std::vector<uint8_t> &out, uint32_t v)
{
    storeLe32(out, byteSwap32(v));
}

/** Byte length of v's shortest LEB128 varint encoding (1-10). */
inline uint64_t
varintLen(uint64_t v)
{
    // bit_width(v|1) is 1..64; each varint byte carries 7 bits.
    return (static_cast<uint64_t>(std::bit_width(v | 1)) + 6) / 7;
}

/** Sum of varintLen over @p values (exact encoded size, no trial). */
uint64_t varintLenSum(std::span<const uint64_t> values);

/**
 * Append the LEB128 varints of @p values to @p out: the same
 * (canonical shortest-form) bytes as ByteWriter::varint() per value.
 * SWAR batch path — eight values per iteration when they all fit one
 * byte, unrolled pointer writes otherwise.
 */
void varintEncodeBatch(std::span<const uint64_t> values,
                       std::vector<uint8_t> &out);

/**
 * Decode exactly @p count LEB128 varints from @p data into @p out
 * (which must hold @p count slots).
 *
 * @returns bytes consumed.
 * @throws fcc::util::Error on truncation, an encoding longer than 10
 *         bytes, or 64-bit overflow — the same inputs, with the same
 *         messages, that ByteReader::varint() rejects.
 */
size_t varintDecodeBatch(const uint8_t *data, size_t len,
                         uint64_t *out, size_t count);

/** Growable little-endian binary output buffer. */
class ByteWriter
{
  public:
    ByteWriter() = default;

    /** Append a single byte. */
    void u8(uint8_t v) { buf_.push_back(v); }
    /** Append a 16-bit little-endian integer. */
    void u16(uint16_t v);
    /** Append a 32-bit little-endian integer. */
    void u32(uint32_t v);
    /** Append a 64-bit little-endian integer. */
    void u64(uint64_t v);
    /** Append an unsigned LEB128 varint (1-10 bytes). */
    void varint(uint64_t v);
    /** Append raw bytes. */
    void bytes(const uint8_t *data, size_t len);
    /** Append raw bytes from a span. */
    void bytes(std::span<const uint8_t> data);
    /** Append a length-prefixed (varint) byte string. */
    void blob(std::span<const uint8_t> data);

    /** Number of bytes written so far. */
    size_t size() const { return buf_.size(); }
    /** View of the accumulated buffer. */
    const std::vector<uint8_t> &data() const { return buf_; }
    /** Move the accumulated buffer out; the writer becomes empty. */
    std::vector<uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<uint8_t> buf_;
};

/**
 * Bounds-checked little-endian binary input cursor.
 *
 * Does not own the underlying storage; callers must keep the source
 * buffer alive for the reader's lifetime.
 */
class ByteReader
{
  public:
    /** Wrap @p data / @p len ; the memory must outlive the reader. */
    ByteReader(const uint8_t *data, size_t len)
        : data_(data), len_(len)
    {}

    explicit ByteReader(std::span<const uint8_t> data)
        : ByteReader(data.data(), data.size())
    {}

    /** Read one byte. @throws Error on truncation. */
    uint8_t u8();
    /** Read a 16-bit little-endian integer. @throws Error */
    uint16_t u16();
    /** Read a 32-bit little-endian integer. @throws Error */
    uint32_t u32();
    /** Read a 64-bit little-endian integer. @throws Error */
    uint64_t u64();
    /** Read an unsigned LEB128 varint. @throws Error on overflow. */
    uint64_t varint();
    /** Read @p len raw bytes into @p out. @throws Error */
    void bytes(uint8_t *out, size_t len);
    /**
     * Read a varint-length-prefixed byte string as a zero-copy view
     * into the underlying buffer (valid for the buffer's lifetime).
     * @throws Error
     */
    std::span<const uint8_t> blobView();

    /** Bytes not yet consumed. */
    size_t remaining() const { return len_ - pos_; }
    /** Current cursor position. */
    size_t position() const { return pos_; }
    /** True when the whole buffer has been consumed. */
    bool exhausted() const { return pos_ == len_; }
    /** Skip @p len bytes. @throws Error on truncation. */
    void skip(size_t len);

  private:
    void need(size_t n) const;

    const uint8_t *data_;
    size_t len_;
    size_t pos_ = 0;
};

} // namespace fcc::util

#endif // FCC_UTIL_BYTES_HPP
