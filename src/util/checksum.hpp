/**
 * @file
 * CRC-32 (ISO 3309, as used by gzip) and Adler-32 (RFC 1950) checksums.
 */

#ifndef FCC_UTIL_CHECKSUM_HPP
#define FCC_UTIL_CHECKSUM_HPP

#include <cstddef>
#include <cstdint>
#include <span>

namespace fcc::util {

/**
 * Incremental CRC-32 with the gzip polynomial (0xEDB88320,
 * reflected). Equivalent to zlib's crc32(): 64 bytes per step with
 * carry-less multiplies where the CPU has them (x86 PCLMULQDQ), else
 * sixteen bytes per step (slice-by-16); the checksum never depends on
 * how the input is chunked across update() calls.
 */
class Crc32
{
  public:

    /** Fold @p data into the running checksum. */
    void update(std::span<const uint8_t> data);
    /** Final checksum value. */
    uint32_t value() const { return ~state_; }

    /** One-shot convenience. */
    static uint32_t of(std::span<const uint8_t> data);

  private:
    uint32_t state_ = 0xffffffffu;
};

/** Incremental Adler-32 (RFC 1950). Equivalent to zlib's adler32(). */
class Adler32
{
  public:
    /** Fold @p data into the running checksum. */
    void update(std::span<const uint8_t> data);
    /** Final checksum value. */
    uint32_t value() const { return (b_ << 16) | a_; }

    /** One-shot convenience. */
    static uint32_t of(std::span<const uint8_t> data);

  private:
    uint32_t a_ = 1;
    uint32_t b_ = 0;
};

} // namespace fcc::util

#endif // FCC_UTIL_CHECKSUM_HPP
