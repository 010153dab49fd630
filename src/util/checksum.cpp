/**
 * @file
 * Table-driven CRC-32 (gzip polynomial, slice-by-16: two 64-bit
 * words per step, the one-table byte loop for the tail) and Adler-32
 * with the standard deferred-modulo batch size (NMAX = 5552).
 */

#include "util/checksum.hpp"

#include <array>

#include "util/bytes.hpp"

namespace fcc::util {

namespace {

/**
 * Slicing tables: crcTables[0] is the classic byte table;
 * crcTables[k][b] is the CRC of byte b followed by k zero bytes, so
 * sixteen table lookups advance the register across 16 bytes.
 */
constexpr size_t crcSlices = 16;

std::array<std::array<uint32_t, 256>, crcSlices>
makeCrcTables()
{
    std::array<std::array<uint32_t, 256>, crcSlices> tables{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        tables[0][i] = c;
    }
    for (size_t k = 1; k < crcSlices; ++k)
        for (uint32_t i = 0; i < 256; ++i)
            tables[k][i] = tables[0][tables[k - 1][i] & 0xff] ^
                           (tables[k - 1][i] >> 8);
    return tables;
}

const std::array<std::array<uint32_t, 256>, crcSlices> crcTables =
    makeCrcTables();

const std::array<uint32_t, 256> &crcTable = crcTables[0];

inline uint32_t
crcBytes(uint32_t c, const uint8_t *p, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        c = crcTable[(c ^ p[i]) & 0xff] ^ (c >> 8);
    return c;
}

/**
 * Slice-by-16: two u64 loads and sixteen independent lookups per
 * step. The register folds into the first word only; table k takes
 * the byte k positions before the end of the 16.
 */
inline uint32_t
crcSlice16(uint32_t c, const uint8_t *p, size_t n)
{
    while (n >= 16) {
        uint64_t w0 = loadLe64(p) ^ c;
        uint64_t w1 = loadLe64(p + 8);
        c = crcTables[15][w0 & 0xff] ^
            crcTables[14][(w0 >> 8) & 0xff] ^
            crcTables[13][(w0 >> 16) & 0xff] ^
            crcTables[12][(w0 >> 24) & 0xff] ^
            crcTables[11][(w0 >> 32) & 0xff] ^
            crcTables[10][(w0 >> 40) & 0xff] ^
            crcTables[9][(w0 >> 48) & 0xff] ^
            crcTables[8][w0 >> 56] ^
            crcTables[7][w1 & 0xff] ^
            crcTables[6][(w1 >> 8) & 0xff] ^
            crcTables[5][(w1 >> 16) & 0xff] ^
            crcTables[4][(w1 >> 24) & 0xff] ^
            crcTables[3][(w1 >> 32) & 0xff] ^
            crcTables[2][(w1 >> 40) & 0xff] ^
            crcTables[1][(w1 >> 48) & 0xff] ^
            crcTables[0][w1 >> 56];
        p += 16;
        n -= 16;
    }
    return crcBytes(c, p, n);
}

// Largest n such that 255n(n+1)/2 + (n+1)(65520) fits in 32 bits.
constexpr size_t adlerNmax = 5552;
constexpr uint32_t adlerBase = 65521;

} // namespace

void
Crc32::update(std::span<const uint8_t> data)
{
    state_ = crcSlice16(state_, data.data(), data.size());
}

uint32_t
Crc32::of(std::span<const uint8_t> data)
{
    Crc32 crc;
    crc.update(data);
    return crc.value();
}

void
Adler32::update(std::span<const uint8_t> data)
{
    size_t i = 0;
    while (i < data.size()) {
        size_t chunk = std::min(adlerNmax, data.size() - i);
        for (size_t j = 0; j < chunk; ++j) {
            a_ += data[i + j];
            b_ += a_;
        }
        a_ %= adlerBase;
        b_ %= adlerBase;
        i += chunk;
    }
}

uint32_t
Adler32::of(std::span<const uint8_t> data)
{
    Adler32 sum;
    sum.update(data);
    return sum.value();
}

} // namespace fcc::util
