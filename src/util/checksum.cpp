/**
 * @file
 * CRC-32 (gzip polynomial): carry-less multiply folding where the CPU
 * has PCLMULQDQ, else table-driven slice-by-16 (two 64-bit words per
 * step, the one-table byte loop for the tail); and Adler-32 with the
 * standard deferred-modulo batch size (NMAX = 5552).
 */

#include "util/checksum.hpp"

#include <array>

#include "util/bytes.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define FCC_CRC_CLMUL 1
#include <immintrin.h>
#endif

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

#ifdef FCC_CRC_CLMUL
/*
 * Folding with carry-less multiplies (Gopal et al., "Fast CRC
 * Computation for Generic Polynomials Using PCLMULQDQ Instruction",
 * Intel, 2009), in the reflected bit order of the tables above. A
 * 128-bit lane of the message stands for its value times x^d, where d
 * is its distance from the end; multiplying its two 64-bit halves by
 * x^(d' - d) mod P moves it d' - d bits on, and since the message is
 * linear in GF(2) the moved lanes are XORed into the lanes there.
 * Each constant is x^n mod P bit-reflected to 32 bits and shifted up
 * one (the reflected product of two 64-bit halves is one bit short):
 * n = 4*128 + 32 and 4*128 - 32 move a lane 64 bytes on, 128 + 32 and
 * 128 - 32 move it 16 bytes on, and 64 folds the last 96 bits to 64.
 * A Barrett reduction with mu = x^64 div P (and P itself), both
 * reflected to 33 bits, leaves the 32-bit register.
 */
constexpr uint64_t clmulFold64[2] = {0x154442bd4, 0x1c6e41596};
constexpr uint64_t clmulFold16[2] = {0x1751997d0, 0x0ccaa009e};
constexpr uint64_t clmulFold96 = 0x163cd6124;
constexpr uint64_t clmulBarrett[2] = {0x1db710641, 0x1f7011641};
/** The folding loop reads four lanes at a time. */
constexpr size_t clmulMinBytes = 64;

/** a's lanes moved on by k and XORed into b. */
__attribute__((target("pclmul"))) inline __m128i
clmulFold(__m128i a, __m128i k, __m128i b)
{
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x00),
                                       _mm_clmulepi64_si128(a, k, 0x11)),
                         b);
}

/**
 * The register @p c advanced over @p n bytes at @p p; n is at least
 * clmulMinBytes and a multiple of 16.
 */
__attribute__((target("pclmul"))) uint32_t
crcClmul(uint32_t c, const uint8_t *p, size_t n)
{
    auto load = [](const uint8_t *q) {
        return _mm_loadu_si128(reinterpret_cast<const __m128i *>(q));
    };
    __m128i x0 =
        _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
    __m128i x1 = load(p + 16), x2 = load(p + 32), x3 = load(p + 48);
    p += 64;
    n -= 64;
    __m128i k = _mm_set_epi64x(static_cast<long long>(clmulFold64[1]),
                               static_cast<long long>(clmulFold64[0]));
    for (; n >= 64; p += 64, n -= 64) {
        x0 = clmulFold(x0, k, load(p));
        x1 = clmulFold(x1, k, load(p + 16));
        x2 = clmulFold(x2, k, load(p + 32));
        x3 = clmulFold(x3, k, load(p + 48));
    }
    k = _mm_set_epi64x(static_cast<long long>(clmulFold16[1]),
                       static_cast<long long>(clmulFold16[0]));
    x0 = clmulFold(x0, k, x1);
    x0 = clmulFold(x0, k, x2);
    x0 = clmulFold(x0, k, x3);
    for (; n >= 16; p += 16, n -= 16)
        x0 = clmulFold(x0, k, load(p));

    // 128 bits to 96: the low half moves 64 bits on.
    const __m128i low32 = _mm_set_epi32(0, -1, 0, -1);
    x0 = _mm_xor_si128(_mm_clmulepi64_si128(x0, k, 0x10),
                       _mm_srli_si128(x0, 8));
    // 96 bits to 64.
    k = _mm_set_epi64x(0, static_cast<long long>(clmulFold96));
    x0 = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k, 0x00),
        _mm_srli_si128(x0, 4));
    // Barrett: 64 bits to the 32-bit remainder.
    k = _mm_set_epi64x(static_cast<long long>(clmulBarrett[1]),
                       static_cast<long long>(clmulBarrett[0]));
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k, 0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), k, 0x00);
    x0 = _mm_xor_si128(x0, t);
    return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x0, 4)));
}

const bool haveClmul =
    (__builtin_cpu_init(), __builtin_cpu_supports("pclmul"));
#endif

/** The register @p c advanced over @p n bytes at @p p. */
inline uint32_t
crcUpdate(uint32_t c, const uint8_t *p, size_t n)
{
#ifdef FCC_CRC_CLMUL
    if (n >= clmulMinBytes && haveClmul) {
        size_t bulk = n & ~size_t{15};
        c = crcClmul(c, p, bulk);
        p += bulk;
        n -= bulk;
    }
#endif
    return crcSlice16(c, p, n);
}

// Largest n such that 255n(n+1)/2 + (n+1)(65520) fits in 32 bits.
constexpr size_t adlerNmax = 5552;
constexpr uint32_t adlerBase = 65521;

} // namespace

void
Crc32::update(std::span<const uint8_t> data)
{
    state_ = crcUpdate(state_, data.data(), data.size());
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
