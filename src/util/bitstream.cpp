/**
 * @file
 * LSB-first bit packing (BitWriter). putHuff() reverses code bits so
 * the MSB-first Huffman codes of RFC 1951 land in stream order.
 */

#include "util/bitstream.hpp"

#include "util/error.hpp"

namespace fcc::util {

void
BitWriter::put(uint32_t value, int nbits)
{
    FCC_ASSERT(nbits >= 0 && nbits <= 32, "bit count out of range");
    uint64_t bits = value & ((uint64_t{1} << nbits) - 1);
    bitbuf_ |= bits << nbits_;
    nbits_ += nbits;
    if (nbits_ < 64)
        return;
    // The buffer is full: append it whole and keep the bits of
    // @p value that did not fit (nbits_ was >= 32 before this call).
    size_t at = buf_.size();
    buf_.resize(at + 8);
    for (int i = 0; i < 8; ++i)
        buf_[at + i] = static_cast<uint8_t>(bitbuf_ >> (8 * i));
    nbits_ -= 64;
    bitbuf_ = nbits_ > 0 ? bits >> (nbits - nbits_) : 0;
}

void
BitWriter::putHuff(uint32_t code, int nbits)
{
    // Reverse the code so the first (MSB) code bit lands in the first
    // stream bit position, per RFC 1951 section 3.1.1.
    put(reverseBits(code, nbits), nbits);
}

void
BitWriter::alignToByte()
{
    for (; nbits_ > 0; nbits_ -= 8) {
        buf_.push_back(static_cast<uint8_t>(bitbuf_));
        bitbuf_ >>= 8;
    }
    bitbuf_ = 0;
    nbits_ = 0;
}

void
BitWriter::byte(uint8_t v)
{
    FCC_ASSERT(nbits_ % 8 == 0, "byte() requires byte alignment");
    put(v, 8);
}

std::vector<uint8_t>
BitWriter::take()
{
    alignToByte();
    return std::move(buf_);
}

} // namespace fcc::util
