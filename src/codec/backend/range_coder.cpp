/**
 * @file
 * Witten–Neal–Cleary binary arithmetic coder with an adaptive
 * bit-tree byte model (see range_coder.hpp). Probabilities are
 * 12-bit (P(bit == 0) out of 4096) with shift-by-5 adaptation — the
 * LZMA rate, a good fit for the mid-size columns the FCC3 container
 * feeds through it.
 */

#include "codec/backend/range_coder.hpp"

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace fcc::codec::backend {

namespace {

constexpr uint32_t kTop = 0xffffffffu;
constexpr uint32_t kHalf = 0x80000000u;
constexpr uint32_t kQuarter = 0x40000000u;
constexpr uint32_t kThreeQuarters = 0xc0000000u;

constexpr int kProbBits = 12;
constexpr uint16_t kProbOne = 1u << kProbBits;
constexpr int kAdaptShift = 5;

/**
 * Bit-tree model: node i holds P(bit == 0) after the prefix whose
 * binary representation (with a leading 1) is i. 256 nodes cover
 * all 255 contexts of one byte.
 */
struct ByteModel
{
    uint16_t p[256];

    ByteModel()
    {
        for (uint16_t &v : p)
            v = kProbOne / 2;
    }
};

/**
 * Encoder with the bit I/O inlined (an out-of-line call per bit
 * dwarfs the coding work). Bits go LSB-first within each byte and
 * the final partial byte is zero-padded.
 */
class Encoder
{
  public:
    void
    encodeBit(uint16_t &prob, int bit)
    {
        // Split [low, high] at the probability boundary; the zero
        // branch keeps the low interval.
        uint32_t mid =
            low_ + static_cast<uint32_t>(
                       (static_cast<uint64_t>(high_ - low_) * prob) >>
                       kProbBits);
        if (bit == 0) {
            high_ = mid;
            prob += (kProbOne - prob) >> kAdaptShift;
        } else {
            low_ = mid + 1;
            prob -= prob >> kAdaptShift;
        }
        for (;;) {
            if (high_ < kHalf) {
                emit(0);
            } else if (low_ >= kHalf) {
                emit(1);
                low_ -= kHalf;
                high_ -= kHalf;
            } else if (low_ >= kQuarter && high_ < kThreeQuarters) {
                ++pending_;
                low_ -= kQuarter;
                high_ -= kQuarter;
            } else {
                break;
            }
            low_ <<= 1;
            high_ = (high_ << 1) | 1;
        }
    }

    void
    encodeByte(ByteModel &model, uint8_t byte)
    {
        uint32_t ctx = 1;
        for (int i = 7; i >= 0; --i) {
            int bit = (byte >> i) & 1;
            encodeBit(model.p[ctx], bit);
            ctx = (ctx << 1) | static_cast<uint32_t>(bit);
        }
    }

    std::vector<uint8_t>
    finish()
    {
        // One disambiguating bit (plus pending underflow bits) pins
        // the final interval; the decoder zero-pads past the end.
        ++pending_;
        emit(low_ >= kQuarter ? 1 : 0);
        if (nbits_ > 0)
            buf_.push_back(static_cast<uint8_t>(bitbuf_));
        return std::move(buf_);
    }

  private:
    void
    emit(int bit)
    {
        putBit(static_cast<uint32_t>(bit));
        for (; pending_ > 0; --pending_)
            putBit(static_cast<uint32_t>(bit ^ 1));
    }

    void
    putBit(uint32_t bit)
    {
        bitbuf_ |= bit << nbits_;
        if (++nbits_ == 8) {
            buf_.push_back(static_cast<uint8_t>(bitbuf_));
            bitbuf_ = 0;
            nbits_ = 0;
        }
    }

    std::vector<uint8_t> buf_;
    uint32_t bitbuf_ = 0;
    int nbits_ = 0;
    uint32_t low_ = 0;
    uint32_t high_ = kTop;
    uint64_t pending_ = 0;
};

class Decoder
{
  public:
    explicit Decoder(std::span<const uint8_t> data) : data_(data)
    {
        for (int i = 0; i < 32; ++i)
            value_ = (value_ << 1) | nextBit();
    }

    int
    decodeBit(uint16_t &prob)
    {
        uint32_t mid =
            low_ + static_cast<uint32_t>(
                       (static_cast<uint64_t>(high_ - low_) * prob) >>
                       kProbBits);
        int bit;
        if (value_ <= mid) {
            bit = 0;
            high_ = mid;
            prob += (kProbOne - prob) >> kAdaptShift;
        } else {
            bit = 1;
            low_ = mid + 1;
            prob -= prob >> kAdaptShift;
        }
        for (;;) {
            if (high_ < kHalf) {
                // nothing to subtract
            } else if (low_ >= kHalf) {
                low_ -= kHalf;
                high_ -= kHalf;
                value_ -= kHalf;
            } else if (low_ >= kQuarter && high_ < kThreeQuarters) {
                low_ -= kQuarter;
                high_ -= kQuarter;
                value_ -= kQuarter;
            } else {
                break;
            }
            low_ <<= 1;
            high_ = (high_ << 1) | 1;
            value_ = (value_ << 1) | nextBit();
        }
        return bit;
    }

    uint8_t
    decodeByte(ByteModel &model)
    {
        uint32_t ctx = 1;
        for (int i = 0; i < 8; ++i)
            ctx = (ctx << 1) |
                  static_cast<uint32_t>(decodeBit(model.p[ctx]));
        return static_cast<uint8_t>(ctx & 0xff);
    }

  private:
    uint32_t
    nextBit()
    {
        // The encoder's flush leaves up to 32 conceptual zero bits
        // unwritten; reads past the physical end supply them.
        if (nbits_ == 0) {
            cur_ = pos_ < data_.size() ? data_[pos_++] : 0;
            nbits_ = 8;
        }
        uint32_t bit = cur_ & 1;
        cur_ >>= 1;
        --nbits_;
        return bit;
    }

    std::span<const uint8_t> data_;
    size_t pos_ = 0;
    uint32_t cur_ = 0;
    int nbits_ = 0;
    uint32_t value_ = 0;
    uint32_t low_ = 0;
    uint32_t high_ = kTop;
};

} // namespace

std::vector<uint8_t>
rangeCompress(std::span<const uint8_t> data)
{
    if (data.empty())
        return {};
    Encoder enc;
    ByteModel model;
    for (uint8_t byte : data)
        enc.encodeByte(model, byte);
    return enc.finish();
}

std::vector<uint8_t>
rangeDecompress(std::span<const uint8_t> data, size_t rawSize)
{
    std::vector<uint8_t> out;
    if (rawSize == 0) {
        util::require(data.empty(),
                      "range: trailing bytes after empty stream");
        return out;
    }
    out.reserve(rawSize);
    Decoder dec(data);
    ByteModel model;
    for (size_t i = 0; i < rawSize; ++i)
        out.push_back(dec.decodeByte(model));
    return out;
}

size_t
rangeLaneCount(size_t rawSize)
{
    // Below ~4 KiB the per-lane model restart costs more ratio than
    // independent lanes are worth; above 1 MiB there is enough work
    // for eight. Thresholds are part of the encoder policy only —
    // the payload carries its lane count.
    if (rawSize < 4096)
        return 1;
    if (rawSize < (size_t{1} << 20))
        return 4;
    return rangeMaxLanes;
}

std::vector<uint8_t>
rangeCompressLanes(std::span<const uint8_t> data)
{
    if (data.empty())
        return {};
    // Lane l holds q + (l < r) bytes: contiguous, near-equal slices,
    // each one rangeCompress() stream with its own model.
    const size_t lanes = rangeLaneCount(data.size());
    const size_t q = data.size() / lanes;
    const size_t r = data.size() % lanes;
    std::vector<uint8_t> streams[rangeMaxLanes];
    size_t off = 0;
    for (size_t l = 0; l < lanes; ++l) {
        const size_t len = q + (l < r ? 1 : 0);
        streams[l] = rangeCompress(data.subspan(off, len));
        off += len;
    }

    util::ByteWriter w;
    w.u8(static_cast<uint8_t>(lanes));
    for (size_t l = 0; l + 1 < lanes; ++l)
        w.varint(streams[l].size());
    for (size_t l = 0; l < lanes; ++l)
        w.bytes(streams[l]);
    return w.take();
}

std::vector<uint8_t>
rangeDecompressLanes(std::span<const uint8_t> data, size_t rawSize)
{
    std::vector<uint8_t> out;
    if (rawSize == 0) {
        util::require(data.empty(),
                      "range: trailing bytes after empty stream");
        return out;
    }
    util::ByteReader hdr(data);
    const size_t lanes = hdr.u8();
    util::require(lanes >= 1 && lanes <= rangeMaxLanes,
                  "range: bad lane count");
    size_t laneBytes[rangeMaxLanes] = {};
    for (size_t l = 0; l + 1 < lanes; ++l)
        laneBytes[l] = hdr.varint();

    size_t pos = hdr.position();
    std::span<const uint8_t> laneSpan[rangeMaxLanes];
    for (size_t l = 0; l + 1 < lanes; ++l) {
        util::require(laneBytes[l] <= data.size() - pos,
                      "range: truncated lane stream");
        laneSpan[l] = data.subspan(pos, laneBytes[l]);
        pos += laneBytes[l];
    }
    laneSpan[lanes - 1] = data.subspan(pos);

    // Lanes decode one after another; rangeDecompress() rejects a
    // non-empty stream for an empty lane.
    const size_t q = rawSize / lanes;
    const size_t r = rawSize % lanes;
    out.reserve(rawSize);
    for (size_t l = 0; l < lanes; ++l) {
        std::vector<uint8_t> lane =
            rangeDecompress(laneSpan[l], q + (l < r ? 1 : 0));
        out.insert(out.end(), lane.begin(), lane.end());
    }
    return out;
}

} // namespace fcc::codec::backend
