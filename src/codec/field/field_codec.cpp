/**
 * @file
 * Field-codec implementations (plain varint, zigzag-delta,
 * first-appearance dictionary, run-length) plus the analytical
 * cost model behind chooseCodec().
 */

#include "codec/field/field_codec.hpp"

#include <algorithm>
#include <vector>

#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace fcc::codec::field {

namespace {

using util::varintLen;

uint64_t
plainSize(std::span<const uint64_t> values)
{
    return util::varintLenSum(values);
}

uint64_t
zigzagDeltaSize(std::span<const uint64_t> values)
{
    // Pure per-element arithmetic (difference, zigzag, bit_width) —
    // auto-vectorizes, unlike the trial-encode it replaces.
    uint64_t bytes = 0;
    uint64_t prev = 0;
    for (uint64_t v : values) {
        bytes += varintLen(
            zigzagEncode(static_cast<int64_t>(v - prev)));
        prev = v;
    }
    return bytes;
}

/**
 * A column's dictionary in first-occurrence order, indexed by a flat
 * open-addressing table: slots hold entry positions (linear probing
 * on the mixed value), and the table doubles before it is half full.
 * Dict's size probe and its encoder both build one.
 */
class FirstOccurrenceDict
{
  public:
    /** Position of @p v in the dictionary, appending it if new. */
    uint32_t
    indexOf(uint64_t v)
    {
        if (2 * (entries_.size() + 1) > slots_.size())
            grow();
        size_t i = home(v);
        while (slots_[i] != emptySlot) {
            if (entries_[slots_[i]] == v)
                return slots_[i];
            i = (i + 1) & (slots_.size() - 1);
        }
        util::require(entries_.size() < emptySlot,
                      "field: too many distinct values for a dict");
        slots_[i] = static_cast<uint32_t>(entries_.size());
        entries_.push_back(v);
        return slots_[i];
    }

    const std::vector<uint64_t> &entries() const { return entries_; }

  private:
    static constexpr uint32_t emptySlot = ~0u;

    size_t home(uint64_t v) const
    {
        return static_cast<size_t>(util::mix64(v)) & (slots_.size() - 1);
    }

    void
    grow()
    {
        slots_.assign(std::max<size_t>(64, 2 * slots_.size()), emptySlot);
        for (size_t e = 0; e < entries_.size(); ++e) {
            size_t i = home(entries_[e]);
            while (slots_[i] != emptySlot)
                i = (i + 1) & (slots_.size() - 1);
            slots_[i] = static_cast<uint32_t>(e);
        }
    }

    std::vector<uint32_t> slots_;  ///< power-of-two size
    std::vector<uint64_t> entries_;
};

uint64_t
dictSize(std::span<const uint64_t> values)
{
    FirstOccurrenceDict dict;
    uint64_t bytes = 0;
    for (uint64_t v : values) {
        size_t known = dict.entries().size();
        uint32_t index = dict.indexOf(v);
        if (index == known)
            bytes += varintLen(v);
        bytes += varintLen(index);
    }
    return bytes + varintLen(dict.entries().size());
}

uint64_t
rleSize(std::span<const uint64_t> values)
{
    uint64_t bytes = 0;
    size_t i = 0;
    while (i < values.size()) {
        size_t run = 1;
        while (i + run < values.size() &&
               values[i + run] == values[i])
            ++run;
        bytes += varintLen(values[i]) + varintLen(run);
        i += run;
    }
    return bytes;
}

} // namespace

const char *
fieldCodecName(FieldCodec codec)
{
    switch (codec) {
      case FieldCodec::Plain:
        return "plain";
      case FieldCodec::ZigzagDelta:
        return "zigzag";
      case FieldCodec::Dict:
        return "dict";
      case FieldCodec::Rle:
        return "rle";
    }
    return "?";
}

uint64_t
encodedSize(std::span<const uint64_t> values, FieldCodec codec)
{
    switch (codec) {
      case FieldCodec::Plain:
        return plainSize(values);
      case FieldCodec::ZigzagDelta:
        return zigzagDeltaSize(values);
      case FieldCodec::Dict:
        return dictSize(values);
      case FieldCodec::Rle:
        return rleSize(values);
    }
    throw util::Error("field: bad codec tag");
}

void
floorToGrid(std::span<uint64_t> values, uint64_t quantum)
{
    util::require(quantum >= 1, "field: grid quantum must be >= 1");
    for (uint64_t &v : values)
        v -= v % quantum;
}

bool
isOnGrid(std::span<const uint64_t> values, uint64_t quantum)
{
    util::require(quantum >= 1, "field: grid quantum must be >= 1");
    for (uint64_t v : values)
        if (v % quantum != 0)
            return false;
    return true;
}

FieldCodec
chooseCodec(std::span<const uint64_t> values)
{
    FieldCodec best = FieldCodec::Plain;
    uint64_t bestSize = plainSize(values);
    const FieldCodec rest[] = {FieldCodec::ZigzagDelta,
                               FieldCodec::Dict, FieldCodec::Rle};
    for (FieldCodec codec : rest) {
        uint64_t size = encodedSize(values, codec);
        if (size < bestSize) {
            best = codec;
            bestSize = size;
        }
    }
    return best;
}

std::vector<uint8_t>
encodeColumn(std::span<const uint64_t> values, FieldCodec codec)
{
    util::ByteWriter w;
    switch (codec) {
      case FieldCodec::Plain: {
        std::vector<uint8_t> out;
        util::varintEncodeBatch(values, out);
        return out;
      }

      case FieldCodec::ZigzagDelta: {
        // Delta+zigzag is vectorizable arithmetic; materialize the
        // mapped values once, then batch-encode the varints.
        std::vector<uint64_t> mapped(values.size());
        uint64_t prev = 0;
        for (size_t i = 0; i < values.size(); ++i) {
            mapped[i] =
                zigzagEncode(static_cast<int64_t>(values[i] - prev));
            prev = values[i];
        }
        std::vector<uint8_t> out;
        util::varintEncodeBatch(mapped, out);
        return out;
      }

      case FieldCodec::Dict: {
        FirstOccurrenceDict dict;
        std::vector<uint64_t> refs;
        refs.reserve(values.size());
        for (uint64_t v : values)
            refs.push_back(dict.indexOf(v));
        std::vector<uint8_t> out;
        const uint64_t dictCount = dict.entries().size();
        util::varintEncodeBatch({&dictCount, 1}, out);
        util::varintEncodeBatch(dict.entries(), out);
        util::varintEncodeBatch(refs, out);
        return out;
      }

      case FieldCodec::Rle: {
        size_t i = 0;
        while (i < values.size()) {
            size_t run = 1;
            while (i + run < values.size() &&
                   values[i + run] == values[i])
                ++run;
            w.varint(values[i]);
            w.varint(run);
            i += run;
        }
        break;
      }

      default:
        throw util::Error("field: bad codec tag");
    }
    return w.take();
}

std::vector<uint64_t>
decodeColumn(std::span<const uint8_t> data, FieldCodec codec,
             size_t count)
{
    util::ByteReader r(data);
    std::vector<uint64_t> values;
    values.reserve(count);
    switch (codec) {
      case FieldCodec::Plain: {
        values.resize(count);
        size_t consumed = util::varintDecodeBatch(
            data.data(), data.size(), values.data(), count);
        util::require(consumed == data.size(),
                      "field: trailing bytes after column");
        return values;
      }

      case FieldCodec::ZigzagDelta: {
        values.resize(count);
        size_t consumed = util::varintDecodeBatch(
            data.data(), data.size(), values.data(), count);
        util::require(consumed == data.size(),
                      "field: trailing bytes after column");
        // Prefix sum stays serial — each element depends on the
        // previous one — but runs over registers, not the decoder.
        uint64_t prev = 0;
        for (size_t i = 0; i < count; ++i) {
            prev += static_cast<uint64_t>(zigzagDecode(values[i]));
            values[i] = prev;
        }
        return values;
      }

      case FieldCodec::Dict: {
        uint64_t dictCount = r.varint();
        // Every distinct value appears at least once, so a valid
        // dictionary is never larger than the column.
        util::require(dictCount <= count,
                      "field: dictionary larger than column");
        std::vector<uint64_t> dict(dictCount);
        size_t pos = r.position();
        pos += util::varintDecodeBatch(data.data() + pos,
                                       data.size() - pos,
                                       dict.data(), dictCount);
        std::vector<uint64_t> refs(count);
        pos += util::varintDecodeBatch(data.data() + pos,
                                       data.size() - pos,
                                       refs.data(), count);
        util::require(pos == data.size(),
                      "field: trailing bytes after column");
        values.resize(count);
        for (size_t i = 0; i < count; ++i) {
            util::require(refs[i] < dictCount,
                          "field: dictionary index out of range");
            values[i] = dict[refs[i]];
        }
        return values;
      }

      case FieldCodec::Rle: {
        while (values.size() < count) {
            uint64_t v = r.varint();
            uint64_t run = r.varint();
            util::require(run >= 1 &&
                              run <= count - values.size(),
                          "field: run length out of range");
            values.insert(values.end(), run, v);
        }
        break;
      }

      default:
        throw util::Error("field: bad codec tag");
    }
    util::require(r.exhausted(),
                  "field: trailing bytes after column");
    return values;
}

} // namespace fcc::codec::field
