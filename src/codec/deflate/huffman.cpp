/**
 * @file
 * Package-merge (coin collector) construction of length-limited
 * optimal code lengths, canonical code assignment, and the
 * lookup-table decoder used by the inflater.
 */

#include "codec/deflate/huffman.hpp"

#include <algorithm>
#include <numeric>

#include "util/bitstream.hpp"
#include "util/error.hpp"

namespace fcc::codec::deflate {

namespace {

/**
 * One package-merge item: a weight plus either one leaf (a symbol)
 * or a package of two consecutive items of the level below.
 */
struct Item
{
    uint64_t weight = 0;
    int32_t symbol = 0;  ///< leaf symbol, or isPackage

    static constexpr int32_t isPackage = -1;
};

bool
itemLess(const Item &a, const Item &b)
{
    return a.weight < b.weight;
}

} // namespace

std::vector<uint8_t>
buildCodeLengths(std::span<const uint64_t> freqs, int maxBits)
{
    util::require(maxBits >= 1 && maxBits <= 15,
                  "buildCodeLengths: maxBits out of range");

    std::vector<uint16_t> used;
    for (uint16_t sym = 0; sym < freqs.size(); ++sym)
        if (freqs[sym] > 0)
            used.push_back(sym);

    std::vector<uint8_t> lengths(freqs.size(), 0);
    if (used.empty())
        return lengths;
    if (used.size() == 1) {
        lengths[used[0]] = 1;
        return lengths;
    }
    util::require(used.size() <= (1ull << maxBits),
                  "buildCodeLengths: too many symbols for maxBits");

    // Package-merge: build per-level lists; leaves at every level,
    // plus pairs packaged from the level below. Selecting the
    // 2*(n-1) cheapest items of the top list yields, per leaf, its
    // optimal depth count = code length.
    std::vector<Item> leafItems;
    leafItems.reserve(used.size());
    for (uint16_t sym : used)
        leafItems.push_back(Item{freqs[sym], sym});
    std::sort(leafItems.begin(), leafItems.end(), itemLess);

    std::vector<std::vector<Item>> levels(maxBits);
    levels[0] = leafItems;
    std::vector<Item> pairs;
    for (int level = 1; level < maxBits; ++level) {
        const std::vector<Item> &below = levels[level - 1];
        pairs.clear();
        for (size_t i = 0; i + 1 < below.size(); i += 2)
            pairs.push_back(Item{below[i].weight + below[i + 1].weight,
                                 Item::isPackage});
        std::vector<Item> &merged = levels[level];
        merged.reserve(leafItems.size() + pairs.size());
        std::merge(leafItems.begin(), leafItems.end(), pairs.begin(),
                   pairs.end(), std::back_inserter(merged), itemLess);
    }

    // A package among a level's first k items stands for the next
    // two items of the level below, in order: the first p packages
    // of a level cover exactly the first 2p items below it.
    size_t take = 2 * (used.size() - 1);
    FCC_ASSERT(levels.back().size() >= take,
               "package-merge produced too few items");
    for (int level = maxBits - 1; level >= 0; --level) {
        size_t packages = 0;
        for (size_t i = 0; i < take; ++i) {
            const Item &item = levels[level][i];
            if (item.symbol == Item::isPackage)
                ++packages;
            else
                ++lengths[item.symbol];
        }
        take = 2 * packages;
    }

    return lengths;
}

std::vector<uint16_t>
canonicalCodes(std::span<const uint8_t> lengths)
{
    int maxLen = 0;
    for (uint8_t len : lengths)
        maxLen = std::max(maxLen, static_cast<int>(len));
    util::require(maxLen <= 15, "canonicalCodes: length > 15");

    std::vector<uint32_t> countPerLen(maxLen + 1, 0);
    for (uint8_t len : lengths)
        if (len > 0)
            ++countPerLen[len];

    std::vector<uint32_t> nextCode(maxLen + 1, 0);
    uint32_t code = 0;
    for (int len = 1; len <= maxLen; ++len) {
        code = (code + countPerLen[len - 1]) << 1;
        nextCode[len] = code;
    }

    std::vector<uint16_t> codes(lengths.size(), 0);
    for (size_t sym = 0; sym < lengths.size(); ++sym) {
        if (lengths[sym] > 0)
            codes[sym] =
                static_cast<uint16_t>(nextCode[lengths[sym]]++);
    }
    return codes;
}

HuffmanDecoder::HuffmanDecoder(std::span<const uint8_t> lengths,
                               unsigned extraFirst,
                               std::span<const uint8_t> extra)
{
    uint16_t counts[maxCodeBits + 1] = {};
    for (uint8_t len : lengths) {
        util::require(len <= maxCodeBits,
                      "HuffmanDecoder: code length > 15");
        ++counts[len];
    }
    counts[0] = 0;

    // Kraft check: left = remaining code space after each length.
    int64_t left = 1;
    int maxLen = 0;
    for (int len = 1; len <= maxCodeBits; ++len) {
        left <<= 1;
        left -= counts[len];
        util::require(left >= 0,
                      "HuffmanDecoder: over-subscribed code");
        used_ += counts[len];
        if (counts[len] > 0)
            maxLen = len;
    }
    bool singleOneBit = used_ == 1 && counts[1] == 1;
    if (left > 0 && !(used_ == 0 || singleOneBit))
        throw util::Error("HuffmanDecoder: incomplete code");

    // Symbols in canonical order (by length, then symbol value).
    uint16_t offsets[maxCodeBits + 2] = {};
    for (int len = 1; len <= maxCodeBits; ++len)
        offsets[len + 1] =
            static_cast<uint16_t>(offsets[len] + counts[len]);
    std::vector<uint16_t> sorted(used_);
    for (size_t sym = 0; sym < lengths.size(); ++sym)
        if (lengths[sym] > 0)
            sorted[offsets[lengths[sym]]++] =
                static_cast<uint16_t>(sym);

    tableBits_ = std::clamp(maxLen, 1, primaryBits);
    primaryMask_ = (1u << tableBits_) - 1;
    table_.assign(size_t{1} << tableBits_, 0);

    // Canonical (MSB-first) codes, in canonical order.
    std::vector<uint16_t> codes(used_);
    uint32_t next = 0;
    for (int len = 1, k = 0; len <= maxCodeBits; ++len, next <<= 1)
        for (int c = 0; c < counts[len]; ++c)
            codes[k++] = static_cast<uint16_t>(next++);
    auto lengthOf = [&](size_t k) { return lengths[sorted[k]]; };
    auto prefixOf = [&](size_t k) {
        return codes[k] >> (lengthOf(k) - tableBits_);
    };

    // A code that fits the primary table fills every slot its bits
    // prefix; a longer one lands in the subtable of its primary
    // prefix. Canonical codes increase when left-aligned, so codes
    // sharing a prefix are contiguous and the last is the longest:
    // it sizes the subtable.
    size_t subOffset = 0;
    for (size_t k = 0; k < used_; ++k) {
        int len = lengthOf(k);
        uint32_t rev = util::reverseBits(codes[k], len);
        unsigned sym = sorted[k];
        uint32_t entry = static_cast<uint32_t>(sym) << 16 |
                         static_cast<uint32_t>(len);
        if (sym >= extraFirst && sym - extraFirst < extra.size()) {
            FCC_ASSERT(extra[sym - extraFirst] <= extraMask,
                       "Huffman extra bit count overflow");
            entry |= static_cast<uint32_t>(extra[sym - extraFirst]) << 8;
        }
        if (len <= tableBits_) {
            for (uint32_t i = rev; i < table_.size(); i += 1u << len)
                table_[i] = entry;
            continue;
        }
        uint32_t prefix = rev & primaryMask_;
        if (k == 0 || lengthOf(k - 1) <= tableBits_ ||
            prefixOf(k - 1) != prefixOf(k)) {
            size_t last = k;
            while (last + 1 < used_ && prefixOf(last + 1) == prefixOf(k))
                ++last;
            uint32_t subBits = lengthOf(last) - tableBits_;
            subOffset = table_.size();
            FCC_ASSERT(subOffset <= 0xffff,
                       "Huffman subtable offset overflow");
            table_.resize(subOffset + (size_t{1} << subBits), 0);
            table_[prefix] = static_cast<uint32_t>(subOffset) << 16 |
                             subBits << 8 | subtableFlag;
        }
        uint32_t subSize = 1u << ((table_[prefix] >> 8) & 0xf);
        for (uint32_t i = rev >> tableBits_; i < subSize;
             i += 1u << (len - tableBits_))
            table_[subOffset + i] = entry;
    }
}

} // namespace fcc::codec::deflate
