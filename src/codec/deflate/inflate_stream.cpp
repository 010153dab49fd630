/**
 * @file
 * Table-driven resumable DEFLATE decoder (64-bit bit buffer, lookup-
 * table Huffman decode, linear output buffer with word-wise match
 * copies) and the streaming gzip member reader layered on top of it.
 */

#include "codec/deflate/inflate_stream.hpp"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstring>

#include "codec/deflate/rfc1951.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace fcc::codec::deflate {

namespace {

/** Largest LZ77 match — the most one decoded symbol can emit. */
constexpr size_t maxMatchRun = 258;
/** A match copy may write up to 31 bytes past its end. */
constexpr size_t copySlack = 32;
static_assert(InflateStream::symbolRoom == maxMatchRun + copySlack);
/** No DEFLATE stream expands by more than this (258 bytes/2 bits). */
constexpr size_t maxExpansion = 1032;
/**
 * Input the fast symbol loop needs ahead: every refill there takes
 * the word path, with a margin past the 8 bytes one load reads.
 */
constexpr size_t fastInputBytes = 16;

/** How long a side of the gzip read-ahead ring spins before it blocks. */
constexpr auto spinBound = std::chrono::milliseconds(1);

/** The CPU the calling thread runs on, or -1 where unknown. */
inline int
currentCpu()
{
#ifdef __linux__
    return sched_getcpu();
#else
    return -1;
#endif
}

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

const HuffmanDecoder &
fixedLitCode()
{
    static const HuffmanDecoder code(fixedLitLengths(), 257, lengthExtra);
    return code;
}

const HuffmanDecoder &
fixedDistCode()
{
    static const HuffmanDecoder code(fixedDistLengths(), 0, distExtra);
    return code;
}

[[noreturn]] void
throwTruncated()
{
    throw util::Error("inflate: truncated stream");
}

[[noreturn]] void
throwInvalidCode()
{
    throw util::Error("inflate: invalid Huffman code");
}

/**
 * Copy a @p len byte match from @p d bytes back to @p out; returns
 * the end of the copy. May write up to copySlack - 1 bytes past it.
 */
inline uint8_t *
copyMatch(uint8_t *out, uint32_t d, uint32_t len)
{
    const uint8_t *src = out - d;
    uint8_t *const end = out + len;
    if (d >= 16) {
        // 16-byte copies never read bytes this match still writes.
        // Most matches are 32 bytes or less: their first 32 bytes go
        // without a loop, whose exit branch would often mispredict.
        std::memcpy(out, src, 16);
        std::memcpy(out + 16, src + 16, 16);
        if (len > 32) {
            out += 32;
            src += 32;
            do {
                std::memcpy(out, src, 16);
                out += 16;
                src += 16;
            } while (out < end);
        }
    } else if (d >= 8) {
        // Word copies never read bytes this match still writes.
        do {
            std::memcpy(out, src, 8);
            out += 8;
            src += 8;
        } while (out < end);
    } else {
        // Overlapping: each byte may be one the copy produced.
        do {
            *out++ = *src++;
        } while (out < end);
    }
    return end;
}

} // namespace

// ---- InflateStream -------------------------------------------------

InflateStream::InflateStream(std::span<const uint8_t> compressed)
    : in_(compressed.data()), inLen_(compressed.size())
{}

inline void
InflateStream::refill()
{
    if (inLen_ - inPos_ >= 8) [[likely]] {
        // Branch-free: load a whole word, count only the bytes that
        // fit. The bits of the next byte that also landed are that
        // byte's own bits, so the next refill ORs them in unchanged.
        bitBuf_ |= util::loadLe64(in_ + inPos_) << bitCount_;
        inPos_ += (63 - bitCount_) >> 3;
        bitCount_ |= 56;
    } else {
        // Near the end: byte by byte, never past the input.
        while (bitCount_ <= 56 && inPos_ < inLen_) {
            bitBuf_ |= static_cast<uint64_t>(in_[inPos_++]) << bitCount_;
            bitCount_ += 8;
        }
    }
}

inline uint32_t
InflateStream::bits(unsigned n)
{
    if (bitCount_ < n) [[unlikely]] {
        refill();
        if (bitCount_ < n)
            throwTruncated();
    }
    uint32_t v = static_cast<uint32_t>(bitBuf_ & ((uint64_t{1} << n) - 1));
    bitBuf_ >>= n;
    bitCount_ -= n;
    return v;
}

inline unsigned
InflateStream::symbol(const HuffmanDecoder &code)
{
    if (bitCount_ < HuffmanDecoder::maxCodeBits)
        refill();
    HuffmanDecoder::Symbol s = code.lookup(bitBuf_);
    if (s.length == 0 || s.length > bitCount_) [[unlikely]] {
        // Past the end of the input the lookup sees zero padding and
        // may resolve to a code longer than the bits really there.
        if (s.length == 0)
            throwInvalidCode();
        throwTruncated();
    }
    bitBuf_ >>= s.length;
    bitCount_ -= s.length;
    return s.symbol;
}

void
InflateStream::readBlockHeader()
{
    finalBlock_ = bits(1) != 0;
    uint32_t btype = bits(2);
    util::require(btype != 3, "inflate: reserved block type");
    inBlock_ = true;
    storedBlock_ = btype == 0;
    if (storedBlock_) {
        // Skip to the byte boundary; bit counts and input positions
        // are byte-aligned together.
        unsigned drop = bitCount_ & 7;
        bitBuf_ >>= drop;
        bitCount_ -= drop;
        uint32_t len = bits(16);
        uint32_t nlen = bits(16);
        util::require((len ^ nlen) == 0xffff,
                      "inflate: stored block LEN/NLEN mismatch");
        storedLeft_ = len;
    } else if (btype == 1) {
        lit_ = &fixedLitCode();
        dist_ = &fixedDistCode();
    } else {
        readDynamicTables();
    }
}

void
InflateStream::readDynamicTables()
{
    uint32_t hlit = bits(5) + 257;
    uint32_t hdist = bits(5) + 1;
    uint32_t hclen = bits(4) + 4;
    util::require(hlit <= 286 && hdist <= 30, "inflate: bad HLIT/HDIST");
    uint8_t clcLens[19] = {};
    for (uint32_t i = 0; i < hclen; ++i)
        clcLens[clcOrder[i]] = static_cast<uint8_t>(bits(3));
    HuffmanDecoder clc(clcLens);

    uint8_t lens[286 + 30];
    const uint32_t total = hlit + hdist;
    uint32_t n = 0;
    while (n < total) {
        unsigned sym = symbol(clc);
        if (sym < 16) {
            lens[n++] = static_cast<uint8_t>(sym);
            continue;
        }
        uint8_t value = 0;
        uint32_t rep;
        if (sym == 16) {
            util::require(n > 0,
                          "inflate: repeat with no previous length");
            value = lens[n - 1];
            rep = 3 + bits(2);
        } else if (sym == 17) {
            rep = 3 + bits(3);
        } else {
            rep = 11 + bits(7);
        }
        util::require(rep <= total - n, "inflate: code length overflow");
        std::memset(lens + n, value, rep);
        n += rep;
    }
    dynLit_.emplace(std::span<const uint8_t>(lens, hlit), 257, lengthExtra);
    dynDist_.emplace(std::span<const uint8_t>(lens + hlit, hdist), 0,
                     distExtra);
    lit_ = &*dynLit_;
    dist_ = &*dynDist_;
}

size_t
InflateStream::copyStored(uint8_t *buf, size_t pos, size_t cap)
{
    // Whole bytes already in the bit buffer come first.
    while (storedLeft_ > 0 && bitCount_ >= 8 && pos < cap) {
        buf[pos++] = static_cast<uint8_t>(bitBuf_);
        bitBuf_ >>= 8;
        bitCount_ -= 8;
        --storedLeft_;
    }
    if (storedLeft_ > 0 && bitCount_ == 0) {
        // The rest straight from the input. Any bits left above the
        // count belong to bytes copied here: drop them.
        bitBuf_ = 0;
        size_t take = std::min({static_cast<size_t>(storedLeft_),
                                cap - pos, inLen_ - inPos_});
        std::memcpy(buf + pos, in_ + inPos_, take);
        pos += take;
        inPos_ += take;
        storedLeft_ -= static_cast<uint32_t>(take);
        if (storedLeft_ > 0 && inPos_ == inLen_) {
            stopped_ = pos;
            throwTruncated();
        }
    }
    if (storedLeft_ == 0) {
        inBlock_ = false;
        done_ = finalBlock_;
    }
    return pos;
}

size_t
InflateStream::decodeHuffman(uint8_t *buf, size_t pos, size_t cap)
{
    if (cap - pos < symbolRoom)
        return pos;
    const HuffmanDecoder &lit = *lit_;
    const HuffmanDecoder &dist = *dist_;
    uint8_t *out = buf + pos;
    uint8_t *const limit = buf + (cap - symbolRoom);
    try {
        // Fast loop, while fastInputBytes of input remain: every refill
        // loads a whole word and leaves at least 56 bits, enough for two
        // literals or a length/distance pair (15 + 5 + 15 + 13 bits), so
        // no decode here can run out of bits and none checks for it. The
        // bit buffer lives in locals: stores through the byte output
        // pointer could otherwise alias the members.
        {
            uint64_t bitBuf = bitBuf_;
            unsigned bitCount = bitCount_;
            size_t inPos = inPos_;
            auto take = [&](unsigned n) {
                uint32_t v =
                    static_cast<uint32_t>(bitBuf & ((uint64_t{1} << n) - 1));
                bitBuf >>= n;
                bitCount -= n;
                return v;
            };
            bool blockEnd = false;
            while (out <= limit && inLen_ - inPos >= fastInputBytes) {
                bitBuf |= util::loadLe64(in_ + inPos) << bitCount;
                inPos += (63 - bitCount) >> 3;
                bitCount |= 56;

                HuffmanDecoder::Symbol s = lit.lookup(bitBuf);
                if (s.length == 0) [[unlikely]]
                    throwInvalidCode();
                take(s.length);
                if (s.symbol < 256) {
                    *out++ = static_cast<uint8_t>(s.symbol);
                    // A second literal fits in the same refill; anything
                    // else waits for the next one.
                    s = lit.lookup(bitBuf);
                    if (s.length != 0 && s.symbol < 256) {
                        take(s.length);
                        *out++ = static_cast<uint8_t>(s.symbol);
                    }
                    continue;
                }
                if (s.symbol == endOfBlock) {
                    blockEnd = true;
                    break;
                }
                util::require(s.symbol <= 285, "inflate: bad length symbol");
                // The extra bit counts come with the codes: no table
                // lookup stands between one code and the next.
                uint32_t len = lengthBase[s.symbol - 257] + take(s.extra);
                HuffmanDecoder::Symbol ds = dist.lookup(bitBuf);
                if (ds.length == 0) [[unlikely]]
                    throwInvalidCode();
                take(ds.length);
                util::require(ds.symbol < numDistCodes,
                              "inflate: bad distance symbol");
                uint32_t d = distBase[ds.symbol] + take(ds.extra);
                util::require(d <= static_cast<size_t>(out - buf),
                              "inflate: distance beyond output");
                out = copyMatch(out, d, len);
            }
            bitBuf_ = bitBuf;
            bitCount_ = bitCount;
            inPos_ = inPos;
            if (blockEnd) {
                inBlock_ = false;
                done_ = finalBlock_;
                return static_cast<size_t>(out - buf);
            }
        }

        // The tail: near the end of the input, refills and decodes check
        // every bit they take.
        while (out <= limit) {
            // One refill covers a whole length/distance pair: 15 + 5 +
            // 15 + 13 bits, within the 56 a refill guarantees mid-stream.
            refill();
            unsigned sym = symbol(lit);
            if (sym < 256) {
                *out++ = static_cast<uint8_t>(sym);
                continue;
            }
            if (sym == endOfBlock) {
                inBlock_ = false;
                done_ = finalBlock_;
                break;
            }
            util::require(sym <= 285, "inflate: bad length symbol");
            unsigned li = sym - 257;
            uint32_t len = lengthBase[li] + bits(lengthExtra[li]);
            unsigned dsym = symbol(dist);
            util::require(dsym < numDistCodes,
                          "inflate: bad distance symbol");
            uint32_t d = distBase[dsym] + bits(distExtra[dsym]);
            util::require(d <= static_cast<size_t>(out - buf),
                          "inflate: distance beyond output");
            out = copyMatch(out, d, len);
        }
    } catch (...) {
        stopped_ = static_cast<size_t>(out - buf);  // every whole symbol
        throw;
    }
    return static_cast<size_t>(out - buf);
}

size_t
InflateStream::decode(uint8_t *buf, size_t pos, size_t cap)
{
    if (error_)
        return pos;
    try {
        while (!done_) {
            stopped_ = pos;
            if (!inBlock_) {
                readBlockHeader();
                continue;
            }
            pos = storedBlock_ ? copyStored(buf, pos, cap)
                               : decodeHuffman(buf, pos, cap);
            if (inBlock_)
                break;  // buffer full
        }
    } catch (...) {
        error_ = std::current_exception();
        return stopped_;
    }
    return pos;
}

std::vector<uint8_t>
InflateStream::readAll(size_t sizeHint)
{
    // A corrupt size hint must not allocate beyond what the input can
    // possibly expand to.
    size_t bound = inLen_ * maxExpansion;
    size_t want = sizeHint > 0 ? std::min(sizeHint, bound)
                               : std::max<size_t>(4 * inLen_, 4096);
    std::vector<uint8_t> out(want + symbolRoom);
    size_t pos = 0;
    for (;;) {
        pos = decode(out.data(), pos, out.size());
        if (error_)
            std::rethrow_exception(error_);
        if (done_)
            break;
        out.resize(2 * out.size());
    }
    out.resize(pos);
    return out;
}

// ---- gzip framing --------------------------------------------------

size_t
gzipHeaderSize(std::span<const uint8_t> data)
{
    util::require(data.size() >= 10, "gzip: truncated header");
    util::require(data[0] == 0x1f && data[1] == 0x8b,
                  "gzip: bad magic");
    util::require(data[2] == 8, "gzip: not deflate");
    uint8_t flg = data[3];
    util::require((flg & 0xe0) == 0, "gzip: reserved flag bits set");
    size_t pos = 10;
    if (flg & 0x04) {  // FEXTRA
        util::require(data.size() >= pos + 2,
                      "gzip: truncated FEXTRA");
        uint16_t xlen = static_cast<uint16_t>(data[pos] |
                                              data[pos + 1] << 8);
        pos += 2 + xlen;
        util::require(pos <= data.size(), "gzip: truncated FEXTRA");
    }
    auto skipZeroTerminated = [&data, &pos](const char *what) {
        while (pos < data.size() && data[pos] != 0)
            ++pos;
        util::require(pos < data.size(), what);
        ++pos;
    };
    if (flg & 0x08)  // FNAME
        skipZeroTerminated("gzip: truncated FNAME");
    if (flg & 0x10)  // FCOMMENT
        skipZeroTerminated("gzip: truncated FCOMMENT");
    if (flg & 0x02) {  // FHCRC
        pos += 2;
        util::require(pos <= data.size(), "gzip: truncated FHCRC");
    }
    return pos;
}

GzipInflateSource::GzipInflateSource(
    std::unique_ptr<util::ByteSource> inner)
    : inner_(std::move(inner))
{
    data_ = inner_->contiguous();
    if (data_.empty()) {
        // Source cannot expose its content in place (stdio, gzip-in-
        // gzip); buffer the compressed bytes — still bounded by the
        // compressed size, never the decompressed one.
        uint8_t buf[1 << 16];
        size_t n;
        while ((n = inner_->read(buf, sizeof(buf))) > 0)
            owned_.insert(owned_.end(), buf, buf + n);
        data_ = {owned_.data(), owned_.size()};
    }
    startMember();
    ring_.reset(new uint8_t[ringSlots * (slotHistory + slotBytes)]);
    // The first slot fills here, on the caller's thread: a stream
    // that ends within it never starts the helper.
    if (inflateSlot(0))
        helper_ = std::thread([this] { inflateAhead(1); });
}

GzipInflateSource::~GzipInflateSource()
{
    if (!helper_.joinable())
        return;
    publish(stop_, true);
    helper_.join();
}

void
GzipInflateSource::startMember()
{
    pos_ += gzipHeaderSize(data_.subspan(pos_));
    stream_ = std::make_unique<InflateStream>(data_.subspan(pos_));
    history_ = 0;
}

/*
 * A side that finds the ring empty (the caller) or full (the helper)
 * spins for up to spinBound before it blocks, unless the other side
 * last ran on this CPU. A thread woken from a block is often placed
 * on its waker's CPU, where the two then share one core; spinning
 * through the short waits of a running stream keeps each on its
 * own. Where the two do share a CPU (a new thread starts on its
 * creator's, and stays there where the scheduler does not balance),
 * a spin only holds the CPU the other side needs, so the waiter
 * blocks at once. Until a side has run its first slot its CPU is
 * unknown (-1), and the other spins: one bounded spin also shows a
 * balancing scheduler two runnable threads on one CPU.
 */
template <class Ready>
void
GzipInflateSource::await(const std::atomic<int> &otherCpu,
                         const Ready &ready)
{
    if (ready())
        return;
    int self = currentCpu();
    if (self < 0 || self != otherCpu.load(std::memory_order_relaxed)) {
        auto deadline = std::chrono::steady_clock::now() + spinBound;
        do {
            for (int i = 0; i < 64; ++i) {
                cpuRelax();
                if (ready())
                    return;
            }
        } while (std::chrono::steady_clock::now() < deadline);
    }
    std::unique_lock<std::mutex> lock(mutex_);
    wake_.wait(lock, ready);
}

template <class T>
void
GzipInflateSource::publish(std::atomic<T> &flag, T value)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        flag.store(value, std::memory_order_release);
    }
    wake_.notify_all();
}

void
GzipInflateSource::inflateAhead(uint64_t first)
{
    for (uint64_t k = first;; ++k) {
        await(readerCpu_, [this, k] {
            return stop_.load(std::memory_order_acquire) ||
                   k - freed_.load(std::memory_order_acquire) <
                       ringSlots;
        });
        if (stop_.load(std::memory_order_acquire))
            return;
        fillerCpu_.store(currentCpu(), std::memory_order_relaxed);
        if (!inflateSlot(k))
            return;
    }
}

bool
GzipInflateSource::inflateSlot(uint64_t k)
{
    Slot &slot = slots_[k % ringSlots];
    slot = Slot{};
    bool more = false;
    try {
        more = fillSlot(slot, slotData(k));
    } catch (...) {
        slot.error = std::current_exception();
        more = false;
    }
    publish(filled_, k + 1);
    return more;
}

bool
GzipInflateSource::fillSlot(Slot &slot, uint8_t *bytes)
{
    // The stream decodes straight into the slot, behind a copy of the
    // member's last history_ bytes (the window back-references reach
    // into), taken from the end of the previous slot.
    if (history_ > 0)
        std::memcpy(bytes - history_, historyEnd_ - history_, history_);
    uint8_t *buf = bytes - history_;
    size_t end = stream_->decode(buf, history_, history_ + slotBytes);
    slot.size = end - history_;
    historyEnd_ = buf + end;
    history_ = std::min(end, slotHistory);
    if (stream_->error())
        std::rethrow_exception(stream_->error());  // after slot.size
    if (!stream_->finished())
        return true;

    // Member finished: hand its trailer to the caller, who checks it
    // once the member's bytes are read.
    size_t trailer = pos_ + stream_->compressedBytesConsumed();
    util::require(data_.size() - trailer >= 8,
                  "gzip: truncated member trailer");
    const uint8_t *t = data_.data() + trailer;
    for (int i = 0; i < 4; ++i) {
        slot.wantCrc |= static_cast<uint32_t>(t[i]) << (8 * i);
        slot.wantSize |= static_cast<uint32_t>(t[4 + i]) << (8 * i);
    }
    slot.endsMember = true;
    pos_ = trailer + 8;
    slot.last = pos_ == data_.size();
    if (!slot.last)
        startMember();  // concatenated members stream transparently
    return !slot.last;
}

size_t
GzipInflateSource::read(uint8_t *out, size_t maxLen)
{
    if (failed_)
        std::rethrow_exception(failed_);
    if (done_ || maxLen == 0)
        return 0;
    try {
        // Only this thread stores freed_.
        uint64_t k = freed_.load(std::memory_order_relaxed);
        for (;;) {
            await(fillerCpu_, [this, k] {
                return filled_.load(std::memory_order_acquire) > k;
            });
            const Slot &slot = slots_[k % ringSlots];
            if (slotPos_ < slot.size) {
                size_t n = std::min(maxLen, slot.size - slotPos_);
                std::memcpy(out, slotData(k) + slotPos_, n);
                crc_.update({out, n});
                memberBytes_ += n;
                slotPos_ += n;
                return n;
            }

            if (slot.endsMember) {
                util::require(crc_.value() == slot.wantCrc,
                              "gzip: CRC-32 mismatch");
                util::require(static_cast<uint32_t>(memberBytes_) ==
                                  slot.wantSize,
                              "gzip: length mismatch");
                crc_ = util::Crc32();
                memberBytes_ = 0;
            }
            if (slot.error)
                std::rethrow_exception(slot.error);
            done_ = slot.last;
            slotPos_ = 0;
            readerCpu_.store(currentCpu(), std::memory_order_relaxed);
            publish(freed_, ++k);
            if (done_)
                return 0;
        }
    } catch (...) {
        failed_ = std::current_exception();
        throw;
    }
}

} // namespace fcc::codec::deflate
