/**
 * @file
 * The paper's flow characterization (§2): each packet maps to
 *
 *     S(p_i) = w1*f1(p_i) + w2*f2(p_i) + w3*f3(p_i)
 *
 * with f1 = TCP-flag class, f2 = acknowledgment dependence and
 * f3 = payload-size class; a flow of n packets becomes the vector
 * SF = <S(p_1) ... S(p_n)>. With the default weights {16, 4, 1} the
 * encoding is a mixed-radix code, so (f1, f2, f3) is exactly
 * recoverable from S — which is what makes the lossy decompressor
 * able to regenerate flags, sizes and timing.
 */

#ifndef FCC_FLOW_CHARACTERIZE_HPP
#define FCC_FLOW_CHARACTERIZE_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "flow/flow_table.hpp"
#include "trace/trace.hpp"

namespace fcc::flow {

/** TCP-flag classes of f1 (paper's "most common arrangements"). */
enum class FlagClass : uint8_t
{
    Syn = 0,     ///< SYN without ACK
    SynAck = 1,  ///< SYN+ACK
    Ack = 2,     ///< anything else (data / pure ACK / PSH)
    FinRst = 3,  ///< FIN or RST (with or without ACK)
};

/** Payload-size classes of f3. */
enum class SizeClass : uint8_t
{
    Empty = 0,   ///< no payload (control / pure ACK)
    Small = 1,   ///< (0, 500] bytes
    Large = 2,   ///< more than 500 bytes
};

/** Boundary between f3's Small and Large classes. */
constexpr uint16_t sizeClassBoundary = 500;

/** Per-parameter weights; the paper's defaults are {16, 4, 1}. */
struct Weights
{
    uint16_t w1 = 16;  ///< TCP flag class weight
    uint16_t w2 = 4;   ///< dependence weight
    uint16_t w3 = 1;   ///< payload-size class weight

    /**
     * True when S is uniquely decodable back to (f1, f2, f3), i.e.
     * the weights form a mixed-radix code:
     * w2 > f3max*w3 and w1 > f2max*w2 + f3max*w3.
     */
    bool decodable() const;
};

/** Decoded per-packet characterization. */
struct PacketClass
{
    FlagClass flag = FlagClass::Ack;
    bool dependent = false;  ///< waits on opposite-direction packet
    SizeClass size = SizeClass::Empty;

    bool operator==(const PacketClass &) const = default;
};

/** The per-flow characterization vector SF plus derived metadata. */
struct SfVector
{
    std::vector<uint16_t> values;

    size_t size() const { return values.size(); }
    bool operator==(const SfVector &) const = default;
};

/** f1: classify a TCP flag byte. */
FlagClass flagClass(uint8_t tcpFlags);

/** f3: classify a payload length. */
SizeClass sizeClass(uint16_t payloadBytes);

/**
 * Computes SF vectors under a weight configuration.
 *
 * f2 uses the observable dependence rule: packet i is dependent iff
 * its direction differs from packet i-1 of the same connection (it
 * was triggered by the opposite endpoint); the first packet is
 * independent.
 */
class Characterizer
{
  public:
    /** @throws fcc::util::Error if @p weights is not decodable. */
    explicit Characterizer(const Weights &weights = {});

    /** S value of a single classified packet. */
    uint16_t encode(const PacketClass &cls) const;

    /** Recover (f1, f2, f3) from an S value. @throws Error */
    PacketClass decode(uint16_t sValue) const;

    /** decode() without the throw: empty when @p sValue does not
     *  decode under these weights. */
    std::optional<PacketClass> tryDecode(uint16_t sValue) const;

    /** Classify packet @p i of @p flow within @p trace. */
    PacketClass
    classify(const AssembledFlow &flow, const trace::Trace &trace,
             size_t i) const;

    /** SF vector of an assembled flow. */
    SfVector
    characterize(const AssembledFlow &flow,
                 const trace::Trace &trace) const;

    /** Largest encodable S value under these weights. */
    uint16_t maxValue() const;

    const Weights &weights() const { return weights_; }

  private:
    Weights weights_;
};

/**
 * Every S value's decode under one weight configuration, done once:
 * the reconstruction looks each packet's class up instead of paying
 * decode()'s range check and three divisions per packet.
 */
class ClassTable
{
  public:
    /** @throws fcc::util::Error if @p weights is not decodable. */
    explicit ClassTable(const Weights &weights);

    /** Characterizer::decode(@p sValue).
     *  @throws fcc::util::Error when it does not decode. */
    const PacketClass &
    operator[](uint16_t sValue) const
    {
        if (sValue >= classes_.size() || !classes_[sValue])
            invalid();
        return *classes_[sValue];
    }

  private:
    [[noreturn]] static void invalid();

    std::vector<std::optional<PacketClass>> classes_;  ///< maxValue()+1
};

/**
 * L1 distance between two same-length SF vectors, early-exiting once
 * @p limit is reached (returns at least @p limit in that case).
 *
 * @throws fcc::util::Error on length mismatch.
 */
uint64_t sfDistance(const SfVector &a, const SfVector &b,
                    uint64_t limit = ~0ull);

/** Max distance between two S values of different flows (§3). */
inline constexpr uint32_t maxPacketDistance = 50;

/** Configuration of the paper's similarity rule (eq. 4). */
struct SimilarityRule
{
    /** "Similar" means closer than this percentage of the max. */
    double percent = 2.0;

    /** d_sim for n-packet flows: n * maxPacketDistance * percent /100. */
    uint64_t
    threshold(size_t n) const
    {
        return static_cast<uint64_t>(
            static_cast<double>(n) * maxPacketDistance * percent /
            100.0);
    }
};

} // namespace fcc::flow

#endif // FCC_FLOW_CHARACTERIZE_HPP
