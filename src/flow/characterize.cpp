/**
 * @file
 * Packet characterization: flag/ack-dependence/size classing, the
 * mixed-radix weight legality check (Weights::decodable) and the
 * S-value encode/decode of paper §2.
 */

#include "flow/characterize.hpp"

#include "util/error.hpp"

namespace fcc::flow {

namespace {

constexpr uint16_t f1Max = 3;
constexpr uint16_t f2Max = 1;
constexpr uint16_t f3Max = 2;

} // namespace

bool
Weights::decodable() const
{
    if (w1 == 0 || w2 == 0 || w3 == 0)
        return false;
    return w2 > f3Max * w3 && w1 > f2Max * w2 + f3Max * w3;
}

FlagClass
flagClass(uint8_t tcpFlags)
{
    using namespace trace::tcp_flags;
    if (tcpFlags & (Fin | Rst))
        return FlagClass::FinRst;
    if (tcpFlags & Syn)
        return (tcpFlags & Ack) ? FlagClass::SynAck : FlagClass::Syn;
    return FlagClass::Ack;
}

SizeClass
sizeClass(uint16_t payloadBytes)
{
    if (payloadBytes == 0)
        return SizeClass::Empty;
    return payloadBytes <= sizeClassBoundary ? SizeClass::Small
                                             : SizeClass::Large;
}

Characterizer::Characterizer(const Weights &weights)
    : weights_(weights)
{
    util::require(weights_.decodable(),
                  "Characterizer: weights do not form a decodable "
                  "mixed-radix code (need w2 > 2*w3 and "
                  "w1 > w2 + 2*w3)");
}

uint16_t
Characterizer::encode(const PacketClass &cls) const
{
    return static_cast<uint16_t>(
        weights_.w1 * static_cast<uint16_t>(cls.flag) +
        weights_.w2 * (cls.dependent ? 0 : 1) +
        weights_.w3 * static_cast<uint16_t>(cls.size));
}

PacketClass
Characterizer::decode(uint16_t sValue) const
{
    std::optional<PacketClass> cls = tryDecode(sValue);
    util::require(cls.has_value(), "Characterizer: invalid S value");
    return *cls;
}

std::optional<PacketClass>
Characterizer::tryDecode(uint16_t sValue) const
{
    if (sValue > maxValue())
        return std::nullopt;
    uint16_t f1 = static_cast<uint16_t>(sValue / weights_.w1);
    uint16_t rest = static_cast<uint16_t>(sValue % weights_.w1);
    uint16_t f2 = static_cast<uint16_t>(rest / weights_.w2);
    rest = static_cast<uint16_t>(rest % weights_.w2);
    if (f1 > f1Max || f2 > f2Max || rest % weights_.w3 != 0 ||
        rest / weights_.w3 > f3Max)
        return std::nullopt;
    PacketClass cls;
    cls.flag = static_cast<FlagClass>(f1);
    cls.dependent = f2 == 0;
    cls.size = static_cast<SizeClass>(rest / weights_.w3);
    return cls;
}

ClassTable::ClassTable(const Weights &weights)
{
    Characterizer chi(weights);
    classes_.resize(size_t{chi.maxValue()} + 1);
    for (size_t s = 0; s < classes_.size(); ++s)
        classes_[s] = chi.tryDecode(static_cast<uint16_t>(s));
}

void
ClassTable::invalid()
{
    throw util::Error("Characterizer: invalid S value");
}

PacketClass
Characterizer::classify(const AssembledFlow &flow,
                        const trace::Trace &trace, size_t i) const
{
    FCC_ASSERT(i < flow.size(), "packet index out of flow bounds");
    const auto &pkt = trace[flow.packetIndex[i]];
    PacketClass cls;
    cls.flag = flagClass(pkt.tcpFlags);
    cls.size = sizeClass(pkt.payloadBytes);
    // Observable acknowledgment-dependence rule: triggered by (and
    // thus waiting on) the previous packet iff directions differ.
    cls.dependent = i > 0 &&
                    flow.fromClient[i] != flow.fromClient[i - 1];
    return cls;
}

SfVector
Characterizer::characterize(const AssembledFlow &flow,
                            const trace::Trace &trace) const
{
    SfVector sf;
    sf.values.reserve(flow.size());
    for (size_t i = 0; i < flow.size(); ++i)
        sf.values.push_back(encode(classify(flow, trace, i)));
    return sf;
}

uint16_t
Characterizer::maxValue() const
{
    return static_cast<uint16_t>(weights_.w1 * f1Max +
                                 weights_.w2 * f2Max +
                                 weights_.w3 * f3Max);
}

uint64_t
sfDistance(std::span<const uint16_t> a, std::span<const uint16_t> b,
           uint64_t limit)
{
    util::require(a.size() == b.size(),
                  "sfDistance: vectors differ in length");
    uint64_t total = 0;
    for (size_t i = 0; i < a.size(); ++i) {
        int32_t diff = static_cast<int32_t>(a[i]) -
                       static_cast<int32_t>(b[i]);
        total += static_cast<uint64_t>(diff < 0 ? -diff : diff);
        if (total >= limit)
            return total;
    }
    return total;
}

} // namespace fcc::flow
