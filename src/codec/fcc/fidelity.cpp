/**
 * @file
 * The lossy fidelity transforms (docs/FIDELITY.md): each tier is a
 * pure Datasets -> Datasets function applied just before columnar
 * serialization, so every container/backend/index combination of the
 * FCC3 writer works on degraded data unchanged. The Flow tier's
 * derived fields (payload bytes, duration) are computed with the
 * same size-class and timing rules the §4 reconstruction uses — the
 * numbers a consumer reads from a flow-tier archive are exactly what
 * it would have measured on an exact-tier decode.
 */

#include "codec/fcc/fidelity.hpp"

#include <algorithm>
#include <map>

#include "codec/fcc/datasets.hpp"
#include "codec/field/field_codec.hpp"
#include "util/error.hpp"

namespace fcc::codec::fcc {

const char *
fidelityName(Fidelity fidelity)
{
    switch (fidelity) {
      case Fidelity::Exact:
        return "exact";
      case Fidelity::Quantized:
        return "quantized";
      case Fidelity::Header:
        return "header";
      case Fidelity::Flow:
        return "flow";
    }
    return "?";
}

Fidelity
parseFidelityName(const std::string &name)
{
    const Fidelity all[] = {Fidelity::Exact, Fidelity::Quantized,
                            Fidelity::Header, Fidelity::Flow};
    for (Fidelity fidelity : all)
        if (name == fidelityName(fidelity))
            return fidelity;
    throw util::Error("unknown fidelity tier: " + name);
}

namespace {

/** Floor every per-flow timestamp to the grid (order-preserving). */
Datasets
quantize(const Datasets &in, uint64_t quantumUs)
{
    util::require(quantumUs >= 1,
                  "fcc fidelity: quantum must be >= 1 us");
    Datasets out = in;
    std::vector<uint64_t> times(out.timeSeq.size());
    for (size_t i = 0; i < out.timeSeq.size(); ++i)
        times[i] = out.timeSeq[i].firstTimestampUs;
    field::floorToGrid(times, quantumUs);
    for (size_t i = 0; i < out.timeSeq.size(); ++i)
        out.timeSeq[i].firstTimestampUs = times[i];
    out.fidelity = Fidelity::Quantized;
    out.quantumUs = quantumUs;
    return out;
}

/**
 * Normalize the flag class of every packet after the first to Ack
 * (the first packet's class anchors the direction chain, so it
 * stays), keeping dependence and size class. Templates that collide
 * after the rewrite are merged and the time-seq remapped — that
 * merge, plus the collapsed short_s/long_s alphabets, is where the
 * tier's ratio win comes from.
 */
Datasets
dropFlagDetail(const Datasets &in)
{
    flow::Characterizer chi(in.weights);
    auto normalize = [&](std::vector<uint16_t> &values) {
        for (size_t i = 1; i < values.size(); ++i) {
            flow::PacketClass cls = chi.decode(values[i]);
            cls.flag = flow::FlagClass::Ack;
            values[i] = chi.encode(cls);
        }
    };

    Datasets out = in;
    out.fidelity = Fidelity::Header;

    // Short templates: normalize, then merge the collisions. The
    // remap preserves first-appearance order, so the result is
    // deterministic and independent of the original template count.
    std::map<std::vector<uint16_t>, uint32_t> seenShort;
    std::vector<uint32_t> shortRemap(out.shortTemplates.size());
    std::vector<flow::SfVector> mergedShort;
    for (size_t t = 0; t < out.shortTemplates.size(); ++t) {
        normalize(out.shortTemplates[t].values);
        auto [it, isNew] = seenShort.try_emplace(
            out.shortTemplates[t].values,
            static_cast<uint32_t>(mergedShort.size()));
        if (isNew)
            mergedShort.push_back(std::move(out.shortTemplates[t]));
        shortRemap[t] = it->second;
    }
    out.shortTemplates = std::move(mergedShort);

    // Long templates carry exact inter-packet times, so two merge
    // only when both the normalized S values and the timing match.
    std::map<std::pair<std::vector<uint16_t>, std::vector<uint64_t>>,
             uint32_t>
        seenLong;
    std::vector<uint32_t> longRemap(out.longTemplates.size());
    std::vector<LongTemplate> mergedLong;
    for (size_t t = 0; t < out.longTemplates.size(); ++t) {
        normalize(out.longTemplates[t].sValues);
        auto [it, isNew] = seenLong.try_emplace(
            std::make_pair(out.longTemplates[t].sValues,
                           out.longTemplates[t].iptUs),
            static_cast<uint32_t>(mergedLong.size()));
        if (isNew)
            mergedLong.push_back(std::move(out.longTemplates[t]));
        longRemap[t] = it->second;
    }
    out.longTemplates = std::move(mergedLong);

    for (TimeSeqRecord &rec : out.timeSeq) {
        auto &remap = rec.isLong ? longRemap : shortRemap;
        util::require(rec.templateIndex < remap.size(),
                      "fcc: template index out of range");
        rec.templateIndex = remap[rec.templateIndex];
    }
    return out;
}

/**
 * Collapse every flow to one FlowRecord, using the reconstruction
 * rules for the derived fields: payload bytes from the size-class
 * representative sizes (templateFacts), duration from the §4 timing
 * rule (flowSpan) — the rule buildArchiveIndex() bounds maxEndUs
 * with. A flow whose span is unknown (it overflows) gets the
 * saturated duration UINT64_MAX, which never prunes.
 */
Datasets
collapseToFlows(const Datasets &in)
{
    TemplateFactTable facts = templateFacts(in);

    Datasets out;
    out.weights = in.weights;
    out.fidelity = Fidelity::Flow;
    out.addresses = in.addresses;
    out.chunkSizes = in.chunkSizes;
    out.flowRecords.reserve(in.timeSeq.size());
    for (const TimeSeqRecord &rec : in.timeSeq) {
        const TemplateFacts &f = facts.of(rec.isLong, rec.templateIndex);
        util::require(rec.addressIndex < in.addresses.size(),
                      "fcc: address index out of range");
        std::optional<FlowSpan> span = flowSpan(f, rec);
        FlowRecord fl;
        fl.firstTimestampUs = rec.firstTimestampUs;
        fl.packets = static_cast<uint32_t>(f.packets);
        fl.payloadBytes = f.wireBytes - 40 * f.packets;
        fl.durationUs = span ? span->lastUs - span->firstUs : UINT64_MAX;
        fl.addressIndex = rec.addressIndex;
        out.flowRecords.push_back(fl);
    }
    return out;
}

} // namespace

Datasets
applyFidelity(const Datasets &datasets, Fidelity fidelity,
              uint64_t quantumUs)
{
    util::require(datasets.fidelity == Fidelity::Exact,
                  "fcc fidelity: datasets are already degraded");
    switch (fidelity) {
      case Fidelity::Exact:
        return datasets;
      case Fidelity::Quantized:
        return quantize(datasets, quantumUs);
      case Fidelity::Header:
        return dropFlagDetail(datasets);
      case Fidelity::Flow:
        return collapseToFlows(datasets);
    }
    throw util::Error("fcc fidelity: bad tier");
}

} // namespace fcc::codec::fcc
