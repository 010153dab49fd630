/**
 * @file
 * Leader-style online cluster store: find() returns the nearest
 * template within the similarity threshold (eq. 4), insert()
 * starts a new cluster; buckets are keyed by vector length since
 * eq. 3 only compares equal-length flows.
 */

#include "flow/template_store.hpp"

#include "util/error.hpp"

namespace fcc::flow {

TemplateStore::TemplateStore(const SimilarityRule &rule)
    : rule_(rule)
{
}

std::optional<TemplateMatch>
TemplateStore::find(const SfVector &sf) const
{
    if (sf.size() >= byLength_.size())
        return std::nullopt;
    uint64_t dSim = rule_.threshold(sf.size());

    // Pick the closest qualifying template, not merely the first:
    // assigning each flow to its nearest cluster centre keeps the
    // clusters tight and the reconstruction error minimal.
    std::optional<TemplateMatch> best;
    for (uint32_t idx : byLength_[sf.size()]) {
        uint64_t d = sfDistance(templates_[idx], sf, dSim);
        if (d < dSim && (!best || d < best->distance)) {
            best = TemplateMatch{idx, false, d};
            if (d == 0)
                break;
        }
    }
    return best;
}

TemplateMatch
TemplateStore::findOrInsert(const SfVector &sf)
{
    if (auto hit = find(sf)) {
        ++populations_[hit->index];
        return *hit;
    }
    uint32_t index = insert(sf);
    ++populations_[index];
    return TemplateMatch{index, true, 0};
}

uint32_t
TemplateStore::insert(const SfVector &sf)
{
    util::require(!sf.values.empty(),
                  "TemplateStore: empty SF vector");
    uint32_t index = static_cast<uint32_t>(templates_.size());
    if (sf.size() >= byLength_.size())
        byLength_.resize(sf.size() + 1);
    byLength_[sf.size()].push_back(index);
    templates_.push_back(sf);
    populations_.push_back(0);
    return index;
}

const SfVector &
TemplateStore::at(uint32_t index) const
{
    util::require(index < templates_.size(),
                  "TemplateStore: template index out of range");
    return templates_[index];
}

} // namespace fcc::flow
