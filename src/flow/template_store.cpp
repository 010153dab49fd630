/**
 * @file
 * Leader-style online cluster store: find() returns the nearest
 * template within the similarity threshold (eq. 4), insert()
 * starts a new cluster; buckets are keyed by vector length since
 * eq. 3 only compares equal-length flows.
 */

#include "flow/template_store.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace fcc::flow {

TemplateStore::TemplateStore(const SimilarityRule &rule)
    : rule_(rule)
{
}

void
TemplateStore::closer(std::span<const uint16_t> values, uint32_t from,
                      std::optional<TemplateMatch> &best) const
{
    if (values.size() >= byLength_.size() ||
        (best && best->distance == 0))
        return;
    // Pick the closest qualifying template, not merely the first:
    // assigning each flow to its nearest cluster centre keeps the
    // clusters tight and the reconstruction error minimal. Nothing
    // at or past the best distance so far can win, so the distance
    // stops counting there.
    uint64_t limit =
        best ? best->distance : rule_.threshold(values.size());
    const std::vector<uint32_t> &bucket = byLength_[values.size()];
    for (auto it = std::lower_bound(bucket.begin(), bucket.end(), from);
         it != bucket.end(); ++it) {
        uint64_t d = sfDistance(templates_[*it].values, values, limit);
        if (d < limit) {
            best = TemplateMatch{*it, false, d};
            limit = d;
            if (d == 0)
                break;
        }
    }
}

std::optional<TemplateMatch>
TemplateStore::find(std::span<const uint16_t> values) const
{
    std::optional<TemplateMatch> best;
    closer(values, 0, best);
    return best;
}

TemplateMatch
TemplateStore::findOrInsert(std::span<const uint16_t> values,
                            std::optional<TemplateMatch> older,
                            uint32_t searched)
{
    closer(values, searched, older);
    if (older) {
        ++populations_[older->index];
        return *older;
    }
    uint32_t index = insert(SfVector{{values.begin(), values.end()}});
    ++populations_[index];
    return TemplateMatch{index, true, 0};
}

uint32_t
TemplateStore::insert(SfVector sf)
{
    util::require(!sf.values.empty(),
                  "TemplateStore: empty SF vector");
    uint32_t index = static_cast<uint32_t>(templates_.size());
    if (sf.size() >= byLength_.size())
        byLength_.resize(sf.size() + 1);
    byLength_[sf.size()].push_back(index);
    templates_.push_back(std::move(sf));
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
