/**
 * @file
 * Cluster-template store for short flows (paper §3).
 *
 * Each stored SF vector is the centre of a cluster; an incoming short
 * flow either matches an existing template (L1 distance below the
 * similarity threshold d_sim = n * 50 * 2% ) or becomes a new
 * template. Template indices are stable (insertion order) — they are
 * what the compressed time-seq dataset references.
 */

#ifndef FCC_FLOW_TEMPLATE_STORE_HPP
#define FCC_FLOW_TEMPLATE_STORE_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "flow/characterize.hpp"

namespace fcc::flow {

/** Result of offering a flow to the store. */
struct TemplateMatch
{
    uint32_t index = 0;   ///< stable template index
    bool isNew = false;   ///< true when a new cluster was created
    uint64_t distance = 0;///< L1 distance to the chosen template
};

/**
 * Append-only store of cluster-centre SF vectors, bucketed by flow
 * length so only same-length templates are compared (the paper's
 * distance is only defined for equal n).
 */
class TemplateStore
{
  public:
    explicit TemplateStore(const SimilarityRule &rule = {});

    /**
     * Find the closest same-length template within d_sim, inserting
     * @p sf as a new template when none qualifies.
     */
    TemplateMatch findOrInsert(const SfVector &sf);

    /**
     * Find the closest same-length template within d_sim without
     * inserting. Returns nullopt on miss.
     */
    std::optional<TemplateMatch> find(const SfVector &sf) const;

    /** Append a template unconditionally (decompressor load path). */
    uint32_t insert(const SfVector &sf);

    /** Number of stored templates (= number of clusters). */
    size_t size() const { return templates_.size(); }

    /** Template by stable index. */
    const SfVector &at(uint32_t index) const;

    /** All templates in insertion order. */
    const std::vector<SfVector> &all() const { return templates_; }

    /** How many flows matched each template (cluster populations). */
    const std::vector<uint64_t> &populations() const
    {
        return populations_;
    }

    const SimilarityRule &rule() const { return rule_; }

  private:
    SimilarityRule rule_;
    std::vector<SfVector> templates_;
    std::vector<uint64_t> populations_;
    /** byLength_[n]: indices of the templates of length n. */
    std::vector<std::vector<uint32_t>> byLength_;
};

} // namespace fcc::flow

#endif // FCC_FLOW_TEMPLATE_STORE_HPP
