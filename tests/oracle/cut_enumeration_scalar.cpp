#include "oracle/cut_enumeration_scalar.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace mcx::oracle {

namespace {

/// Merge two sorted leaf sets; false if the union exceeds `limit`.
bool merge_leaves(const cut& a, const cut& b, uint32_t limit, cut& out)
{
    uint32_t ia = 0, ib = 0, n = 0;
    while (ia < a.num_leaves && ib < b.num_leaves) {
        if (n == limit)
            return false;
        if (a.leaves[ia] == b.leaves[ib]) {
            out.leaves[n++] = a.leaves[ia++];
            ++ib;
        } else if (a.leaves[ia] < b.leaves[ib]) {
            out.leaves[n++] = a.leaves[ia++];
        } else {
            out.leaves[n++] = b.leaves[ib++];
        }
    }
    while (ia < a.num_leaves) {
        if (n == limit)
            return false;
        out.leaves[n++] = a.leaves[ia++];
    }
    while (ib < b.num_leaves) {
        if (n == limit)
            return false;
        out.leaves[n++] = b.leaves[ib++];
    }
    out.num_leaves = static_cast<uint8_t>(n);
    return true;
}

/// Re-express a child's cut function over the merged leaf set.
uint64_t expand_function(uint64_t f, const cut& child, const cut& merged)
{
    // position[i] = index of child leaf i within merged leaves
    std::array<uint8_t, max_cut_size> position{};
    for (uint32_t i = 0; i < child.num_leaves; ++i) {
        const auto it = std::find(merged.leaves.begin(),
                                  merged.leaves.begin() + merged.num_leaves,
                                  child.leaves[i]);
        position[i] = static_cast<uint8_t>(it - merged.leaves.begin());
    }
    uint64_t r = 0;
    const uint32_t bits = 1u << merged.num_leaves;
    for (uint32_t x = 0; x < bits; ++x) {
        uint32_t y = 0;
        for (uint32_t i = 0; i < child.num_leaves; ++i)
            y |= ((x >> position[i]) & 1u) << i;
        r |= ((f >> y) & 1u) << x;
    }
    return r;
}

bool same_cut(const cut& a, const cut& b)
{
    return a.num_leaves == b.num_leaves && a.function == b.function &&
           std::equal(a.leaves.begin(), a.leaves.begin() + a.num_leaves,
                      b.leaves.begin());
}

/// Every leaf of `a` is a leaf of `b` (signature prefilter, then std::find
/// per leaf).
bool dominates(const cut& a, const cut& b)
{
    if (a.num_leaves > b.num_leaves)
        return false;
    if ((a.signature & b.signature) != a.signature)
        return false;
    for (uint32_t i = 0; i < a.num_leaves; ++i)
        if (std::find(b.leaves.begin(), b.leaves.begin() + b.num_leaves,
                      a.leaves[i]) == b.leaves.begin() + b.num_leaves)
            return false;
    return true;
}

} // namespace

cut_sets enumerate_cuts_scalar(const xag& network,
                               const cut_enumeration_params& params,
                               cut_enumeration_stats* stats)
{
    if (params.cut_size < 2 || params.cut_size > max_cut_size)
        throw std::invalid_argument{"enumerate_cuts: cut_size must be 2..6"};
    if (params.cut_limit < 1)
        throw std::invalid_argument{"enumerate_cuts: cut_limit must be >= 1"};

    cut_sets sets;
    sets.reset(network.size());
    cut_enumeration_stats counts;
    std::vector<cut> candidates;

    for (const auto n : network.topological_order()) {
        if (network.is_pi(n)) {
            const auto t = trivial_cut(n);
            sets.assign(n, {&t, 1});
            continue;
        }
        if (!network.is_gate(n))
            continue;

        const auto f0 = network.fanin0(n);
        const auto f1 = network.fanin1(n);
        const auto set0 = sets[f0.node()];
        const auto set1 = sets[f1.node()];

        candidates.clear();
        for (const auto& ca : set0) {
            for (const auto& cb : set1) {
                ++counts.merged_pairs;
                cut merged;
                if (!merge_leaves(ca, cb, params.cut_size, merged))
                    continue;
                merged.signature = ca.signature | cb.signature;

                uint64_t fa = expand_function(ca.function, ca, merged);
                uint64_t fb = expand_function(cb.function, cb, merged);
                const uint64_t mask = tt_mask(merged.num_leaves);
                if (f0.complemented())
                    fa = ~fa & mask;
                if (f1.complemented())
                    fb = ~fb & mask;
                merged.function = network.is_and(n) ? (fa & fb) : (fa ^ fb);

                // Exact duplicates first, then domination both ways.  Plain
                // loops, as in the seed path: std::any_of made this loop
                // measurably slower, which would inflate the A/B ratio.
                bool duplicate = false;
                for (const auto& existing : candidates) {
                    if (same_cut(existing, merged)) {
                        duplicate = true;
                        break;
                    }
                }
                if (duplicate) {
                    ++counts.duplicate_cuts;
                    continue;
                }
                bool drop = false;
                for (const auto& existing : candidates) {
                    if (dominates(existing, merged)) {
                        drop = true;
                        break;
                    }
                }
                if (drop) {
                    ++counts.dominated_cuts;
                    continue;
                }
                std::erase_if(candidates, [&](const cut& existing) {
                    if (!dominates(merged, existing))
                        return false;
                    ++counts.evicted_cuts;
                    return true;
                });
                candidates.push_back(merged);
            }
        }

        // Smaller cuts first, capped at the limit, then the trivial cut.
        std::stable_sort(candidates.begin(), candidates.end(),
                         [](const cut& a, const cut& b) {
                             return a.num_leaves < b.num_leaves;
                         });
        if (candidates.size() > params.cut_limit)
            candidates.resize(params.cut_limit);
        candidates.push_back(trivial_cut(n));
        counts.total_cuts += candidates.size();
        ++counts.reenumerated_nodes;
        sets.assign(n, candidates);
    }
    if (stats)
        *stats = counts;
    return sets;
}

} // namespace mcx::oracle
