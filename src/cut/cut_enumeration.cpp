#include "cut/cut_enumeration.h"

#include "tt/words.h"

#include <algorithm>
#include <stdexcept>

namespace mcx {

namespace {

/// Bloom-style signature of a leaf set: node id l sets bit (l & 63).  Ids
/// alias modulo 64, so `(sa & sb) == sa` is a necessary-but-not-sufficient
/// subset test — a cheap prefilter that never rejects a true subset; exact
/// containment is decided by cut::dominates' two-pointer walk.
uint64_t leaf_signature(std::span<const uint32_t> leaves)
{
    uint64_t sig = 0;
    for (const auto l : leaves)
        sig |= uint64_t{1} << (l & 63);
    return sig;
}

/// Merge two sorted leaf sets; false if the union exceeds `limit`.  On
/// success `pos_a[i]` / `pos_b[i]` give the index of each child leaf within
/// the merged set — computed here, during the merge, so function expansion
/// never searches for leaf positions again.
bool merge_leaves(const cut& a, const cut& b, uint32_t limit, cut& out,
                  std::array<uint8_t, max_cut_size>& pos_a,
                  std::array<uint8_t, max_cut_size>& pos_b)
{
    uint32_t ia = 0, ib = 0, n = 0;
    while (ia < a.num_leaves && ib < b.num_leaves) {
        if (n == limit)
            return false;
        if (a.leaves[ia] == b.leaves[ib]) {
            pos_a[ia] = static_cast<uint8_t>(n);
            pos_b[ib] = static_cast<uint8_t>(n);
            out.leaves[n++] = a.leaves[ia++];
            ++ib;
        } else if (a.leaves[ia] < b.leaves[ib]) {
            pos_a[ia] = static_cast<uint8_t>(n);
            out.leaves[n++] = a.leaves[ia++];
        } else {
            pos_b[ib] = static_cast<uint8_t>(n);
            out.leaves[n++] = b.leaves[ib++];
        }
    }
    while (ia < a.num_leaves) {
        if (n == limit)
            return false;
        pos_a[ia] = static_cast<uint8_t>(n);
        out.leaves[n++] = a.leaves[ia++];
    }
    while (ib < b.num_leaves) {
        if (n == limit)
            return false;
        pos_b[ib] = static_cast<uint8_t>(n);
        out.leaves[n++] = b.leaves[ib++];
    }
    out.num_leaves = static_cast<uint8_t>(n);
    return true;
}

/// Word-parallel expansion: re-express a child function over the merged
/// leaf set by inserting a don't-care variable at every merged position the
/// child does not occupy.  Child positions are strictly increasing (both
/// leaf sets are sorted), so each insertion is a handful of masked shifts.
uint64_t expand_word(uint64_t f, uint32_t child_vars,
                     const std::array<uint8_t, max_cut_size>& pos,
                     uint32_t merged_vars)
{
    uint32_t cur = child_vars;
    uint32_t i = 0;
    for (uint32_t j = 0; j < merged_vars; ++j) {
        if (i < child_vars && pos[i] == j) {
            ++i;
            continue;
        }
        f = tt_insert_var_word(f, cur, j);
        ++cur;
    }
    return f;
}

} // namespace

cut trivial_cut(uint32_t n)
{
    cut c;
    c.num_leaves = 1;
    c.leaves[0] = n;
    c.function = 0x2; // identity of one variable
    c.signature = leaf_signature(c.leaf_span());
    return c;
}

uint64_t cut_key(const cut& c)
{
    uint64_t h = 0x9e3779b97f4a7c15ull ^ c.num_leaves;
    const auto mix = [&h](uint64_t value) {
        h ^= value + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
        uint64_t z = h;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        h = z ^ (z >> 31);
    };
    for (uint32_t i = 0; i < c.num_leaves; ++i)
        mix(c.leaves[i]);
    mix(c.function);
    return h;
}

bool cut_exact_duplicate(const cut& a, const cut& b)
{
    // The function compare is load-bearing: cut_key hashes (leaves,
    // function) into 64 bits, so two same-leaf cuts with different
    // functions CAN collide — deciding "duplicate" on key + leaves alone
    // silently dropped the second cut (the pre-fix behavior).
    return a.num_leaves == b.num_leaves && a.function == b.function &&
           std::equal(a.leaves.begin(), a.leaves.begin() + a.num_leaves,
                      b.leaves.begin());
}

bool cut::dominates(const cut& other) const
{
    if (num_leaves > other.num_leaves)
        return false;
    if ((signature & other.signature) != signature)
        return false; // Bloom prefilter: definitely not a subset
    // Exact two-pointer subset walk over the sorted leaf arrays.
    uint32_t i = 0, j = 0;
    while (i < num_leaves) {
        const uint32_t remaining = num_leaves - i;
        if (other.num_leaves - j < remaining)
            return false;
        if (leaves[i] == other.leaves[j]) {
            ++i;
            ++j;
        } else if (leaves[i] > other.leaves[j]) {
            ++j;
        } else {
            return false; // other passed leaves[i] without matching it
        }
    }
    return true;
}

void enumerate_node_cuts(const xag& network, const cut_sets& sets, uint32_t n,
                         const cut_enumeration_params& params,
                         cut_enumeration_workspace& ws)
{
    auto& candidates = ws.candidates;
    auto& keys = ws.keys;
    auto& stats = ws.stats;

    const auto f0 = network.fanin0(n);
    const auto f1 = network.fanin1(n);
    const auto set0 = sets[f0.node()];
    const auto set1 = sets[f1.node()];

    candidates.clear();
    keys.clear();
    for (const auto& ca : set0) {
        for (const auto& cb : set1) {
            ++stats.merged_pairs;
            cut merged;
            std::array<uint8_t, max_cut_size> pos_a{};
            std::array<uint8_t, max_cut_size> pos_b{};
            if (!merge_leaves(ca, cb, params.cut_size, merged, pos_a, pos_b))
                continue;
            merged.signature = ca.signature | cb.signature;

            uint64_t fa = expand_word(ca.function, ca.num_leaves, pos_a,
                                      merged.num_leaves);
            uint64_t fb = expand_word(cb.function, cb.num_leaves, pos_b,
                                      merged.num_leaves);
            const uint64_t mask = tt_mask(merged.num_leaves);
            if (f0.complemented())
                fa = ~fa & mask;
            if (f1.complemented())
                fb = ~fb & mask;
            merged.function = network.is_and(n) ? (fa & fb) : (fa ^ fb);

            // Duplicate rejection: one 64-bit compare per existing
            // candidate (the exact walk only runs on a key match) —
            // repeated leaf sets are the common case, and a duplicate's
            // domination scan is pure waste.
            const uint64_t key = cut_key(merged);
            bool duplicate = false;
            for (size_t i = 0; i < keys.size(); ++i) {
                if (keys[i] == key &&
                    cut_exact_duplicate(candidates[i], merged)) {
                    duplicate = true;
                    break;
                }
            }
            if (duplicate) {
                ++stats.duplicate_cuts;
                continue;
            }

            // Signature-prefiltered domination (cut::dominates).
            bool drop = false;
            for (const auto& existing : candidates) {
                if (existing.dominates(merged)) {
                    drop = true;
                    break;
                }
            }
            if (drop) {
                ++stats.dominated_cuts;
                continue;
            }
            size_t kept = 0;
            for (size_t i = 0; i < candidates.size(); ++i) {
                if (merged.dominates(candidates[i])) {
                    ++stats.evicted_cuts;
                    continue;
                }
                candidates[kept] = candidates[i];
                keys[kept] = keys[i];
                ++kept;
            }
            candidates.resize(kept);
            keys.resize(kept);
            candidates.push_back(merged);
            keys.push_back(key);
        }
    }

    // Smaller cuts first (the classic priority-cut ordering): small
    // cuts merge into feasible wider cuts at the fanouts, and their
    // rewrites are cheap to evaluate.  Sorting widest-first was
    // measured to explode runtime (every node drags its full 6-input
    // cone through classification) for marginal quality gains.
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const cut& a, const cut& b) {
                         return a.num_leaves < b.num_leaves;
                     });
    if (candidates.size() > params.cut_limit)
        candidates.resize(params.cut_limit);
    candidates.push_back(trivial_cut(n));
    stats.total_cuts += candidates.size();
    ++stats.reenumerated_nodes;
}

void enumerate_cuts(const xag& network, cut_sets& sets,
                    const cut_enumeration_params& params,
                    cut_enumeration_stats* stats)
{
    if (params.cut_size < 2 || params.cut_size > max_cut_size)
        throw std::invalid_argument{"enumerate_cuts: cut_size must be 2..6"};
    if (params.cut_limit < 1)
        throw std::invalid_argument{"enumerate_cuts: cut_limit must be >= 1"};

    sets.reset(network.size());
    cut_enumeration_workspace ws; // counters start zeroed

    for (const auto n : network.topological_order()) {
        if (network.is_pi(n)) {
            const auto t = trivial_cut(n);
            sets.assign(n, {&t, 1});
            continue;
        }
        if (!network.is_gate(n))
            continue;
        enumerate_node_cuts(network, sets, n, params, ws);
        sets.assign(n, ws.candidates);
    }
    if (stats)
        *stats = ws.stats; // counters are per call, never carried over
}

cut_sets enumerate_cuts(const xag& network,
                        const cut_enumeration_params& params,
                        cut_enumeration_stats* stats)
{
    cut_sets sets;
    enumerate_cuts(network, sets, params, stats);
    return sets;
}

} // namespace mcx
