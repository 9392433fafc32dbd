// Batched word-parallel cone evaluation: the rewrite engine evaluates all
// cut functions of one node in a single traversal instead of one
// cone_function re-simulation per cut (the dominant cost of a rewriting
// round when it was done per cut).
//
// All cut functions have at most 6 leaves, so every value is one 64-bit
// word.  The simulator owns epoch-stamped dense buffers (no per-call
// unordered_map, no truth_table heap traffic) and evaluates all cuts of one
// root in one pass: node values are vectors of C lanes (one lane per cut),
// leaves override their lane with a projection word, and a per-lane
// "failed" mask tracks cones that escape their leaf boundary (the batched
// equivalent of cone_function's `cone escapes the leaf boundary`
// exception).
//
// Live-lane traversal: a first walk propagates, per node, the mask of
// lanes whose cone reaches it; a gate hands its fanins only the lanes that
// are live at it and not cut there.  Only gates with such a lane are
// computed from their fanins, so the work is the union of the C cut cones
// — never the root's whole transitive fanin, which on deep logic is what a
// walk expanding every non-leaf gate in all lanes would visit.  Lanes that
// are not live at a node hold values no live lane ever reads.
#pragma once

#include "xag/xag.h"

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace mcx {

class cone_simulator {
public:
    /// Lanes evaluated per traversal; larger requests are chunked.
    static constexpr uint32_t max_lanes = 32;

    /// One cut request: sorted, duplicate-free leaf node ids (<= 6).
    using leaf_set = std::vector<uint32_t>;

    /// Evaluate the function of `root` over each leaf set in `cuts` in one
    /// traversal per chunk of `max_lanes`; `out` equals cone_function's
    /// word for every valid lane.  `out[j]` receives the function
    /// word of cut j (masked to tt_mask(k_j)); bit j of the returned mask is
    /// set when lane j is valid.  A lane fails when its cone escapes the
    /// leaf boundary (reaches a PI that is not one of its leaves) or when it
    /// contains `forbidden`.
    uint64_t simulate_cuts(const xag& net, uint32_t root,
                           std::span<const leaf_set> cuts,
                           std::vector<uint64_t>& out,
                           uint32_t forbidden = UINT32_MAX);

    /// Single-cone convenience lane: function word of `root` over `leaves`,
    /// or nullopt when the cone escapes the boundary / contains `forbidden`.
    std::optional<uint64_t> cone_word(const xag& net, uint32_t root,
                                     std::span<const uint32_t> leaves,
                                     uint32_t forbidden = UINT32_MAX);

    /// Nodes evaluated across all traversals (perf counter).
    uint64_t nodes_evaluated() const { return nodes_evaluated_; }
    /// Traversals run (one per root-chunk).
    uint64_t traversals() const { return traversals_; }

private:
    void ensure_size(size_t num_nodes);
    uint32_t run_chunk(const xag& net, uint32_t root,
                       std::span<const leaf_set> cuts,
                       std::span<uint64_t> out, uint32_t forbidden);

    // Epoch-stamped per-node state (dense, index = node id).
    std::vector<uint32_t> leaf_epoch_; ///< stamp for leaf_mask_
    std::vector<uint32_t> leaf_mask_;  ///< lanes where the node is a leaf
    std::vector<uint32_t> live_epoch_; ///< stamp for live_
    std::vector<uint32_t> live_;       ///< lanes whose cone reaches the node
    std::vector<uint32_t> visit_epoch_;///< stamp for slot_/visited state
    std::vector<uint32_t> slot_;       ///< index into the lane value pool
    uint32_t epoch_ = 0;

    // Per-traversal scratch (capacity reused across calls).
    std::vector<uint32_t> order_;      ///< post-order of the live subgraph
    std::vector<uint64_t> lanes_;      ///< values: slot * C + lane
    std::vector<uint32_t> fail_;       ///< failed-lane mask per slot
    /// DFS stack: (node << 32) | lanes while marking, (node << 1) |
    /// expanded while ordering.
    std::vector<uint64_t> stack_;
    leaf_set single_;                  ///< cone_word's one-lane request

    uint64_t nodes_evaluated_ = 0;
    uint64_t traversals_ = 0;
};

} // namespace mcx
