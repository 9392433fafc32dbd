// k-feasible cut enumeration with per-node cut limits (paper §2.1, §4.1).
//
// A cut of node n is a set of leaves such that every path from n to a PI
// crosses a leaf; the cut's function is the local Boolean function of n in
// terms of the leaves.  The paper restricts enumeration to 6-cuts (so cut
// functions fit a 64-bit truth table) and keeps at most 12 cuts per node,
// "a good trade-off between runtime and quality".
//
// The merge loop is the hottest code in the rewriting pipeline, so it is
// word-parallel throughout: leaf positions are computed once per pair while
// the sorted leaf sets are merged, child functions are re-expressed over the
// merged leaves with masked-shift don't-care insertions (src/tt/words.h)
// instead of a loop over 2^k minterms, exact duplicates are rejected through
// a hash of (leaves, function) before any domination test runs, and the
// remaining domination tests are prefiltered by the leaf signature.  The
// original scalar enumerator is a test-only reference,
// `oracle::enumerate_cuts_scalar` (tests/oracle/), which the equivalence
// tests and the bench/micro_core speedup measurement compare against.
//
// The per-node merge is factored into `enumerate_node_cuts` — a pure
// function of (node, fanins' finished cut sets, params) — so the same
// kernel serves the classic bottom-up sweep here, and the incremental /
// level-parallel maintainer in src/cut/cut_incremental.h, which
// re-enumerates only dirty nodes between rewriting rounds.  Rewrite
// rounds always refresh through the maintainer; enumerate_cuts is the
// one-shot sweep and the full-rebuild reference its tests compare against.
//
// Storage is arena-backed (cut_sets, src/cut/cut_arena.h): one flat pool of
// cuts plus an (offset, count) span per node, instead of a vector of
// vectors.  The in-place overload reuses the arena's pool across calls, so
// a rewriting round allocates no per-node cut storage at all after the
// first round.
#pragma once

#include "cut/cut.h"
#include "cut/cut_arena.h"
#include "xag/xag.h"

#include <cstdint>
#include <vector>

namespace mcx {

struct cut_enumeration_params {
    uint32_t cut_size = max_cut_size; ///< k (2..6)
    uint32_t cut_limit = 12;          ///< non-trivial cuts kept per node
};

struct cut_enumeration_stats {
    uint64_t total_cuts = 0;   ///< cuts stored across all (live gate) nodes
    uint64_t merged_pairs = 0; ///< candidate pairs considered
    /// Exact duplicates rejected before any domination test (hash
    /// prefilter, then an exact compare).  The scalar reference enumerator
    /// counts the same events, so the counters compare 1:1.
    uint64_t duplicate_cuts = 0;
    uint64_t dominated_cuts = 0; ///< merged cuts dropped by a dominating cut
    uint64_t evicted_cuts = 0;   ///< existing cuts evicted by a new dominator
    /// Maintainer sweeps only: gate nodes whose cut sets were recomputed
    /// this call vs. kept untouched from the previous generation.  The
    /// classic full enumeration recomputes everything (clean_nodes = 0).
    uint64_t reenumerated_nodes = 0;
    uint64_t clean_nodes = 0;
    /// True when the refresh ran as an incremental sweep against a valid
    /// journal (even if the dirty region happened to cover everything);
    /// false for full rebuilds and the classic enumeration.  The direct
    /// observable that incremental maintenance actually engaged.
    bool incremental = false;
};

/// The one-leaf identity cut {n} every node's set ends with (and the whole
/// set of a PI).
cut trivial_cut(uint32_t n);

/// Hash of (leaf count, leaves, function) — the merge loop's O(1)
/// duplicate prefilter (splitmix64-style mixing).
uint64_t cut_key(const cut& c);

/// Exact-duplicate test: identical leaf sets AND identical function.  The
/// merge loop calls this only after a cut_key match, and the function
/// compare is what makes a 64-bit key collision harmless — equality must
/// never be decided by the hash alone.
bool cut_exact_duplicate(const cut& a, const cut& b);

/// Scratch state for the per-node merge kernel: candidate/key buffers
/// (capacity reused across nodes) plus this worker's share of the stats.
/// One instance per worker in the parallel maintainer sweep; the counters
/// of a node are schedule-independent, so summing the per-worker stats
/// reproduces the sequential counters exactly.
struct cut_enumeration_workspace {
    std::vector<cut> candidates;
    std::vector<uint64_t> keys;
    cut_enumeration_stats stats;
};

/// Compute gate node n's cut set from its fanins' *finished* sets in
/// `sets`.  The result (sorted small-cuts-first, capped at cut_limit, plus
/// the trailing trivial cut) is left in `ws.candidates`; counters accumulate
/// into `ws.stats`.  Pure in (network structure, fanin sets, params) — the
/// foundation of both the determinism contract and incremental reuse.
void enumerate_node_cuts(const xag& network, const cut_sets& sets, uint32_t n,
                         const cut_enumeration_params& params,
                         cut_enumeration_workspace& ws);

/// Cuts for every live node, indexed by node id; gate nodes end with their
/// trivial cut {n}.  Nodes that are dead or unreachable have empty sets.
/// `*stats` (when given) is reset at entry — counters never carry over
/// between calls.
cut_sets enumerate_cuts(const xag& network,
                        const cut_enumeration_params& params = {},
                        cut_enumeration_stats* stats = nullptr);

/// In-place variant: fills `out`, reusing its pool capacity (the
/// pass_context hot path).
void enumerate_cuts(const xag& network, cut_sets& out,
                    const cut_enumeration_params& params = {},
                    cut_enumeration_stats* stats = nullptr);

} // namespace mcx
