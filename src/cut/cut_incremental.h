// Incremental cut maintenance across rewriting rounds.
//
// A rewriting round used to re-enumerate every node's priority cuts from
// scratch, even when the previous round replaced a handful of MFFCs.  The
// per-node enumeration kernel (`enumerate_node_cuts`) is a pure function
// of the node's fanins and their finished cut sets, so a cut set only
// changes when the node's own structure changed — a fanin rewired, the
// node newly created — or when a fanin's cut set changed.  The maintainer
// exploits exactly that:
//
//  * after each refresh it arms the network's structural-change journal
//    (xag::arm_change_log), which records every node whose local structure
//    changes — gates created by candidate splicing, parents rewired by
//    substitute, nodes dying with their MFFCs;
//  * the next refresh sweeps the network level by level (level = one past
//    the deepest gate fanin) and recomputes a gate iff its structure
//    changed (journal), a fanin's cut set was just recomputed *to a
//    different value*, or its arena span is empty (it was unreachable at
//    the previous refresh).  A recomputed set that compares equal to the
//    stored span is not committed, so change propagation terminates as
//    soon as cut sets stabilize above the replaced region — a handful of
//    levels, since priority cuts only reach a bounded distance down.
//    Every untouched node keeps its arena span, proven by the span's
//    generation tag (cut_sets::node_generation);
//  * within a level the recomputed gates' fanin sets are all finished, so
//    the per-worker kernels (own candidate buffers, own stat counters)
//    run embarrassingly parallel on the PR 4 thread pool
//    (src/par/level_sweep.h); results are compared and committed to the
//    arena sequentially between levels.
//
// The refresh is byte-for-byte equivalent to a full rebuild — same cut
// sets per node, for any thread count — because the
// kernel is pure, the recompute predicate is conservative, and equality
// pruning only skips provably-identical work (see docs/hot-path.md,
// "Incremental cut maintenance", for the induction).  invalidate() makes
// the next refresh a full rebuild; the classic sequential enumerate_cuts
// is the oracle the tests compare against.
#pragma once

#include "core/budget.h"
#include "cut/cut_enumeration.h"
#include "par/thread_pool.h"
#include "xag/xag.h"

#include <cstdint>
#include <span>
#include <vector>

namespace mcx {

class cut_maintainer {
public:
    /// Bring `sets` up to date for `net`: an incremental dirty-region
    /// sweep when the journal armed by the previous refresh still covers
    /// everything that happened to this network (and the params match), a
    /// full rebuild otherwise.  `pool` (optional) parallelizes the sweep
    /// level-by-level; results are identical with or without it.  Returns
    /// true when the refresh was incremental.
    ///
    /// A stopped `token` aborts the sweep between levels with
    /// `cancelled_error`; the maintainer invalidates itself first, so the
    /// half-updated arena can never be mistaken for a finished refresh —
    /// the next refresh is a full rebuild.
    bool refresh(xag& net, cut_sets& sets,
                 const cut_enumeration_params& params,
                 cut_enumeration_stats* stats = nullptr,
                 thread_pool* pool = nullptr,
                 const cancellation_token& token = {});

    /// Forget the tracked network: the next refresh is a full rebuild,
    /// byte-identical to enumerate_cuts, counters included.
    void invalidate();

    // ---- evaluate dirty set (consumed by the rewrite engines) ----------
    //
    // A cached evaluation of node n stays valid iff (1) n's cut set is
    // byte-identical to the previous refresh and (2) nothing the
    // evaluation read changed: the structure and reference counts of the
    // gates between n and each cut's leaves, and the structural-hashing
    // entries over them (the splice probe looks gates up over leaves and
    // cone gates).  The refresh seeds every place such a change leaves a
    // trace: cut-refreshed nodes, every live journaled node and its
    // current fanins, and the stored fanins of journaled pre-existing
    // gates that died (their refs dropped).  Then
    //
    //   dirty(n) = a seed lies in n itself or in one of n's cut cones,
    //              leaves included
    //
    // which is exact.  A reference-count or hashing change at a cone
    // node seeds that node itself.  If a cone changed structure, follow a
    // path down from n to the change: the topmost journaled node on it
    // is a fanin of unchanged live gates (n included), so it is live,
    // journaled — a seed — and still in n's current cone.  Seeds
    // below every cut's leaves are invisible to n's evaluation and leave
    // it clean, however deep the network.  Journaled nodes that were BOTH
    // created and destroyed inside the window — candidate cones spliced
    // and rejected by a commit phase — are net-zero on every neighbour
    // and seed nothing; skipping them is what lets a quiescent round
    // converge to an empty dirty set.  Gates the splice probe reached
    // outside the cone are checked by the engine against this set too
    // (eval_winner::outside): it contains every seed.

    /// Per-node evaluate-dirty bitmap from the most recent refresh.
    /// Meaningful only when `last_refresh_incremental()`; a full rebuild
    /// dirties everything and callers must not consult the map.
    std::span<const uint8_t> evaluate_dirty() const { return eval_dirty_; }

    /// True when the most recent refresh reused the journal (incremental).
    bool last_refresh_incremental() const { return last_incremental_; }

    /// Monotonic count of completed refreshes.  An evaluate cache
    /// populated at serial S is coherent with the refresh at serial S+1
    /// iff that refresh was incremental — the journal then provably
    /// covers everything that happened in between.
    uint64_t refresh_serial() const { return refresh_serial_; }

private:
    bool can_update(const xag& net, const cut_sets& sets,
                    const cut_enumeration_params& params) const;
    void sweep(const xag& net, cut_sets& sets,
               const cut_enumeration_params& params,
               cut_enumeration_stats* stats, thread_pool* pool, bool full,
               const cancellation_token& token);
    /// True when a seed lies in one of `node_cuts`' cones below n,
    /// leaves included (walks n's fanins down to each cut's leaves).
    bool cut_cone_sees_seed(const xag& net, std::span<const cut> node_cuts,
                            uint32_t n);

    // Identity of the tracked (network, arena) pair — compared, never
    // dereferenced, so staleness is harmless (the armed-journal check
    // rejects a recycled address; versions are globally unique).
    const xag* net_ = nullptr;
    const cut_sets* sets_ = nullptr;
    uint64_t armed_version_ = 0;
    uint64_t arena_generation_ = 0; ///< detects foreign writes to the arena
    uint32_t armed_size_ = 0; ///< net.size() when the journal was armed
    cut_enumeration_params params_{};
    bool last_incremental_ = false;
    uint64_t refresh_serial_ = 0;

    // Sweep state, persistent so steady-state rounds allocate nothing.
    std::vector<uint8_t> changed_;     ///< journal membership per node
    std::vector<uint8_t> reached_;     ///< in the current topological order
    std::vector<uint8_t> set_changed_; ///< cut set differs from previous gen
    std::vector<uint32_t> level_;      ///< gate level (PI/constant = 0)
    std::vector<uint32_t> items_;      ///< live gates, grouped by level
    std::vector<uint32_t> ordered_;    ///< counting-sort double buffer
    std::vector<uint32_t> level_offsets_; ///< items_ partition per level
    std::vector<uint32_t> level_cursor_;  ///< counting-sort scratch
    std::vector<uint32_t> recompute_;     ///< current level's work list
    std::vector<uint8_t> eval_dirty_;     ///< evaluate dirty set (see above)
    /// cone_mark_ values: no seed in the node's transitive fanin, the node
    /// is a seed, or a seed lies strictly below it.
    static constexpr uint8_t no_seed_below = 0;
    static constexpr uint8_t seed_here = 1;
    static constexpr uint8_t seed_below = 2;
    std::vector<uint8_t> cone_mark_;      ///< seed map for the cone walks
    std::vector<uint32_t> walk_stamp_;    ///< cone walk visited stamps
    std::vector<uint32_t> walk_stack_;    ///< cone walk work list
    uint32_t walk_epoch_ = 0;             ///< one per walked cut
    std::vector<std::vector<cut>> results_; ///< per-item staging buffers
    std::vector<cut_enumeration_workspace> workspaces_; ///< per worker
};

} // namespace mcx
