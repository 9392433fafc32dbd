#include "cut/cut_incremental.h"

#include "par/level_sweep.h"

#include <algorithm>
#include <stdexcept>

namespace mcx {

namespace {

/// Ordered span equality through the one cut-identity predicate
/// (signatures are derived from the leaves, so they need no own compare).
bool same_cut_span(std::span<const cut> a, std::span<const cut> b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (!cut_exact_duplicate(a[i], b[i]))
            return false;
    return true;
}

} // namespace

void cut_maintainer::invalidate()
{
    net_ = nullptr;
    sets_ = nullptr;
    armed_version_ = 0;
    last_incremental_ = false;
    eval_dirty_.clear();
}

bool cut_maintainer::can_update(const xag& net, const cut_sets& sets,
                                const cut_enumeration_params& params) const
{
    // The armed journal is the authority: it must be the one *we* armed
    // (same base version — globally unique, so a different network reusing
    // the address cannot match) and nothing may have disarmed or re-armed
    // it since; then it provably contains every structural change between
    // the refreshes, no matter which pass made it.
    // The arena-generation check catches foreign writers: anyone who
    // reset() or begin_update()'d the arena since our refresh (e.g. a
    // direct enumerate_cuts into ctx.cuts() for a different network)
    // bumped its generation past the one we recorded.
    return net_ == &net && sets_ == &sets && net.changes().armed &&
           !net.changes().overflowed &&
           net.changes().base_version == armed_version_ &&
           sets.generation() == arena_generation_ &&
           params.cut_size == params_.cut_size &&
           params.cut_limit == params_.cut_limit &&
           sets.size() <= net.size();
}

bool cut_maintainer::refresh(xag& net, cut_sets& sets,
                             const cut_enumeration_params& params,
                             cut_enumeration_stats* stats, thread_pool* pool,
                             const cancellation_token& token)
{
    if (params.cut_size < 2 || params.cut_size > max_cut_size)
        throw std::invalid_argument{
            "cut_maintainer: cut_size must be 2..6"};
    if (params.cut_limit < 1)
        throw std::invalid_argument{
            "cut_maintainer: cut_limit must be >= 1"};

    const bool incremental = can_update(net, sets, params);
    try {
        sweep(net, sets, params, stats, pool, /*full=*/!incremental, token);
    } catch (...) {
        // The arena is half-updated; make sure neither this maintainer nor
        // a stale journal can certify it as finished.
        invalidate();
        net.disarm_change_log();
        throw;
    }

    net_ = &net;
    sets_ = &sets;
    arena_generation_ = sets.generation();
    params_ = params;
    net.arm_change_log();
    armed_version_ = net.structural_version();
    armed_size_ = static_cast<uint32_t>(net.size());
    last_incremental_ = incremental;
    ++refresh_serial_;
    return incremental;
}

void cut_maintainer::sweep(const xag& net, cut_sets& sets,
                           const cut_enumeration_params& params,
                           cut_enumeration_stats* stats, thread_pool* pool,
                           bool full, const cancellation_token& token)
{
    const auto order = net.topological_order();
    const size_t num_nodes = net.size();

    // Journal membership (incremental sweeps only; a full rebuild dirties
    // everything).  Node ids in the journal always index nodes_ — the node
    // array never shrinks — and duplicates collapse into the bitmap.
    changed_.assign(num_nodes, 0);
    if (!full)
        for (const auto id : net.changes().nodes)
            changed_[id] = 1;

    if (full)
        sets.reset(num_nodes);
    else
        sets.begin_update(num_nodes);

    // ---- pass 1: levels + PI trivial cuts + live gates bucketed by level.
    // A gate's level is one past its deepest gate fanin, so by the time a
    // level runs, every fanin cut set — untouched from the previous
    // generation or recomputed at a lower level — is finished.
    reached_.assign(num_nodes, 0);
    set_changed_.assign(num_nodes, 0);
    level_.assign(num_nodes, 0);
    items_.clear();
    uint32_t num_levels = 0;
    for (const auto n : order) {
        reached_[n] = 1;
        if (net.is_pi(n)) {
            if (sets[n].empty()) {
                const auto t = trivial_cut(n);
                sets.update(n, {&t, 1});
                set_changed_[n] = 1; // fanouts must pick the new cut up
            }
            continue;
        }
        if (!net.is_gate(n))
            continue;
        const auto a = net.fanin0(n).node();
        const auto b = net.fanin1(n).node();
        level_[n] = 1 + std::max(level_[a], level_[b]);
        num_levels = std::max(num_levels, level_[n]);
        items_.push_back(n);
    }

    // Counting sort of the live gates by level (stable: topo order within
    // a level — not required for correctness, kept for reproducible arena
    // layout).
    level_offsets_.assign(num_levels + 1, 0);
    for (const auto n : items_)
        ++level_offsets_[level_[n]]; // level L counted at index L, read at L-1
    uint32_t running = 0;
    for (uint32_t l = 1; l <= num_levels; ++l) {
        const auto count = level_offsets_[l];
        level_offsets_[l - 1] = running;
        running += count;
    }
    level_offsets_[num_levels] = running;
    level_cursor_.assign(level_offsets_.begin(), level_offsets_.end());
    ordered_.resize(items_.size());
    for (const auto n : items_)
        ordered_[level_cursor_[level_[n] - 1]++] = n;
    items_.swap(ordered_); // buffers ping-pong; no steady-state allocation

    // ---- pass 2: level-synchronized change propagation.  Per level the
    // plan step picks the gates to recompute — structure changed, a fanin
    // set changed, or no stored span (the node was unreachable at the last
    // refresh: live cut sets are never empty, so an empty span can only
    // mean "not enumerated") — the parallel step runs the kernels against
    // the frozen arena, and the commit step publishes only results that
    // actually differ, so propagation dies out where cut sets stabilize.
    const uint32_t workers = pool != nullptr ? pool->num_workers() : 1;
    while (workspaces_.size() < workers)
        workspaces_.emplace_back();
    for (auto& ws : workspaces_)
        ws.stats = {};

    uint64_t clean_gates = 0;
    level_synchronized_sweep(
        pool, num_levels,
        [&](size_t level) -> size_t {
            // The plan step runs on the caller thread between levels — the
            // one safe point to abandon the sweep (no kernels in flight).
            throw_if_stopped(token);
            recompute_.clear();
            for (size_t idx = level_offsets_[level];
                 idx < level_offsets_[level + 1]; ++idx) {
                const auto n = items_[idx];
                const auto a = net.fanin0(n).node();
                const auto b = net.fanin1(n).node();
                if (full || changed_[n] != 0 || set_changed_[a] != 0 ||
                    set_changed_[b] != 0 || sets[n].empty())
                    recompute_.push_back(n);
                else
                    ++clean_gates;
            }
            if (results_.size() < recompute_.size())
                results_.resize(recompute_.size());
            return recompute_.size();
        },
        [&](size_t i, uint32_t worker) {
            auto& ws = workspaces_[worker];
            enumerate_node_cuts(net, sets, recompute_[i], params, ws);
            results_[i] = ws.candidates; // capacity reused across rounds
        },
        [&](size_t, size_t count) {
            for (size_t i = 0; i < count; ++i) {
                const auto n = recompute_[i];
                if (full || !same_cut_span(sets[n], results_[i])) {
                    sets.update(n, results_[i]);
                    set_changed_[n] = 1;
                }
                // else: identical result — keep the span *and* its
                // generation tag, and stop propagating through n.
            }
        });

    // ---- evaluate dirty set (header contract): a gate is dirty iff a
    // seed lies in the gate itself or in one of its cut cones, leaves
    // included.  Computed here because the sweep already owns the level
    // ordering and the set_changed_ map; the rewrite engines read it
    // through evaluate_dirty().
    eval_dirty_.assign(num_nodes, full ? uint8_t{1} : uint8_t{0});
    if (!full) {
        cone_mark_.assign(num_nodes, no_seed_below);
        const auto seed = [&](uint32_t id) { cone_mark_[id] = seed_here; };
        for (const auto id : net.changes().nodes) {
            if (!net.is_dead(id)) {
                seed(id);
                if (net.is_gate(id)) {
                    seed(net.fanin0(id).node());
                    seed(net.fanin1(id).node());
                }
            } else if (id < armed_size_ && net.is_gate(id)) {
                // A pre-existing gate died: its fanins lost references
                // (fanin fields survive take_out, so they are readable).
                seed(net.fanin0(id).node());
                seed(net.fanin1(id).node());
            }
            // else: created and destroyed inside the window (a rejected
            // candidate cone) — net-zero on every neighbour, no seed.
        }
        for (uint32_t n = 0; n < num_nodes; ++n) {
            if (set_changed_[n])
                seed(n);
            if (cone_mark_[n] == seed_here)
                eval_dirty_[n] = 1;
        }

        // items_ is level-ordered, so both fanin marks are final when n
        // runs.  Only a gate with a seed in its transitive fanin can see
        // one in a cut cone, and a cone walk never enters a node without
        // one below it, so the walks stay inside the seeds' fanout.
        walk_stamp_.assign(num_nodes, 0);
        walk_epoch_ = 0;
        for (const auto n : items_) {
            if (cone_mark_[n] != no_seed_below ||
                (cone_mark_[net.fanin0(n).node()] == no_seed_below &&
                 cone_mark_[net.fanin1(n).node()] == no_seed_below))
                continue;
            cone_mark_[n] = seed_below;
            if (cut_cone_sees_seed(net, sets[n], n))
                eval_dirty_[n] = 1;
        }
    }

    // ---- pass 3: dead and unreachable nodes present empty sets, exactly
    // as a full rebuild would.
    for (uint32_t n = 0; n < num_nodes; ++n)
        if (!reached_[n])
            sets.clear_node(n);

    // Replaced spans accumulate as pool garbage; compact once it dominates.
    if (!full && sets.should_compact())
        sets.compact();

    if (stats) {
        *stats = {};
        for (const auto& ws : workspaces_) {
            stats->merged_pairs += ws.stats.merged_pairs;
            stats->duplicate_cuts += ws.stats.duplicate_cuts;
            stats->dominated_cuts += ws.stats.dominated_cuts;
            stats->evicted_cuts += ws.stats.evicted_cuts;
            stats->reenumerated_nodes += ws.stats.reenumerated_nodes;
        }
        stats->clean_nodes = clean_gates;
        stats->incremental = !full;
        // Whole-structure count (clean nodes included), so incremental and
        // full refreshes report comparable totals.  PIs hold one trivial
        // cut each and are excluded, as in the classic enumeration.
        stats->total_cuts = sets.total_cuts() - net.num_pis();
    }
}

bool cut_maintainer::cut_cone_sees_seed(const xag& net,
                                        std::span<const cut> node_cuts,
                                        uint32_t n)
{
    for (const auto& c : node_cuts) {
        if (c.num_leaves < 2 && c.leaves[0] == n)
            continue; // trivial cut: n itself, which is no seed
        const auto leaves = c.leaf_span();
        ++walk_epoch_;
        walk_stack_.assign({net.fanin0(n).node(), net.fanin1(n).node()});
        while (!walk_stack_.empty()) {
            const auto x = walk_stack_.back();
            walk_stack_.pop_back();
            if (walk_stamp_[x] == walk_epoch_)
                continue;
            walk_stamp_[x] = walk_epoch_;
            if (cone_mark_[x] == seed_here)
                return true;
            if (cone_mark_[x] == no_seed_below || !net.is_gate(x) ||
                std::find(leaves.begin(), leaves.end(), x) != leaves.end())
                continue;
            walk_stack_.push_back(net.fanin0(x).node());
            walk_stack_.push_back(net.fanin1(x).node());
        }
    }
    return false;
}

} // namespace mcx
