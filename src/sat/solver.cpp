#include "sat/solver.h"

#include "core/fault_inject.h"
#include "obs/metrics.h"
#include "obs/trace.h"

#include <algorithm>
#include <stdexcept>

namespace mcx::sat {

namespace {

/// Covers every exit of solve(): a "sat.solve" span (arg = conflicts this
/// call) and registry deltas of the per-solver stats.  Instance stats stay
/// the per-solver source of truth; the registry aggregates across solvers.
class solve_observer {
public:
    explicit solve_observer(const solver_stats& stats)
        : stats_{stats}, at_entry_{stats}, span_{"sat.solve"}
    {
    }

    ~solve_observer()
    {
        static const auto solves = obs::register_metric("sat.solves");
        static const auto conflicts = obs::register_metric("sat.conflicts");
        static const auto decisions = obs::register_metric("sat.decisions");
        static const auto propagations =
            obs::register_metric("sat.propagations");
        static const auto restarts = obs::register_metric("sat.restarts");
        solves.add();
        conflicts.add(stats_.conflicts - at_entry_.conflicts);
        decisions.add(stats_.decisions - at_entry_.decisions);
        propagations.add(stats_.propagations - at_entry_.propagations);
        restarts.add(stats_.restarts - at_entry_.restarts);
        span_.set_arg(stats_.conflicts - at_entry_.conflicts);
    }

private:
    const solver_stats& stats_;
    solver_stats at_entry_;
    obs::trace::trace_span span_;
};

/// Retention tier for a learnt clause of the given LBD: core clauses
/// (lbd <= 2) are kept forever, mid clauses (lbd <= 6) survive while they
/// keep participating in conflicts, local clauses compete on activity.
uint32_t tier_for(uint32_t lbd)
{
    return lbd <= 2 ? 0u : lbd <= 6 ? 1u : 2u;
}

} // namespace

solver::solver(sat_params params) : preprocess_enabled_{params.preprocess} {}

uint32_t solver::add_variable()
{
    const auto v = static_cast<uint32_t>(assign_.size());
    assign_.push_back(-1);
    level_.push_back(0);
    reason_.push_back(no_reason);
    activity_.push_back(0.0);
    saved_phase_.push_back(0);
    seen_.push_back(0);
    heap_pos_.push_back(heap_npos);
    eliminated_.push_back(0);
    watches_.emplace_back();
    watches_.emplace_back();
    heap_insert(v);
    return v;
}

bool solver::add_clause(std::span<const literal> lits)
{
    if (unsat_)
        return false;
    if (decision_level() != 0)
        throw std::logic_error{"add_clause: only at decision level 0"};
    if (!elim_stack_.empty())
        for (const auto l : lits)
            if (eliminated_[l.var()])
                throw std::logic_error{
                    "add_clause: variable eliminated by preprocessing"};

    // Sort, deduplicate, drop false literals, detect tautology.
    std::vector<literal> cl(lits.begin(), lits.end());
    std::sort(cl.begin(), cl.end(),
              [](literal a, literal b) { return a.code() < b.code(); });
    cl.erase(std::unique(cl.begin(), cl.end()), cl.end());
    std::vector<literal> filtered;
    for (size_t i = 0; i < cl.size(); ++i) {
        if (i + 1 < cl.size() && cl[i] == ~cl[i + 1])
            return true; // tautology
        const auto val = value_of(cl[i]);
        if (val == 1)
            return true; // already satisfied at top level
        if (val == -1)
            filtered.push_back(cl[i]);
    }
    if (filtered.empty()) {
        unsat_ = true;
        return false;
    }
    if (filtered.size() == 1) {
        enqueue(filtered[0], no_reason);
        if (propagate()) {
            unsat_ = true;
            return false;
        }
        return true;
    }
    if (filtered.size() == 2) {
        attach_binary(filtered[0], filtered[1]);
        return true;
    }
    const auto c = arena_.alloc(filtered, false);
    clauses_.push_back(c);
    attach_long(c);
    return true;
}

void solver::attach_long(clause_ref c)
{
    const auto* lits = arena_.lits(c);
    watches_[(~lits[0]).code()].push_back({c, lits[1]});
    watches_[(~lits[1]).code()].push_back({c, lits[0]});
}

void solver::attach_binary(literal a, literal b)
{
    watches_[(~a).code()].push_back({binary_flag | b.code(), b});
    watches_[(~b).code()].push_back({binary_flag | a.code(), a});
}

void solver::enqueue(literal l, uint32_t reason)
{
    assign_[l.var()] = l.negative() ? 0 : 1;
    level_[l.var()] = decision_level();
    reason_[l.var()] = reason;
    trail_.push_back(l);
}

bool solver::propagate()
{
    while (qhead_ < trail_.size()) {
        const auto p = trail_[qhead_++];
        ++stats_.propagations;
        auto& ws = watches_[p.code()]; // clauses where ~p is watched
        size_t keep = 0;
        bool conflict = false;
        for (size_t i = 0; i < ws.size(); ++i) {
            const auto w = ws[i];
            if (conflict) {
                ws[keep++] = w;
                continue;
            }
            if (w.ref & binary_flag) {
                // Binary clause {~p, other}: resolved without touching the
                // arena — the other literal is inline in the watcher.
                ws[keep++] = w;
                const auto other = literal::from_code(w.ref & ~binary_flag);
                const auto val = value_of(other);
                if (val == 1)
                    continue;
                if (val == 0) {
                    confl_cref_ = null_ref;
                    confl_lits_.assign({other, ~p});
                    conflict = true;
                    continue;
                }
                enqueue(other, binary_flag | (~p).code());
                continue;
            }
            if (value_of(w.blocker) == 1) {
                ws[keep++] = w;
                continue;
            }
            auto* lits = arena_.lits(w.ref);
            const auto size = arena_.size(w.ref);
            // Normalize: false literal (~p) at position 1.
            const literal false_lit = ~p;
            if (lits[0] == false_lit)
                std::swap(lits[0], lits[1]);
            if (value_of(lits[0]) == 1) {
                ws[keep++] = {w.ref, lits[0]};
                continue;
            }
            // Find a new literal to watch.
            bool moved = false;
            for (uint32_t k = 2; k < size; ++k) {
                if (value_of(lits[k]) != 0) {
                    std::swap(lits[1], lits[k]);
                    watches_[(~lits[1]).code()].push_back({w.ref, lits[0]});
                    moved = true;
                    break;
                }
            }
            if (moved)
                continue;
            // Unit or conflicting.
            ws[keep++] = w;
            if (value_of(lits[0]) == 0) {
                confl_cref_ = w.ref;
                confl_lits_.assign(lits, lits + size);
                conflict = true;
            } else {
                enqueue(lits[0], w.ref);
            }
        }
        ws.resize(keep);
        if (conflict)
            return true;
    }
    return false;
}

uint32_t solver::compute_lbd(std::span<const literal> lits)
{
    ++lbd_counter_;
    uint32_t count = 0;
    for (const auto l : lits) {
        const auto lev = level_[l.var()];
        if (lev == 0)
            continue;
        if (lev >= lbd_stamp_.size())
            lbd_stamp_.resize(lev + 1, 0);
        if (lbd_stamp_[lev] != lbd_counter_) {
            lbd_stamp_[lev] = lbd_counter_;
            ++count;
        }
    }
    return count;
}

void solver::analyze(std::vector<literal>& learnt,
                            uint32_t& backtrack_level, uint32_t& lbd)
{
    learnt.clear();
    learnt.push_back(literal{}); // placeholder for the asserting literal
    uint32_t counter = 0;
    literal p{};
    size_t index = trail_.size();

    // Glucose-style touch of a learnt clause met during resolution: bump
    // its activity, mark it used (protects the mid tier), and tighten its
    // stored LBD if the current levels improve it (possible promotion).
    const auto touch_learnt = [&](clause_ref c) {
        bump_clause(c);
        arena_.set_used(c, true);
        const auto fresh =
            compute_lbd({arena_.lits(c), arena_.size(c)});
        if (fresh < arena_.lbd(c))
            arena_.set_lbd_tier(c, fresh,
                                std::min(arena_.tier(c), tier_for(fresh)));
    };

    if (confl_cref_ != null_ref && arena_.learnt(confl_cref_))
        touch_learnt(confl_cref_);

    literal binary_buf;
    std::span<const literal> cur{confl_lits_};
    for (;;) {
        for (const auto q : cur) {
            if (!seen_[q.var()] && level_[q.var()] > 0) {
                seen_[q.var()] = 1;
                bump_var(q.var());
                if (level_[q.var()] == decision_level())
                    ++counter;
                else
                    learnt.push_back(q);
            }
        }
        // Next literal on the trail that is marked.
        do {
            p = trail_[--index];
        } while (!seen_[p.var()]);
        seen_[p.var()] = 0;
        if (--counter == 0)
            break;
        const auto r = reason_[p.var()];
        if (r & binary_flag) {
            binary_buf = literal::from_code(r & ~binary_flag);
            cur = {&binary_buf, 1};
        } else {
            if (arena_.learnt(r))
                touch_learnt(r);
            cur = {arena_.lits(r) + 1, arena_.size(r) - 1};
        }
    }
    learnt[0] = ~p;

    // Cheap self-subsumption minimization: drop literals whose reason
    // clause is entirely marked.
    const auto redundant = [&](literal q) {
        const auto r = reason_[q.var()];
        if (r == no_reason)
            return false;
        if (r & binary_flag) {
            const auto x = literal::from_code(r & ~binary_flag);
            return seen_[x.var()] != 0 || level_[x.var()] == 0;
        }
        const auto* lits = arena_.lits(r);
        const auto size = arena_.size(r);
        for (uint32_t k = 1; k < size; ++k) {
            const auto x = lits[k];
            if (!seen_[x.var()] && level_[x.var()] > 0)
                return false;
        }
        return true;
    };
    // learnt[1..] are still marked in seen_ from the resolution loop; use
    // the marks for the redundancy test, then clear them all — including
    // literals dropped by the minimization.
    to_clear_.assign(learnt.begin() + 1, learnt.end());
    size_t keep = 1;
    for (size_t i = 1; i < learnt.size(); ++i)
        if (!redundant(learnt[i]))
            learnt[keep++] = learnt[i];
    learnt.resize(keep);
    for (const auto q : to_clear_)
        seen_[q.var()] = 0;

    lbd = compute_lbd(learnt);

    if (learnt.size() == 1) {
        backtrack_level = 0;
        return;
    }
    // Second-highest decision level; move its literal to position 1.
    size_t max_i = 1;
    for (size_t i = 2; i < learnt.size(); ++i)
        if (level_[learnt[i].var()] > level_[learnt[max_i].var()])
            max_i = i;
    std::swap(learnt[1], learnt[max_i]);
    backtrack_level = level_[learnt[1].var()];
}

void solver::backtrack(uint32_t target)
{
    if (decision_level() <= target)
        return;
    const auto bound = trail_lim_[target];
    for (size_t i = trail_.size(); i-- > bound;) {
        const auto v = trail_[i].var();
        saved_phase_[v] = assign_[v];
        assign_[v] = -1;
        reason_[v] = no_reason;
        if (heap_pos_[v] == heap_npos)
            heap_insert(v);
    }
    trail_.resize(bound);
    trail_lim_.resize(target);
    qhead_ = trail_.size();
}

void solver::bump_var(uint32_t var)
{
    activity_[var] += var_inc_;
    if (activity_[var] > 1e100) {
        for (auto& a : activity_)
            a *= 1e-100;
        var_inc_ *= 1e-100;
    }
    if (heap_pos_[var] != heap_npos)
        heap_percolate_up(heap_pos_[var]);
}

void solver::bump_clause(clause_ref c)
{
    const float a = arena_.activity(c) + clause_inc_;
    arena_.set_activity(c, a);
    if (a > 1e20f) {
        for (const auto l : learnts_)
            arena_.set_activity(l, arena_.activity(l) * 1e-20f);
        clause_inc_ *= 1e-20f;
    }
}

void solver::heap_insert(uint32_t var)
{
    heap_pos_[var] = static_cast<uint32_t>(heap_.size());
    heap_.push_back(var);
    heap_percolate_up(heap_pos_[var]);
}

void solver::heap_percolate_up(uint32_t pos)
{
    const auto var = heap_[pos];
    while (pos > 0) {
        const auto parent = (pos - 1) / 2;
        if (activity_[heap_[parent]] >= activity_[var])
            break;
        heap_[pos] = heap_[parent];
        heap_pos_[heap_[pos]] = pos;
        pos = parent;
    }
    heap_[pos] = var;
    heap_pos_[var] = pos;
}

void solver::heap_percolate_down(uint32_t pos)
{
    const auto var = heap_[pos];
    const auto size = static_cast<uint32_t>(heap_.size());
    for (;;) {
        auto child = 2 * pos + 1;
        if (child >= size)
            break;
        if (child + 1 < size &&
            activity_[heap_[child + 1]] > activity_[heap_[child]])
            ++child;
        if (activity_[heap_[child]] <= activity_[var])
            break;
        heap_[pos] = heap_[child];
        heap_pos_[heap_[pos]] = pos;
        pos = child;
    }
    heap_[pos] = var;
    heap_pos_[var] = pos;
}

uint32_t solver::heap_pop()
{
    const auto top = heap_[0];
    heap_pos_[top] = heap_npos;
    heap_[0] = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        heap_pos_[heap_[0]] = 0;
        heap_percolate_down(0);
    }
    return top;
}

literal solver::pick_branch()
{
    while (!heap_.empty()) {
        const auto v = heap_pop();
        if (assign_[v] < 0 && !eliminated_[v])
            return literal{v, saved_phase_[v] != 1};
    }
    return literal{heap_npos >> 1, false}; // all assigned
}

void solver::record_learnt(std::span<const literal> learnt,
                                  uint32_t lbd)
{
    if (learnt.size() == 2) {
        attach_binary(learnt[0], learnt[1]);
        enqueue(learnt[0], binary_flag | learnt[1].code());
        return;
    }
    const auto c = arena_.alloc(learnt, true);
    arena_.set_lbd_tier(c, lbd, tier_for(lbd));
    learnts_.push_back(c);
    attach_long(c);
    bump_clause(c);
    enqueue(learnt[0], c);
}

void solver::reduce_learnts()
{
    // Tier maintenance first: mid clauses untouched since the last
    // reduction demote to local; touched ones survive with the used flag
    // cleared for the next cycle.  Core clauses are never demoted.
    std::vector<clause_ref> local;
    for (const auto c : learnts_) {
        if (arena_.tier(c) == 1) {
            if (arena_.used(c))
                arena_.set_used(c, false);
            else
                arena_.set_lbd_tier(c, arena_.lbd(c), 2);
        }
        if (arena_.tier(c) == 2)
            local.push_back(c);
    }
    std::sort(local.begin(), local.end(), [&](clause_ref a, clause_ref b) {
        return arena_.activity(a) < arena_.activity(b);
    });
    const size_t target = local.size() / 2;
    size_t removed = 0;
    for (size_t i = 0; i < local.size() && removed < target; ++i) {
        const auto c = local[i];
        // Keep reason clauses of current assignments (lits[0] is always
        // the literal a clause propagated).
        const auto first = arena_.lits(c)[0];
        if (assign_[first.var()] >= 0 && reason_[first.var()] == c)
            continue;
        arena_.free_clause(c);
        ++removed;
    }
    if (removed != 0) {
        stats_.learnt_removed += removed;
        for (auto& ws : watches_)
            std::erase_if(ws, [&](const watch& w) {
                return !(w.ref & binary_flag) && arena_.freed(w.ref);
            });
        std::erase_if(learnts_,
                      [&](clause_ref c) { return arena_.freed(c); });
    }
    // On-the-fly compaction once a quarter of the arena is garbage.
    if (arena_.wasted_words() * 4 > arena_.words())
        garbage_collect();
}

void solver::garbage_collect()
{
    clause_arena to;
    to.reserve_words(arena_.words() - arena_.wasted_words());
    for (auto& c : clauses_)
        c = arena_.relocate(c, to);
    for (auto& c : learnts_)
        c = arena_.relocate(c, to);
    for (uint32_t v = 0; v < num_vars(); ++v)
        if (assign_[v] >= 0 && reason_[v] != no_reason &&
            !(reason_[v] & binary_flag))
            reason_[v] = arena_.relocate(reason_[v], to);
    for (auto& ws : watches_)
        for (auto& w : ws)
            if (!(w.ref & binary_flag))
                w.ref = arena_.forward(w.ref);
    arena_ = std::move(to);
}

solve_result solver::solve(std::span<const literal> assumptions,
                           uint64_t conflict_budget,
                           const cancellation_token& token)
{
    // Injected budget exhaustion: converted to `undecided` right here, the
    // same value a genuinely exhausted budget produces, so callers'
    // unknown-vs-UNSAT handling is exercised on the real return path.
    try {
        fault_injection::fire(fault_site::sat_budget);
    } catch (const fault_injected_error&) {
        return solve_result::undecided;
    }

    const solve_observer observe{stats_};
    return search(assumptions, conflict_budget, token);
}

solve_result solver::search(std::span<const literal> assumptions,
                            uint64_t conflict_budget,
                            const cancellation_token& token)
{
    backtrack(0);
    if (unsat_)
        return solve_result::unsatisfiable;
    if (propagate()) {
        unsat_ = true;
        return solve_result::unsatisfiable;
    }
    if (token.stop_possible() && token.stop_requested())
        return solve_result::undecided;

    if (preprocess_enabled_ && !preprocessed_) {
        if (assumptions.empty()) {
            preprocessed_ = true;
            preprocess();
            if (unsat_)
                return solve_result::unsatisfiable;
        } else {
            // First solve already carries assumptions: this solver is used
            // incrementally, where one-shot elimination would be unsound.
            preprocess_enabled_ = false;
        }
    }
    for (const auto a : assumptions)
        if (eliminated_[a.var()])
            throw std::logic_error{"solve: assumption on eliminated variable"};

    const uint64_t conflict_limit =
        conflict_budget == 0 ? 0 : stats_.conflicts + conflict_budget;
    uint64_t conflicts_in_restart = 0;
    std::vector<literal> learnt;

    for (;;) {
        if (propagate()) {
            ++stats_.conflicts;
            ++conflicts_in_restart;
            if (decision_level() == 0) {
                unsat_ = true;
                return solve_result::unsatisfiable;
            }
            uint32_t backtrack_level = 0;
            uint32_t lbd = 0;
            analyze(learnt, backtrack_level, lbd);
            // LBD / trail EMAs feeding the restart policy, measured before
            // the backtrack.
            if (!ema_init_) {
                ema_init_ = true;
                ema_lbd_fast_ = ema_lbd_slow_ = lbd;
                ema_trail_ = static_cast<double>(trail_.size());
            } else {
                ema_lbd_fast_ += (lbd - ema_lbd_fast_) / 32.0;
                ema_lbd_slow_ += (lbd - ema_lbd_slow_) / 16384.0;
                ema_trail_ += (trail_.size() - ema_trail_) / 4096.0;
            }
            backtrack(backtrack_level);
            if (learnt.size() == 1)
                enqueue(learnt[0], no_reason);
            else
                record_learnt(learnt, lbd);
            var_inc_ /= 0.95;
            clause_inc_ /= 0.999f;
            if (conflict_limit != 0 && stats_.conflicts >= conflict_limit) {
                backtrack(0);
                return solve_result::undecided;
            }
            if (token.stop_possible() && token.stop_requested()) {
                backtrack(0);
                return solve_result::undecided;
            }
            continue;
        }

        if (ema_init_ && conflicts_in_restart >= 50 &&
            ema_lbd_fast_ > 1.25 * ema_lbd_slow_) {
            conflicts_in_restart = 0;
            // Blocked when the search is deep in a promising assignment
            // (glucose's SAT-friendly restart postponement).
            if (trail_.size() <= 1.4 * ema_trail_) {
                ++stats_.restarts;
                backtrack(0);
                continue;
            }
        }
        if (stats_.conflicts >= next_reduce_ && !learnts_.empty()) {
            reduce_learnts();
            ++reduce_count_;
            next_reduce_ = stats_.conflicts + 2000 + 300 * reduce_count_;
        }

        // Re-establish assumptions as pseudo-decision levels before any
        // real decision.  A restart backtracks to level 0, so this loop
        // also restores them after every restart.
        if (decision_level() < assumptions.size()) {
            const auto p = assumptions[decision_level()];
            const auto val = value_of(p);
            if (val == 0) {
                // Falsified by earlier assumptions / top-level units:
                // UNSAT under these assumptions only — sticky unsat_ is
                // NOT set.
                backtrack(0);
                return solve_result::unsatisfiable;
            }
            // Already-true assumptions still get their own (empty)
            // decision level: the decision level indexes the next
            // assumption to establish.
            trail_lim_.push_back(static_cast<uint32_t>(trail_.size()));
            if (val == -1)
                enqueue(p, no_reason);
            continue;
        }

        const auto next = pick_branch();
        if (next.var() == (heap_npos >> 1)) {
            // Snapshot the model (reconstructing eliminated variables),
            // then release the trail: the solver is always left at
            // decision level 0 so callers can add clauses and re-solve.
            model_.assign(assign_.begin(), assign_.end());
            reconstruct_model();
            backtrack(0);
            return solve_result::satisfiable;
        }
        ++stats_.decisions;
        trail_lim_.push_back(static_cast<uint32_t>(trail_.size()));
        enqueue(next, no_reason);
    }
}

} // namespace mcx::sat
