#include "oracle/legacy_solver.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mcx::oracle {

namespace {
constexpr uint32_t heap_npos = ~uint32_t{0};

} // namespace

legacy_solver::legacy_solver() = default;

uint32_t legacy_solver::add_variable()
{
    const auto v = static_cast<uint32_t>(assign_.size());
    assign_.push_back(-1);
    level_.push_back(0);
    reason_.push_back(no_reason);
    activity_.push_back(0.0);
    saved_phase_.push_back(0);
    seen_.push_back(0);
    heap_pos_.push_back(heap_npos);
    watches_.emplace_back();
    watches_.emplace_back();
    heap_insert(v);
    return v;
}

bool legacy_solver::add_clause(std::span<const literal> lits)
{
    if (unsat_)
        return false;
    if (decision_level() != 0)
        throw std::logic_error{"add_clause: only at decision level 0"};

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
        if (propagate() != no_reason) {
            unsat_ = true;
            return false;
        }
        return true;
    }
    clauses_.push_back({std::move(filtered), 0.0, false});
    attach_clause(static_cast<uint32_t>(clauses_.size() - 1));
    return true;
}

void legacy_solver::attach_clause(uint32_t index)
{
    const auto& c = clauses_[index];
    watches_[(~c.lits[0]).code()].push_back({index, c.lits[1]});
    watches_[(~c.lits[1]).code()].push_back({index, c.lits[0]});
}

void legacy_solver::enqueue(literal l, uint32_t reason)
{
    assign_[l.var()] = l.negative() ? 0 : 1;
    level_[l.var()] = decision_level();
    reason_[l.var()] = reason;
    trail_.push_back(l);
}

uint32_t legacy_solver::propagate()
{
    while (qhead_ < trail_.size()) {
        const auto p = trail_[qhead_++];
        ++stats_.propagations;
        auto& ws = watches_[p.code()]; // clauses where ~p is watched
        size_t keep = 0;
        uint32_t conflict = no_reason;
        for (size_t i = 0; i < ws.size(); ++i) {
            const auto w = ws[i];
            if (conflict != no_reason) {
                ws[keep++] = w;
                continue;
            }
            if (value_of(w.blocker) == 1) {
                ws[keep++] = w;
                continue;
            }
            auto& c = clauses_[w.clause_index];
            // Normalize: false literal (~p) at position 1.
            const literal false_lit = ~p;
            if (c.lits[0] == false_lit)
                std::swap(c.lits[0], c.lits[1]);
            if (value_of(c.lits[0]) == 1) {
                ws[keep++] = {w.clause_index, c.lits[0]};
                continue;
            }
            // Find a new literal to watch.
            bool moved = false;
            for (size_t k = 2; k < c.lits.size(); ++k) {
                if (value_of(c.lits[k]) != 0) {
                    std::swap(c.lits[1], c.lits[k]);
                    watches_[(~c.lits[1]).code()].push_back(
                        {w.clause_index, c.lits[0]});
                    moved = true;
                    break;
                }
            }
            if (moved)
                continue;
            // Unit or conflicting.
            ws[keep++] = w;
            if (value_of(c.lits[0]) == 0)
                conflict = w.clause_index;
            else
                enqueue(c.lits[0], w.clause_index);
        }
        ws.resize(keep);
        if (conflict != no_reason)
            return conflict;
    }
    return no_reason;
}

void legacy_solver::analyze(uint32_t conflict, std::vector<literal>& learnt,
                     uint32_t& backtrack_level)
{
    learnt.clear();
    learnt.push_back(literal{}); // placeholder for the asserting literal
    uint32_t counter = 0;
    literal p{};
    bool first = true;
    size_t index = trail_.size();

    for (;;) {
        auto& c = clauses_[conflict];
        if (c.learnt)
            bump_clause(c);
        const size_t start = first ? 0 : 1;
        for (size_t k = start; k < c.lits.size(); ++k) {
            const auto q = c.lits[k];
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
        first = false;
        if (--counter == 0)
            break;
        conflict = reason_[p.var()];
    }
    learnt[0] = ~p;

    // Cheap self-subsumption minimization: drop literals whose reason
    // clause is entirely marked.
    const auto redundant = [&](literal q) {
        const auto r = reason_[q.var()];
        if (r == no_reason)
            return false;
        for (size_t k = 1; k < clauses_[r].lits.size(); ++k) {
            const auto x = clauses_[r].lits[k];
            if (!seen_[x.var()] && level_[x.var()] > 0)
                return false;
        }
        return true;
    };
    // learnt[1..] are still marked in seen_ from the resolution loop; use
    // the marks for the redundancy test, then clear them all — including
    // literals dropped by the minimization (clearing after the in-place
    // compaction would miss them and poison later conflict analyses).
    to_clear_.assign(learnt.begin() + 1, learnt.end());
    size_t keep = 1;
    for (size_t i = 1; i < learnt.size(); ++i)
        if (!redundant(learnt[i]))
            learnt[keep++] = learnt[i];
    learnt.resize(keep);
    for (const auto q : to_clear_)
        seen_[q.var()] = 0;

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

void legacy_solver::analyze_final(literal p)
{
    // MiniSat's analyzeFinal: which assumptions does the falsification of
    // `p` depend on?  Walk the trail top-down from the first assumption
    // level, expanding reason clauses; literals with no reason above level
    // 0 are assumption decisions.  Invoked from the assumption-
    // establishment step, so no real decisions are on the trail yet.
    failed_assumptions_.clear();
    failed_assumptions_.push_back(p);
    if (decision_level() == 0)
        return;
    seen_[p.var()] = 1;
    for (size_t i = trail_.size(); i-- > trail_lim_[0];) {
        const auto v = trail_[i].var();
        if (!seen_[v])
            continue;
        if (reason_[v] == no_reason) {
            failed_assumptions_.push_back(trail_[i]);
        } else {
            const auto& c = clauses_[reason_[v]];
            for (size_t k = 1; k < c.lits.size(); ++k)
                if (level_[c.lits[k].var()] > 0)
                    seen_[c.lits[k].var()] = 1;
        }
        seen_[v] = 0;
    }
    seen_[p.var()] = 0;
}

void legacy_solver::backtrack(uint32_t target)
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

void legacy_solver::bump_var(uint32_t var)
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

void legacy_solver::bump_clause(clause& c)
{
    c.activity += clause_inc_;
    if (c.activity > 1e100) {
        for (const auto idx : learnt_indices_)
            clauses_[idx].activity *= 1e-100;
        clause_inc_ *= 1e-100;
    }
}

void legacy_solver::heap_insert(uint32_t var)
{
    heap_pos_[var] = static_cast<uint32_t>(heap_.size());
    heap_.push_back(var);
    heap_percolate_up(heap_pos_[var]);
}

void legacy_solver::heap_percolate_up(uint32_t pos)
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

void legacy_solver::heap_percolate_down(uint32_t pos)
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

uint32_t legacy_solver::heap_pop()
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

literal legacy_solver::pick_branch()
{
    while (!heap_.empty()) {
        const auto v = heap_pop();
        if (assign_[v] < 0)
            return literal{v, saved_phase_[v] != 1};
    }
    return literal{heap_npos >> 1, false}; // all assigned
}

void legacy_solver::reduce_learnts()
{
    std::sort(learnt_indices_.begin(), learnt_indices_.end(),
              [&](uint32_t a, uint32_t b) {
                  return clauses_[a].activity < clauses_[b].activity;
              });
    const size_t target = learnt_indices_.size() / 2;
    size_t removed = 0;
    std::vector<uint8_t> dead(clauses_.size(), 0);
    for (size_t i = 0; i < learnt_indices_.size() && removed < target; ++i) {
        const auto idx = learnt_indices_[i];
        auto& c = clauses_[idx];
        if (c.lits.size() <= 2)
            continue;
        // Keep reason clauses of current assignments.
        bool locked = false;
        for (const auto l : c.lits)
            if (assign_[l.var()] >= 0 && reason_[l.var()] == idx) {
                locked = true;
                break;
            }
        if (locked)
            continue;
        dead[idx] = 1;
        ++removed;
    }
    if (removed == 0)
        return;
    stats_.learnt_removed += removed;
    for (auto& ws : watches_)
        std::erase_if(ws, [&](const watcher& w) { return dead[w.clause_index]; });
    std::erase_if(learnt_indices_, [&](uint32_t idx) { return dead[idx]; });
    for (const auto idx : learnt_indices_)
        if (dead[idx] == 0 && clauses_[idx].lits.empty())
            throw std::logic_error{"reduce_learnts: empty learnt clause"};
    // Clause bodies stay in place (indices must remain stable); mark only.
    for (uint32_t i = 0; i < clauses_.size(); ++i)
        if (dead[i])
            clauses_[i].lits.clear();
}

uint64_t legacy_solver::luby(uint64_t i)
{
    // Knuth's formulation of the Luby sequence.
    uint64_t size = 1, seq = 0;
    while (size < i + 1) {
        ++seq;
        size = 2 * size + 1;
    }
    while (size - 1 != i) {
        size = (size - 1) / 2;
        --seq;
        i = i % size;
    }
    return uint64_t{1} << seq;
}

solve_result legacy_solver::solve(std::span<const literal> assumptions,
                           uint64_t conflict_budget,
                           const cancellation_token& token)
{
    // The oracle has no fault-injection site and feeds no sat.* metrics;
    // both belong to the production sat::solver.
    failed_assumptions_.clear();
    backtrack(0);
    if (unsat_)
        return solve_result::unsatisfiable;
    if (propagate() != no_reason) {
        unsat_ = true;
        return solve_result::unsatisfiable;
    }
    if (token.stop_possible() && token.stop_requested())
        return solve_result::undecided;

    const uint64_t conflict_limit =
        conflict_budget == 0 ? 0 : stats_.conflicts + conflict_budget;
    uint64_t restart_count = 0;
    uint64_t conflicts_until_restart = 100 * luby(restart_count);
    uint64_t conflicts_in_restart = 0;
    size_t max_learnts = 4000 + clauses_.size() / 2;
    std::vector<literal> learnt;

    for (;;) {
        const auto conflict = propagate();
        if (conflict != no_reason) {
            ++stats_.conflicts;
            ++conflicts_in_restart;
            if (decision_level() == 0) {
                unsat_ = true;
                return solve_result::unsatisfiable;
            }
            uint32_t backtrack_level = 0;
            analyze(conflict, learnt, backtrack_level);
            if (on_learnt)
                on_learnt(learnt);
            backtrack(backtrack_level);
            if (learnt.size() == 1) {
                enqueue(learnt[0], no_reason);
            } else {
                clauses_.push_back({learnt, 0.0, true});
                const auto idx = static_cast<uint32_t>(clauses_.size() - 1);
                bump_clause(clauses_[idx]);
                learnt_indices_.push_back(idx);
                attach_clause(idx);
                enqueue(learnt[0], idx);
            }
            decay_var_activity();
            clause_inc_ /= 0.999;
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

        if (conflicts_in_restart >= conflicts_until_restart) {
            ++stats_.restarts;
            ++restart_count;
            conflicts_in_restart = 0;
            conflicts_until_restart = 100 * luby(restart_count);
            backtrack(0);
            continue;
        }
        if (learnt_indices_.size() >= max_learnts) {
            reduce_learnts();
            max_learnts = max_learnts * 3 / 2;
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
                // NOT set, and the final-conflict subset is extracted.
                analyze_final(p);
                backtrack(0);
                return solve_result::unsatisfiable;
            }
            // Already-true assumptions still get their own (empty)
            // decision level so analyze_final can tell assumption levels
            // from top-level units.
            trail_lim_.push_back(static_cast<uint32_t>(trail_.size()));
            if (val == -1)
                enqueue(p, no_reason);
            continue;
        }

        const auto next = pick_branch();
        if (next.var() == (heap_npos >> 1)) {
            // Snapshot the model, then release the trail: the solver is
            // always left at decision level 0 so callers can add clauses
            // and re-solve (incremental use).
            model_.assign(assign_.begin(), assign_.end());
            backtrack(0);
            return solve_result::satisfiable;
        }
        ++stats_.decisions;
        trail_lim_.push_back(static_cast<uint32_t>(trail_.size()));
        enqueue(next, no_reason);
    }
}

} // namespace mcx::oracle
