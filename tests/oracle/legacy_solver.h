// The original self-contained CDCL SAT solver, kept verbatim as the
// differential oracle for `sat::solver` (src/sat/solver.h): two-literal
// watching, VSIDS decision heuristic with phase saving, first-UIP conflict
// learning, Luby restarts, and activity-based learnt-clause reduction over
// `std::vector<clause>` storage.
//
// Test-only (the mcx_oracle library): `sat::solver` must stay
// verdict-identical to this engine on every instance, which the randomized
// differential fuzz in tests/sat_test.cpp enforces, and bench_micro_core
// gates the production core's speed against it.  Do not "improve" this
// file — its value is being the unchanged reference.
#pragma once

#include "core/budget.h"
#include "sat/types.h"

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <vector>

namespace mcx::oracle {

using sat::literal;
using sat::solve_result;
using sat::solver_stats;

class legacy_solver {
public:
    legacy_solver();

    uint32_t num_vars() const { return static_cast<uint32_t>(assign_.size()); }

    /// A fresh variable; returns its index.
    uint32_t add_variable();

    /// Add a clause (disjunction of literals).  An empty clause makes the
    /// instance trivially unsatisfiable.  Returns false if the clause is
    /// already conflicting under top-level assignments.
    bool add_clause(std::span<const literal> lits);
    bool add_clause(std::initializer_list<literal> lits)
    {
        return add_clause(std::span<const literal>{lits.begin(), lits.size()});
    }

    /// Assumption-free solve (see below).
    solve_result solve(uint64_t conflict_budget = 0,
                       const cancellation_token& token = {})
    {
        return solve({}, conflict_budget, token);
    }

    /// Solve under `assumptions`: each literal is forced true for this call
    /// only, via pseudo-decision levels below every real decision.  Learnt
    /// clauses are retained across calls, so a sequence of related queries
    /// on one solver gets warmer with each solve.  `unsatisfiable` here
    /// means "UNSAT under these assumptions" — the solver stays usable and
    /// `failed_assumptions()` holds the subset of assumptions the final
    /// conflict depends on.  Only a conflict at decision level 0 (no
    /// assumptions involved) makes the instance permanently UNSAT.
    /// The solver always returns at decision level 0, so `add_clause` is
    /// legal immediately after any solve.
    solve_result solve(std::span<const literal> assumptions,
                       uint64_t conflict_budget = 0,
                       const cancellation_token& token = {});

    /// Model value of a variable after a satisfiable solve.  Reads the
    /// snapshot taken at SAT time; valid until the next solve call.
    bool model_value(uint32_t var) const { return model_[var] == 1; }

    /// After `solve(assumptions)` returns `unsatisfiable` with a non-empty
    /// assumption set: the subset of assumptions sufficient for the
    /// conflict (MiniSat's analyzeFinal).  Empty when the instance is
    /// UNSAT independent of the assumptions.
    const std::vector<literal>& failed_assumptions() const
    {
        return failed_assumptions_;
    }

    /// Live learnt clauses of at most `max_len` literals — migration feed
    /// for a rebuilt solver (variable GC in src/sat/equivalence.cpp).
    std::vector<std::vector<literal>> export_learnt(size_t max_len) const;

    const solver_stats& stats() const { return stats_; }

    /// Instrumentation: invoked with every learnt clause (testing/debugging).
    std::function<void(std::span<const literal>)> on_learnt;

private:
    struct clause {
        std::vector<literal> lits;
        double activity = 0.0;
        bool learnt = false;
    };

    struct watcher {
        uint32_t clause_index;
        literal blocker;
    };

    static constexpr uint32_t no_reason = ~uint32_t{0};

    int8_t value_of(literal l) const
    {
        const auto v = assign_[l.var()];
        return v < 0 ? int8_t{-1} : int8_t{(v == 1) != l.negative()};
    }

    void enqueue(literal l, uint32_t reason);
    uint32_t propagate(); ///< returns conflicting clause index or no_reason
    void analyze(uint32_t conflict, std::vector<literal>& learnt,
                 uint32_t& backtrack_level);
    void analyze_final(literal p); ///< fills failed_assumptions_
    void backtrack(uint32_t level);
    void attach_clause(uint32_t index);
    uint32_t decision_level() const
    {
        return static_cast<uint32_t>(trail_lim_.size());
    }
    literal pick_branch();
    void bump_var(uint32_t var);
    void decay_var_activity() { var_inc_ /= 0.95; }
    void bump_clause(clause& c);
    void reduce_learnts();
    static uint64_t luby(uint64_t i);

    // heap of variables ordered by activity
    void heap_insert(uint32_t var);
    void heap_percolate_up(uint32_t pos);
    void heap_percolate_down(uint32_t pos);
    uint32_t heap_pop();

    std::vector<clause> clauses_;
    std::vector<uint32_t> learnt_indices_;
    std::vector<std::vector<watcher>> watches_; ///< indexed by literal code
    std::vector<int8_t> assign_;                ///< -1 / 0 / 1 per variable
    std::vector<uint32_t> level_;
    std::vector<uint32_t> reason_;
    std::vector<literal> trail_;
    std::vector<uint32_t> trail_lim_;
    size_t qhead_ = 0;

    std::vector<double> activity_;
    std::vector<uint32_t> heap_;     ///< binary max-heap of variables
    std::vector<uint32_t> heap_pos_; ///< position in heap_, or npos
    std::vector<int8_t> saved_phase_;
    double var_inc_ = 1.0;
    double clause_inc_ = 1.0;

    bool unsat_ = false;
    solver_stats stats_;
    std::vector<uint8_t> seen_;      ///< scratch for analyze()
    std::vector<literal> to_clear_;  ///< marks to reset after analyze()
    std::vector<int8_t> model_;      ///< snapshot of assign_ at SAT time
    std::vector<literal> failed_assumptions_;
};

} // namespace mcx::oracle
