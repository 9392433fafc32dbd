// The SAT solver: one CDCL core behind `sat::solver`.
//
//   - arena clause storage (src/sat/clause_arena.h), binary clauses
//     resolved directly from the watcher lists
//   - glucose-style LBD computed at learn time, driving three-tier learnt
//     retention (core / mid / local)
//   - LBD-EMA restarts with trail-size blocking
//   - optional bounded one-shot preprocessing (subsumption +
//     self-subsumption + bounded variable elimination with model
//     reconstruction), src/sat/solver_preprocess.cpp
//
// `solve()` also owns the cross-cutting plumbing: the
// `fault_site::sat_budget` injection point and the `sat.solve` span +
// `sat.*` metrics mirrors (docs/observability.md).
//
// Substrate for exact multiplicative-complexity synthesis (src/exact) and
// formal equivalence checking of optimized networks (src/sat/equivalence.h).
// The original vector-of-clauses solver lives on as a test-only
// differential oracle under tests/oracle/ (docs/sat.md).
#pragma once

#include "core/budget.h"
#include "sat/clause_arena.h"
#include "sat/types.h"

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <vector>

namespace mcx::sat {

class solver {
public:
    explicit solver(sat_params params = {});

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

    /// Solve; `conflict_budget` = 0 means no budget (run to completion).
    /// A stopped `token` (deadline or cancellation) ends the search at the
    /// next conflict with `undecided` — the same honest "don't know" that
    /// budget exhaustion yields, never a fabricated UNSAT.
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
    // Watcher / reason encoding: bit 31 tags an inline binary clause, the
    // low 31 bits then hold the code of the *other* literal; otherwise the
    // value is an arena clause_ref (capped below 2^31 by the arena).
    static constexpr uint32_t binary_flag = uint32_t{1} << 31;
    static constexpr uint32_t no_reason = ~uint32_t{0};
    static constexpr uint32_t heap_npos = ~uint32_t{0};

    struct watch {
        uint32_t ref; ///< clause_ref, or binary_flag | other-literal code
        literal blocker;
    };

    int8_t value_of(literal l) const
    {
        const auto v = assign_[l.var()];
        return v < 0 ? int8_t{-1} : int8_t{(v == 1) != l.negative()};
    }

    void enqueue(literal l, uint32_t reason);
    bool propagate(); ///< true on conflict; fills confl_lits_ / confl_cref_
    void attach_long(clause_ref c);
    void attach_binary(literal a, literal b);
    void analyze(std::vector<literal>& learnt, uint32_t& backtrack_level,
                 uint32_t& lbd);
    void analyze_final(literal p);
    void backtrack(uint32_t level);
    uint32_t decision_level() const
    {
        return static_cast<uint32_t>(trail_lim_.size());
    }
    literal pick_branch();
    void bump_var(uint32_t var);
    void bump_clause(clause_ref c);
    uint32_t compute_lbd(std::span<const literal> lits);
    void record_learnt(std::span<const literal> learnt, uint32_t lbd);
    void reduce_learnts();
    void garbage_collect();
    solve_result search(std::span<const literal> assumptions,
                        uint64_t conflict_budget,
                        const cancellation_token& token);

    // VSIDS heap of variables ordered by activity.
    void heap_insert(uint32_t var);
    void heap_percolate_up(uint32_t pos);
    void heap_percolate_down(uint32_t pos);
    uint32_t heap_pop();

    // --- bounded one-shot preprocessor (solver_preprocess.cpp) ---
    void preprocess();
    void rebuild_from(std::vector<std::vector<literal>>&& clauses,
                      std::span<const literal> units);
    void reconstruct_model();
    bool lit_true_in_model(literal l) const
    {
        return (model_[l.var()] == 1) != l.negative();
    }

    clause_arena arena_;
    std::vector<clause_ref> clauses_; ///< long problem clauses
    std::vector<clause_ref> learnts_; ///< long learnt clauses
    std::vector<std::pair<literal, literal>> binary_learnts_; ///< export feed
    std::vector<std::vector<watch>> watches_; ///< indexed by literal code

    std::vector<int8_t> assign_;
    std::vector<uint32_t> level_;
    std::vector<uint32_t> reason_;
    std::vector<literal> trail_;
    std::vector<uint32_t> trail_lim_;
    size_t qhead_ = 0;

    std::vector<double> activity_;
    std::vector<uint32_t> heap_;
    std::vector<uint32_t> heap_pos_;
    std::vector<int8_t> saved_phase_;
    double var_inc_ = 1.0;
    float clause_inc_ = 1.0f;

    bool unsat_ = false;
    solver_stats stats_;
    std::vector<uint8_t> seen_;
    std::vector<literal> to_clear_;
    std::vector<int8_t> model_;
    std::vector<literal> failed_assumptions_;

    // Conflict clause materialized by propagate().
    std::vector<literal> confl_lits_;
    clause_ref confl_cref_ = null_ref;

    // LBD scratch: per-level stamps against a running counter.
    std::vector<uint64_t> lbd_stamp_;
    uint64_t lbd_counter_ = 0;

    // Restart state (LBD-EMA with trail-size blocking).
    double ema_lbd_fast_ = 0.0; ///< alpha 2^-5
    double ema_lbd_slow_ = 0.0; ///< alpha 2^-14
    double ema_trail_ = 0.0;    ///< alpha 2^-12, blocks restarts on deep trails
    bool ema_init_ = false;

    // Learnt-DB reduction schedule (conflict-count driven, glucose-style).
    uint64_t next_reduce_ = 2000;
    uint64_t reduce_count_ = 0;

    // Preprocessor state.
    bool preprocess_enabled_ = false;
    bool preprocessed_ = false;
    std::vector<uint8_t> eliminated_; ///< vars removed by BVE / pure literals
    struct elim_record {
        literal l; ///< stored-polarity literal of the eliminated variable
        std::vector<std::vector<literal>> saved; ///< its clauses, l removed
    };
    std::vector<elim_record> elim_stack_;
};

} // namespace mcx::sat
