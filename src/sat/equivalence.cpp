#include "sat/equivalence.h"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace mcx::sat {

// ------------------------------------------------------- incremental_cec

incremental_cec::incremental_cec(const xag& golden, uint32_t rebuild_growth)
    : golden_{&golden}, rebuild_growth_{std::max(2u, rebuild_growth)}
{
    rebuild();
    rebuilds_ = 0; // the constructor's build is not a GC event
}

void incremental_cec::rebuild()
{
    // Variable remapper: the golden encoding is deterministic (same
    // add_variable order on a fresh solver), so golden variables map to
    // themselves in the new solver and learnt clauses confined to
    // [0, base_vars_) migrate verbatim.  Clauses derived through any
    // session clause carry that session's ~activation literal — a
    // session variable — so the range filter is exactly the soundness
    // filter: everything it admits is implied by the golden CNF alone.
    std::vector<std::vector<literal>> migrated;
    if (solver_)
        for (auto& c : solver_->export_learnt(8)) {
            bool golden_only = true;
            for (const auto l : c)
                if (l.var() >= base_vars_) {
                    golden_only = false;
                    break;
                }
            if (golden_only)
                migrated.push_back(std::move(c));
        }

    solver_ = std::make_unique<solver>();
    session_ = {}; // its variables died with the old solver
    pis_.clear();
    pis_.reserve(golden_->num_pis());
    for (uint32_t i = 0; i < golden_->num_pis(); ++i)
        pis_.push_back(literal{solver_->add_variable(), false});
    golden_enc_ = encode(*solver_, *golden_, pis_);
    base_vars_ = solver_->num_vars();
    for (const auto& c : migrated)
        solver_->add_clause(c);
    warm_ = !migrated.empty();
    ++rebuilds_;
}

namespace {

/// Exact structural signature: two networks produce the same word
/// sequence iff they have identical node arrays and interfaces (node
/// ids included — reuse targets the re-check of a literally unchanged
/// network, not isomorphism detection).
std::vector<uint64_t> shape_of(const xag& n)
{
    const auto code = [](signal s) {
        return (static_cast<uint64_t>(s.node()) << 1) |
               static_cast<uint64_t>(s.complemented());
    };
    std::vector<uint64_t> shape;
    shape.reserve(2 * n.size() + n.num_pis() + n.num_pos() + 2);
    shape.push_back(n.num_pis());
    shape.push_back(n.size());
    for (uint32_t i = 0; i < n.num_pis(); ++i)
        shape.push_back(n.pi_at(i));
    for (uint32_t v = 0; v < n.size(); ++v)
        if (n.is_gate(v)) {
            shape.push_back((static_cast<uint64_t>(v) << 1) |
                            static_cast<uint64_t>(n.is_xor(v)));
            shape.push_back(code(n.fanin0(v)) << 32 | code(n.fanin1(v)));
        }
    for (uint32_t i = 0; i < n.num_pos(); ++i)
        shape.push_back(code(n.po_at(i)));
    return shape;
}

} // namespace

void incremental_cec::retire(literal activation)
{
    solver_->add_clause({~activation});
}

equivalence_report incremental_cec::check(const xag& optimized,
                                          uint64_t conflict_budget,
                                          const cancellation_token& token)
{
    if (optimized.num_pis() != golden_->num_pis() ||
        optimized.num_pos() != golden_->num_pos())
        throw std::invalid_argument{"incremental_cec: interface mismatch"};

    // GC: once retired-session garbage outweighs the golden encoding,
    // rebuild and migrate golden-only learnt clauses.
    if (solver_->num_vars() >
        static_cast<uint64_t>(rebuild_growth_) * base_vars_)
        rebuild();

    // The previous candidate's session is still live.  If this candidate
    // is structurally identical — re-verification in a converged iterated
    // flow — re-solve on the same variables: the session's learnt clauses
    // (which mention its activation and miter literals, so they never
    // migrate) short-circuit every proof they refuted before.  Otherwise
    // retire the old session and encode this candidate fresh.
    auto shape = shape_of(optimized);
    if (session_.valid && session_.shape == shape) {
        ++session_reuses_;
    } else {
        if (session_.valid)
            retire(session_.act);
        session_ = {};
        const literal act{solver_->add_variable(), false};
        const auto opt_enc = encode_guarded(*solver_, optimized, act, pis_);
        session_.valid = true;
        session_.act = act;
        session_.outputs = opt_enc.po_literals;
        session_.shape = std::move(shape);
    }
    const literal act = session_.act;

    equivalence_report report;
    report.result = equivalence_result::equivalent;
    uint64_t spent = 0;
    for (uint32_t i = 0; i < golden_->num_pos(); ++i) {
        const auto x = golden_enc_.po_literals[i];
        const auto y = session_.outputs[i];
        literal d;
        if (i < session_.diffs.size()) {
            d = session_.diffs[i];
        } else {
            d = literal{solver_->add_variable(), false};
            solver_->add_clause({~d, x, y, ~act});
            solver_->add_clause({~d, ~x, ~y, ~act});
            solver_->add_clause({d, ~x, y, ~act});
            solver_->add_clause({d, x, ~y, ~act});
            session_.diffs.push_back(d);
        }

        uint64_t budget = 0;
        if (conflict_budget != 0) {
            if (spent >= conflict_budget) {
                report.result = equivalence_result::undecided;
                break;
            }
            budget = conflict_budget - spent;
        }
        const auto before = solver_->stats().conflicts;
        const std::array<literal, 2> assumptions{act, d};
        const auto res = solver_->solve(assumptions, budget, token);
        const auto delta = solver_->stats().conflicts - before;
        spent += delta;
        records_.push_back({i, delta, warm_});
        warm_ = true;

        if (res == solve_result::satisfiable) {
            report.result = equivalence_result::not_equivalent;
            std::vector<bool> cex(golden_->num_pis());
            for (uint32_t k = 0; k < golden_->num_pis(); ++k)
                cex[k] = solver_->model_value(pis_[k].var());
            report.counterexample = std::move(cex);
            break;
        }
        if (res == solve_result::undecided) {
            report.result = equivalence_result::undecided;
            break;
        }
    }
    // The session is NOT retired here: it stays live so an identical
    // next candidate re-solves on it.  Retirement happens when a
    // different candidate arrives or the GC rebuild fires.
    report.stats = solver_->stats();
    return report;
}

} // namespace mcx::sat
