#include "oracle/check_equivalence.h"

#include "sat/cnf.h"
#include "sat/solver.h"

#include <stdexcept>
#include <vector>

namespace mcx::oracle {

using namespace sat;

equivalence_report check_equivalence(const xag& a, const xag& b,
                                     uint64_t conflict_budget)
{
    if (a.num_pis() != b.num_pis() || a.num_pos() != b.num_pos())
        throw std::invalid_argument{
            "check_equivalence: interface mismatch"};

    // A cold miter is built once and solved once: exactly the pattern the
    // solver's bounded preprocessor is sound for.  The incremental prover
    // (incremental_cec) must NOT enable it — it keeps adding clauses and
    // solving under assumptions.
    solver s{sat_params{.preprocess = true}};
    std::vector<literal> pis;
    pis.reserve(a.num_pis());
    for (uint32_t i = 0; i < a.num_pis(); ++i)
        pis.push_back(literal{s.add_variable(), false});

    const auto enc_a = encode(s, a, pis);
    const auto enc_b = encode(s, b, pis);

    // Miter: OR over pairwise XOR of outputs must be satisfiable for a
    // difference to exist.
    std::vector<literal> any_diff;
    any_diff.reserve(a.num_pos());
    for (uint32_t i = 0; i < a.num_pos(); ++i) {
        const auto x = enc_a.po_literals[i];
        const auto y = enc_b.po_literals[i];
        const literal d{s.add_variable(), false};
        s.add_clause({~d, x, y});
        s.add_clause({~d, ~x, ~y});
        s.add_clause({d, ~x, y});
        s.add_clause({d, x, ~y});
        any_diff.push_back(d);
    }
    s.add_clause(any_diff);

    equivalence_report report;
    switch (s.solve(conflict_budget)) {
    case solve_result::unsatisfiable:
        report.result = equivalence_result::equivalent;
        break;
    case solve_result::satisfiable: {
        report.result = equivalence_result::not_equivalent;
        std::vector<bool> cex(a.num_pis());
        for (uint32_t i = 0; i < a.num_pis(); ++i)
            cex[i] = s.model_value(pis[i].var());
        report.counterexample = std::move(cex);
        break;
    }
    case solve_result::undecided:
        report.result = equivalence_result::undecided;
        break;
    }
    report.stats = s.stats();
    return report;
}

} // namespace mcx::oracle
