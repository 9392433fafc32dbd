// SAT-based exact synthesis of multiplicative-complexity-minimal XAGs.
//
// Circuit model (Boyar-Peralta / SLP form, the model behind the paper's
// database of MC-optimum circuits): a sequence of k AND gates where each
// operand is an arbitrary affine combination of the primary inputs and the
// previous AND outputs, and the output is an affine combination of
// everything.  Affine parts are free — only k is minimized, matching the
// definition of multiplicative complexity (paper §2.1).
//
// The decision problem "exists an XAG with k ANDs computing f" is encoded
// into CNF with selector variables for the affine combinations and
// per-minterm parity chains, and solved by the in-tree CDCL solver
// (src/sat/solver.h, with preprocessing); k is searched upward from the
// degree lower bound MC(f) >= deg(f) - 1.  The search itself,
// `detail::exact_mc_search` (src/exact/exact_mc_search.h), is generic over
// the solver so tests can run it on a reference solver.
#pragma once

#include "core/budget.h"
#include "tt/truth_table.h"
#include "xag/xag.h"

#include <cstdint>

namespace mcx {

struct exact_mc_params {
    uint32_t max_ands = 7;           ///< give up beyond this many AND gates
    uint64_t conflict_budget = 200'000; ///< per k-step; 0 = unlimited
    cancellation_token token;        ///< cooperative stop (checked per conflict)
};

struct exact_mc_result {
    bool success = false; ///< a circuit was found
    bool optimal = false; ///< every smaller k was refuted (or bound met)
    uint32_t num_ands = 0;
    /// Why the search ended: ok (completed, succeeded or exhausted k range),
    /// resource_exhausted (a conflict budget left some k undecided and no
    /// circuit was found), or the token's stop reason.  A budget-undecided
    /// step always clears `optimal` — "unknown" is never promoted to UNSAT.
    outcome status = outcome::ok;
    xag circuit; ///< f.num_vars() PIs, one PO (valid when success)
};

/// Synthesize an AND-minimal XAG for `f` (at most 6 variables).
exact_mc_result exact_mc_synthesis(const truth_table& f,
                                   const exact_mc_params& params = {});

/// Degree lower bound: MC(f) >= deg(f) - 1 (0 for affine functions).
uint32_t mc_lower_bound(const truth_table& f);

} // namespace mcx
