// SAT-based exact synthesis of gate-count-minimal XAGs (AND and XOR both
// cost 1).  This powers the *generic size optimization* baseline (paper §5.1
// uses an ABC script with a unit cost model "that accounts the same cost for
// both AND and XOR gates"; see DESIGN.md substitution X2).
#pragma once

#include "core/budget.h"
#include "tt/truth_table.h"
#include "xag/xag.h"

#include <cstdint>

namespace mcx {

struct exact_size_params {
    uint32_t max_gates = 12;            ///< give up beyond this many gates
    uint64_t conflict_budget = 200'000; ///< per step; 0 = unlimited
    cancellation_token token;           ///< cooperative stop
};

struct exact_size_result {
    bool success = false;
    bool optimal = false;
    uint32_t num_gates = 0;
    /// Why the search ended (see exact_mc_result::status).
    outcome status = outcome::ok;
    xag circuit; ///< f.num_vars() PIs, one PO (valid when success)
};

/// Synthesize a total-gate-minimal XAG for `f` (at most 4 variables keeps
/// the search practical; up to 6 accepted).
exact_size_result exact_size_synthesis(const truth_table& f,
                                       const exact_size_params& params = {});

} // namespace mcx
