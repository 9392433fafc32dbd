// Test-only cold combinational equivalence check: a fresh solver, the
// pairwise-XOR miter of two whole networks, one solve.
//
// The reference the incremental `sat::incremental_cec` (src/sat/equivalence.h)
// is cross-checked against in tests/sat_test.cpp and timed against in
// bench_micro_core.  It takes no cancellation token, so it stays out of
// the production library, where every proof obeys the flow's deadline.
#pragma once

#include "sat/equivalence.h"

namespace mcx::oracle {

/// Build the pairwise-XOR miter of two networks over shared inputs and
/// decide it.  `conflict_budget` = 0 runs to completion.
sat::equivalence_report check_equivalence(const xag& a, const xag& b,
                                          uint64_t conflict_budget = 0);

} // namespace mcx::oracle
