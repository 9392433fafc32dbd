// Test-only reference NPN canonizer: the original exhaustive bit-at-a-time
// search, kept as the oracle for the word-parallel npn_canonize
// (src/npn/npn.cpp) and as the baseline of its speedup gate in
// bench_micro_core.  It returns the same representative as npn_canonize
// (the minimum truth table of the class), about two orders of magnitude
// slower; the transform may differ when several transforms reach it.
#pragma once

#include "npn/npn.h"

namespace mcx::oracle {

/// npn_canonize by brute force over every permutation and negation.
npn_result npn_canonize_baseline(const truth_table& f);

} // namespace mcx::oracle
