// Test-only reference affine classifier: the original scalar
// lexicographic-maximum DFS over spectra, kept as the oracle for the
// word-parallel engine behind classify_affine (src/spectral/
// classification.cpp).
//
// Same search tree, candidate order and iteration accounting as the engine,
// one spectrum coefficient at a time: tests require exhaustive agreement up
// to 4 inputs and randomized agreement at 5-6 inputs, and bench_micro_core
// gates the engine at >= 4x this implementation on the cold-cache workload.
#pragma once

#include "spectral/classification.h"

namespace mcx::oracle {

/// classify_affine on the scalar path.
classification_result
classify_affine_baseline(const truth_table& f,
                         const classification_params& params = {});

} // namespace mcx::oracle
