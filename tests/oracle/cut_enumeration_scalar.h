// Test-only reference cut enumerator: the seed's scalar merge path, kept
// as the oracle for the word-parallel kernel in src/cut/cut_enumeration.cpp.
//
// It shares no merge code with the kernel: leaf sets are merged without
// recording positions, each child leaf's merged position is found with
// std::find, child functions are re-expressed by a loop over every merged
// minterm, duplicates are found by direct comparison, and subsets are
// tested with std::find behind the leaf-signature prefilter.  It must
// produce the kernel's cut sets, in the same order, with the same
// counters.
#pragma once

#include "cut/cut_enumeration.h"

namespace mcx::oracle {

/// enumerate_cuts on the scalar path.
cut_sets enumerate_cuts_scalar(const xag& network,
                               const cut_enumeration_params& params = {},
                               cut_enumeration_stats* stats = nullptr);

} // namespace mcx::oracle
