// Test-only reference for Paar's pair extraction (core/xor_pairing.h):
// the pass's former loop, kept as the oracle for the flat-table one.
//
// Pair counts live in a std::unordered_map, and a lazily invalidated
// max-heap gets one entry per increment that reaches two.  A popped entry
// whose count no longer matches is requeued at the lower count, and the
// loop ends only when the heap is empty.  It must produce the fast path's
// plan and rows exactly.
#pragma once

#include "core/xor_pairing.h"

namespace mcx::oracle {

/// extract_pairs with the map-and-lazy-heap loop.
pair_plan extract_pairs_reference(std::vector<linear_row>& rows,
                                  uint32_t first_pair, thread_pool* pool,
                                  const cancellation_token& token);

} // namespace mcx::oracle
