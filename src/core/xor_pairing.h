// Paar's greedy pair extraction — the planning half of the XOR pass
// (core/xor_resynthesis.h), kept apart from the network rebuild so that
// tests can hold it against its reference
// (tests/oracle/xor_pairing_reference.h).
//
// The input is a system of linear rows over GF(2), each an ascending list
// of term ids.  While some pair of terms occurs together in two or more
// rows, the pair with the highest count becomes a new term that replaces
// the pair in every row holding both.  Ties go to the larger pair, compared
// as (a, b) with a < b.
#pragma once

#include "core/budget.h"

#include <cstdint>
#include <vector>

namespace mcx {

class thread_pool;

/// A linear row: the terms whose parity it computes, as ascending ids.
/// Ids below `first_pair` (see extract_pairs) are terminals; planned pair
/// k is `first_pair + k`, above every terminal and every earlier pair.
using linear_row = std::vector<uint32_t>;

struct planned_pair {
    uint32_t a, b; ///< term ids, a < b (terminal or earlier planned pair)
};

struct pair_plan {
    std::vector<planned_pair> pairs;
    outcome status = outcome::ok; ///< non-ok when the token stopped it
};

/// Extract pairs from `rows` in place until no pair repeats.  The rows
/// come in holding terminals only.  Every row stays ascending: a new
/// pair's id is larger than any term, so it is appended.  `pool` spreads
/// the pair-count seeding over its workers; the plan and the rows do not
/// depend on it.  A stop request ends the extraction early; the plan so
/// far is still consistent with the rows.
pair_plan extract_pairs(std::vector<linear_row>& rows, uint32_t first_pair,
                        thread_pool* pool, const cancellation_token& token);

} // namespace mcx
