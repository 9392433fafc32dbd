// XOR-count resynthesis of linear blocks — the complementary optimization
// the paper explicitly leaves to related work ("Note that we do not
// consider any XOR optimization in this work. An algorithm to minimize the
// number of XOR for cryptography applications can be found in [14]").
//
// The XAG is partitioned into maximal XOR-only cones (linear blocks over
// GF(2)); each block is a linear system  y = M x  over its terminals
// (AND nodes, PIs).  The blocks are re-synthesized with Paar's greedy
// common-subexpression algorithm: repeatedly materialize the pair of
// columns that co-occurs in the most rows.  AND count — the paper's cost
// function — is untouched by construction.
#pragma once

#include "core/budget.h"
#include "xag/xag.h"

#include <cstdint>

namespace mcx {

class thread_pool;

struct xor_resynthesis_params {
    /// Seeding-work budget: rows join the pairing narrowest-first while
    /// the cumulative sum of width² stays under this bound (pair seeding
    /// is quadratic per row, and extraction cost tracks the same sum).
    /// The default admits every row of rewrite-scale circuits — 16-term
    /// and 200-term rows alike — while full-hash linear systems (MD5's
    /// widest accumulator rows run to ~4 500 terms, Σwidth² ≈ 8.5 · 10¹⁰)
    /// degrade gracefully: their widest rows keep their trees.
    /// 0 = unlimited.  Selection depends only on the sorted row widths —
    /// never on the worker count — so the output is identical with and
    /// without a pool, at any worker count (xor_resynthesis_test
    /// exercises both).
    uint64_t pairing_work_budget = 2'000'000;
    /// Worker team for pair-count seeding (the Σwidth² part); nullptr
    /// counts inline on the caller.  Extraction and the chain rebuilds
    /// stay sequential: they mutate shared state.  Extraction costs one
    /// count update per other term of each row a pair is extracted from,
    /// plus a heap pop per queued pair whose count fell since it was
    /// queued (core/xor_pairing.cpp).
    thread_pool* pool = nullptr;
    /// Cooperative stop.  Checked between pair extractions and between row
    /// rebuilds; stopping skips the remaining work (the rows already
    /// rebuilt keep their gains, the rest keep their old trees) and the
    /// stats carry the stop reason — the network is always left consistent
    /// and function-equivalent.
    cancellation_token token;
};

struct xor_resynthesis_stats {
    uint32_t xors_before = 0;
    uint32_t xors_after = 0;
    uint32_t blocks = 0;         ///< linear block roots rewritten
    uint32_t pairs_extracted = 0; ///< shared pair gates materialized
    uint32_t widest_row = 0;      ///< terms in the widest linear row seen
    uint32_t rows_paired = 0;     ///< rows admitted to pair extraction
    uint32_t widest_row_paired = 0; ///< widest row admitted
    uint32_t seed_workers = 1;    ///< workers the pair seeding ran on
    outcome status = outcome::ok; ///< non-ok when a token stopped the pass
};

/// Rewrite all maximal linear blocks.  Function-preserving; the AND count
/// never increases (it can drop when collapsed linear cones let downstream
/// AND gates constant-fold).
xor_resynthesis_stats xor_resynthesis(xag& network,
                                      const xor_resynthesis_params& params = {});

} // namespace mcx
