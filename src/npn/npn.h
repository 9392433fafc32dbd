// Exact NPN canonization for functions of up to 4 variables.
//
// NPN equivalence (negate inputs, permute inputs, negate output) is the
// classification used by classic DAG-aware rewriting (paper ref [1]) and by
// our generic-size baseline: in an XAG all three operations are free
// (complemented edges), so a minimal circuit of the NPN representative is a
// minimal circuit of every class member.
//
// `npn_canonize` walks the 2 * 2^n * n! candidate space of the brute force,
// but steps between candidates with single word operations (Gray-code input
// flips, masked variable swaps) on the packed 64-bit truth table, so each
// candidate costs O(1) instead of O(2^n * n).  The original bit-at-a-time
// search is kept with the tests as its reference oracle
// (tests/oracle/npn_canonize_baseline.h): both return the same
// representative (the minimum truth table of the class); the transforms may
// differ when several transforms reach it, and either satisfies
// f = transform.apply(representative).
#pragma once

#include "db/sharded_store.h"
#include "tt/truth_table.h"

#include <array>
#include <cstdint>

namespace mcx {

/// f = transform.apply(representative):
///   f(x) = output_negation ^ r(y) with y[i] = x[perm[i]] ^ neg bit i.
struct npn_transform {
    uint32_t num_vars = 0;
    std::array<uint8_t, 4> perm{};  ///< representative input i reads x[perm[i]]
    uint32_t input_negation = 0;    ///< bit i: complement representative input i
    bool output_negation = false;

    truth_table apply(const truth_table& representative) const;
};

struct npn_result {
    truth_table representative;
    npn_transform transform;
};

/// Smallest truth table in the NPN class of `f` plus the transform back.
/// Word-parallel exact search (see header comment).
npn_result npn_canonize(const truth_table& f);

/// Memoization in front of `npn_canonize` — on real netlists the same cut
/// functions recur constantly, so canonization becomes a hash lookup after
/// warm-up.  One instance per pass_context, shared by every worker through
/// a sharded_store (see classification_cache): each function is canonized
/// once at any thread count, and nothing is evicted.
class npn_cache {
public:
    npn_cache()
    {
        cache_.set_metrics(obs::register_metric("cache.npn.hit"),
                           obs::register_metric("cache.npn.miss"));
    }

    /// Thread-safe; the reference stays valid for the cache's lifetime.
    const npn_result& canonize(const truth_table& f)
    {
        return cache_.lookup_or_build(
            f, [](const truth_table& g) { return npn_canonize(g); });
    }

    uint64_t hits() const { return cache_.hits(); }
    uint64_t misses() const { return cache_.misses(); }
    size_t size() const { return cache_.size(); }

private:
    sharded_store<truth_table, npn_result, truth_table_hash> cache_;
};

} // namespace mcx
