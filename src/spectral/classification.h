// Affine classification of Boolean functions via Rademacher-Walsh spectra
// (paper §2.2 and §4.1, following Miller-Soeken style spectral
// canonization).
//
// The five affine operations of Definition 2.1 generate the group acting on
// spectra as  s'[w] = sigma * (-1)^(c.w) * s[Mw ^ v]  with M in GL(n,2) and
// v, c in F2^n.  The canonical representative is the function whose spectrum
// is the lexicographically largest vector in the orbit; we search for it
// with a DFS over (v, sigma) and the columns of M interleaved with the bits
// of c, pruning on the lexicographic prefix.  The search is exact when it
// completes; an iteration limit (paper: 100 000) bounds the effort, and
// functions whose classification exceeds it are reported unsuccessful and
// skipped by the optimizer — mirroring the paper, which omits 2 359 of the
// 150 357 6-input classes for the same reason.
//
// Reconstruction: if r is the representative found for f, then
//     f(y) = r(M^T y ^ c) ^ (v . y) ^ [sigma < 0],
// which costs only XOR gates and inverters around r's circuit — the whole
// point of the method: the AND count of f equals the AND count of r.
#pragma once

#include "db/sharded_store.h"
#include "tt/truth_table.h"

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace mcx {

/// Rademacher-Walsh spectrum: s[w] = sum_x (-1)^(f(x) ^ (w.x)).
std::vector<int32_t> walsh_spectrum(const truth_table& f);

/// Inverse of walsh_spectrum (the transform is an involution up to 2^n).
truth_table function_from_spectrum(std::span<const int32_t> spectrum,
                                   uint32_t num_vars);

/// The affine relation between a function and its class representative.
struct affine_transform {
    uint32_t num_vars = 0;
    std::array<uint32_t, 6> m_columns{}; ///< column k of M (an n-bit mask)
    uint32_t c = 0;                      ///< input translation vector
    uint32_t v = 0;                      ///< output linear mask
    bool output_complement = false;      ///< [sigma < 0]

    /// Column k of M^T (row k of M), as an n-bit mask over the y inputs.
    uint32_t mt_column(uint32_t k) const
    {
        uint32_t mask = 0;
        for (uint32_t i = 0; i < num_vars; ++i)
            mask |= ((m_columns[i] >> k) & 1u) << i;
        return mask;
    }

    /// Rebuild f from the representative: f(y) = r(M^T y ^ c) ^ v.y ^ s.
    truth_table apply(const truth_table& representative) const;
};

struct classification_params {
    uint64_t iteration_limit = 100'000; ///< candidate evaluations (paper §5)
};

struct classification_result {
    truth_table representative;
    affine_transform transform;
    bool success = false;    ///< false when the iteration limit was hit
    uint64_t iterations = 0; ///< candidate evaluations spent
};

/// Canonize `f` (up to 6 variables) with the packed-spectrum engine
/// (src/tt/spectrum_words.h): the search tree, candidate order and
/// iteration accounting of the scalar reference search kept with the tests
/// (tests/oracle/classify_affine_baseline.h), but candidate blocks are
/// built, signed and compared a word at a time.  On success the result
/// satisfies `transform.apply(representative) == f` — callers re-verify
/// this cheap identity before rewriting, making the optimizer sound by
/// construction.
classification_result classify_affine(const truth_table& f,
                                      const classification_params& params = {});

/// Memoizing wrapper — the paper's classification cache (§4.1): "no Boolean
/// function needs to be classified twice".  One instance per pass_context,
/// shared by every worker: it sits on the databases' sharded_store, so each
/// function is classified exactly once however many workers ask for it, and
/// the hit/miss totals of a fixed workload do not depend on the thread
/// count.  Nothing is evicted — one entry per distinct cut function.
class classification_cache {
public:
    explicit classification_cache(classification_params params = {})
        : params_{params}
    {
        cache_.set_metrics(obs::register_metric("cache.cls.hit"),
                           obs::register_metric("cache.cls.miss"));
    }

    /// Thread-safe; the reference stays valid for the cache's lifetime.
    const classification_result& classify(const truth_table& f)
    {
        return cache_.lookup_or_build(f, [this](const truth_table& g) {
            return classify_affine(g, params_);
        });
    }

    uint64_t hits() const { return cache_.hits(); }
    uint64_t misses() const { return cache_.misses(); }
    size_t size() const { return cache_.size(); }

private:
    classification_params params_;
    sharded_store<truth_table, classification_result, truth_table_hash> cache_;
};

} // namespace mcx
