// Formal combinational equivalence checking via SAT miters.
//
// incremental_cec is the one whole-network prover.  Each check() decides
// one (golden, candidate) pair on its own solver: it encodes the golden
// network, merges the candidate into that encoding — structural hashing
// onto golden gates, then SAT sweeping of simulation-matched pairs — and
// decides the outputs one by one under assumptions, so learnt clauses
// accumulate across the sweep and the outputs of that check.  The cold
// single-solve miter it is checked against lives with the tests
// (tests/oracle/check_equivalence.h).
#pragma once

#include "core/budget.h"
#include "sat/types.h"
#include "xag/xag.h"

#include <optional>
#include <unordered_map>
#include <vector>

namespace mcx::sat {

enum class equivalence_result : uint8_t {
    equivalent,
    not_equivalent,
    undecided ///< conflict budget exhausted
};

/// How one `incremental_cec::check()` merged the candidate into the golden
/// encoding.  Mirrored in the mcx --report `verification.sweep` object
/// (docs/artifacts.md).
struct sweep_stats {
    uint64_t strash_hits = 0; ///< candidate gates that took a golden literal
    uint64_t pairs_tried = 0; ///< simulation-matched (gate, golden) pairs
    uint64_t merged = 0;      ///< pairs proved equal; fanouts use golden
    uint64_t refuted = 0;     ///< pairs a model told apart
    uint64_t conflicts = 0;   ///< conflicts spent on the sweep's solves
};

struct equivalence_report {
    equivalence_result result = equivalence_result::undecided;
    /// PI assignment demonstrating a difference (when not equivalent).
    std::optional<std::vector<bool>> counterexample;
    /// Stats of this check's solver.
    solver_stats stats;
    sweep_stats sweep;
};

/// One solve in a verification sequence (schema mirrored in the mcx
/// --report `verification.checks` array, docs/artifacts.md).
struct verification_record {
    uint32_t index = 0;          ///< output index
    uint64_t sat_conflicts = 0;  ///< conflicts spent on this solve alone
    bool warm_start = false;     ///< an earlier solve of this check ran
};

/// Whole-network CEC against a fixed golden reference.  The constructor
/// simulates the golden network on fixed random patterns and indexes its
/// signatures; every `check()` is self-contained: a fresh solver, the
/// golden encoding and its gate table, the candidate merged in bottom-up,
/// then one solve per output under assumptions.  The caller keeps
/// `golden` alive for the verifier's lifetime.
class incremental_cec {
public:
    explicit incremental_cec(const xag& golden);

    /// Verify `optimized` against the golden reference.  The conflict
    /// budget is a total across the sweep's solves and all per-output
    /// solves (0 = unbounded); `token` stops either.
    equivalence_report check(const xag& optimized,
                             uint64_t conflict_budget = 0,
                             const cancellation_token& token = {});

    /// Per-output solve records for every check() so far.
    const std::vector<verification_record>& records() const
    {
        return records_;
    }
    /// Always 0: no check reuses or rebuilds a solver.  Kept only for
    /// flowbench's `sat.verify_rebuilds` metric, which retires with it.
    uint64_t rebuilds() const { return 0; }
    /// Always 0 (see rebuilds()); flowbench's `sat.session_reuses`.
    uint64_t session_reuses() const { return 0; }

private:
    /// Golden node whose signature equals candidate signature `sig` up to
    /// complement (complemented to match), if there is one.
    std::optional<signal> golden_match(const uint64_t* sig) const;

    const xag* golden_;
    /// Random-simulation patterns: `sim_words` (equivalence.cpp) words per
    /// PI, PI-major.
    std::vector<uint64_t> patterns_;
    /// Golden signatures under `patterns_`: `sim_words` words per node.
    std::vector<uint64_t> golden_sigs_;
    /// Signature hash (complement-normalized) -> first golden node with it.
    std::unordered_map<uint64_t, uint32_t> sig_index_;
    std::vector<verification_record> records_;
};

} // namespace mcx::sat
