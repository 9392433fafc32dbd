// Formal combinational equivalence checking via SAT miters.
//
// incremental_cec is the one whole-network prover: one persistent solver
// holds the golden network's CNF; each check() merges the candidate into
// it as a retirable activation session — structural hashing onto golden
// gates, then SAT sweeping of simulation-matched pairs — and decides the
// outputs one by one under assumptions, so learnt clauses accumulate
// across outputs AND across checks.  A variable remapper rebuilds the
// solver when retired-session garbage dominates, migrating learnt clauses
// over golden variables.  The cold single-solve miter it is checked
// against lives with the tests (tests/oracle/check_equivalence.h).
#pragma once

#include "core/budget.h"
#include "sat/cnf.h"
#include "sat/solver.h"
#include "xag/xag.h"

#include <memory>
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
/// encoding (all zero when it re-solved a live session).  Mirrored in the
/// mcx --report `verification.sweep` object (docs/artifacts.md).
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
    /// Cumulative stats of the verifier's solver (since its last rebuild).
    solver_stats stats;
    sweep_stats sweep;
};

/// One solve in an incremental verification sequence (schema mirrored in
/// the mcx --report `verification.checks` array, docs/artifacts.md).
struct verification_record {
    uint32_t index = 0;          ///< output index
    uint64_t sat_conflicts = 0;  ///< conflicts spent on this solve alone
    bool warm_start = false;     ///< solver carried state from earlier solves
};

/// Warm whole-network CEC against a fixed golden reference.  The golden
/// network is encoded once, with its gate table and random-simulation
/// signatures; every `check()` call merges one candidate network into that
/// encoding bottom-up and then verifies it output-by-output under
/// assumptions on the same solver.  The caller keeps `golden` alive for
/// the verifier's lifetime.
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
    uint64_t rebuilds() const { return rebuilds_; }
    /// Checks that re-solved on a live session instead of re-encoding
    /// (candidate structurally identical to the previous one — the
    /// steady state of an iterated flow).
    uint64_t session_reuses() const { return session_reuses_; }
    uint32_t num_vars() const { return solver_->num_vars(); }

private:
    void rebuild();
    void retire(literal activation);
    /// Golden literal whose signature equals candidate signature `sig` up
    /// to complement (complemented to match), if there is one.
    std::optional<literal> golden_match(const uint64_t* sig) const;

    /// The most recent candidate's encoding stays live (not retired)
    /// so a structurally identical next candidate — every re-check in a
    /// converged iterated flow — re-runs its per-output solves on the
    /// same variables, where that session's learnt clauses still apply.
    struct live_session {
        bool valid = false;
        literal act{};
        std::vector<literal> outputs; ///< candidate PO literals
        /// Per-output miter literals, made on first use (an output whose
        /// candidate literal is the golden one needs none).
        std::vector<std::optional<literal>> diffs;
        std::vector<uint64_t> shape;  ///< exact structural signature
    };

    const xag* golden_;
    std::unique_ptr<solver> solver_;
    std::vector<literal> pis_;
    cnf_encoding golden_enc_;
    gate_table golden_gates_;
    /// Random-simulation patterns: `sim_words` (equivalence.cpp) words per
    /// PI, PI-major.
    std::vector<uint64_t> patterns_;
    /// Golden signatures under `patterns_`: `sim_words` words per node.
    std::vector<uint64_t> golden_sigs_;
    /// Signature hash (complement-normalized) -> first golden node with it.
    std::unordered_map<uint64_t, uint32_t> sig_index_;
    uint32_t base_vars_ = 0; ///< variables belonging to the golden encoding
    bool warm_ = false;
    uint64_t rebuilds_ = 0;
    uint64_t session_reuses_ = 0;
    live_session session_;
    std::vector<verification_record> records_;
};

} // namespace mcx::sat
