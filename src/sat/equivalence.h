// Formal combinational equivalence checking via SAT miters.
//
// incremental_cec is the one whole-network prover: one persistent solver
// holds the golden network's CNF; each check() encodes the candidate as a
// retirable activation session and decides the outputs one by one under
// assumptions, so learnt clauses accumulate across outputs AND across
// checks.  A variable remapper rebuilds the solver when retired-session
// garbage dominates, migrating learnt clauses over golden variables.  The
// cold single-solve miter it is checked against lives with the tests
// (tests/oracle/check_equivalence.h).
#pragma once

#include "core/budget.h"
#include "sat/cnf.h"
#include "sat/solver.h"
#include "xag/xag.h"

#include <memory>
#include <optional>
#include <vector>

namespace mcx::sat {

enum class equivalence_result : uint8_t {
    equivalent,
    not_equivalent,
    undecided ///< conflict budget exhausted
};

struct equivalence_report {
    equivalence_result result = equivalence_result::undecided;
    /// PI assignment demonstrating a difference (when not equivalent).
    std::optional<std::vector<bool>> counterexample;
    solver_stats stats;
};

/// One solve in an incremental verification sequence (schema mirrored in
/// the mcx --report `verification.checks` array, docs/artifacts.md).
struct verification_record {
    uint32_t index = 0;          ///< output index
    uint64_t sat_conflicts = 0;  ///< conflicts spent on this solve alone
    bool warm_start = false;     ///< solver carried state from earlier solves
};

/// Warm whole-network CEC against a fixed golden reference.  The golden
/// network is encoded once; every `check()` call verifies one candidate
/// network output-by-output under assumptions on the same solver.  The
/// caller keeps `golden` alive for the verifier's lifetime.
class incremental_cec {
public:
    /// `rebuild_growth`: rebuild (GC) once the solver's variable count
    /// exceeds this multiple of the golden encoding.  Each retired check
    /// leaves roughly one candidate encoding of garbage behind, so the
    /// factor is the number of distinct candidates between golden
    /// re-encodes (measured best at the default on the adder64 iterated
    /// flow: lean watch lists beat fewer rebuilds).
    explicit incremental_cec(const xag& golden, uint32_t rebuild_growth = 4);

    /// Verify `optimized` against the golden reference.  The conflict
    /// budget is a total across all per-output solves (0 = unbounded).
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

    /// The most recent candidate's encoding stays live (not retired)
    /// so a structurally identical next candidate — every re-check in a
    /// converged iterated flow — re-runs its per-output solves on the
    /// same variables, where that session's learnt clauses still apply.
    struct live_session {
        bool valid = false;
        literal act{};
        std::vector<literal> outputs; ///< candidate PO literals
        std::vector<literal> diffs;   ///< per-output miter literals
        std::vector<uint64_t> shape;  ///< exact structural signature
    };

    const xag* golden_;
    uint32_t rebuild_growth_;
    std::unique_ptr<solver> solver_;
    std::vector<literal> pis_;
    cnf_encoding golden_enc_;
    uint32_t base_vars_ = 0; ///< variables belonging to the golden encoding
    bool warm_ = false;
    uint64_t rebuilds_ = 0;
    uint64_t session_reuses_ = 0;
    live_session session_;
    std::vector<verification_record> records_;
};

} // namespace mcx::sat
