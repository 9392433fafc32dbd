// The pass framework: every optimization step (AND-minimizing rewrite, XOR
// resynthesis, cleanup) is a `pass` executed against a shared
// `pass_context`.
//
// The context owns everything the hot loop reuses across rounds and across
// passes — the arena-backed cut storage (src/cut/cut_arena.h), the batched
// cone simulator (src/xag/cone_batch.h), the classification memo, and the
// lazily constructed database — so each resource is allocated once per
// flow instead of once per round.  `pass_stats` is the unified sink:
// one record per executed pass, with per-round breakdowns for the rewrite
// pass.
//
// The rewrite pass runs ONE round implementation (pass.cpp): an
// incremental cut refresh into the arena, batched evaluation of all of a
// node's cut functions in one live-lane traversal, affine classification
// through the context's shared memo, MC database splice, MFFC-gated commit
// scored by AND count.  No parameter selects a reference path: a test
// reaches the full-rebuild oracle with cut_maintenance().invalidate() and
// the full-evaluate oracle with eval_cache().reset() before a round.
//
// Every round runs on the parallel subsystem (src/par/): a work-stealing
// evaluate phase scores the best candidate per node against the frozen
// network (per-worker scratch, thread-safe memos and databases), then a
// sequential commit phase applies non-conflicting winners in node order —
// bit-identical results for any thread count (docs/parallel.md).  One
// worker, the default, is the reference run.
#pragma once

#include "core/budget.h"
#include "cut/cut_enumeration.h"
#include "cut/cut_incremental.h"
#include "db/mc_database.h"
#include "par/scratch.h"
#include "par/thread_pool.h"
#include "spectral/classification.h"
#include "xag/cone_batch.h"
#include "xag/xag.h"

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace mcx {

// ------------------------------------------------------------- parameters

struct rewrite_params {
    uint32_t cut_size = 6;   ///< paper: 6-cuts (64-bit truth tables)
    uint32_t cut_limit = 12; ///< paper: 12 cuts per node
    /// Classification search budget (paper §5) of a flow's context: read
    /// only by context_params(flow_params).  A pass classifies through its
    /// pass_context, whose pass_context_params carry the budget.
    uint64_t classification_iteration_limit = 100'000;
    bool allow_zero_gain = false;
    /// Workers of the two-phase round engine; results are bit-identical
    /// for every value (docs/parallel.md), and the default 1 is the
    /// reference run.
    uint32_t num_threads = 1;
    mc_database_params db;
};

// ------------------------------------------------------------------ stats

struct round_stats {
    uint32_t ands_before = 0;
    uint32_t ands_after = 0;
    uint32_t xors_before = 0;
    uint32_t xors_after = 0;
    uint64_t cuts_evaluated = 0;
    uint64_t classify_failures = 0;
    uint64_t candidates_built = 0;
    uint64_t replacements = 0;
    double seconds = 0.0;

    // --- per-stage breakdown of the hot loop (filled by every round) ------
    double cut_seconds = 0.0;     ///< time inside enumerate_cuts
    double rewrite_seconds = 0.0; ///< time in the classify/splice pass
    cut_enumeration_stats cut_stats; ///< merge/dedup/domination counters
    /// Classification-memo traffic this round (the context's
    /// classification_cache).  Like the database traffic, a function of
    /// the workload alone (each function is classified once at any thread
    /// count).
    uint64_t canon_cache_hits = 0;
    uint64_t canon_cache_misses = 0;
    /// Database traffic this round (lookup served vs. circuit synthesized).
    uint64_t db_hits = 0;
    uint64_t db_misses = 0;
    /// Incremental-evaluate traffic: nodes re-scored this round vs. nodes
    /// served from the persistent evaluation cache.  A round after a full
    /// cut rebuild or an evaluate-cache reset evaluates every gate; a
    /// quiescent round reports nodes_evaluated == 0.
    uint64_t nodes_evaluated = 0;
    uint64_t nodes_clean = 0;
    /// Why the round ended: ok, or the limit/fault that stopped it early.
    /// Non-ok rounds leave the network consistent and function-equivalent —
    /// only the not-yet-visited nodes keep their old structure.
    outcome status = outcome::ok;

    double canon_cache_hit_rate() const
    {
        const auto total = canon_cache_hits + canon_cache_misses;
        return total == 0 ? 0.0
                          : static_cast<double>(canon_cache_hits) /
                                static_cast<double>(total);
    }
};

/// Outcome of one executed pass — the unified stats sink.  The rewrite pass
/// fills `rounds`; xor_resynthesis fills the xor counters; every pass fills
/// the network before/after shape and its wall time.
struct pass_stats {
    std::string pass_name;
    xag_stats before{};
    xag_stats after{};
    double seconds = 0.0;
    bool converged = false;
    /// Workers the pass ran on: the rewrite and XOR passes' team size, 1
    /// for cleanup.
    uint32_t num_threads = 1;
    std::vector<round_stats> rounds; ///< rewrite pass only
    uint32_t xor_blocks = 0;         ///< xor_resynthesis only
    uint32_t xor_pairs_extracted = 0; ///< xor_resynthesis only
    /// Database traffic over this pass (rewrite pass only): sharded_store
    /// hits/misses delta, entry count after the pass, and how many of the
    /// entries ever built were certified optimal vs heuristic fallbacks.
    uint64_t db_hits = 0;
    uint64_t db_misses = 0;
    uint64_t db_entries = 0;
    uint64_t db_exact = 0;
    uint64_t db_heuristic = 0;
    /// Why the pass ended.  Non-ok means the pass stopped cooperatively at
    /// a commit boundary: the network is consistent, function-equivalent,
    /// and carries whatever gains were committed before the stop.
    outcome status = outcome::ok;
};

// ---------------------------------------------------------------- context

/// Best replacement found for one node by the evaluate phase.
/// Engine-internal except for its role as the evaluate cache's payload: a
/// pure function of (network, cut sets, node), which is what makes caching
/// it across rounds sound (docs/hot-path.md).
struct eval_winner {
    uint32_t node = 0;
    truth_table function;                 ///< support-shrunk cut function
    std::array<uint32_t, 6> cut_leaves{}; ///< resolved full leaf set
    std::array<uint8_t, 6> support{};     ///< indices into cut_leaves
    uint8_t num_cut_leaves = 0;
    uint8_t num_support = 0;
    bool valid = false;
    /// Existing gates outside the node's cone that scoring built on
    /// (splice_probe in pass.cpp).  Their fanouts shape the score but lie
    /// outside what the evaluate dirty set covers, so a cached winner is
    /// reused only while these gates are clean too.
    std::array<uint32_t, 4> outside{};
    uint8_t num_outside = 0;
    /// False when scoring built on more outside gates than `outside`
    /// holds: the node is then re-scored every round.
    bool cacheable = true;
};

/// Persistent per-node evaluation results, reused across rounds for nodes
/// the cut_maintainer's dirty set clears.  Coherence handshake: the cache
/// is only consulted when it was populated at the maintainer's previous
/// refresh serial, that refresh chain is unbroken (last refresh
/// incremental), and every parameter that shapes an evaluation matches.
/// Any mismatch resets the cache — correctness never depends on it.
struct evaluate_cache {
    const xag* net = nullptr;
    uint64_t serial = 0; ///< cut_maintainer::refresh_serial() at population
    uint32_t cut_size = 0;
    uint32_t cut_limit = 0;
    bool allow_zero_gain = false;
    std::vector<eval_winner> winners; ///< cached winner per node id
    std::vector<uint8_t> has_entry;

    void reset()
    {
        net = nullptr;
        winners.clear();
        has_entry.clear();
    }
};

struct pass_context_params {
    mc_database_params mc_db;
    uint64_t classification_iteration_limit = 100'000; ///< paper §5
};

/// Shared execution state for a sequence of passes.  The database is
/// constructed lazily on first use; an external instance (e.g. a database
/// loaded from disk) can be adopted instead.  All members persist across
/// rounds, passes, and flows, which is what makes the caches effective and
/// the arena/simulator allocation-free after warm-up.
class pass_context {
public:
    explicit pass_context(const pass_context_params& params = {})
        : params_{params},
          classification_{{.iteration_limit =
                                params.classification_iteration_limit}}
    {
    }

    mc_database& mc_db();
    /// The classification memo: one per context, shared by every worker
    /// like the database, so no cut function is classified twice at any
    /// thread count.  Thread-safe.
    classification_cache& classification() { return classification_; }
    cut_sets& cuts() { return cuts_; }
    /// Incremental maintenance of cuts() across rounds — tracks one
    /// network at a time and falls back to a full rebuild whenever its
    /// change journal cannot vouch for the arena (different network, pass
    /// ran untracked, params changed).  invalidate() before a round makes
    /// that round rebuild every cut set and evaluate every gate: the
    /// full-rebuild oracle.
    cut_maintainer& cut_maintenance() { return cut_maint_; }
    cone_simulator& simulator() { return simulator_; }

    /// Persistent evaluation cache of the round engine, which owns its
    /// coherence protocol (see evaluate_cache).  reset() before a round
    /// makes that round evaluate every gate: the full-evaluate oracle.
    evaluate_cache& eval_cache() { return eval_cache_; }

    /// Worker team of the round engine and the XOR pass: exactly
    /// `num_threads` workers (0 counts as 1), rebuilt only when the
    /// requested count changes.
    thread_pool& pool(uint32_t num_threads);

    /// Per-worker scratch (src/par/scratch.h), created on first request
    /// and persistent across rounds/passes/flows like every other context
    /// resource.  Not thread-safe to *create* — the engine touches every
    /// worker's scratch once before entering the parallel phase.
    pass_scratch& scratch(uint32_t worker);

    /// Adopt an external database (nullptr restores the owned instance).
    /// The pointee must outlive the context's use.
    void adopt(mc_database* db) { external_mc_db_ = db; }

    const pass_context_params& params() const { return params_; }

    /// Every pass executed against this context appends its record here.
    std::vector<pass_stats> history;

    /// Cooperative stop signal for every pass run against this context.
    /// Checked at commit boundaries (per node visit, per sweep level, per
    /// SAT conflict inside database miss synthesis); a stopped token makes
    /// the running pass finish early with a non-ok pass_stats::status and
    /// the network consistent.  Default: inert (never stops anything).
    cancellation_token token;

private:
    pass_context_params params_;
    std::unique_ptr<mc_database> mc_db_;
    mc_database* external_mc_db_ = nullptr;
    classification_cache classification_;
    cut_sets cuts_;
    cut_maintainer cut_maint_;
    cone_simulator simulator_;
    evaluate_cache eval_cache_;
    std::unique_ptr<thread_pool> pool_;
    std::vector<std::unique_ptr<pass_scratch>> scratch_;
};

// ------------------------------------------------------------------ passes

/// One optimization step over a network.  run() appends its pass_stats to
/// ctx.history and also returns it.
class pass {
public:
    virtual ~pass() = default;
    virtual std::string_view name() const = 0;
    virtual pass_stats run(xag& network, pass_context& ctx) const = 0;
};

/// The paper's AND-minimizing rewrite (affine classification + MC
/// database), repeated until the AND count stops improving.
class mc_rewrite_pass final : public pass {
public:
    explicit mc_rewrite_pass(rewrite_params params = {},
                             uint32_t max_rounds = 100)
        : params_{params}, max_rounds_{max_rounds}
    {
    }
    std::string_view name() const override { return "mc-rewrite"; }
    pass_stats run(xag& network, pass_context& ctx) const override;

private:
    rewrite_params params_;
    uint32_t max_rounds_;
};

/// Paar-style resynthesis of maximal linear (XOR-only) blocks.  The
/// quadratic pair-count seeding runs on the context's worker pool; the
/// output is the same for every worker count.
class xor_resynthesis_pass final : public pass {
public:
    explicit xor_resynthesis_pass(uint32_t num_threads = 1)
        : num_threads_{num_threads}
    {
    }
    std::string_view name() const override { return "xor-resynthesis"; }
    pass_stats run(xag& network, pass_context& ctx) const override;

private:
    uint32_t num_threads_;
};

/// Rebuild a compacted, freshly strashed copy of the network.
class cleanup_pass final : public pass {
public:
    std::string_view name() const override { return "cleanup"; }
    pass_stats run(xag& network, pass_context& ctx) const override;
};

// ---------------------------------------------------- round-level engine

/// One round of the proposed method through a context (the round loop of
/// mc_rewrite_pass).
round_stats mc_rewrite_round(xag& network, pass_context& ctx,
                             const rewrite_params& params = {});

} // namespace mcx
