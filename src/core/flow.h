// The flow engine: an ordered list of passes with a convergence policy,
// executed against one shared pass_context.
//
// A flow is built either programmatically (push passes) or from a spec
// string of '+'/',' separated pass names — the vocabulary behind the mcx
// CLI's `--flow mc`, `--flow mc+xor`, `--flow cleanup+mc`:
//
//   mc       the paper's AND-minimizing rewrite (to convergence)
//   xor      Paar resynthesis of the linear blocks
//   cleanup  compact + re-strash
//
// `iterate_until_convergence` repeats the whole pass list while the AND
// count keeps improving — the multi-pass schedules of related work (e.g.
// alternating rewrites with cleanup) become one-line specs.
#pragma once

#include "core/pass.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace mcx {

/// Per-pass knobs a flow spec can override (applied to the passes that
/// consume them; unrelated passes ignore them).
struct flow_params {
    rewrite_params rewrite;
    uint32_t max_rounds = 100; ///< per rewrite pass invocation
    /// Repeat the whole pass list until the AND count stops improving
    /// (bounded by max_flow_iterations).
    bool iterate_until_convergence = false;
    uint32_t max_flow_iterations = 10;
    /// Flow-level worker count (`mcx --threads`): every pass make_flow
    /// builds runs on this many workers.  The per-pass
    /// `rewrite.num_threads` is not read under a flow.  Results are
    /// bit-identical for any value — see docs/parallel.md.
    uint32_t num_threads = 1;
    /// Flow-level cooperative stop (`mcx --deadline`, SIGINT/SIGTERM).
    /// When it stops, the running pass finishes at its next commit
    /// boundary and the flow ends — no further passes run.
    cancellation_token token;
    /// Per-pass wall-clock budget in seconds (`mcx --pass-deadline`;
    /// 0 = none).  Each pass gets a fresh deadline nested inside `token`,
    /// so one slow pass degrades gracefully while the rest of the flow
    /// still runs.
    double pass_deadline_seconds = 0.0;
};

struct flow {
    std::string name;
    std::vector<std::shared_ptr<const pass>> passes;
    flow_params params;
};

struct flow_result {
    std::string flow_name;
    xag_stats before{};
    xag_stats after{};
    double seconds = 0.0;
    uint32_t iterations = 0; ///< pass-list repetitions executed
    std::vector<pass_stats> passes; ///< one record per executed pass
    /// Why the flow ended: ok, or the reason it stopped early (flow
    /// deadline, cancellation, fault).  A pass-local deadline alone does
    /// NOT stop the flow and leaves this ok — it only sets limit_hit.
    outcome status = outcome::ok;
    /// True when any pass was cut short by a limit or fault, including
    /// pass-local deadlines the flow recovered from.  The emitted network
    /// is then best-effort: consistent and function-equivalent, but not
    /// necessarily converged.
    bool limit_hit = false;
};

/// Execute `f` over `network` through `ctx` (whose caches/databases/arena
/// persist across passes and across run_flow calls).
flow_result run_flow(xag& network, const flow& f, pass_context& ctx);

/// Context parameters matching a flow's pass parameters (database knobs,
/// classification iteration limit) — use when building the pass_context a
/// flow will run through, so the context's lazily-built resources honor
/// the flow's configuration.
pass_context_params context_params(const flow_params& params);

/// Build a flow from a spec string (see file comment).  Throws
/// std::invalid_argument on an unknown pass name.
flow make_flow(std::string_view spec, const flow_params& params = {});

/// The pass names make_flow accepts, for --list-flows style help.
std::vector<std::string> flow_pass_names();

} // namespace mcx
