#include "core/flow.h"

#include "obs/metrics.h"
#include "obs/trace.h"

#include <chrono>
#include <stdexcept>

namespace mcx {

namespace {

std::shared_ptr<const pass> make_pass(std::string_view token,
                                      const flow_params& params)
{
    if (token == "mc") {
        auto rewrite = params.rewrite;
        rewrite.num_threads = params.num_threads;
        return std::make_shared<mc_rewrite_pass>(rewrite, params.max_rounds);
    }
    if (token == "xor")
        return std::make_shared<xor_resynthesis_pass>(params.num_threads);
    if (token == "cleanup")
        return std::make_shared<cleanup_pass>();
    throw std::invalid_argument{"make_flow: unknown pass '" +
                                std::string{token} + "'"};
}

} // namespace

flow_result run_flow(xag& network, const flow& f, pass_context& ctx)
{
    const auto start = std::chrono::steady_clock::now();
    const obs::trace::trace_span flow_span{"flow"};
    flow_result result;
    result.flow_name = f.name;
    result.before = stats_of(network);

    // Each pass runs under the flow token plus a fresh per-pass deadline.
    // The context token is restored afterwards so a caller-owned context
    // is not left governed by this flow's limits.
    const auto saved_token = ctx.token;
    const auto& flow_token = f.params.token;
    bool stop_flow = false;

    const uint32_t max_iters =
        f.params.iterate_until_convergence ? f.params.max_flow_iterations : 1;
    uint32_t ands = network.num_ands();
    for (uint32_t iter = 0; iter < max_iters && !stop_flow; ++iter) {
        ++result.iterations;
        for (const auto& p : f.passes) {
            if (flow_token.stop_requested()) {
                result.status = flow_token.stop_reason();
                result.limit_hit = true;
                stop_flow = true;
                break;
            }
            ctx.token =
                flow_token.with_timeout(f.params.pass_deadline_seconds);
            // name() returns a view over a literal, so the pointer has the
            // static lifetime the span record and progress state need.
            obs::set_progress_pass(p->name().data());
            obs::set_progress_round(0);
            static const auto passes_metric =
                obs::register_metric("flow.passes");
            passes_metric.add();
            pass_stats ps;
            {
                const obs::trace::trace_span pass_span{p->name().data()};
                ps = p->run(network, ctx);
            }
            result.passes.push_back(ps);
            if (ps.status == outcome::ok)
                continue;
            result.limit_hit = true;
            obs::trace::instant(to_string(ps.status));
            if (ps.status == outcome::deadline_exceeded &&
                !flow_token.stop_requested()) {
                // Only the pass-local deadline fired: that pass degraded
                // to best-effort, the rest of the flow still runs (each
                // with its own fresh budget).
                continue;
            }
            // Flow-level stop (deadline/cancel) or a fault: end the flow
            // at this pass boundary.  The network carries every commit
            // the finished and partial passes made — all of them
            // function-preserving.
            result.status = ps.status;
            stop_flow = true;
            break;
        }
        if (stop_flow)
            break;
        const auto ands_now = network.num_ands();
        if (ands_now >= ands)
            break;
        ands = ands_now;
    }
    ctx.token = saved_token;

    result.after = stats_of(network);
    result.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    return result;
}

pass_context_params context_params(const flow_params& params)
{
    return {.mc_db = params.rewrite.db,
            .classification_iteration_limit =
                params.rewrite.classification_iteration_limit};
}

flow make_flow(std::string_view spec, const flow_params& params)
{
    flow f;
    f.name = std::string{spec};
    f.params = params;
    size_t begin = 0;
    while (begin <= spec.size()) {
        size_t end = begin;
        while (end < spec.size() && spec[end] != '+' && spec[end] != ',')
            ++end;
        const auto token = spec.substr(begin, end - begin);
        if (!token.empty())
            f.passes.push_back(make_pass(token, f.params));
        if (end == spec.size())
            break;
        begin = end + 1;
    }
    if (f.passes.empty())
        throw std::invalid_argument{"make_flow: empty flow spec"};
    return f;
}

std::vector<std::string> flow_pass_names()
{
    return {"mc", "xor", "cleanup"};
}

} // namespace mcx
