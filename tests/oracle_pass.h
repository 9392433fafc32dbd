// Test-side oracles for the incremental round engine.  The rewrite pass
// always maintains cut sets and evaluations incrementally across rounds; an
// oracle flow runs the same rounds but defeats that reuse before each one:
//
//   full_rebuild   cut_maintenance().invalidate() — every cut set is
//                  re-enumerated, and because the refresh is then not
//                  incremental, every gate is evaluated too;
//   full_evaluate  eval_cache().reset() — cut sets stay incremental, every
//                  gate is evaluated.
//
// Both must produce byte-identical networks to the incremental flow.
#pragma once

#include "core/flow.h"

#include <memory>
#include <string_view>

namespace mcx::test {

enum class oracle { full_rebuild, full_evaluate };

/// Make the next round on `ctx` run as the `o` oracle.
inline void defeat_reuse(pass_context& ctx, oracle o)
{
    if (o == oracle::full_rebuild)
        ctx.cut_maintenance().invalidate();
    else
        ctx.eval_cache().reset();
}

/// The mc rewrite pass, one round at a time, reuse defeated before every
/// round; same convergence rule as the production pass.
class oracle_rewrite_pass final : public pass {
public:
    oracle_rewrite_pass(const flow_params& params, oracle o)
        : params_{params}, oracle_{o}
    {
        params_.rewrite.num_threads = params.num_threads;
    }
    std::string_view name() const override { return "mc-rewrite"; }
    pass_stats run(xag& network, pass_context& ctx) const override
    {
        pass_stats ps;
        ps.pass_name = name();
        ps.before = stats_of(network);
        for (uint32_t i = 0; i < params_.max_rounds; ++i) {
            defeat_reuse(ctx, oracle_);
            const auto r = mc_rewrite_round(network, ctx, params_.rewrite);
            ps.rounds.push_back(r);
            if (r.status != outcome::ok) {
                ps.status = r.status;
                break;
            }
            if (r.ands_after >= r.ands_before) {
                ps.converged = true;
                break;
            }
        }
        ps.after = stats_of(network);
        ctx.history.push_back(ps);
        return ps;
    }

private:
    flow_params params_;
    oracle oracle_;
};

/// make_flow(spec, params) with every rewrite pass replaced by its oracle.
inline flow make_oracle_flow(std::string_view spec,
                             const flow_params& params, oracle o)
{
    auto f = make_flow(spec, params);
    for (auto& p : f.passes)
        if (p->name() == "mc-rewrite")
            p = std::make_shared<oracle_rewrite_pass>(params, o);
    return f;
}

} // namespace mcx::test
