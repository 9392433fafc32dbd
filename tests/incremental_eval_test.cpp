// Incremental evaluation (src/core/pass.cpp round_env / evaluate_cache):
// re-running evaluate_node only for nodes whose cut or MFFC context
// changed must be an invisible optimization — flow outputs byte-identical
// to the full-evaluate oracle at every thread count, across
// generator families and randomized network surgery — and it must go
// fully quiescent (zero nodes evaluated) on the steady-state round after
// convergence.
#include "core/flow.h"
#include "gen/aes.h"
#include "gen/arithmetic.h"
#include "gen/control.h"
#include "gen/lightweight.h"
#include "io/bench.h"
#include "oracle_pass.h"
#include "xag/cleanup.h"
#include "xag/verify.h"

#include <gtest/gtest.h>

#include <array>
#include <random>
#include <sstream>
#include <vector>

namespace mcx {
namespace {

std::string serialize(const xag& n)
{
    std::ostringstream os;
    write_bench(cleanup(n), os);
    return os.str();
}

/// Optimize through a flow — the production one, or the full-evaluate
/// oracle flow — and return (serialized network, replacements).
std::pair<std::string, uint64_t> optimize(xag net, uint32_t threads,
                                          bool incremental_eval,
                                          flow_params params = {},
                                          const char* spec = "mc")
{
    params.num_threads = threads;
    pass_context ctx{context_params(params)};
    const auto f =
        incremental_eval
            ? make_flow(spec, params)
            : test::make_oracle_flow(spec, params,
                                     test::oracle::full_evaluate);
    const auto result = run_flow(net, f, ctx);
    uint64_t replacements = 0;
    for (const auto& p : result.passes)
        for (const auto& r : p.rounds)
            replacements += r.replacements;
    return {serialize(net), replacements};
}

/// Incremental evaluation must be invisible: identical networks and
/// replacement counts vs. the full-evaluate oracle at 1/2/8 workers.
void expect_evaluate_invariant(const xag& source, const char* what,
                               flow_params params = {},
                               const char* spec = "mc")
{
    const auto golden = cleanup(source);
    const auto [full1, repl_full1] =
        optimize(cleanup(source), 1, false, params, spec);
    for (const uint32_t threads : {1u, 2u, 8u}) {
        const auto [inc, repl] =
            optimize(cleanup(source), threads, true, params, spec);
        EXPECT_EQ(inc, full1)
            << what << ": " << threads << " threads diverged";
        EXPECT_EQ(repl, repl_full1) << what << ": " << threads << " threads";
    }

    // And the deterministic result is still the right function.
    std::istringstream is{full1};
    const auto reparsed = read_bench(is);
    if (golden.num_pis() <= 16)
        EXPECT_TRUE(exhaustive_equal(reparsed, golden)) << what;
    else
        EXPECT_TRUE(random_simulation_equal(reparsed, golden, 16)) << what;
}

// ----------------------------------- flow-level differential (families)

TEST(evaluate_differential, arithmetic_family)
{
    expect_evaluate_invariant(gen_adder(16), "adder16");
    expect_evaluate_invariant(gen_multiplier(4), "multiplier4");
}

TEST(evaluate_differential, control_family)
{
    expect_evaluate_invariant(gen_decoder(4), "decoder4");
    expect_evaluate_invariant(gen_voter(7), "voter7");
}

TEST(evaluate_differential, aes_family)
{
    xag net;
    std::array<signal, 8> in;
    for (auto& s : in)
        s = net.create_pi();
    for (const auto s : aes_sbox_circuit(net, in))
        net.create_po(s);
    expect_evaluate_invariant(net, "aes-sbox");
}

TEST(evaluate_differential, lightweight_family)
{
    expect_evaluate_invariant(gen_simon(16, 4), "simon16x4");
    expect_evaluate_invariant(gen_keccak_f(8), "keccak8");
}

TEST(evaluate_differential, size_baseline_engine)
{
    expect_evaluate_invariant(gen_adder(12), "size-adder12", {},
                              "size-baseline");
}

TEST(evaluate_differential, iterated_flow_across_passes)
{
    flow_params params;
    params.iterate_until_convergence = true;
    expect_evaluate_invariant(gen_adder(12), "iterated-adder12", params,
                              "mc+xor");
}

// --------------------------------------------- randomized surgery fuzz

xag random_network(uint64_t seed, int pis = 8, int gates = 120, int pos = 4)
{
    std::mt19937_64 rng{seed};
    xag net;
    std::vector<signal> pool;
    for (int i = 0; i < pis; ++i)
        pool.push_back(net.create_pi());
    for (int i = 0; i < gates; ++i) {
        const auto a = pool[rng() % pool.size()] ^ ((rng() & 1) != 0);
        const auto b = pool[rng() % pool.size()] ^ ((rng() & 1) != 0);
        pool.push_back((rng() & 1) ? net.create_and(a, b)
                                   : net.create_xor(a, b));
    }
    for (int i = 0; i < pos && i < static_cast<int>(pool.size()); ++i)
        net.create_po(pool[pool.size() - 1 - i]);
    return net;
}

/// One structural surgery op addressed by *topological position*, not
/// node id.  The incremental and oracle runs consume node ids at
/// different rates (skipped evaluations build no transient candidates),
/// so ids diverge while the serialized structures stay identical;
/// positions in topological order are the id-independent coordinate
/// system the BENCH writer itself uses for naming.
struct surgery_op {
    uint32_t gate_pick;
    uint32_t a_pick, b_pick;
    bool a_compl, b_compl, is_and;
};

std::vector<surgery_op> surgery_plan(std::mt19937_64& rng, int operations)
{
    std::vector<surgery_op> plan;
    plan.reserve(operations);
    for (int i = 0; i < operations; ++i)
        plan.push_back({static_cast<uint32_t>(rng()),
                        static_cast<uint32_t>(rng()),
                        static_cast<uint32_t>(rng()), (rng() & 1) != 0,
                        (rng() & 1) != 0, (rng() & 1) != 0});
    return plan;
}

/// Substitute a positionally-chosen gate with a fresh gate over nodes
/// strictly below it (keeps the DAG acyclic; semantics-agnostic — the
/// evaluate cache tracks structure, and rewriting the mutated network is
/// function-preserving whatever that function now is).
void apply_surgery(xag& net, const std::vector<surgery_op>& plan)
{
    for (const auto& op : plan) {
        const auto order = net.topological_order();
        std::vector<uint32_t> gates;
        for (const auto n : order)
            if (net.is_gate(n))
                gates.push_back(n);
        if (gates.empty())
            return;
        const auto g = gates[op.gate_pick % gates.size()];
        std::vector<uint32_t> below;
        for (const auto n : order) {
            if (n == g)
                break;
            below.push_back(n);
        }
        if (below.size() < 2)
            continue;
        const auto a = signal{below[op.a_pick % below.size()], op.a_compl};
        const auto b = signal{below[op.b_pick % below.size()], op.b_compl};
        const auto r = op.is_and ? net.create_and(a, b) : net.create_xor(a, b);
        if (r.node() == g || net.is_dead(g))
            continue;
        net.substitute(g, r);
    }
}

TEST(evaluate_differential, randomized_surgery_fuzz)
{
    std::mt19937_64 rng{2026};
    for (const uint32_t threads : {1u, 2u, 8u}) {
        for (int trial = 0; trial < 4; ++trial) {
            rewrite_params p;
            p.num_threads = threads;
            pass_context ctx_inc, ctx_full;
            auto net_inc =
                random_network(5000 + trial, 6 + trial % 5, 90, 5);
            auto net_full = net_inc;
            for (int round = 0; round < 4; ++round) {
                const auto plan =
                    surgery_plan(rng, 1 + static_cast<int>(rng() % 5));
                apply_surgery(net_inc, plan);
                apply_surgery(net_full, plan);
                ASSERT_EQ(serialize(net_inc), serialize(net_full))
                    << "surgery diverged: threads " << threads << " trial "
                    << trial << " round " << round;
                const auto si = mc_rewrite_round(net_inc, ctx_inc, p);
                test::defeat_reuse(ctx_full, test::oracle::full_evaluate);
                const auto sf = mc_rewrite_round(net_full, ctx_full, p);
                ASSERT_EQ(serialize(net_inc), serialize(net_full))
                    << "threads " << threads << " trial " << trial
                    << " round " << round;
                EXPECT_EQ(si.replacements, sf.replacements)
                    << "threads " << threads << " trial " << trial
                    << " round " << round;
                EXPECT_LE(si.nodes_evaluated, sf.nodes_evaluated)
                    << "threads " << threads << " trial " << trial
                    << " round " << round;
            }
        }
    }
}

// ------------------------------------------------ steady-state quiescence

TEST(evaluate_cache, steady_state_evaluates_nothing)
{
    for (const uint32_t threads : {1u, 2u}) {
        rewrite_params p;
        p.num_threads = threads;
        pass_context ctx;
        auto net = gen_adder(64);
        bool converged = false;
        bool measured = false;
        for (int r = 0; r < 8; ++r) {
            const auto stats = mc_rewrite_round(net, ctx, p);
            if (converged) {
                EXPECT_EQ(stats.nodes_evaluated, 0u)
                    << threads << " threads";
                EXPECT_GT(stats.nodes_clean, 0u) << threads << " threads";
                measured = true;
                break;
            }
            if (stats.replacements == 0)
                converged = true;
        }
        EXPECT_TRUE(measured)
            << threads << " threads: adder64 did not converge in 8 rounds";
    }
}

TEST(evaluate_cache, full_mode_reports_no_clean_nodes)
{
    pass_context ctx;
    auto net = gen_adder(32);
    for (int r = 0; r < 3; ++r) {
        test::defeat_reuse(ctx, test::oracle::full_evaluate);
        const auto stats = mc_rewrite_round(net, ctx, {});
        EXPECT_EQ(stats.nodes_clean, 0u) << "round " << r;
        EXPECT_GT(stats.nodes_evaluated, 0u) << "round " << r;
    }
}

} // namespace
} // namespace mcx
