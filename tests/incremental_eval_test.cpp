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
#include "gen/des.h"
#include "gen/lightweight.h"
#include "io/bench.h"
#include "oracle_pass.h"
#include "xag/cleanup.h"
#include "xag/verify.h"

#include <gtest/gtest.h>

#include <array>
#include <functional>
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

struct optimized {
    std::string text;     ///< serialized network
    uint64_t replacements = 0;
    std::vector<uint64_t> evaluated; ///< nodes_evaluated per round, in order
};

/// Optimize through a flow — the production one, or the full-evaluate
/// oracle flow.
optimized optimize(xag net, uint32_t threads, bool incremental_eval,
                   flow_params params = {}, const char* spec = "mc")
{
    params.num_threads = threads;
    pass_context ctx{context_params(params)};
    const auto f =
        incremental_eval
            ? make_flow(spec, params)
            : test::make_oracle_flow(spec, params,
                                     test::oracle::full_evaluate);
    const auto result = run_flow(net, f, ctx);
    optimized out;
    for (const auto& p : result.passes)
        for (const auto& r : p.rounds) {
            out.replacements += r.replacements;
            out.evaluated.push_back(r.nodes_evaluated);
        }
    out.text = serialize(net);
    return out;
}

/// Incremental evaluation must be invisible: identical networks and
/// replacement counts vs. the full-evaluate oracle at 1/2/8 workers.
void expect_evaluate_invariant(const xag& source, const char* what,
                               flow_params params = {},
                               const char* spec = "mc")
{
    const auto golden = cleanup(source);
    const auto full1 = optimize(cleanup(source), 1, false, params, spec);
    for (const uint32_t threads : {1u, 2u, 8u}) {
        const auto inc =
            optimize(cleanup(source), threads, true, params, spec);
        EXPECT_EQ(inc.text, full1.text)
            << what << ": " << threads << " threads diverged";
        EXPECT_EQ(inc.replacements, full1.replacements)
            << what << ": " << threads << " threads";
    }

    // And the deterministic result is still the right function.
    std::istringstream is{full1.text};
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

TEST(evaluate_differential, cut_size4_engine)
{
    flow_params params;
    params.rewrite.cut_size = 4;
    expect_evaluate_invariant(gen_adder(12), "cut4-adder12", params);
}

TEST(evaluate_differential, iterated_flow_across_passes)
{
    flow_params params;
    params.iterate_until_convergence = true;
    expect_evaluate_invariant(gen_adder(12), "iterated-adder12", params,
                              "mc+xor");
}

TEST(evaluate_differential, des3_converging_round_rescores_cut_cones)
{
    // des3 as mcx runs it (generated, not cleaned): round 1 commits six
    // rewrites deep in the S-box logic, and the converging round 2
    // re-scores only the gates whose cut cones saw one of them.  Closing
    // the dirty set over the transitive fanout of every change instead
    // re-scored 3 656 of the 5 202 gates.
    const auto des3 = gen_des(3);
    const auto full = optimize(des3, 1, false);
    ASSERT_GE(full.evaluated.size(), 2u);
    for (const uint32_t threads : {1u, 2u, 8u}) {
        const auto inc = optimize(des3, threads, true);
        EXPECT_EQ(inc.text, full.text) << threads << " threads diverged";
        EXPECT_EQ(inc.replacements, full.replacements) << threads;
        ASSERT_EQ(inc.evaluated.size(), full.evaluated.size()) << threads;
        EXPECT_LE(inc.evaluated[1], 800u) << threads << " threads";
    }
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

/// Live gates a dirty set closed over transitive fanout would re-score:
/// seeds are every live journaled node with its current fanins and the
/// stored fanins of every journaled gate that died (a slight superset of
/// the maintainer's seeds), closed over fanout.  Cut-refreshed nodes lie
/// in the same closure.
uint64_t fanout_closure_size(const xag& net)
{
    std::vector<uint8_t> dirty(net.size(), 0);
    for (const auto id : net.changes().nodes) {
        if (!net.is_dead(id))
            dirty[id] = 1;
        if (net.is_gate(id)) {
            dirty[net.fanin0(id).node()] = 1;
            dirty[net.fanin1(id).node()] = 1;
        }
    }
    uint64_t marked = 0;
    for (const auto n : net.topological_order()) {
        if (!net.is_gate(n))
            continue;
        if (dirty[net.fanin0(n).node()] || dirty[net.fanin1(n).node()])
            dirty[n] = 1;
        marked += dirty[n];
    }
    return marked;
}

/// Surgery + one rewrite round, repeated, on the incremental engine and on
/// the full-evaluate oracle: identical networks and replacement counts
/// after every round, never more nodes evaluated than the oracle.
/// Returns the incremental engine's evaluated nodes and the journal's
/// fanout-closure size, summed over the rounds that ran incrementally.
std::pair<uint64_t, uint64_t> surgery_fuzz(
    uint64_t rng_seed, int trials, int rounds, uint32_t cut_size,
    const std::function<xag(int trial)>& make_network)
{
    std::mt19937_64 rng{rng_seed};
    uint64_t evaluated = 0, closure = 0;
    for (const uint32_t threads : {1u, 2u, 8u}) {
        for (int trial = 0; trial < trials; ++trial) {
            rewrite_params p;
            p.num_threads = threads;
            p.cut_size = cut_size;
            pass_context ctx_inc, ctx_full;
            auto net_inc = make_network(trial);
            auto net_full = net_inc;
            for (int round = 0; round < rounds; ++round) {
                const auto plan =
                    surgery_plan(rng, 1 + static_cast<int>(rng() % 5));
                apply_surgery(net_inc, plan);
                apply_surgery(net_full, plan);
                EXPECT_EQ(serialize(net_inc), serialize(net_full))
                    << "surgery diverged: threads " << threads << " trial "
                    << trial << " round " << round;
                const bool armed = net_inc.changes().armed;
                const auto marked = fanout_closure_size(net_inc);
                const auto si = mc_rewrite_round(net_inc, ctx_inc, p);
                test::defeat_reuse(ctx_full, test::oracle::full_evaluate);
                const auto sf = mc_rewrite_round(net_full, ctx_full, p);
                EXPECT_EQ(serialize(net_inc), serialize(net_full))
                    << "threads " << threads << " trial " << trial
                    << " round " << round;
                EXPECT_EQ(si.replacements, sf.replacements)
                    << "threads " << threads << " trial " << trial
                    << " round " << round;
                EXPECT_LE(si.nodes_evaluated, sf.nodes_evaluated)
                    << "threads " << threads << " trial " << trial
                    << " round " << round;
                if (armed && si.cut_stats.incremental) {
                    evaluated += si.nodes_evaluated;
                    closure += marked;
                }
                if (testing::Test::HasFailure())
                    return {evaluated, closure};
            }
        }
    }
    return {evaluated, closure};
}

TEST(evaluate_differential, randomized_surgery_fuzz)
{
    surgery_fuzz(2026, 4, 4, 6, [](int trial) {
        return random_network(5000 + trial, 6 + trial % 5, 90, 5);
    });
}

/// `chains` long AND/XOR chains, each gate joining its chain's previous
/// gate with a random earlier node, so the depth is about `length` and a
/// change low in the network has a long transitive fanout.
xag random_deep_network(uint64_t seed, int pis, int chains, int length)
{
    std::mt19937_64 rng{seed};
    xag net;
    std::vector<signal> pool;
    for (int i = 0; i < pis; ++i)
        pool.push_back(net.create_pi());
    std::vector<signal> heads(pool.begin(), pool.begin() + chains);
    for (int step = 0; step < length; ++step)
        for (auto& head : heads) {
            const auto a = head ^ ((rng() & 1) != 0);
            const auto b = pool[rng() % pool.size()] ^ ((rng() & 1) != 0);
            head = (rng() & 1) ? net.create_and(a, b) : net.create_xor(a, b);
            pool.push_back(head);
        }
    for (const auto head : heads)
        net.create_po(head);
    return net;
}

TEST(evaluate_differential, deep_chain_surgery_fuzz)
{
    // On 480-gate, ~120-deep chains the fanout closure of a change reaches
    // most of the network while its cut cones stay a few levels tall, so
    // most gates the closure would re-score keep their cached winners.
    // 5-input cuts: every class the rounds meet is served without exact
    // synthesis, so the fresh contexts stay cheap.
    const auto [evaluated, closure] =
        surgery_fuzz(2027, 3, 5, 5, [](int trial) {
            return random_deep_network(7000 + trial, 8, 4, 120);
        });
    EXPECT_GT(closure, 0u);
    EXPECT_LT(evaluated, closure);
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
