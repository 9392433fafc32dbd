// Incremental cut maintenance (src/cut/cut_incremental.h): the maintainer
// must be an invisible optimization — byte-identical cut sets to a full
// re-enumeration after arbitrary network surgery, clean nodes provably
// untouched (arena generation tags), and flow outputs byte-identical to
// the full-rebuild oracle flow (tests/oracle_pass.h) at every thread
// count.  The scalar reference enumerator (tests/oracle/) rides along as a
// second oracle: its cut sets AND its stat counters must match the
// word-parallel kernel 1:1.
#include "core/fault_inject.h"
#include "core/flow.h"
#include "cut/cut_incremental.h"
#include "gen/aes.h"
#include "gen/arithmetic.h"
#include "gen/control.h"
#include "gen/des.h"
#include "gen/lightweight.h"
#include "io/bench.h"
#include "oracle/cut_enumeration_scalar.h"
#include "oracle_pass.h"
#include "xag/cleanup.h"
#include "xag/verify.h"

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <vector>

namespace mcx {
namespace {

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

void expect_identical_cut_sets(const cut_sets& got, const cut_sets& want,
                               const char* what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (uint32_t n = 0; n < want.size(); ++n) {
        const auto g = got[n];
        const auto w = want[n];
        ASSERT_EQ(g.size(), w.size()) << what << ": node " << n;
        for (size_t c = 0; c < w.size(); ++c) {
            ASSERT_EQ(g[c].num_leaves, w[c].num_leaves)
                << what << ": node " << n << " cut " << c;
            ASSERT_TRUE(std::equal(g[c].leaves.begin(),
                                   g[c].leaves.begin() + g[c].num_leaves,
                                   w[c].leaves.begin()))
                << what << ": node " << n << " cut " << c;
            ASSERT_EQ(g[c].function, w[c].function)
                << what << ": node " << n << " cut " << c;
            ASSERT_EQ(g[c].signature, w[c].signature)
                << what << ": node " << n << " cut " << c;
        }
    }
}

/// Random semantics-agnostic surgery: substitute a random gate with a
/// fresh gate built over nodes strictly below it (cut maintenance cares
/// about structure, not functions — and "below" keeps the DAG acyclic).
void random_surgery(xag& net, std::mt19937_64& rng, int operations)
{
    for (int op = 0; op < operations; ++op) {
        const auto order = net.topological_order();
        std::vector<uint32_t> gates;
        std::vector<uint32_t> below;
        for (const auto n : order) {
            if (net.is_gate(n))
                gates.push_back(n);
        }
        if (gates.empty())
            return;
        const auto g = gates[rng() % gates.size()];
        for (const auto n : order) {
            if (n == g)
                break;
            below.push_back(n);
        }
        if (below.size() < 2)
            continue;
        const auto a =
            signal{below[rng() % below.size()], (rng() & 1) != 0};
        const auto b =
            signal{below[rng() % below.size()], (rng() & 1) != 0};
        const auto r =
            (rng() & 1) ? net.create_and(a, b) : net.create_xor(a, b);
        if (r.node() == g || net.is_dead(g))
            continue;
        net.substitute(g, r);
    }
}

// ------------------------------------------------- arena generation tags

TEST(cut_arena_incremental, update_and_generation_tags)
{
    cut_sets sets;
    sets.reset(3);
    const auto gen0 = sets.generation();
    const auto c1 = trivial_cut(1);
    const auto c2 = trivial_cut(2);
    sets.assign(1, {&c1, 1});
    sets.assign(2, {&c2, 1});
    EXPECT_EQ(sets.total_cuts(), 2u);
    EXPECT_EQ(sets.node_generation(1), gen0);

    sets.begin_update(4);
    EXPECT_GT(sets.generation(), gen0);
    const cut cs[2] = {trivial_cut(1), trivial_cut(3)};
    sets.update(3, {cs, 2});
    EXPECT_EQ(sets.total_cuts(), 4u);
    EXPECT_EQ(sets.node_generation(1), gen0) << "untouched span re-stamped";
    EXPECT_EQ(sets.node_generation(3), sets.generation());

    // Replacing a span strands its old cuts as pool garbage…
    sets.update(2, {cs, 2});
    EXPECT_EQ(sets.total_cuts(), 5u);
    EXPECT_GT(sets.pool_size(), sets.total_cuts());
    // …and compaction reclaims it without touching contents or tags.
    sets.clear_node(3);
    while (!sets.should_compact())
        sets.update(2, {cs, 2});
    const auto gen1 = sets.node_generation(1);
    sets.compact();
    EXPECT_EQ(sets.pool_size(), sets.total_cuts());
    EXPECT_EQ(sets.node_generation(1), gen1);
    ASSERT_EQ(sets[2].size(), 2u);
    EXPECT_EQ(sets[2][1].leaves[0], 3u);
    EXPECT_EQ(sets[3].size(), 0u);
}

// ------------------------------------------------ maintainer unit behavior

TEST(cut_maintainer, quiescent_refresh_reenumerates_nothing)
{
    auto net = random_network(17);
    cut_maintainer maint;
    cut_sets sets;
    cut_enumeration_stats stats;
    EXPECT_FALSE(maint.refresh(net, sets, {}, &stats)); // first: full
    EXPECT_GT(stats.reenumerated_nodes, 0u);
    EXPECT_EQ(stats.clean_nodes, 0u);
    const auto total = stats.total_cuts;

    // Nothing changed: the second refresh is incremental and touches no
    // gate at all.
    EXPECT_TRUE(maint.refresh(net, sets, {}, &stats));
    EXPECT_EQ(stats.reenumerated_nodes, 0u);
    EXPECT_GT(stats.clean_nodes, 0u);
    EXPECT_EQ(stats.merged_pairs, 0u);
    EXPECT_EQ(stats.total_cuts, total);
    expect_identical_cut_sets(sets, enumerate_cuts(net), "quiescent");
}

TEST(cut_maintainer, dirty_region_only_and_clean_spans_kept)
{
    auto net = random_network(23, 8, 150, 6);
    cut_maintainer maint;
    cut_sets sets;
    maint.refresh(net, sets, {});
    const auto build_gen = sets.generation();

    std::mt19937_64 rng{5};
    random_surgery(net, rng, 3);

    cut_enumeration_stats stats;
    EXPECT_TRUE(maint.refresh(net, sets, {}, &stats));
    EXPECT_GT(stats.clean_nodes, 0u) << "surgery dirtied the whole network";
    expect_identical_cut_sets(sets, enumerate_cuts(net), "post-surgery");

    // Clean gates kept their spans: generation tag still from the build.
    // (>=: a re-enumerated gate whose result came out identical also keeps
    // its span — that is the change-propagation cutoff working.)
    uint64_t kept = 0;
    for (const auto n : net.topological_order())
        if (net.is_gate(n) && sets.node_generation(n) == build_gen)
            ++kept;
    EXPECT_GE(kept, stats.clean_nodes);
    EXPECT_GT(kept, 0u);
}

TEST(cut_maintainer, single_substitution_stays_local)
{
    // One substitution in the middle of a 64-bit adder must not ripple a
    // re-enumeration across the network: priority cuts reach only a
    // bounded distance down, so recomputed sets stabilize (compare equal)
    // a few levels above the change and propagation stops.
    auto net = gen_adder(64);
    cut_maintainer maint;
    cut_sets sets;
    maint.refresh(net, sets, {});

    const auto order = net.topological_order();
    uint32_t g = 0;
    int seen = 0;
    for (const auto n : order)
        if (net.is_gate(n) && ++seen == 180) {
            g = n;
            break;
        }
    // Replacement over PIs only: its cone can never contain g.
    const auto r = net.create_and(signal{net.pi_at(3), false},
                                  signal{net.pi_at(60), true});
    ASSERT_NE(r.node(), g);
    net.substitute(g, r);

    cut_enumeration_stats stats;
    ASSERT_TRUE(maint.refresh(net, sets, {}, &stats));
    EXPECT_GT(stats.reenumerated_nodes, 0u);
    EXPECT_LT(stats.reenumerated_nodes, 40u)
        << "a local change re-enumerated "
        << stats.reenumerated_nodes << " nodes";
    EXPECT_GT(stats.clean_nodes, 250u);
    expect_identical_cut_sets(sets, enumerate_cuts(net), "local change");
}

TEST(cut_maintainer, broken_journal_forces_full_rebuild)
{
    auto net = random_network(29);
    cut_maintainer maint;
    cut_sets sets;
    maint.refresh(net, sets, {});

    // An untracked mutation (journal disarmed, as any non-maintainer user
    // of the network would leave it) must not be trusted incrementally.
    net.disarm_change_log();
    std::mt19937_64 rng{7};
    random_surgery(net, rng, 2);
    cut_enumeration_stats stats;
    EXPECT_FALSE(maint.refresh(net, sets, {}, &stats));
    EXPECT_EQ(stats.clean_nodes, 0u);
    expect_identical_cut_sets(sets, enumerate_cuts(net), "after disarm");

    // Changed parameters invalidate, too.
    EXPECT_FALSE(maint.refresh(net, sets, {.cut_size = 4}, &stats));
    expect_identical_cut_sets(sets, enumerate_cuts(net, {.cut_size = 4}),
                              "after param change");

    // Replacing the network object (cleanup) breaks the armed journal.
    net = cleanup(net);
    EXPECT_FALSE(maint.refresh(net, sets, {}, &stats));
    expect_identical_cut_sets(sets, enumerate_cuts(net), "after cleanup");

    // A foreign writer into the arena (a direct enumerate_cuts bypassing
    // the maintainer) bumps the arena generation: not trusted either.
    EXPECT_TRUE(maint.refresh(net, sets, {}, &stats));
    enumerate_cuts(net, sets);
    EXPECT_FALSE(maint.refresh(net, sets, {}, &stats));
    EXPECT_EQ(stats.clean_nodes, 0u);
}

TEST(cut_maintainer, journal_overflow_bounds_memory_and_forces_rebuild)
{
    // The journal caps at a multiple of the node count.  Gate creation
    // grows the cap alongside the journal, so the unbounded case is entry
    // growth *without* node growth (here: PO churn; in the wild, repeated
    // substitutions among existing nodes) — it must flip the log to
    // overflowed: bounded memory, full rebuild, correct sets.
    auto net = random_network(41, 6, 40, 4);
    cut_maintainer maint;
    cut_sets sets;
    maint.refresh(net, sets, {});
    ASSERT_TRUE(net.changes().armed);

    const auto a = signal{net.pi_at(0), false};
    for (uint64_t i = 0; i < (1u << 21) && !net.changes().overflowed; ++i)
        net.create_po(a);
    ASSERT_TRUE(net.changes().overflowed);
    EXPECT_TRUE(net.changes().nodes.empty()) << "overflow must release";

    cut_enumeration_stats stats;
    EXPECT_FALSE(maint.refresh(net, sets, {}, &stats))
        << "overflowed journal must not be trusted";
    EXPECT_EQ(stats.clean_nodes, 0u);
    expect_identical_cut_sets(sets, enumerate_cuts(net), "after overflow");
    EXPECT_FALSE(net.changes().overflowed) << "re-arm clears the flag";
}

TEST(cut_maintainer, injected_journal_overflow_forces_full_rebuild)
{
    // The fault-injection site rides the real degradation path: an armed
    // journal-overflow fault makes the next journaled change flip the log
    // to overflowed (flag set, memory released) exactly like organic entry
    // growth — and the following refresh must fall back to a full rebuild
    // with oracle-identical sets.
    auto net = random_network(43);
    cut_maintainer maint;
    cut_sets sets;
    maint.refresh(net, sets, {});
    ASSERT_TRUE(net.changes().armed);

    fault_injection::arm(fault_site::journal_overflow);
    std::mt19937_64 rng{9};
    random_surgery(net, rng, 3);
    fault_injection::disarm_all();
    ASSERT_TRUE(net.changes().overflowed);
    EXPECT_TRUE(net.changes().nodes.empty()) << "overflow must release";

    cut_enumeration_stats stats;
    EXPECT_FALSE(maint.refresh(net, sets, {}, &stats));
    EXPECT_EQ(stats.clean_nodes, 0u);
    expect_identical_cut_sets(sets, enumerate_cuts(net),
                              "after injected overflow");
    EXPECT_FALSE(net.changes().overflowed) << "re-arm clears the flag";
}

TEST(cut_maintainer, stopped_token_invalidates_half_done_refresh)
{
    auto net = random_network(47);
    cut_maintainer maint;
    cut_sets sets;
    cancellation_source src;
    src.request();
    EXPECT_THROW(
        maint.refresh(net, sets, {}, nullptr, nullptr, src.token()),
        cancelled_error);
    // The maintainer invalidated itself before unwinding: the next
    // ungoverned refresh is a full rebuild with oracle-identical sets.
    cut_enumeration_stats stats;
    EXPECT_FALSE(maint.refresh(net, sets, {}, &stats));
    EXPECT_EQ(stats.clean_nodes, 0u);
    expect_identical_cut_sets(sets, enumerate_cuts(net), "after cancel");
}

// -------------------------------- randomized differential fuzz (tentpole)

/// Maintained sets after random surgery must equal BOTH full oracles —
/// enumerate_cuts and the scalar reference enumerator — node for node, and
/// the two oracles must agree on every stat counter.
TEST(incremental_differential, randomized_surgery_fuzz)
{
    std::mt19937_64 rng{2026};
    for (int trial = 0; trial < 12; ++trial) {
        auto net = random_network(1000 + trial, 6 + trial % 5,
                                  80 + 10 * (trial % 7), 5);
        const cut_enumeration_params params{
            .cut_size = trial % 5 == 0 ? 4u : 6u,
            .cut_limit = trial % 3 == 0 ? 6u : 12u};
        cut_maintainer maint;
        cut_sets sets;
        maint.refresh(net, sets, params);
        for (int round = 0; round < 4; ++round) {
            random_surgery(net, rng, 1 + static_cast<int>(rng() % 5));
            cut_enumeration_stats inc_stats;
            maint.refresh(net, sets, params, &inc_stats);

            cut_enumeration_stats full_stats;
            const auto full = enumerate_cuts(net, params, &full_stats);
            expect_identical_cut_sets(sets, full, "vs word-parallel oracle");
            EXPECT_EQ(inc_stats.total_cuts, full_stats.total_cuts)
                << "trial " << trial << " round " << round;

            cut_enumeration_stats scalar_stats;
            const auto scalar =
                oracle::enumerate_cuts_scalar(net, params, &scalar_stats);
            expect_identical_cut_sets(sets, scalar, "vs scalar oracle");

            // Counter parity between the seed path and the fast path.
            EXPECT_EQ(full_stats.merged_pairs, scalar_stats.merged_pairs);
            EXPECT_EQ(full_stats.duplicate_cuts,
                      scalar_stats.duplicate_cuts);
            EXPECT_EQ(full_stats.dominated_cuts,
                      scalar_stats.dominated_cuts);
            EXPECT_EQ(full_stats.evicted_cuts, scalar_stats.evicted_cuts);
            EXPECT_EQ(full_stats.total_cuts, scalar_stats.total_cuts);
        }
    }
}

// --------------------------- flow-level differential (generator families)

/// Optimize through a flow — the production one, or the full-rebuild
/// oracle flow — and return (serialized network, replacements).
std::pair<std::string, uint64_t> optimize(xag net, uint32_t threads,
                                          bool incremental,
                                          flow_params params = {},
                                          const char* spec = "mc")
{
    params.num_threads = threads;
    pass_context ctx{context_params(params)};
    const auto f =
        incremental ? make_flow(spec, params)
                    : test::make_oracle_flow(spec, params,
                                             test::oracle::full_rebuild);
    const auto result = run_flow(net, f, ctx);
    uint64_t replacements = 0;
    for (const auto& p : result.passes)
        for (const auto& r : p.rounds)
            replacements += r.replacements;
    std::ostringstream os;
    write_bench(cleanup(net), os);
    return {os.str(), replacements};
}

/// Incremental maintenance must be invisible: identical networks and
/// replacement counts vs. the full-rebuild oracle at 1/2/8 workers.
void expect_incremental_invariant(const xag& source, const char* what,
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

TEST(incremental_differential, arithmetic_family)
{
    expect_incremental_invariant(gen_adder(16), "adder16");
    expect_incremental_invariant(gen_multiplier(4), "multiplier4");
}

TEST(incremental_differential, control_family)
{
    expect_incremental_invariant(gen_decoder(4), "decoder4");
    expect_incremental_invariant(gen_voter(7), "voter7");
}

TEST(incremental_differential, aes_family)
{
    xag net;
    std::array<signal, 8> in;
    for (auto& s : in)
        s = net.create_pi();
    for (const auto s : aes_sbox_circuit(net, in))
        net.create_po(s);
    expect_incremental_invariant(net, "aes-sbox");
}

TEST(incremental_differential, des_family)
{
    expect_incremental_invariant(gen_des(1), "des1");
}

TEST(incremental_differential, lightweight_family)
{
    expect_incremental_invariant(gen_simon(16, 4), "simon16x4");
    expect_incremental_invariant(gen_keccak_f(8), "keccak8");
}

TEST(incremental_differential, size_baseline_engine)
{
    expect_incremental_invariant(gen_adder(12), "size-adder12", {},
                                 "size-baseline");
}

TEST(incremental_differential, incremental_engages_across_foreign_pass)
{
    // In an iterated mc+xor flow, the xor pass mutates the network between
    // two mc passes while the journal is armed — the second mc pass's
    // first round must still refresh incrementally (the journal captured
    // the foreign pass's changes), not fall back to a full rebuild.
    auto net = gen_adder(16);
    flow_params params;
    params.iterate_until_convergence = true;
    pass_context ctx{context_params(params)};
    run_flow(net, make_flow("mc+xor", params), ctx);

    int mc_passes = 0;
    for (const auto& p : ctx.history) {
        if (p.pass_name != "mc-rewrite" || p.rounds.empty())
            continue;
        ++mc_passes;
        const auto& first = p.rounds.front().cut_stats;
        if (mc_passes == 1)
            EXPECT_FALSE(first.incremental) << "no journal before round 1";
        else
            EXPECT_TRUE(first.incremental)
                << "mc pass " << mc_passes
                << " fell back to a full rebuild across the xor pass";
        // Later rounds of any mc pass are always incremental.
        for (size_t r = 1; r < p.rounds.size(); ++r)
            EXPECT_TRUE(p.rounds[r].cut_stats.incremental);
    }
    EXPECT_GE(mc_passes, 2) << "flow never iterated into a second mc pass";
}

TEST(incremental_differential, iterated_flow_across_passes)
{
    // `--iterate mc+xor`: the xor pass mutates the network between mc
    // passes *while the journal is armed*, so the next mc round updates
    // incrementally across a foreign pass's changes; the cleanup-style
    // object replacement inside the flow engine must fall back to a full
    // rebuild.  Either way: byte-identical to the oracle.
    flow_params params;
    params.iterate_until_convergence = true;
    expect_incremental_invariant(gen_adder(12), "iterated-adder12", params,
                                 "mc+xor");
    expect_incremental_invariant(gen_comparator_lt_unsigned(6),
                                 "iterated-cmp6", params, "mc+xor+cleanup");
}

TEST(incremental_differential, incremental_actually_skips_work)
{
    // The bench gate's (incremental_round, ci.sh) unit-level twin.  Round
    // 1 rebuilds everything; round 2 reuses whatever survived round 1's
    // replacements; and once a round commits nothing, the next refresh
    // re-enumerates *zero* nodes — the steady-state payoff.
    auto net = gen_adder(64);
    pass_context ctx;
    rewrite_params params;
    const auto r1 = mc_rewrite_round(net, ctx, params);
    ASSERT_GT(r1.replacements, 0u);
    EXPECT_EQ(r1.cut_stats.clean_nodes, 0u); // first refresh is full

    auto last = mc_rewrite_round(net, ctx, params);
    EXPECT_GT(last.cut_stats.clean_nodes, 0u);

    for (int r = 0; r < 8 && last.replacements != 0; ++r)
        last = mc_rewrite_round(net, ctx, params);
    ASSERT_EQ(last.replacements, 0u) << "adder64 converges in ten rounds";
    const auto steady = mc_rewrite_round(net, ctx, params);
    EXPECT_EQ(steady.cut_stats.reenumerated_nodes, 0u);
    EXPECT_EQ(steady.cut_stats.merged_pairs, 0u);
    EXPECT_GT(steady.cut_stats.clean_nodes, 0u);
    EXPECT_EQ(steady.cut_stats.total_cuts, last.cut_stats.total_cuts);
}

} // namespace
} // namespace mcx
