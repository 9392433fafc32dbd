#include "cut/cut_enumeration.h"
#include "oracle/cut_enumeration_scalar.h"
#include "xag/simulate.h"
#include "xag/xag.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

namespace mcx {
namespace {

xag full_adder()
{
    xag net;
    const auto a = net.create_pi();
    const auto b = net.create_pi();
    const auto cin = net.create_pi();
    const auto axb = net.create_xor(a, b);
    const auto sum = net.create_xor(axb, cin);
    const auto cout =
        net.create_or(net.create_and(a, b), net.create_and(axb, cin));
    net.create_po(sum);
    net.create_po(cout);
    return net;
}

TEST(cut_enumeration, parameter_validation)
{
    xag net;
    EXPECT_THROW(enumerate_cuts(net, {.cut_size = 1}), std::invalid_argument);
    EXPECT_THROW(enumerate_cuts(net, {.cut_size = 9}), std::invalid_argument);
    EXPECT_THROW(enumerate_cuts(net, {.cut_size = 4, .cut_limit = 0}),
                 std::invalid_argument);
}

TEST(cut_enumeration, pi_has_trivial_cut_only)
{
    xag net;
    const auto a = net.create_pi();
    net.create_po(a);
    const auto sets = enumerate_cuts(net);
    ASSERT_EQ(sets[a.node()].size(), 1u);
    EXPECT_EQ(sets[a.node()][0].num_leaves, 1u);
    EXPECT_EQ(sets[a.node()][0].leaves[0], a.node());
    EXPECT_EQ(sets[a.node()][0].function, 0x2u);
}

TEST(cut_enumeration, full_adder_cout_cut)
{
    // Paper Fig. 1(b): the cout cut with leaves {a, b, cin} implements the
    // majority function 0xe8.
    const auto net = full_adder();
    const auto sets = enumerate_cuts(net);
    const auto cout_node = net.po_at(1).node();
    const auto& cuts = sets[cout_node];
    const std::array<uint32_t, 3> pis{net.pi_at(0), net.pi_at(1),
                                      net.pi_at(2)};
    const auto it = std::find_if(cuts.begin(), cuts.end(), [&](const cut& c) {
        return c.num_leaves == 3 &&
               std::equal(pis.begin(), pis.end(), c.leaves.begin());
    });
    ASSERT_NE(it, cuts.end());
    uint64_t func = it->function;
    if (net.po_at(1).complemented())
        func = ~func & tt_mask(3);
    EXPECT_EQ(func, 0xe8u);
}

TEST(cut_enumeration, every_gate_ends_with_trivial_cut)
{
    const auto net = full_adder();
    const auto sets = enumerate_cuts(net);
    for (const auto n : net.topological_order()) {
        if (!net.is_gate(n))
            continue;
        ASSERT_FALSE(sets[n].empty());
        const auto& last = sets[n].back();
        EXPECT_EQ(last.num_leaves, 1u);
        EXPECT_EQ(last.leaves[0], n);
    }
}

TEST(cut_enumeration, respects_cut_limit)
{
    std::mt19937_64 rng{3};
    xag net;
    std::vector<signal> pool;
    for (int i = 0; i < 8; ++i)
        pool.push_back(net.create_pi());
    for (int i = 0; i < 120; ++i) {
        const auto a = pool[rng() % pool.size()] ^ ((rng() & 1) != 0);
        const auto b = pool[rng() % pool.size()] ^ ((rng() & 1) != 0);
        pool.push_back((rng() & 1) ? net.create_and(a, b)
                                   : net.create_xor(a, b));
    }
    for (int i = 0; i < 4; ++i)
        net.create_po(pool[pool.size() - 1 - i]);

    for (const uint32_t limit : {1u, 4u, 12u}) {
        const auto sets =
            enumerate_cuts(net, {.cut_size = 6, .cut_limit = limit});
        for (const auto n : net.topological_order()) {
            if (!net.is_gate(n))
                continue;
            EXPECT_LE(sets[n].size(), limit + 1); // + trivial cut
        }
    }
}

TEST(cut_enumeration, leaves_sorted_and_within_size)
{
    std::mt19937_64 rng{5};
    xag net;
    std::vector<signal> pool;
    for (int i = 0; i < 10; ++i)
        pool.push_back(net.create_pi());
    for (int i = 0; i < 200; ++i) {
        const auto a = pool[rng() % pool.size()] ^ ((rng() & 1) != 0);
        const auto b = pool[rng() % pool.size()] ^ ((rng() & 1) != 0);
        pool.push_back((rng() & 1) ? net.create_and(a, b)
                                   : net.create_xor(a, b));
    }
    for (int i = 0; i < 6; ++i)
        net.create_po(pool[pool.size() - 1 - i]);

    for (const uint32_t k : {2u, 4u, 6u}) {
        const auto sets = enumerate_cuts(net, {.cut_size = k});
        for (const auto n : net.topological_order()) {
            for (const auto& c : sets[n]) {
                EXPECT_GE(c.num_leaves, 1u);
                EXPECT_LE(c.num_leaves, k == 0 ? 1u : std::max(k, 1u));
                EXPECT_TRUE(std::is_sorted(c.leaves.begin(),
                                           c.leaves.begin() + c.num_leaves));
            }
        }
    }
}

TEST(cut_enumeration, no_dominated_cuts)
{
    std::mt19937_64 rng{6};
    xag net;
    std::vector<signal> pool;
    for (int i = 0; i < 8; ++i)
        pool.push_back(net.create_pi());
    for (int i = 0; i < 100; ++i) {
        const auto a = pool[rng() % pool.size()] ^ ((rng() & 1) != 0);
        const auto b = pool[rng() % pool.size()] ^ ((rng() & 1) != 0);
        pool.push_back((rng() & 1) ? net.create_and(a, b)
                                   : net.create_xor(a, b));
    }
    net.create_po(pool.back());

    const auto sets = enumerate_cuts(net, {.cut_size = 4, .cut_limit = 25});
    for (const auto n : net.topological_order()) {
        const auto& cuts = sets[n];
        // The trivial cut is excluded: it legitimately dominates any cut
        // containing n itself (there are none) and nothing else.
        for (size_t i = 0; i + 1 < cuts.size(); ++i)
            for (size_t j = 0; j + 1 < cuts.size(); ++j)
                if (i != j)
                    EXPECT_FALSE(cuts[i].dominates(cuts[j]) &&
                                 cuts[i].num_leaves < cuts[j].num_leaves)
                        << "node " << n << " cut " << j
                        << " strictly dominated by cut " << i;
    }
}

// Property: every enumerated cut function must equal the simulated cone
// function of the root over the cut leaves.
class cut_function_property : public ::testing::TestWithParam<uint64_t> {};

TEST_P(cut_function_property, functions_match_simulation)
{
    std::mt19937_64 rng{GetParam()};
    xag net;
    std::vector<signal> pool;
    for (int i = 0; i < 7; ++i)
        pool.push_back(net.create_pi());
    for (int i = 0; i < 80; ++i) {
        const auto a = pool[rng() % pool.size()] ^ ((rng() & 1) != 0);
        const auto b = pool[rng() % pool.size()] ^ ((rng() & 1) != 0);
        pool.push_back((rng() & 1) ? net.create_and(a, b)
                                   : net.create_xor(a, b));
    }
    for (int i = 0; i < 5; ++i)
        net.create_po(pool[pool.size() - 1 - i]);

    const auto sets = enumerate_cuts(net, {.cut_size = 6, .cut_limit = 8});
    for (const auto n : net.topological_order()) {
        if (!net.is_gate(n))
            continue;
        for (const auto& c : sets[n]) {
            const auto expected = cone_function(net, n, c.leaf_span());
            ASSERT_EQ(c.function_tt(), expected)
                << "node " << n << " cut over " << c.num_leaves << " leaves";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, cut_function_property,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(cut_enumeration, stats_populated)
{
    const auto net = full_adder();
    cut_enumeration_stats stats;
    enumerate_cuts(net, {}, &stats);
    EXPECT_GT(stats.total_cuts, 0u);
    EXPECT_GT(stats.merged_pairs, 0u);
}

// --- word-parallel kernel vs. the scalar reference enumerator -------------

/// Same cut sets, in the same order, and the same stat counters.
void expect_matches_scalar_oracle(const xag& net, uint32_t k,
                                  cut_enumeration_stats* fast_out = nullptr)
{
    const cut_enumeration_params params{.cut_size = k, .cut_limit = 12};
    cut_enumeration_stats fast_stats, scalar_stats;
    const auto sf = enumerate_cuts(net, params, &fast_stats);
    const auto ss = oracle::enumerate_cuts_scalar(net, params, &scalar_stats);
    EXPECT_EQ(fast_stats.merged_pairs, scalar_stats.merged_pairs);
    EXPECT_EQ(fast_stats.duplicate_cuts, scalar_stats.duplicate_cuts)
        << "k=" << k;
    EXPECT_EQ(fast_stats.dominated_cuts, scalar_stats.dominated_cuts)
        << "k=" << k;
    EXPECT_EQ(fast_stats.evicted_cuts, scalar_stats.evicted_cuts)
        << "k=" << k;
    EXPECT_EQ(fast_stats.total_cuts, scalar_stats.total_cuts);
    EXPECT_EQ(fast_stats.reenumerated_nodes, scalar_stats.reenumerated_nodes);
    ASSERT_EQ(sf.size(), ss.size());
    for (size_t n = 0; n < sf.size(); ++n) {
        ASSERT_EQ(sf[n].size(), ss[n].size()) << "node " << n << " k=" << k;
        for (size_t c = 0; c < sf[n].size(); ++c) {
            ASSERT_EQ(sf[n][c].num_leaves, ss[n][c].num_leaves);
            ASSERT_TRUE(std::equal(
                sf[n][c].leaves.begin(),
                sf[n][c].leaves.begin() + sf[n][c].num_leaves,
                ss[n][c].leaves.begin()))
                << "node " << n << " cut " << c << " k=" << k;
            ASSERT_EQ(sf[n][c].function, ss[n][c].function)
                << "node " << n << " cut " << c << " k=" << k;
            ASSERT_EQ(sf[n][c].signature, ss[n][c].signature);
        }
    }
    if (fast_out)
        *fast_out = fast_stats;
}

TEST(cut_enumeration, word_parallel_matches_scalar_path)
{
    std::mt19937_64 rng{7};
    for (int trial = 0; trial < 6; ++trial) {
        xag net;
        std::vector<signal> pool;
        for (int i = 0; i < 9; ++i)
            pool.push_back(net.create_pi());
        for (int i = 0; i < 150; ++i) {
            const auto a = pool[rng() % pool.size()] ^ ((rng() & 1) != 0);
            const auto b = pool[rng() % pool.size()] ^ ((rng() & 1) != 0);
            pool.push_back((rng() & 1) ? net.create_and(a, b)
                                       : net.create_xor(a, b));
        }
        for (int i = 0; i < 4; ++i)
            net.create_po(pool[pool.size() - 1 - i]);
        for (const uint32_t k : {2u, 4u, 6u}) {
            SCOPED_TRACE("trial " + std::to_string(trial));
            expect_matches_scalar_oracle(net, k);
        }
    }

    // Organic networks see no exact duplicates, so the random trials above
    // compare the duplicate counters 0 against 0.  Redundant logic gives
    // non-minimal cuts: z = (a ^ bc) ^ a recomputes x = bc, so z's cuts
    // {a, x} and {a, b, c} do not depend on a, and two merge pairs at the
    // root reach the same (leaves, function) cut.
    xag net;
    const auto a = net.create_pi();
    const auto b = net.create_pi();
    const auto c = net.create_pi();
    const auto x = net.create_and(b, c);
    const auto y = net.create_xor(a, x);
    const auto z = net.create_xor(y, a);
    net.create_po(net.create_and(!z, !net.create_and(!y, !x)));
    for (const uint32_t k : {4u, 6u}) {
        cut_enumeration_stats stats;
        expect_matches_scalar_oracle(net, k, &stats);
        EXPECT_GT(stats.duplicate_cuts, 0u) << "k=" << k;
    }
}

TEST(cut_enumeration, duplicate_filter_fires_and_counts_symmetrically)
{
    // Craft fanin cut sets that force two merge pairs onto the same
    // (leaves, function) cut: f with cuts {a,b} and {a,c} both computing
    // the projection onto a, g with cut {b,c}.  Pair ({a,b},{b,c}) and
    // pair ({a,c},{b,c}) both merge to {a,b,c} with identical functions —
    // the second must be rejected as a duplicate, not silently
    // double-stored.
    xag net;
    const auto a = net.create_pi();
    const auto b = net.create_pi();
    const auto c = net.create_pi();
    const auto f = net.create_and(a, b);
    const auto g = net.create_and(b, c);
    const auto n = net.create_and(f, g);
    net.create_po(n);

    const auto make = [](std::initializer_list<uint32_t> leaves,
                         uint64_t function) {
        cut cc;
        cc.num_leaves = static_cast<uint8_t>(leaves.size());
        std::copy(leaves.begin(), leaves.end(), cc.leaves.begin());
        cc.function = function;
        for (const auto l : leaves)
            cc.signature |= uint64_t{1} << (l & 63);
        return cc;
    };
    cut_sets sets;
    sets.reset(net.size());
    // f's planted cuts: both compute x0 (= leaf a) over their leaf pair.
    const cut f_cuts[2] = {make({a.node(), b.node()}, 0xa),
                           make({a.node(), c.node()}, 0xa)};
    const cut g_cuts[1] = {make({b.node(), c.node()}, 0xa)};
    sets.assign(f.node(), f_cuts);
    sets.assign(g.node(), g_cuts);

    cut_enumeration_workspace ws;
    enumerate_node_cuts(net, sets, n.node(), {.cut_size = 6, .cut_limit = 12},
                        ws);
    EXPECT_EQ(ws.stats.duplicate_cuts, 1u);
    EXPECT_EQ(ws.stats.merged_pairs, 2u);
    // One {a,b,c} cut survives (plus the trivial cut).
    ASSERT_EQ(ws.candidates.size(), 2u);
    EXPECT_EQ(ws.candidates[0].num_leaves, 3u);
}

// --- exact duplicate rejection under cut_key collisions ---------------------

TEST(cut_duplicate, key_depends_on_function_and_leaves)
{
    const auto make = [](std::initializer_list<uint32_t> leaves,
                         uint64_t function) {
        cut c;
        c.num_leaves = static_cast<uint8_t>(leaves.size());
        std::copy(leaves.begin(), leaves.end(), c.leaves.begin());
        c.function = function;
        for (const auto l : leaves)
            c.signature |= uint64_t{1} << (l & 63);
        return c;
    };
    EXPECT_EQ(cut_key(make({1, 2, 3}, 0xe8)), cut_key(make({1, 2, 3}, 0xe8)));
    EXPECT_NE(cut_key(make({1, 2, 3}, 0xe8)), cut_key(make({1, 2, 3}, 0x96)));
    EXPECT_NE(cut_key(make({1, 2, 3}, 0xe8)), cut_key(make({1, 2, 4}, 0xe8)));
}

TEST(cut_duplicate, key_collision_cannot_drop_distinct_function)
{
    // Regression: the merge loop used to declare "duplicate" on cut_key
    // match + identical leaves, never comparing the function — so a 64-bit
    // key collision between same-leaf/different-function cuts silently
    // dropped a valid cut.  A real splitmix collision cannot be forged in
    // a test, so we force the collision by entering the exact check
    // directly (which is precisely what the loop executes after any key
    // match): distinct functions must never be duplicates, no matter what
    // the hash said.
    const auto make = [](std::initializer_list<uint32_t> leaves,
                         uint64_t function) {
        cut c;
        c.num_leaves = static_cast<uint8_t>(leaves.size());
        std::copy(leaves.begin(), leaves.end(), c.leaves.begin());
        c.function = function;
        for (const auto l : leaves)
            c.signature |= uint64_t{1} << (l & 63);
        return c;
    };
    const auto maj = make({4, 7, 9}, 0xe8);
    const auto par = make({4, 7, 9}, 0x96); // same leaves, different function
    EXPECT_FALSE(cut_exact_duplicate(maj, par));
    EXPECT_FALSE(cut_exact_duplicate(par, maj));
    EXPECT_TRUE(cut_exact_duplicate(maj, make({4, 7, 9}, 0xe8)));
    // Different leaves, same function: not a duplicate either.
    EXPECT_FALSE(cut_exact_duplicate(maj, make({4, 7, 10}, 0xe8)));
    // Different widths never compare equal.
    EXPECT_FALSE(cut_exact_duplicate(maj, make({4, 7}, 0x8)));
}

TEST(cut_dominates, exact_subset_semantics)
{
    const auto make = [](std::initializer_list<uint32_t> leaves) {
        cut c;
        c.num_leaves = static_cast<uint8_t>(leaves.size());
        std::copy(leaves.begin(), leaves.end(), c.leaves.begin());
        for (const auto l : leaves)
            c.signature |= uint64_t{1} << (l & 63);
        return c;
    };
    EXPECT_TRUE(make({1, 3}).dominates(make({1, 2, 3})));
    EXPECT_TRUE(make({1, 2, 3}).dominates(make({1, 2, 3})));
    EXPECT_FALSE(make({1, 4}).dominates(make({1, 2, 3})));
    EXPECT_FALSE(make({1, 2, 3}).dominates(make({1, 3})));
    // Bloom aliasing: 2 and 66 share signature bit 2; the exact two-pointer
    // walk must still reject the false positive the prefilter lets through.
    EXPECT_FALSE(make({66}).dominates(make({2, 5})));
    EXPECT_TRUE(make({66}).dominates(make({5, 66})));
}

} // namespace
} // namespace mcx
