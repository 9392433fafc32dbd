#include "xag/cleanup.h"
#include "xag/depth.h"
#include "xag/simulate.h"
#include "xag/verify.h"
#include "xag/xag.h"

#include <gtest/gtest.h>

#include <random>

namespace mcx {
namespace {

TEST(signal_type, literal_packing)
{
    const signal s{7, true};
    EXPECT_EQ(s.node(), 7u);
    EXPECT_TRUE(s.complemented());
    EXPECT_EQ((!s).node(), 7u);
    EXPECT_FALSE((!s).complemented());
    EXPECT_EQ(s ^ true, !s);
    EXPECT_EQ(s ^ false, s);
}

TEST(xag_network, constants_and_pis)
{
    xag net;
    EXPECT_EQ(net.get_constant(false).node(), 0u);
    EXPECT_EQ(net.get_constant(true), !net.get_constant(false));
    const auto a = net.create_pi();
    const auto b = net.create_pi();
    EXPECT_EQ(net.num_pis(), 2u);
    EXPECT_TRUE(net.is_pi(a.node()));
    EXPECT_EQ(net.pi_index(a.node()), 0u);
    EXPECT_EQ(net.pi_index(b.node()), 1u);
    EXPECT_THROW(net.pi_index(0), std::invalid_argument);
}

TEST(xag_network, and_constant_folding)
{
    xag net;
    const auto a = net.create_pi();
    EXPECT_EQ(net.create_and(net.get_constant(false), a),
              net.get_constant(false));
    EXPECT_EQ(net.create_and(net.get_constant(true), a), a);
    EXPECT_EQ(net.create_and(a, a), a);
    EXPECT_EQ(net.create_and(a, !a), net.get_constant(false));
    EXPECT_EQ(net.num_gates(), 0u);
}

TEST(xag_network, xor_constant_folding)
{
    xag net;
    const auto a = net.create_pi();
    EXPECT_EQ(net.create_xor(net.get_constant(false), a), a);
    EXPECT_EQ(net.create_xor(net.get_constant(true), a), !a);
    EXPECT_EQ(net.create_xor(a, a), net.get_constant(false));
    EXPECT_EQ(net.create_xor(a, !a), net.get_constant(true));
    EXPECT_EQ(net.num_gates(), 0u);
}

TEST(xag_network, structural_hashing_and)
{
    xag net;
    const auto a = net.create_pi();
    const auto b = net.create_pi();
    const auto g1 = net.create_and(a, b);
    const auto g2 = net.create_and(b, a);
    EXPECT_EQ(g1, g2);
    EXPECT_EQ(net.num_ands(), 1u);
    // Different polarities are different AND gates.
    const auto g3 = net.create_and(!a, b);
    EXPECT_NE(g1, g3);
    EXPECT_EQ(net.num_ands(), 2u);
}

TEST(xag_network, structural_hashing_xor_polarity)
{
    xag net;
    const auto a = net.create_pi();
    const auto b = net.create_pi();
    const auto g1 = net.create_xor(a, b);
    const auto g2 = net.create_xor(!a, b);
    const auto g3 = net.create_xor(a, !b);
    const auto g4 = net.create_xor(!a, !b);
    EXPECT_EQ(net.num_xors(), 1u);
    EXPECT_EQ(g2, !g1);
    EXPECT_EQ(g3, !g1);
    EXPECT_EQ(g4, g1);
}

TEST(xag_network, find_gate_answers_like_create_without_creating)
{
    xag net;
    const auto a = net.create_pi();
    const auto b = net.create_pi();
    const auto c = net.create_pi();
    const auto g = net.create_and(a, b);
    const auto x = net.create_xor(a, b);
    const auto size = net.size();

    // Structural-hashing hits, in either fanin order and XOR polarity.
    EXPECT_EQ(net.find_gate(node_kind::and_gate, b, a), g);
    EXPECT_EQ(net.find_gate(node_kind::xor_gate, !a, b), !x);
    // Folds.
    EXPECT_EQ(net.find_gate(node_kind::and_gate, a, a), a);
    EXPECT_EQ(net.find_gate(node_kind::and_gate, a, !a),
              net.get_constant(false));
    EXPECT_EQ(net.find_gate(node_kind::xor_gate, c, net.get_constant(true)),
              !c);
    // A gate that would be new, also over a node past the end.
    EXPECT_FALSE(net.find_gate(node_kind::and_gate, a, c).has_value());
    const signal beyond{size + 3, false};
    EXPECT_FALSE(net.find_gate(node_kind::xor_gate, a, beyond).has_value());
    EXPECT_EQ(net.find_gate(node_kind::xor_gate, beyond, beyond),
              net.get_constant(false));
    EXPECT_EQ(net.size(), size);
    EXPECT_EQ(net.num_gates(), 2u);
}

TEST(xag_network, full_adder_simulation)
{
    // Fig. 1(a): textbook full adder with 3 AND and 2 XOR gates.
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
    EXPECT_EQ(net.num_ands(), 3u);
    EXPECT_EQ(net.num_xors(), 2u);

    const auto tts = simulate(net);
    ASSERT_EQ(tts.size(), 2u);
    EXPECT_EQ(tts[0].to_hex(), "96"); // sum = parity
    EXPECT_EQ(tts[1].to_hex(), "e8"); // cout = majority (paper Example 3.1)
    net.check_integrity();
}

TEST(xag_network, multi_word_node_simulation_agrees_with_single_words)
{
    // simulate_nodes over 3 words per PI must give, word for word, what
    // simulate_words gives for each word on its own.
    xag net;
    std::vector<signal> x;
    for (int i = 0; i < 5; ++i)
        x.push_back(net.create_pi());
    const auto t = net.create_and(net.create_xor(x[0], !x[1]), x[2]);
    net.create_po(!net.create_xor(t, net.create_and(!x[3], x[4])));
    net.create_po(t);

    constexpr uint32_t words = 3;
    std::mt19937_64 rng{11};
    std::vector<uint64_t> pi_words(5 * words);
    for (auto& w : pi_words)
        w = rng();
    const auto nodes = simulate_nodes(net, pi_words, words);
    ASSERT_EQ(nodes.size(), size_t{net.size()} * words);
    for (uint32_t w = 0; w < words; ++w) {
        std::vector<uint64_t> single(5);
        for (uint32_t i = 0; i < 5; ++i)
            single[i] = pi_words[i * words + w];
        const auto outs = simulate_words(net, single);
        for (uint32_t o = 0; o < net.num_pos(); ++o) {
            const auto po = net.po_at(o);
            EXPECT_EQ(nodes[po.node() * words + w] ^
                          (po.complemented() ? ~uint64_t{0} : 0),
                      outs[o])
                << "output " << o << " word " << w;
        }
    }
}

TEST(xag_network, maj_has_one_and)
{
    xag net;
    const auto a = net.create_pi();
    const auto b = net.create_pi();
    const auto c = net.create_pi();
    net.create_po(net.create_maj(a, b, c));
    EXPECT_EQ(net.num_ands(), 1u);
    EXPECT_EQ(simulate(net)[0].to_hex(), "e8");

    // The textbook structure spends 3 ANDs on products plus 2 on the ORs
    // (an OR is an AND with inverters in the XAG basis).
    xag naive;
    const auto x = naive.create_pi();
    const auto y = naive.create_pi();
    const auto z = naive.create_pi();
    naive.create_po(naive.create_maj_naive(x, y, z));
    EXPECT_EQ(naive.num_ands(), 5u);
    EXPECT_EQ(simulate(naive)[0].to_hex(), "e8");
}

TEST(xag_network, ite_matches_mux_semantics)
{
    xag net;
    const auto c = net.create_pi();
    const auto t = net.create_pi();
    const auto e = net.create_pi();
    net.create_po(net.create_ite(c, t, e));
    EXPECT_EQ(net.num_ands(), 1u);
    const auto tt = simulate(net)[0];
    for (uint64_t x = 0; x < 8; ++x) {
        const bool cv = x & 1, tv = (x >> 1) & 1, ev = (x >> 2) & 1;
        EXPECT_EQ(tt.get_bit(x), cv ? tv : ev);
    }
}

TEST(xag_network, substitute_simple)
{
    xag net;
    const auto a = net.create_pi();
    const auto b = net.create_pi();
    const auto c = net.create_pi();
    const auto ab = net.create_and(a, b);
    const auto top = net.create_xor(ab, c);
    net.create_po(top);
    const auto before = simulate(net);

    // ~(~a | ~b) strashes onto the very same node as a&b.
    const auto equivalent = !net.create_or(!a, !b);
    EXPECT_EQ(equivalent, ab);

    // Substitute a&b by a *different* function (a|b): the PO must change to
    // (a|b)^c while the network stays consistent.
    const auto a_or_b = net.create_or(a, b);
    net.take_ref(a_or_b);
    net.substitute(ab.node(), a_or_b);
    net.release_ref(net.resolve(a_or_b));
    net.check_integrity();
    const auto after = simulate(net);
    EXPECT_NE(after, before);
    const auto or_tt = truth_table::projection(3, 0) |
                       truth_table::projection(3, 1);
    EXPECT_EQ(after[0], or_tt ^ truth_table::projection(3, 2));
}

TEST(xag_network, substitute_preserves_function)
{
    xag net;
    const auto a = net.create_pi();
    const auto b = net.create_pi();
    const auto c = net.create_pi();
    const auto ab = net.create_and(a, b);
    const auto f = net.create_xor(ab, c);
    net.create_po(f);
    const auto before = simulate(net);

    // a & b == !(!a | !b) == !( !a & !b | ... ), build via XOR identity:
    // a & b = (a ^ b ^ (a | b)).  Create that structure and substitute.
    const auto a_or_b = net.create_or(a, b);
    const auto candidate = net.create_xor(net.create_xor(a, b), a_or_b);
    net.take_ref(candidate);
    net.substitute(ab.node(), candidate);
    net.release_ref(candidate);
    net.check_integrity();
    EXPECT_EQ(simulate(net), before);
}

TEST(xag_network, substitute_cascades_folding)
{
    xag net;
    const auto a = net.create_pi();
    const auto b = net.create_pi();
    const auto ab = net.create_and(a, b);
    const auto g = net.create_xor(ab, b);
    net.create_po(g);

    // Substituting ab := b turns g into b ^ b = 0: the PO must fold to the
    // constant and both gates must be collected.
    net.substitute(ab.node(), b);
    net.check_integrity();
    EXPECT_EQ(net.po_at(0), net.get_constant(false));
    EXPECT_EQ(net.num_gates(), 0u);
}

TEST(xag_network, substitute_merges_structural_duplicates)
{
    xag net;
    const auto a = net.create_pi();
    const auto b = net.create_pi();
    const auto c = net.create_pi();
    const auto ab = net.create_and(a, b);
    const auto ac = net.create_and(a, c);
    const auto g1 = net.create_xor(ab, c);
    const auto g2 = net.create_xor(ac, c);
    net.create_po(g1);
    net.create_po(g2);
    EXPECT_EQ(net.num_gates(), 4u);

    // After substituting ac := ab, g2 collides with g1 and must merge.
    net.substitute(ac.node(), ab);
    net.check_integrity();
    EXPECT_EQ(net.po_at(0), net.po_at(1));
    EXPECT_EQ(net.num_gates(), 2u);
}

TEST(xag_network, substitute_updates_pos_with_polarity)
{
    xag net;
    const auto a = net.create_pi();
    const auto b = net.create_pi();
    const auto ab = net.create_and(a, b);
    net.create_po(!ab);
    net.substitute(ab.node(), net.create_xor(a, b)); // change function
    net.check_integrity();
    const auto tts = simulate(net);
    EXPECT_EQ(tts[0].to_hex(), "9"); // ~(a ^ b)
}

TEST(xag_network, release_ref_collects_cone)
{
    xag net;
    const auto a = net.create_pi();
    const auto b = net.create_pi();
    const auto c = net.create_pi();
    const auto g = net.create_and(net.create_xor(a, b), c);
    EXPECT_EQ(net.num_gates(), 2u);
    net.take_ref(g);
    net.release_ref(g);
    net.check_integrity();
    EXPECT_EQ(net.num_gates(), 0u);
}

TEST(xag_network, topological_order_covers_live_cone)
{
    xag net;
    const auto a = net.create_pi();
    const auto b = net.create_pi();
    const auto g1 = net.create_and(a, b);
    const auto g2 = net.create_xor(g1, a);
    net.create_po(g2);
    const auto order = net.topological_order();
    // PIs first, then g1 before g2.
    std::vector<uint32_t> position(net.size(), 0);
    for (uint32_t i = 0; i < order.size(); ++i)
        position[order[i]] = i;
    EXPECT_LT(position[a.node()], position[g1.node()]);
    EXPECT_LT(position[g1.node()], position[g2.node()]);
}

TEST(cleanup_utils, cleanup_drops_dangling)
{
    xag net;
    const auto a = net.create_pi();
    const auto b = net.create_pi();
    const auto used = net.create_and(a, b);
    net.create_po(used);
    // Dangling cone, referenced by nothing.
    net.take_ref(net.create_xor(a, b));
    EXPECT_EQ(net.num_gates(), 2u);

    const auto fresh = cleanup(net);
    EXPECT_EQ(fresh.num_gates(), 1u);
    EXPECT_EQ(fresh.num_pis(), 2u);
    EXPECT_EQ(fresh.num_pos(), 1u);
    EXPECT_TRUE(exhaustive_equal(net, fresh));
}

TEST(cleanup_utils, insert_network_shares_structure)
{
    xag block;
    const auto x = block.create_pi();
    const auto y = block.create_pi();
    block.create_po(block.create_and(x, y));

    xag host;
    const auto a = host.create_pi();
    const auto b = host.create_pi();
    const auto direct = host.create_and(a, b);
    const std::vector<signal> leaves{a, b};
    const auto outs = insert_network(host, block, leaves);
    ASSERT_EQ(outs.size(), 1u);
    EXPECT_EQ(outs[0], direct); // strash sharing
    EXPECT_EQ(host.num_gates(), 1u);
}

TEST(cleanup_utils, insert_network_respects_polarity)
{
    xag block;
    const auto x = block.create_pi();
    const auto y = block.create_pi();
    block.create_po(!block.create_xor(!x, y));

    xag host;
    const auto a = host.create_pi();
    const auto b = host.create_pi();
    const std::vector<signal> leaves{!a, b};
    const auto outs = insert_network(host, block, leaves);
    host.create_po(outs[0]);
    // f = !((!!a) ^ b) = !(a ^ b)
    EXPECT_EQ(simulate(host)[0].to_hex(), "9");
}

TEST(depth_views, depth_and_and_depth)
{
    xag net;
    const auto a = net.create_pi();
    const auto b = net.create_pi();
    const auto c = net.create_pi();
    const auto d = net.create_pi();
    const auto g1 = net.create_xor(a, b);
    const auto g2 = net.create_and(g1, c);
    const auto g3 = net.create_and(g2, d);
    net.create_po(g3);
    EXPECT_EQ(depth(net), 3u);
    EXPECT_EQ(and_depth(net), 2u);
}

TEST(verify_utils, random_simulation_catches_difference)
{
    xag a;
    {
        const auto x = a.create_pi();
        const auto y = a.create_pi();
        a.create_po(a.create_and(x, y));
    }
    xag b;
    {
        const auto x = b.create_pi();
        const auto y = b.create_pi();
        b.create_po(b.create_or(x, y));
    }
    EXPECT_FALSE(random_simulation_equal(a, b));
    EXPECT_FALSE(exhaustive_equal(a, b));
    EXPECT_TRUE(random_simulation_equal(a, a));
}

// Randomized stress: build a random XAG, substitute random nodes with
// functionally equal reconstructions, check function and integrity.
class substitute_stress : public ::testing::TestWithParam<uint64_t> {};

TEST_P(substitute_stress, function_preserved)
{
    std::mt19937_64 rng{GetParam()};
    xag net;
    std::vector<signal> pool;
    for (int i = 0; i < 6; ++i)
        pool.push_back(net.create_pi());
    for (int i = 0; i < 60; ++i) {
        const auto a = pool[rng() % pool.size()] ^ ((rng() & 1) != 0);
        const auto b = pool[rng() % pool.size()] ^ ((rng() & 1) != 0);
        pool.push_back((rng() & 1) ? net.create_and(a, b)
                                   : net.create_xor(a, b));
    }
    for (int i = 0; i < 8; ++i)
        net.create_po(pool[pool.size() - 1 - i]);
    const auto before = simulate(net);

    for (int round = 0; round < 40; ++round) {
        // Pick a random live gate.
        std::vector<uint32_t> gates;
        for (uint32_t n = 0; n < net.size(); ++n)
            if (net.is_gate(n) && !net.is_dead(n) && net.ref_count(n) > 0)
                gates.push_back(n);
        if (gates.empty())
            break;
        const auto victim = gates[rng() % gates.size()];
        const auto f0 = net.fanin0(victim);
        const auto f1 = net.fanin1(victim);
        // Functionally equal replacement built from scratch:
        //   AND: a & b   == !(!(a&b))            (use or-form)
        //   XOR: a ^ b   == (a | b) & !(a & b)   (adds AND gates, then folds)
        signal replacement;
        if (net.is_and(victim))
            replacement = !net.create_or(!f0, !f1);
        else
            replacement = net.create_and(net.create_or(f0, f1),
                                         !net.create_and(f0, f1));
        net.take_ref(replacement);
        if (replacement.node() != victim)
            net.substitute(victim, replacement);
        net.release_ref(net.resolve(replacement));
        ASSERT_NO_THROW(net.check_integrity()) << "round " << round;
        ASSERT_EQ(simulate(net), before) << "round " << round;
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, substitute_stress,
                         ::testing::Values(1, 2, 3, 4, 5, 11, 23, 47, 91,
                                           1337));

} // namespace
} // namespace mcx
