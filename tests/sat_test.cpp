#include "obs/metrics.h"
#include "oracle/check_equivalence.h"
#include "oracle/legacy_solver.h"
#include "sat/cnf.h"
#include "sat/equivalence.h"
#include "sat/solver.h"
#include "xag/simulate.h"
#include "xag/xag.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

namespace mcx::sat {
namespace {

literal pos(uint32_t v) { return literal{v, false}; }
literal neg(uint32_t v) { return literal{v, true}; }

TEST(sat_solver, trivial_sat)
{
    solver s;
    const auto a = s.add_variable();
    const auto b = s.add_variable();
    s.add_clause({pos(a), pos(b)});
    s.add_clause({neg(a)});
    EXPECT_EQ(s.solve(), solve_result::satisfiable);
    EXPECT_FALSE(s.model_value(a));
    EXPECT_TRUE(s.model_value(b));
}

TEST(sat_solver, trivial_unsat)
{
    solver s;
    const auto a = s.add_variable();
    s.add_clause({pos(a)});
    s.add_clause({neg(a)});
    EXPECT_EQ(s.solve(), solve_result::unsatisfiable);
}

TEST(sat_solver, empty_clause_is_unsat)
{
    solver s;
    (void)s.add_variable();
    EXPECT_FALSE(s.add_clause(std::initializer_list<literal>{}));
    EXPECT_EQ(s.solve(), solve_result::unsatisfiable);
}

TEST(sat_solver, tautology_is_ignored)
{
    solver s;
    const auto a = s.add_variable();
    EXPECT_TRUE(s.add_clause({pos(a), neg(a)}));
    EXPECT_EQ(s.solve(), solve_result::satisfiable);
}

TEST(sat_solver, unit_propagation_chain)
{
    solver s;
    std::vector<uint32_t> v;
    for (int i = 0; i < 10; ++i)
        v.push_back(s.add_variable());
    for (int i = 0; i + 1 < 10; ++i)
        s.add_clause({neg(v[i]), pos(v[i + 1])}); // v[i] -> v[i+1]
    s.add_clause({pos(v[0])});
    EXPECT_EQ(s.solve(), solve_result::satisfiable);
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(s.model_value(v[i]));
}

TEST(sat_solver, pigeonhole_unsat)
{
    // 5 pigeons into 4 holes: classic hard UNSAT family (small instance).
    constexpr int pigeons = 5, holes = 4;
    solver s;
    uint32_t var[pigeons][holes];
    for (auto& row : var)
        for (auto& v : row)
            v = s.add_variable();
    for (int p = 0; p < pigeons; ++p) {
        std::vector<literal> some;
        for (int h = 0; h < holes; ++h)
            some.push_back(pos(var[p][h]));
        s.add_clause(some);
    }
    for (int h = 0; h < holes; ++h)
        for (int p1 = 0; p1 < pigeons; ++p1)
            for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                s.add_clause({neg(var[p1][h]), neg(var[p2][h])});
    EXPECT_EQ(s.solve(), solve_result::unsatisfiable);
}

TEST(sat_solver, solve_mirrors_its_stats_into_the_metrics_registry)
{
    // Every solve() adds one to sat.solves and its conflicts to
    // sat.conflicts (docs/observability.md); no other test reads these
    // process-wide mirrors.
    constexpr int pigeons = 5, holes = 4;
    solver s;
    uint32_t var[pigeons][holes];
    for (auto& row : var)
        for (auto& v : row)
            v = s.add_variable();
    for (int p = 0; p < pigeons; ++p) {
        std::vector<literal> some;
        for (int h = 0; h < holes; ++h)
            some.push_back(pos(var[p][h]));
        s.add_clause(some);
    }
    for (int h = 0; h < holes; ++h)
        for (int p1 = 0; p1 < pigeons; ++p1)
            for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                s.add_clause({neg(var[p1][h]), neg(var[p2][h])});

    const auto solves = obs::register_metric("sat.solves");
    const auto conflicts = obs::register_metric("sat.conflicts");
    const auto solves_before = solves.value();
    const auto conflicts_before = conflicts.value();
    ASSERT_EQ(s.solve(), solve_result::unsatisfiable);
    EXPECT_EQ(solves.value() - solves_before, 1u);
    EXPECT_GT(s.stats().conflicts, 0u);
    EXPECT_EQ(conflicts.value() - conflicts_before, s.stats().conflicts);
}

TEST(sat_solver, conflict_budget_returns_undecided)
{
    // 8 pigeons into 7 holes is hard enough to need > 2 conflicts.
    constexpr int pigeons = 8, holes = 7;
    solver s;
    std::vector<std::vector<uint32_t>> var(pigeons,
                                           std::vector<uint32_t>(holes));
    for (auto& row : var)
        for (auto& v : row)
            v = s.add_variable();
    for (int p = 0; p < pigeons; ++p) {
        std::vector<literal> some;
        for (int h = 0; h < holes; ++h)
            some.push_back(pos(var[p][h]));
        s.add_clause(some);
    }
    for (int h = 0; h < holes; ++h)
        for (int p1 = 0; p1 < pigeons; ++p1)
            for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                s.add_clause({neg(var[p1][h]), neg(var[p2][h])});
    EXPECT_EQ(s.solve(2), solve_result::undecided);
}

// Random 3-SAT cross-checked against brute force.
class random_3sat : public ::testing::TestWithParam<uint64_t> {};

TEST_P(random_3sat, agrees_with_bruteforce)
{
    std::mt19937_64 rng{GetParam()};
    constexpr uint32_t num_vars = 12;
    const uint32_t num_clauses = 12 + rng() % 45;

    std::vector<std::vector<literal>> clauses;
    for (uint32_t c = 0; c < num_clauses; ++c) {
        std::vector<literal> cl;
        for (int k = 0; k < 3; ++k)
            cl.push_back(
                literal{static_cast<uint32_t>(rng() % num_vars), (rng() & 1) != 0});
        clauses.push_back(cl);
    }

    bool expected = false;
    for (uint32_t m = 0; m < (1u << num_vars) && !expected; ++m) {
        bool all = true;
        for (const auto& cl : clauses) {
            bool any = false;
            for (const auto l : cl)
                any |= (((m >> l.var()) & 1) != 0) != l.negative();
            if (!any) {
                all = false;
                break;
            }
        }
        expected = all;
    }

    solver s;
    for (uint32_t v = 0; v < num_vars; ++v)
        (void)s.add_variable();
    for (const auto& cl : clauses)
        s.add_clause(cl);
    const auto got = s.solve();
    EXPECT_EQ(got == solve_result::satisfiable, expected);

    if (got == solve_result::satisfiable) {
        // The model must actually satisfy every clause.
        for (const auto& cl : clauses) {
            bool any = false;
            for (const auto l : cl)
                any |= s.model_value(l.var()) != l.negative();
            EXPECT_TRUE(any);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, random_3sat,
                         ::testing::Range<uint64_t>(1, 25));

TEST(cnf_encoding, xag_evaluation_consistency)
{
    // Encode a small XAG, force its inputs, and check the PO literal agrees
    // with simulation for every input pattern.
    xag net;
    const auto a = net.create_pi();
    const auto b = net.create_pi();
    const auto c = net.create_pi();
    net.create_po(net.create_xor(net.create_and(a, !b), c));
    const auto tt = simulate(net)[0];

    for (uint32_t m = 0; m < 8; ++m) {
        solver s;
        const auto enc = encode(s, net);
        for (uint32_t i = 0; i < 3; ++i)
            s.add_clause({((m >> i) & 1) ? enc.pi_literals[i]
                                         : ~enc.pi_literals[i]});
        // Assert PO equals the simulated value; must stay satisfiable.
        s.add_clause({tt.get_bit(m) ? enc.po_literals[0]
                                    : ~enc.po_literals[0]});
        EXPECT_EQ(s.solve(), solve_result::satisfiable) << "pattern " << m;

        solver s2;
        const auto enc2 = encode(s2, net);
        for (uint32_t i = 0; i < 3; ++i)
            s2.add_clause({((m >> i) & 1) ? enc2.pi_literals[i]
                                          : ~enc2.pi_literals[i]});
        s2.add_clause({tt.get_bit(m) ? ~enc2.po_literals[0]
                                     : enc2.po_literals[0]});
        EXPECT_EQ(s2.solve(), solve_result::unsatisfiable) << "pattern " << m;
    }
}

TEST(equivalence_check, equal_networks)
{
    xag a;
    {
        const auto x = a.create_pi();
        const auto y = a.create_pi();
        const auto z = a.create_pi();
        a.create_po(a.create_maj_naive(x, y, z));
    }
    xag b;
    {
        const auto x = b.create_pi();
        const auto y = b.create_pi();
        const auto z = b.create_pi();
        b.create_po(b.create_maj(x, y, z)); // 1-AND variant
    }
    const auto report = oracle::check_equivalence(a, b);
    EXPECT_EQ(report.result, equivalence_result::equivalent);
    EXPECT_FALSE(report.counterexample.has_value());
}

TEST(equivalence_check, different_networks_give_counterexample)
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
    const auto report = oracle::check_equivalence(a, b);
    ASSERT_EQ(report.result, equivalence_result::not_equivalent);
    ASSERT_TRUE(report.counterexample.has_value());
    const auto& cex = *report.counterexample;
    // The counterexample must actually distinguish the two networks.
    std::vector<bool> in{cex[0], cex[1]};
    EXPECT_NE(simulate_pattern(a, in), simulate_pattern(b, in));
}

TEST(equivalence_check, interface_mismatch_throws)
{
    xag a;
    a.create_po(a.create_pi());
    xag b;
    b.create_po(b.create_and(b.create_pi(), b.create_pi()));
    EXPECT_THROW(oracle::check_equivalence(a, b), std::invalid_argument);
}

TEST(equivalence_check, multi_output_adders)
{
    // Ripple-carry vs carry-by-majority 4-bit adders.
    const auto build = [](bool cheap_maj) {
        xag net;
        std::vector<signal> x, y;
        for (int i = 0; i < 4; ++i)
            x.push_back(net.create_pi());
        for (int i = 0; i < 4; ++i)
            y.push_back(net.create_pi());
        auto carry = net.get_constant(false);
        for (int i = 0; i < 4; ++i) {
            const auto sum = net.create_xor(net.create_xor(x[i], y[i]), carry);
            carry = cheap_maj ? net.create_maj(x[i], y[i], carry)
                              : net.create_maj_naive(x[i], y[i], carry);
            net.create_po(sum);
        }
        net.create_po(carry);
        return net;
    };
    const auto report = oracle::check_equivalence(build(false), build(true));
    EXPECT_EQ(report.result, equivalence_result::equivalent);
}

// ------------------------------------------- solving under assumptions

// Solving under assumptions must agree with a fresh solver that has the
// same literals as unit clauses — on random CNF, for every seed — and an
// UNSAT answer under assumptions must leave the solver usable.
class assumption_differential : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(assumption_differential, agrees_with_fresh_units)
{
    std::mt19937_64 rng{GetParam()};
    constexpr uint32_t num_vars = 10;
    const uint32_t num_clauses = 14 + rng() % 30;
    std::vector<std::vector<literal>> clauses;
    for (uint32_t c = 0; c < num_clauses; ++c) {
        std::vector<literal> cl;
        for (int k = 0; k < 3; ++k)
            cl.push_back(literal{static_cast<uint32_t>(rng() % num_vars),
                                 (rng() & 1) != 0});
        clauses.push_back(cl);
    }
    std::vector<literal> assumptions;
    for (uint32_t v = 0; v < 3; ++v)
        assumptions.push_back(
            literal{static_cast<uint32_t>(rng() % num_vars), (rng() & 1) != 0});

    solver incremental;
    for (uint32_t v = 0; v < num_vars; ++v)
        (void)incremental.add_variable();
    for (const auto& cl : clauses)
        incremental.add_clause(cl);

    const auto fresh_with_units = [&](std::span<const literal> units) {
        solver s;
        for (uint32_t v = 0; v < num_vars; ++v)
            (void)s.add_variable();
        for (const auto& cl : clauses)
            s.add_clause(cl);
        for (const auto u : units)
            s.add_clause({u});
        return s.solve();
    };

    const auto inc = incremental.solve(assumptions);
    EXPECT_EQ(inc, fresh_with_units(assumptions));

    if (inc == solve_result::satisfiable) {
        // The model must satisfy the assumptions as well as the clauses.
        for (const auto a : assumptions)
            EXPECT_EQ(incremental.model_value(a.var()), !a.negative());
    }

    // The solver must be reusable after an assumption solve: the base
    // CNF alone must still solve to its assumption-free answer.
    solver base;
    for (uint32_t v = 0; v < num_vars; ++v)
        (void)base.add_variable();
    for (const auto& cl : clauses)
        base.add_clause(cl);
    EXPECT_EQ(incremental.solve(), base.solve());
}

INSTANTIATE_TEST_SUITE_P(seeds, assumption_differential,
                         ::testing::Range<uint64_t>(100, 124));

// ------------------------------------------------------ incremental CEC

namespace {

xag small_adder(int bits)
{
    xag net;
    std::vector<signal> x, y;
    for (int i = 0; i < bits; ++i)
        x.push_back(net.create_pi());
    for (int i = 0; i < bits; ++i)
        y.push_back(net.create_pi());
    auto carry = net.get_constant(false);
    for (int i = 0; i < bits; ++i) {
        net.create_po(net.create_xor(net.create_xor(x[i], y[i]), carry));
        carry = net.create_maj(x[i], y[i], carry);
    }
    net.create_po(carry);
    return net;
}

/// Same function, different structure: sum bits via double negation of
/// one xor leg, carries via the naive majority expansion.
xag small_adder_variant(int bits)
{
    xag net;
    std::vector<signal> x, y;
    for (int i = 0; i < bits; ++i)
        x.push_back(net.create_pi());
    for (int i = 0; i < bits; ++i)
        y.push_back(net.create_pi());
    auto carry = net.get_constant(false);
    for (int i = 0; i < bits; ++i) {
        net.create_po(!net.create_xor(net.create_xor(x[i], y[i]), !carry));
        carry = net.create_maj_naive(x[i], y[i], carry);
    }
    net.create_po(carry);
    return net;
}

/// Same function again, with every XOR spelled as ANDs and every carry as
/// the naive majority: its gates do not strash onto `small_adder`'s
/// encoding until the sweep merges their fanins.
/// Bit i of `twist` selects the second of two AND/OR forms of that bit's
/// sum XORs, so different twists give structurally different candidates.
xag small_adder_and_only(int bits, uint32_t twist = 0)
{
    xag net;
    int bit = 0;
    const auto xor_of = [&](signal a, signal b) {
        if ((twist >> bit) & 1)
            return net.create_and(net.create_or(a, b),
                                  !net.create_and(a, b));
        return net.create_or(net.create_and(a, !b), net.create_and(!a, b));
    };
    std::vector<signal> x, y;
    for (int i = 0; i < bits; ++i)
        x.push_back(net.create_pi());
    for (int i = 0; i < bits; ++i)
        y.push_back(net.create_pi());
    auto carry = net.get_constant(false);
    for (; bit < bits; ++bit) {
        net.create_po(xor_of(xor_of(x[bit], y[bit]), carry));
        carry = net.create_maj_naive(x[bit], y[bit], carry);
    }
    net.create_po(carry);
    return net;
}

/// Conflicts of every per-output record so far: the output solves' share
/// of a fresh verifier's first check.
uint64_t output_conflicts(const incremental_cec& cec)
{
    uint64_t sum = 0;
    for (const auto& r : cec.records())
        sum += r.sat_conflicts;
    return sum;
}

} // namespace

TEST(incremental_cec_check, identical_candidate_strashes_without_conflicts)
{
    const auto golden = small_adder(8);
    const auto candidate = small_adder(8);
    incremental_cec cec{golden};
    const auto report = cec.check(candidate);
    EXPECT_EQ(report.result, equivalence_result::equivalent);
    // Every gate takes its golden twin's literal: nothing to sweep, and
    // every output is the golden output itself.
    EXPECT_EQ(report.sweep.strash_hits, golden.num_gates());
    EXPECT_EQ(report.sweep.pairs_tried, 0u);
    ASSERT_EQ(cec.records().size(), golden.num_pos());
    for (const auto& r : cec.records())
        EXPECT_EQ(r.sat_conflicts, 0u) << "output " << r.index;
    EXPECT_EQ(report.stats.conflicts, 0u);
}

TEST(incremental_cec_check, sweep_merges_restructured_gates)
{
    const auto golden = small_adder(8);
    const auto candidate = small_adder_and_only(8);
    incremental_cec cec{golden};
    const auto report = cec.check(candidate);
    EXPECT_EQ(report.result, equivalence_result::equivalent);
    EXPECT_GT(report.sweep.merged, 0u);
    EXPECT_EQ(report.sweep.refuted + report.sweep.merged,
              report.sweep.pairs_tried);
    // The sweep's and the output solves' conflicts are the solver's total.
    EXPECT_EQ(report.sweep.conflicts + output_conflicts(cec),
              report.stats.conflicts);
}

TEST(incremental_cec_check, refutes_a_deep_minterm_the_patterns_miss)
{
    // out = ((t ^ u) & x25) ^ (x26 & x27) with t the AND of x0..x23 and u
    // an XOR of x24..x27; the mutant's t drops x23, which changes t on the
    // single minterm x0..x22 = 1, x23 = 0.  No fixed random pattern hits
    // it (2^-23 each), so every simulation-matched pair on the way up is
    // a near-miss the sweep must refute rather than merge.
    const auto build = [](uint32_t and_width) {
        xag net;
        std::vector<signal> x;
        for (int i = 0; i < 28; ++i)
            x.push_back(net.create_pi());
        std::vector<signal> level{x.begin(), x.begin() + and_width};
        while (level.size() > 1) {
            std::vector<signal> next;
            for (size_t i = 0; i + 1 < level.size(); i += 2)
                next.push_back(net.create_and(level[i], level[i + 1]));
            if (level.size() % 2 != 0)
                next.push_back(level.back());
            level = std::move(next);
        }
        auto u = x[24];
        for (int i = 25; i < 28; ++i)
            u = net.create_xor(u, x[i]);
        const auto t = level[0];
        net.create_po(net.create_xor(net.create_and(net.create_xor(t, u), x[25]),
                                     net.create_and(x[26], x[27])));
        net.create_po(u); // an untouched output that strashes
        return net;
    };
    const auto golden = build(24);
    const auto mutant = build(23);

    incremental_cec cec{golden};
    const auto report = cec.check(mutant);
    ASSERT_EQ(report.result, equivalence_result::not_equivalent);
    EXPECT_GE(report.sweep.refuted, 1u);
    EXPECT_EQ(report.sweep.merged, 0u);
    ASSERT_TRUE(report.counterexample.has_value());
    EXPECT_NE(simulate_pattern(mutant, *report.counterexample),
              simulate_pattern(golden, *report.counterexample));
    EXPECT_EQ(oracle::check_equivalence(mutant, golden).result,
              equivalence_result::not_equivalent);
}

TEST(incremental_cec_check, random_mutation_differential)
{
    // Random XAGs against restructured, sometimes mutated copies: the
    // strashed and swept verdict must match the cold miter's, and a
    // refutation must replay as a real difference.  Most mutations touch
    // a gate only where a 12-literal cube holds — 2^-12 of the inputs, so
    // the fixed patterns usually miss it and the sweep has to tell the
    // near-miss pair apart by SAT — and the cube is XORed in, ORed in or
    // masked out, so a one-sided proof would merge some of them.
    int refuted = 0, proved = 0;
    uint64_t sweep_refuted = 0;
    for (uint64_t seed = 1; seed <= 60; ++seed) {
        std::mt19937_64 rng{seed};
        const auto pick = [&](uint64_t n) { return rng() % n; };

        const uint32_t num_pis = 16 + static_cast<uint32_t>(pick(8));
        struct gate {
            bool is_and;
            uint32_t a, b; ///< indices into the signal list
            bool ca, cb;
        };
        std::vector<gate> gates;
        for (uint32_t g = 0; g < 48; ++g) {
            // Fanins lean on recent gates so the outputs' cones are deep.
            const auto n = num_pis + g;
            const auto fanin = [&] {
                return static_cast<uint32_t>(
                    pick(2) == 0 || g < 4 ? pick(n) : n - 1 - pick(4));
            };
            gates.push_back({pick(2) == 0, fanin(), fanin(), pick(2) == 0,
                             pick(2) == 0});
        }
        const auto mutation = pick(5); // 0: none, 1: flip, 2-4: cube
        const auto mutated = static_cast<uint32_t>(pick(gates.size()));
        std::vector<std::pair<uint32_t, bool>> cube;
        for (int i = 0; i < 12; ++i)
            cube.emplace_back(static_cast<uint32_t>(pick(num_pis)),
                              pick(2) == 0);

        // `restructure`: XORs spelled as ANDs half of the time.
        const auto build = [&](bool restructure, bool with_mutation) {
            std::mt19937_64 shape_rng{seed * 7919};
            xag net;
            std::vector<signal> sig;
            for (uint32_t i = 0; i < num_pis; ++i)
                sig.push_back(net.create_pi());
            for (uint32_t g = 0; g < gates.size(); ++g) {
                auto gt = gates[g];
                const bool here = with_mutation && g == mutated;
                if (here && mutation == 1)
                    gt.ca = !gt.ca;
                const auto a = sig[gt.a] ^ gt.ca;
                const auto b = sig[gt.b] ^ gt.cb;
                signal y;
                if (gt.is_and)
                    y = net.create_and(a, b);
                else if (restructure && shape_rng() % 2 == 0)
                    y = net.create_or(net.create_and(a, !b),
                                      net.create_and(!a, b));
                else
                    y = net.create_xor(a, b);
                if (here && mutation >= 2) {
                    auto m = net.get_constant(true);
                    for (const auto& [pi, c] : cube)
                        m = net.create_and(m, sig[pi] ^ c);
                    y = mutation == 2   ? net.create_xor(y, m)
                        : mutation == 3 ? net.create_or(y, m)
                                        : net.create_and(y, !m);
                }
                sig.push_back(y);
            }
            for (size_t i = sig.size() - 4; i < sig.size(); ++i)
                net.create_po(sig[i]);
            return net;
        };
        const auto golden = build(false, false);
        const auto candidate = build(true, mutation != 0);

        incremental_cec cec{golden};
        const auto warm = cec.check(candidate);
        const auto cold = oracle::check_equivalence(candidate, golden);
        ASSERT_EQ(warm.result, cold.result) << "seed " << seed;
        EXPECT_EQ(warm.sweep.conflicts + output_conflicts(cec),
                  warm.stats.conflicts)
            << "seed " << seed;
        sweep_refuted += warm.sweep.refuted;
        if (warm.result == equivalence_result::not_equivalent) {
            ++refuted;
            ASSERT_TRUE(warm.counterexample.has_value());
            EXPECT_NE(simulate_pattern(candidate, *warm.counterexample),
                      simulate_pattern(golden, *warm.counterexample))
                << "seed " << seed;
        } else {
            ++proved;
        }
        // The verifier stays sound for the next candidate: the unmutated
        // restructured copy always proves.
        EXPECT_EQ(cec.check(build(true, false)).result,
                  equivalence_result::equivalent)
            << "seed " << seed;
    }
    // Both verdicts are exercised, and so are the sweep's refutations.
    EXPECT_GE(refuted, 10);
    EXPECT_GE(proved, 10);
    EXPECT_GE(sweep_refuted, 10u);
}

TEST(incremental_cec_check, differential_against_cold_oracle)
{
    // Every check of a sequence on one verifier must agree with the cold
    // oracle: an equivalent variant, the same again, the golden network
    // itself, then (on a smaller adder) 16 structurally distinct AND-only
    // spellings, none of which strashes onto the golden encoding.
    const auto check_all = [](const xag& golden,
                              const std::vector<xag>& candidates) {
        incremental_cec cec{golden};
        for (size_t i = 0; i < candidates.size(); ++i) {
            const auto warm = cec.check(candidates[i]);
            const auto cold = oracle::check_equivalence(candidates[i], golden);
            EXPECT_EQ(warm.result, cold.result) << "check " << i;
            EXPECT_EQ(warm.result, equivalence_result::equivalent)
                << "check " << i;
        }
        // One record per output per check.
        EXPECT_EQ(cec.records().size(),
                  candidates.size() * golden.num_pos());
    };
    check_all(small_adder(6),
              {small_adder_variant(6), small_adder_variant(6), small_adder(6)});
    std::vector<xag> twists;
    for (uint32_t i = 0; i < 16; ++i)
        twists.push_back(small_adder_and_only(4, i));
    check_all(small_adder(4), twists);
}

TEST(incremental_cec_check, repeated_check_is_one_shot)
{
    // Each check decides its pair on its own solver: checking a candidate
    // again, with a different candidate in between, repeats the first
    // check exactly — verdict, sweep, conflicts and per-output records.
    const auto golden = small_adder(6);
    const auto candidate = small_adder_and_only(6);
    incremental_cec cec{golden};
    const auto first = cec.check(candidate);
    const std::vector<verification_record> first_records = cec.records();
    ASSERT_EQ(cec.check(small_adder_variant(6)).result,
              equivalence_result::equivalent);
    const auto mark = cec.records().size();
    const auto again = cec.check(candidate);

    EXPECT_EQ(first.result, equivalence_result::equivalent);
    EXPECT_GT(first.stats.conflicts, 0u);
    EXPECT_EQ(again.result, first.result);
    EXPECT_EQ(again.stats.conflicts, first.stats.conflicts);
    EXPECT_EQ(again.sweep.strash_hits, first.sweep.strash_hits);
    EXPECT_EQ(again.sweep.pairs_tried, first.sweep.pairs_tried);
    EXPECT_EQ(again.sweep.merged, first.sweep.merged);
    EXPECT_EQ(again.sweep.refuted, first.sweep.refuted);
    EXPECT_EQ(again.sweep.conflicts, first.sweep.conflicts);
    ASSERT_EQ(cec.records().size() - mark, first_records.size());
    for (size_t i = 0; i < first_records.size(); ++i) {
        const auto& a = cec.records()[mark + i];
        EXPECT_EQ(a.index, first_records[i].index) << "record " << i;
        EXPECT_EQ(a.sat_conflicts, first_records[i].sat_conflicts)
            << "record " << i;
        EXPECT_EQ(a.warm_start, first_records[i].warm_start)
            << "record " << i;
    }
}

TEST(incremental_cec_check, refutes_after_warm_equivalent_checks)
{
    const auto golden = small_adder(5);
    const auto equivalent = small_adder_variant(5);

    // Same interface, last output complemented: not equivalent.
    xag broken = small_adder_variant(5);
    {
        xag net;
        std::vector<signal> x, y;
        for (int i = 0; i < 5; ++i)
            x.push_back(net.create_pi());
        for (int i = 0; i < 5; ++i)
            y.push_back(net.create_pi());
        auto carry = net.get_constant(false);
        for (int i = 0; i < 5; ++i) {
            net.create_po(
                net.create_xor(net.create_xor(x[i], y[i]), carry));
            carry = net.create_maj(x[i], y[i], carry);
        }
        net.create_po(!carry); // the lie
        broken = std::move(net);
    }

    incremental_cec cec{golden};
    EXPECT_EQ(cec.check(equivalent).result, equivalence_result::equivalent);
    EXPECT_EQ(cec.check(equivalent).result, equivalence_result::equivalent);

    const auto report = cec.check(broken);
    ASSERT_EQ(report.result, equivalence_result::not_equivalent);
    ASSERT_TRUE(report.counterexample.has_value());
    // The counterexample must actually distinguish the networks.
    EXPECT_NE(simulate_pattern(broken, *report.counterexample),
              simulate_pattern(golden, *report.counterexample));

    // And the verifier is not poisoned: the good candidate still passes.
    EXPECT_EQ(cec.check(equivalent).result, equivalence_result::equivalent);
}

TEST(incremental_cec_check, undecided_under_budget)
{
    const auto golden = small_adder(8);
    const auto candidate = small_adder_variant(8);
    incremental_cec cec{golden};
    // A one-conflict total budget cannot finish 9 output proofs.
    const auto report = cec.check(candidate, 1);
    EXPECT_EQ(report.result, equivalence_result::undecided);
    // With the budget lifted the same verifier completes.
    EXPECT_EQ(cec.check(candidate).result, equivalence_result::equivalent);
}

TEST(incremental_cec_check, stopped_token_is_undecided_without_counterexample)
{
    const auto golden = small_adder(5);
    // Same interface, first output complemented: a finished check would
    // refute it with a counterexample.
    xag broken;
    {
        std::vector<signal> x, y;
        for (int i = 0; i < 5; ++i)
            x.push_back(broken.create_pi());
        for (int i = 0; i < 5; ++i)
            y.push_back(broken.create_pi());
        auto carry = broken.get_constant(false);
        for (int i = 0; i < 5; ++i) {
            const auto sum = broken.create_xor(
                broken.create_xor(x[i], y[i]), carry);
            broken.create_po(i == 0 ? !sum : sum);
            carry = broken.create_maj(x[i], y[i], carry);
        }
        broken.create_po(carry);
    }

    cancellation_source source;
    source.request();
    incremental_cec cec{golden};
    const auto stopped = cec.check(broken, 0, source.token());
    EXPECT_EQ(stopped.result, equivalence_result::undecided);
    EXPECT_FALSE(stopped.counterexample.has_value());

    // The stop does not poison the verifier: an unstopped check refutes.
    const auto report = cec.check(broken);
    EXPECT_EQ(report.result, equivalence_result::not_equivalent);
    EXPECT_TRUE(report.counterexample.has_value());
}

// ------------------------------------ solver-vs-legacy-oracle differential

namespace {

/// Random CNF with mixed clause lengths (units through 5-literal) so the
/// binary watcher fast path, the arena long-clause path, and unit
/// propagation at level 0 are all exercised.
std::vector<std::vector<literal>> random_cnf(std::mt19937_64& rng,
                                             uint32_t num_vars,
                                             uint32_t num_clauses)
{
    std::vector<std::vector<literal>> clauses;
    for (uint32_t c = 0; c < num_clauses; ++c) {
        const uint32_t len = (rng() % 10 == 0) ? 1 : 2 + rng() % 4;
        std::vector<literal> cl;
        for (uint32_t k = 0; k < len; ++k)
            cl.push_back(literal{static_cast<uint32_t>(rng() % num_vars),
                                 (rng() & 1) != 0});
        clauses.push_back(cl);
    }
    return clauses;
}

template <class Solver>
void expect_model_satisfies(const Solver& s,
                            const std::vector<std::vector<literal>>& clauses)
{
    for (const auto& cl : clauses) {
        bool any = false;
        for (const auto l : cl)
            any |= s.model_value(l.var()) != l.negative();
        EXPECT_TRUE(any) << "model violates a clause";
    }
}

/// `s` with `num_vars` variables and `clauses`.
template <class Solver>
Solver build(Solver s, uint32_t num_vars,
             const std::vector<std::vector<literal>>& clauses)
{
    for (uint32_t v = 0; v < num_vars; ++v)
        (void)s.add_variable();
    for (const auto& cl : clauses)
        s.add_clause(cl);
    return s;
}

} // namespace

// The solver must be verdict-identical to the legacy oracle on random
// CNF across multi-call sequences with assumptions: same answers at every
// step, and models that satisfy clauses and assumptions.
class engine_differential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(engine_differential, assumption_sequences_agree_with_legacy)
{
    std::mt19937_64 rng{GetParam()};
    const uint32_t num_vars = 12 + rng() % 16;
    const uint32_t num_clauses = num_vars * 3 + rng() % (num_vars * 3);
    const auto clauses = random_cnf(rng, num_vars, num_clauses);

    auto core = build(solver{}, num_vars, clauses);
    auto legacy = build(oracle::legacy_solver{}, num_vars, clauses);

    // Three rounds: assumption-free, then two random assumption sets —
    // exercising learnt retention between calls on both solvers.
    for (int round = 0; round < 3; ++round) {
        std::vector<literal> assumptions;
        if (round > 0)
            for (uint32_t k = 0; k < 1 + rng() % 4; ++k)
                assumptions.push_back(
                    literal{static_cast<uint32_t>(rng() % num_vars),
                            (rng() & 1) != 0});

        const auto vm = core.solve(assumptions);
        const auto vl = legacy.solve(assumptions);
        EXPECT_EQ(vm, vl) << "round " << round;

        if (vm == solve_result::satisfiable) {
            expect_model_satisfies(core, clauses);
            expect_model_satisfies(legacy, clauses);
            for (const auto a : assumptions)
                EXPECT_EQ(core.model_value(a.var()), !a.negative());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, engine_differential,
                         ::testing::Range<uint64_t>(1000, 1075));

// Preprocessing (subsumption + bounded variable elimination) must not
// change any verdict, and reconstructed models must satisfy the ORIGINAL
// clauses — including those of eliminated variables.
class preprocess_differential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(preprocess_differential, verdicts_and_models_agree_with_legacy)
{
    std::mt19937_64 rng{GetParam()};
    const uint32_t num_vars = 15 + rng() % 25;
    // A sub-critical ratio leaves many rarely-occurring variables, so
    // bounded elimination actually fires on most seeds.
    const uint32_t num_clauses = num_vars * 2 + rng() % (num_vars * 2);
    const auto clauses = random_cnf(rng, num_vars, num_clauses);

    auto core = build(solver{{.preprocess = true}}, num_vars, clauses);
    auto legacy = build(oracle::legacy_solver{}, num_vars, clauses);

    const auto vl = legacy.solve();
    // Two assumption-free solves: the second runs on the preprocessed DB.
    for (int round = 0; round < 2; ++round) {
        const auto vm = core.solve();
        EXPECT_EQ(vm, vl) << "round " << round;
        if (vm == solve_result::satisfiable)
            expect_model_satisfies(core, clauses);
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, preprocess_differential,
                         ::testing::Range<uint64_t>(2000, 2050));

// ------------------------------------------- preprocessing unit tests

TEST(preprocessing, variable_elimination_reconstructs_models)
{
    // x (var 2) occurs in exactly two clauses, (x|a) and (~x|b): bounded
    // elimination resolves them to (a|b) and drops x from the solver.  With
    // (~a) forcing a false, the reconstructed model must set x true to
    // satisfy the original clause (x|a), and b true via (~x|b).
    solver s{sat_params{.preprocess = true}};
    for (int v = 0; v < 3; ++v)
        (void)s.add_variable();
    const std::vector<std::vector<literal>> clauses = {
        {pos(2), pos(0)}, {neg(2), pos(1)}, {neg(0)}};
    for (const auto& cl : clauses)
        s.add_clause(cl);
    ASSERT_EQ(s.solve(), solve_result::satisfiable);
    expect_model_satisfies(s, clauses);
    EXPECT_FALSE(s.model_value(0));
    EXPECT_TRUE(s.model_value(2));
    EXPECT_TRUE(s.model_value(1));
}

TEST(preprocessing, pure_literal_elimination_reconstructs_models)
{
    // p (var 2) occurs only positively: it is eliminated as pure, and the
    // reconstruction must still satisfy p's clauses in the reported model.
    solver s{sat_params{.preprocess = true}};
    for (int v = 0; v < 3; ++v)
        (void)s.add_variable();
    const std::vector<std::vector<literal>> clauses = {
        {pos(2), pos(0)}, {pos(2), pos(1)}, {neg(0), neg(1)}};
    for (const auto& cl : clauses)
        s.add_clause(cl);
    ASSERT_EQ(s.solve(), solve_result::satisfiable);
    expect_model_satisfies(s, clauses);
}

TEST(preprocessing, chained_elimination_reconstructs_in_reverse_order)
{
    // A chain x0 -> x1 -> ... -> x5 where each link is two implications;
    // every interior variable is eliminable, and reconstruction must
    // replay the eliminations in reverse to satisfy the original chain.
    constexpr uint32_t n = 6;
    solver s{sat_params{.preprocess = true}};
    for (uint32_t v = 0; v < n; ++v)
        (void)s.add_variable();
    std::vector<std::vector<literal>> clauses;
    for (uint32_t v = 0; v + 1 < n; ++v) {
        clauses.push_back({neg(v), pos(v + 1)}); // x_v -> x_{v+1}
        clauses.push_back({pos(v), neg(v + 1)}); // x_{v+1} -> x_v
    }
    clauses.push_back({pos(0)});
    for (const auto& cl : clauses)
        s.add_clause(cl);
    ASSERT_EQ(s.solve(), solve_result::satisfiable);
    expect_model_satisfies(s, clauses);
    for (uint32_t v = 0; v < n; ++v)
        EXPECT_TRUE(s.model_value(v)) << "x" << v;
}

TEST(preprocessing, subsumption_preserves_unsat_cores)
{
    // The full binomial CNF over three variables is UNSAT; subsumption and
    // self-subsuming resolution shrink it aggressively, and the verdict
    // must survive the rewrite.
    solver s{sat_params{.preprocess = true}};
    for (int v = 0; v < 3; ++v)
        (void)s.add_variable();
    for (uint32_t m = 0; m < 8; ++m)
        s.add_clause({literal{0, (m & 1) != 0}, literal{1, (m & 2) != 0},
                      literal{2, (m & 4) != 0}});
    EXPECT_EQ(s.solve(), solve_result::unsatisfiable);
}

TEST(preprocessing, eliminated_variable_contact_throws)
{
    // Var 0 (x) occurs once per polarity while every other variable is
    // mixed-polarity, so bounded elimination resolves x away.  Assuming
    // x or adding a clause over it afterwards would be unsound — the
    // solver must refuse loudly rather than answer.
    solver s{sat_params{.preprocess = true}};
    for (int v = 0; v < 4; ++v)
        (void)s.add_variable();
    s.add_clause({pos(0), pos(1)}); // x | a
    s.add_clause({neg(0), pos(2)}); // ~x | b
    s.add_clause({pos(1), neg(3)});
    s.add_clause({neg(1), pos(3)});
    s.add_clause({pos(2), pos(3)});
    s.add_clause({neg(2), neg(3)});
    ASSERT_EQ(s.solve(), solve_result::satisfiable);
    const std::vector<literal> assume_eliminated{pos(0)};
    EXPECT_THROW((void)s.solve(assume_eliminated), std::logic_error);
    EXPECT_THROW(s.add_clause({neg(0), neg(1)}), std::logic_error);
}

TEST(preprocessing, first_assumption_solve_disables_preprocessing)
{
    // Warm incremental users solve under assumptions from the start; the
    // solver must notice and never eliminate variables, so assumptions on
    // any variable keep working across the whole sequence.
    solver s{sat_params{.preprocess = true}};
    for (int v = 0; v < 3; ++v)
        (void)s.add_variable();
    s.add_clause({pos(2), pos(0)});
    s.add_clause({neg(2), pos(1)});
    const std::vector<literal> a1{pos(2)};
    const std::vector<literal> a2{neg(2), pos(0)};
    const std::vector<literal> a3{pos(2), neg(1)};
    EXPECT_EQ(s.solve(a1), solve_result::satisfiable);
    EXPECT_TRUE(s.model_value(1));
    EXPECT_EQ(s.solve(a2), solve_result::satisfiable);
    EXPECT_EQ(s.solve(), solve_result::satisfiable);
    EXPECT_EQ(s.solve(a3), solve_result::unsatisfiable);
}

} // namespace
} // namespace mcx::sat
