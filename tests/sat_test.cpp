#include "core/fault_inject.h"
#include "obs/metrics.h"
#include "oracle/legacy_solver.h"
#include "sat/cnf.h"
#include "sat/equivalence.h"
#include "sat/solver.h"
#include "xag/simulate.h"
#include "xag/xag.h"

#include <gtest/gtest.h>

#include <algorithm>
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
    const auto report = check_equivalence(a, b);
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
    const auto report = check_equivalence(a, b);
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
    EXPECT_THROW(check_equivalence(a, b), std::invalid_argument);
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
    const auto report = check_equivalence(build(false), build(true));
    EXPECT_EQ(report.result, equivalence_result::equivalent);
}

// ------------------------------------------- solving under assumptions

// Solving under assumptions must agree with a fresh solver that has the
// same literals as unit clauses — on random CNF, for every seed — and an
// UNSAT answer must come with a failed-assumption subset that is itself
// already unsatisfiable as units.
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

    if (inc == solve_result::unsatisfiable) {
        const auto& failed = incremental.failed_assumptions();
        for (const auto f : failed) {
            EXPECT_TRUE(std::find(assumptions.begin(), assumptions.end(),
                                  f) != assumptions.end())
                << "failed assumption not among the assumptions";
        }
        EXPECT_EQ(fresh_with_units(failed), solve_result::unsatisfiable)
            << "failed-assumption subset is not a reason for UNSAT";
    } else {
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

// ------------------------------------------------- warm incremental CEC

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

} // namespace

TEST(incremental_cec_check, differential_against_cold_oracle)
{
    const auto golden = small_adder(6);
    const auto equivalent = small_adder_variant(6);

    incremental_cec cec{golden};
    // A sequence of checks — equivalent, equivalent again (session
    // reuse), then a near-miss — must agree with the cold oracle on
    // every single one.
    const xag* candidates[] = {&equivalent, &equivalent, &golden};
    for (const auto* c : candidates) {
        const auto warm = cec.check(*c);
        const auto cold = check_equivalence(*c, golden);
        EXPECT_EQ(warm.result, cold.result);
        EXPECT_EQ(warm.result, equivalence_result::equivalent);
    }
    EXPECT_GE(cec.session_reuses(), 1u);
    // One record per output per check.
    EXPECT_EQ(cec.records().size(),
              3u * static_cast<size_t>(golden.num_pos()));
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

TEST(incremental_cec_check, gc_rebuild_preserves_answers)
{
    const auto golden = small_adder(4);
    incremental_cec cec{golden, 2}; // aggressive GC: rebuild every check
    for (int i = 0; i < 6; ++i) {
        auto candidate = small_adder_variant(4);
        EXPECT_EQ(cec.check(candidate).result,
                  equivalence_result::equivalent)
            << "check " << i;
    }
    EXPECT_GE(cec.rebuilds(), 1u);
}

// ----------------------------------------------- cone verifier (commit)

TEST(cone_verifier_check, equivalent_and_broken_cones)
{
    // net computes po = (a & b) ^ c; replace the AND cone with the
    // equivalent ~(~ab) form, then with a broken one.
    xag net;
    const auto a = net.create_pi();
    const auto b = net.create_pi();
    const auto c = net.create_pi();
    const auto g = net.create_and(a, b);
    net.create_po(net.create_xor(g, c));

    const std::vector<uint32_t> leaves{a.node(), b.node()};
    cone_verifier verifier;

    // x & y == x ^ (x & ~y): an equivalent replacement cone.
    const auto equivalent =
        net.create_xor(a, net.create_and(a, !b));
    EXPECT_EQ(verifier.verify(net, g.node(), equivalent, leaves),
              equivalence_result::equivalent);

    // x | y is not x & y.
    const auto wrong = !net.create_and(!a, !b);
    EXPECT_EQ(verifier.verify(net, g.node(), wrong, leaves),
              equivalence_result::not_equivalent);

    // Warm solver state from the failures must not poison later checks.
    EXPECT_EQ(verifier.verify(net, g.node(), equivalent, leaves),
              equivalence_result::equivalent);
    EXPECT_EQ(verifier.checks(), 3u);
    EXPECT_GE(verifier.warm_starts(), 2u);
    EXPECT_EQ(verifier.records().size(), 3u);
}

TEST(cone_verifier_check, undecided_on_injected_budget_exhaustion)
{
    // Deterministically force solve() to report budget exhaustion: the
    // verifier must surface `undecided`, and the caller contract (commit
    // layer treats undecided as "simulation remains authoritative") makes
    // that a safe degradation.
    xag net;
    const auto a = net.create_pi();
    const auto b = net.create_pi();
    const auto g = net.create_and(a, b);
    net.create_po(g);
    const std::vector<uint32_t> leaves{a.node(), b.node()};

    cone_verifier verifier;
    fault_injection::arm(fault_site::sat_budget, 1);
    const auto res = verifier.verify(net, g.node(),
                                     net.create_xor(a, net.create_and(a, !b)),
                                     leaves);
    fault_injection::disarm_all();
    EXPECT_EQ(res, equivalence_result::undecided);

    // The verifier recovers once the budget pressure is gone.
    EXPECT_EQ(verifier.verify(net, g.node(),
                              net.create_xor(a, net.create_and(a, !b)),
                              leaves),
              equivalence_result::equivalent);
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
// step, models that satisfy clauses and assumptions, and failed-assumption
// subsets that are independently unsatisfiable.
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
        } else if (vm == solve_result::unsatisfiable &&
                   !assumptions.empty()) {
            // The failed subset must come from the assumptions and be a
            // sufficient reason: a fresh legacy solver with the subset as
            // units must still be UNSAT.
            const auto& failed = core.failed_assumptions();
            for (const auto f : failed)
                EXPECT_TRUE(std::find(assumptions.begin(), assumptions.end(),
                                      f) != assumptions.end());
            auto reference =
                build(oracle::legacy_solver{}, num_vars, clauses);
            for (const auto f : failed)
                reference.add_clause({f});
            EXPECT_EQ(reference.solve(), solve_result::unsatisfiable)
                << "core failed-assumption subset is not a reason";
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
