#include "exact/exact_mc.h"
#include "exact/exact_mc_search.h"
#include "exact/heuristic_mc.h"
#include "oracle/legacy_solver.h"
#include "tt/operations.h"
#include "xag/simulate.h"

#include <gtest/gtest.h>

#include <random>

namespace mcx {
namespace {

truth_table random_tt(uint32_t num_vars, std::mt19937_64& rng)
{
    truth_table t{num_vars};
    for (auto& w : t.words())
        w = rng();
    if (num_vars < 6)
        t.words()[0] &= tt_mask(num_vars);
    return t;
}

TEST(mc_lower_bound_fn, degree_based)
{
    const auto a = truth_table::projection(3, 0);
    const auto b = truth_table::projection(3, 1);
    const auto c = truth_table::projection(3, 2);
    EXPECT_EQ(mc_lower_bound(a ^ b ^ c), 0u);
    EXPECT_EQ(mc_lower_bound(a & b), 1u);
    EXPECT_EQ(mc_lower_bound(a & b & c), 2u);
}

TEST(exact_mc, affine_functions_cost_zero)
{
    const auto a = truth_table::projection(4, 0);
    const auto d = truth_table::projection(4, 3);
    const auto r = exact_mc_synthesis(~(a ^ d));
    ASSERT_TRUE(r.success);
    EXPECT_TRUE(r.optimal);
    EXPECT_EQ(r.num_ands, 0u);
    EXPECT_EQ(r.circuit.num_ands(), 0u);
    EXPECT_EQ(simulate(r.circuit)[0], ~(a ^ d));
}

TEST(exact_mc, known_small_values)
{
    const auto a = truth_table::projection(3, 0);
    const auto b = truth_table::projection(3, 1);
    const auto c = truth_table::projection(3, 2);

    // AND of two variables: MC = 1.
    const auto r_and = exact_mc_synthesis(a & b);
    ASSERT_TRUE(r_and.success);
    EXPECT_TRUE(r_and.optimal);
    EXPECT_EQ(r_and.num_ands, 1u);

    // Majority of three (paper Example 3.1): MC = 1.
    const auto maj = (a & b) | (a & c) | (b & c);
    const auto r_maj = exact_mc_synthesis(maj);
    ASSERT_TRUE(r_maj.success);
    EXPECT_TRUE(r_maj.optimal);
    EXPECT_EQ(r_maj.num_ands, 1u);

    // MUX <c ? a : b>: MC = 1.
    const auto mux = (c & a) | (~c & b);
    const auto r_mux = exact_mc_synthesis(mux);
    ASSERT_TRUE(r_mux.success);
    EXPECT_EQ(r_mux.num_ands, 1u);

    // Product of three variables: MC = 2.
    const auto r_and3 = exact_mc_synthesis(a & b & c);
    ASSERT_TRUE(r_and3.success);
    EXPECT_TRUE(r_and3.optimal);
    EXPECT_EQ(r_and3.num_ands, 2u);
}

TEST(exact_mc, product_of_four_needs_three)
{
    truth_table f = truth_table::constant(4, true);
    for (uint32_t i = 0; i < 4; ++i)
        f &= truth_table::projection(4, i);
    const auto r = exact_mc_synthesis(f);
    ASSERT_TRUE(r.success);
    EXPECT_TRUE(r.optimal);
    EXPECT_EQ(r.num_ands, 3u);
}

TEST(exact_mc, all_4var_functions_need_at_most_three)
{
    // Turan-Peralta (paper ref [4]): MC of every 4-variable function <= 3.
    // The same search on the reference legacy solver must certify the same
    // optimum: the database's AND counts, and so every flow's, do not
    // depend on the solver (the synthesized structures may differ —
    // optimal models are not unique).
    std::mt19937_64 rng{31};
    for (int rep = 0; rep < 10; ++rep) {
        const auto f = random_tt(4, rng);
        const auto r = exact_mc_synthesis(f);
        ASSERT_TRUE(r.success);
        EXPECT_LE(r.num_ands, 3u);
        EXPECT_EQ(simulate(r.circuit)[0], f);
        const auto legacy = detail::exact_mc_search(
            f, {}, [] { return oracle::legacy_solver{}; });
        ASSERT_TRUE(legacy.success);
        EXPECT_EQ(legacy.num_ands, r.num_ands) << "rep " << rep;
        EXPECT_EQ(legacy.optimal, r.optimal) << "rep " << rep;
        EXPECT_EQ(simulate(legacy.circuit)[0], f);
    }
}

TEST(exact_mc, five_var_product_is_four)
{
    // Product of five variables: MC = 4 = degree bound, so the search hits
    // the optimum with a single satisfiable step.
    truth_table f = truth_table::constant(5, true);
    for (uint32_t i = 0; i < 5; ++i)
        f &= truth_table::projection(5, i);
    const auto r = exact_mc_synthesis(f, {.max_ands = 5,
                                          .conflict_budget = 500'000});
    ASSERT_TRUE(r.success);
    EXPECT_TRUE(r.optimal);
    EXPECT_EQ(r.num_ands, 4u);
    EXPECT_EQ(simulate(r.circuit)[0], f);
}

TEST(exact_mc, budget_exhaustion_is_reported)
{
    // A tiny conflict budget cannot decide a nontrivial 5-variable search.
    std::mt19937_64 rng{32};
    const auto f = random_tt(5, rng);
    const auto r =
        exact_mc_synthesis(f, {.max_ands = 2, .conflict_budget = 10});
    EXPECT_FALSE(r.success);
}

TEST(exact_mc, rejects_oversized_input)
{
    EXPECT_THROW(exact_mc_synthesis(truth_table{7}), std::invalid_argument);
}

TEST(heuristic_mc, affine_costs_zero)
{
    truth_table parity{5};
    for (uint32_t i = 0; i < 5; ++i)
        parity ^= truth_table::projection(5, i);
    EXPECT_EQ(heuristic_mc_bound(parity), 0u);
    const auto net = heuristic_mc_circuit(parity);
    EXPECT_EQ(net.num_ands(), 0u);
    EXPECT_EQ(simulate(net)[0], parity);
}

TEST(heuristic_mc, upper_bounds_exact)
{
    std::mt19937_64 rng{33};
    for (uint32_t n : {3u, 4u}) {
        for (int rep = 0; rep < 8; ++rep) {
            const auto f = random_tt(n, rng);
            const auto bound = heuristic_mc_bound(f);
            const auto exact = exact_mc_synthesis(f);
            ASSERT_TRUE(exact.success);
            EXPECT_GE(bound, exact.num_ands);
            const auto net = heuristic_mc_circuit(f);
            EXPECT_LE(net.num_ands(), bound);
            EXPECT_EQ(simulate(net)[0], f);
        }
    }
}

TEST(heuristic_mc, six_var_functions_build)
{
    std::mt19937_64 rng{34};
    for (int rep = 0; rep < 5; ++rep) {
        const auto f = random_tt(6, rng);
        const auto net = heuristic_mc_circuit(f);
        EXPECT_EQ(simulate(net)[0], f);
        EXPECT_LE(net.num_ands(), heuristic_mc_bound(f));
        EXPECT_GE(net.num_ands(), mc_lower_bound(f));
    }
}

} // namespace
} // namespace mcx
