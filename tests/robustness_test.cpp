// Resource governance (src/core/budget.h) and the deterministic fault
// injection harness (src/core/fault_inject.h): cancellation/deadline
// semantics of tokens, honest "undecided" under SAT budgets, database
// builds that are never cached when cancelled, waiters that cannot be
// wedged by a stuck builder, flow-level degradation, and the fault matrix
// — every injected fault, at 1/4 worker threads, must end in a verified
// equivalent network or a clean typed error, never a crash, hang, or
// silently wrong result.
#include "core/budget.h"
#include "core/fault_inject.h"
#include "core/flow.h"
#include "core/pass.h"
#include "core/xor_resynthesis.h"
#include "db/mc_database.h"
#include "db/sharded_store.h"
#include "exact/exact_mc.h"
#include "gen/arithmetic.h"
#include "gen/des.h"
#include "io/bench.h"
#include "sat/solver.h"
#include "spectral/classification.h"
#include "xag/cleanup.h"
#include "xag/simulate.h"
#include "xag/verify.h"
#include "xag/xag.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>

namespace mcx {
namespace {

using namespace std::chrono_literals;

/// Every test starts and ends with all fault sites disarmed, whatever the
/// previous test did.
class robustness : public ::testing::Test {
protected:
    void SetUp() override { fault_injection::disarm_all(); }
    void TearDown() override { fault_injection::disarm_all(); }
};

cancellation_token stopped_token(outcome reason = outcome::cancelled)
{
    static cancellation_source src; // keep state alive for returned tokens
    src.reset();
    src.request(reason);
    return src.token();
}

// ------------------------------------------------------------------ tokens

TEST_F(robustness, default_token_is_inert)
{
    const cancellation_token t;
    EXPECT_FALSE(t.stop_possible());
    EXPECT_FALSE(t.stop_requested());
    EXPECT_EQ(t.stop_reason(), outcome::ok);
}

TEST_F(robustness, source_stops_all_derived_tokens)
{
    cancellation_source src;
    const auto t = src.token();
    const auto nested = t.with_timeout(1e6);
    EXPECT_TRUE(t.stop_possible());
    EXPECT_FALSE(t.stop_requested());
    src.request(outcome::resource_exhausted);
    EXPECT_TRUE(t.stop_requested());
    EXPECT_TRUE(nested.stop_requested());
    EXPECT_EQ(nested.stop_reason(), outcome::resource_exhausted);
    src.reset();
    EXPECT_FALSE(t.stop_requested());
}

TEST_F(robustness, nested_deadline_tightens_only)
{
    const cancellation_token t;
    // An expired deadline stops immediately; re-deriving with a *longer*
    // timeout must not loosen it.
    const auto expired = t.with_timeout(1e-9);
    std::this_thread::sleep_for(2ms);
    EXPECT_TRUE(expired.stop_requested());
    EXPECT_EQ(expired.stop_reason(), outcome::deadline_exceeded);
    const auto still_expired = expired.with_timeout(1e6);
    EXPECT_TRUE(still_expired.stop_requested());
    // Non-positive timeout = ungoverned (no deadline added).
    EXPECT_FALSE(t.with_timeout(0.0).stop_possible());
}

TEST_F(robustness, throw_if_stopped_carries_reason)
{
    EXPECT_NO_THROW(throw_if_stopped({}));
    try {
        throw_if_stopped(stopped_token(outcome::deadline_exceeded));
        FAIL() << "expected cancelled_error";
    } catch (const cancelled_error& e) {
        EXPECT_EQ(e.reason(), outcome::deadline_exceeded);
    }
}

// --------------------------------------------------------- fault injection

TEST_F(robustness, fires_exactly_once_on_nth_hit)
{
    fault_injection::arm(fault_site::db_build, 3);
    EXPECT_NO_THROW(fault_injection::fire(fault_site::db_build));
    EXPECT_NO_THROW(fault_injection::fire(fault_site::db_build));
    EXPECT_THROW(fault_injection::fire(fault_site::db_build),
                 fault_injected_error);
    // One-shot: disarmed after firing; other sites were never armed.
    EXPECT_NO_THROW(fault_injection::fire(fault_site::db_build));
    EXPECT_NO_THROW(fault_injection::fire(fault_site::sat_budget));
    // Hits are counted only while the harness is armed (the disarmed fast
    // path is a single load), so the post-fire call above is not counted.
    EXPECT_EQ(fault_injection::hits(fault_site::db_build), 3u);
}

TEST_F(robustness, schedule_parsing)
{
    fault_injection::configure("db-build@2,sat-budget");
    EXPECT_NO_THROW(fault_injection::fire(fault_site::db_build));
    EXPECT_THROW(fault_injection::fire(fault_site::db_build),
                 fault_injected_error);
    EXPECT_THROW(fault_injection::fire(fault_site::sat_budget),
                 fault_injected_error);
    EXPECT_THROW(fault_injection::configure("no-such-site"),
                 std::invalid_argument);
    EXPECT_THROW(fault_injection::configure("db-build@x"),
                 std::invalid_argument);
    fault_injection::disarm_all();
    // A seeded schedule is deterministic: same seed, same firing hit.
    fault_injection::configure("seed=42,worker-task");
    uint64_t fired_at = 0;
    for (uint64_t i = 1; i <= 16 && fired_at == 0; ++i) {
        try {
            fault_injection::fire(fault_site::worker_task);
        } catch (const fault_injected_error&) {
            fired_at = i;
        }
    }
    ASSERT_NE(fired_at, 0u);
    fault_injection::disarm_all();
    fault_injection::configure("seed=42,worker-task");
    for (uint64_t i = 1; i < fired_at; ++i)
        EXPECT_NO_THROW(fault_injection::fire(fault_site::worker_task));
    EXPECT_THROW(fault_injection::fire(fault_site::worker_task),
                 fault_injected_error);
}

TEST_F(robustness, parse_site_reaches_both_readers)
{
    fault_injection::arm(fault_site::parse);
    std::stringstream good{"INPUT(a)\nOUTPUT(f)\nf = BUFF(a)\n"};
    EXPECT_THROW(read_bench(good), fault_injected_error);
    // Disarmed again (one-shot): the same input now parses.
    good.clear();
    good.seekg(0);
    EXPECT_NO_THROW(read_bench(good));
}

// ------------------------------------------- honest "undecided" under budget

sat::solver pigeonhole_4_into_3()
{
    // 4 pigeons, 3 holes: unsatisfiable, and refuting it takes real search.
    sat::solver s;
    uint32_t var[4][3];
    for (auto& row : var)
        for (auto& v : row)
            v = s.add_variable();
    for (int p = 0; p < 4; ++p)
        s.add_clause({sat::literal{var[p][0], false},
                      sat::literal{var[p][1], false},
                      sat::literal{var[p][2], false}});
    for (int h = 0; h < 3; ++h)
        for (int p = 0; p < 4; ++p)
            for (int q = p + 1; q < 4; ++q)
                s.add_clause({sat::literal{var[p][h], true},
                              sat::literal{var[q][h], true}});
    return s;
}

TEST_F(robustness, solver_budget_yields_undecided_not_unsat)
{
    auto full = pigeonhole_4_into_3();
    EXPECT_EQ(full.solve(), sat::solve_result::unsatisfiable);

    auto budgeted = pigeonhole_4_into_3();
    EXPECT_EQ(budgeted.solve(1), sat::solve_result::undecided);
}

TEST_F(robustness, solver_stopped_token_yields_undecided)
{
    auto s = pigeonhole_4_into_3();
    EXPECT_EQ(s.solve(0, stopped_token()), sat::solve_result::undecided);
    // The same solver finishes honestly once ungoverned.
    EXPECT_EQ(s.solve(), sat::solve_result::unsatisfiable);
}

TEST_F(robustness, sat_budget_fault_is_budget_exhaustion)
{
    fault_injection::arm(fault_site::sat_budget);
    auto s = pigeonhole_4_into_3();
    EXPECT_EQ(s.solve(), sat::solve_result::undecided);
}

TEST_F(robustness, exact_mc_tiny_budget_never_claims_optimal)
{
    // deg = 2 lower-bounds MC at 1, but MC((a&b)^(c&d)) = 2: the k = 1
    // step is genuinely UNSAT, and a 1-conflict budget cannot refute it.
    const auto f = (truth_table::projection(4, 0) &
                    truth_table::projection(4, 1)) ^
                   (truth_table::projection(4, 2) &
                    truth_table::projection(4, 3));
    const auto r = exact_mc_synthesis(f, {.conflict_budget = 1});
    EXPECT_FALSE(r.optimal);
    if (!r.success)
        EXPECT_EQ(r.status, outcome::resource_exhausted);
    // Ungoverned, the search certifies the true optimum.
    const auto exact = exact_mc_synthesis(f);
    ASSERT_TRUE(exact.success);
    EXPECT_TRUE(exact.optimal);
    EXPECT_EQ(exact.num_ands, 2u);
}

TEST_F(robustness, exact_mc_stopped_token_reports_reason)
{
    const auto f = truth_table::projection(4, 0) &
                   truth_table::projection(4, 1);
    const auto r = exact_mc_synthesis(
        f, {.token = stopped_token(outcome::deadline_exceeded)});
    EXPECT_FALSE(r.success);
    EXPECT_FALSE(r.optimal);
    EXPECT_EQ(r.status, outcome::deadline_exceeded);
}

// -------------------------------------------------------- database caching

truth_table nontrivial_representative()
{
    const auto f = (truth_table::projection(4, 0) &
                    truth_table::projection(4, 1)) ^
                   (truth_table::projection(4, 2) &
                    truth_table::projection(4, 3));
    const auto cls = classify_affine(f, {.iteration_limit = 2'000'000});
    EXPECT_TRUE(cls.success);
    return cls.representative;
}

TEST_F(robustness, budget_exhausted_entry_cached_as_heuristic)
{
    // Satellite regression: a timed-out exact synthesis must be cached as
    // a heuristic (non-optimal) entry, never promoted to proven-optimal.
    mc_database db{{.exact_conflict_budget = 1}};
    const auto rep = nontrivial_representative();
    const auto& e = db.lookup_or_build(rep);
    EXPECT_FALSE(e.optimal);
    EXPECT_EQ(simulate(e.circuit)[0], rep);
    EXPECT_EQ(db.heuristic_entries(), 1u);
    EXPECT_EQ(db.exact_entries(), 0u);
}

/// A full-support 6-input representative, x0x1 ^ x2x3 ^ x0x4x5 (MC 3):
/// the shipped table (support <= 5) does not hold it, so a miss runs the
/// exact search.
truth_table full_support_representative()
{
    const auto x = [](uint32_t i) { return truth_table::projection(6, i); };
    const auto f = (x(0) & x(1)) ^ (x(2) & x(3)) ^ (x(0) & x(4) & x(5));
    const auto cls = classify_affine(f, {.iteration_limit = 2'000'000});
    EXPECT_TRUE(cls.success);
    EXPECT_EQ(cls.representative.support().size(), 6u);
    return cls.representative;
}

TEST_F(robustness, cancelled_build_is_not_cached)
{
    mc_database db;
    const auto rep = full_support_representative();
    EXPECT_THROW(db.lookup_or_build(rep, stopped_token()), cancelled_error);
    // Nothing was memoized: the slot is marked failed, no synthesis result
    // was recorded.
    EXPECT_EQ(db.exact_entries() + db.heuristic_entries(), 0u);
    // The next uncancelled lookup takes over the failed slot and builds
    // the real (here: exact and optimal) entry — a second miss, not a hit
    // on a poisoned cache.
    const auto& e = db.lookup_or_build(rep);
    EXPECT_TRUE(e.optimal);
    EXPECT_EQ(simulate(e.circuit)[0], rep);
    EXPECT_EQ(db.misses(), 2u);
}

TEST_F(robustness, table_served_miss_ignores_stopped_token)
{
    // A miss the shipped table serves runs no search, so a stopped token
    // has nothing to interrupt: the table entry is returned and memoized.
    mc_database db;
    const auto rep = classify_affine(truth_table{3, 0xe8}).representative;
    const auto& e = db.lookup_or_build(rep, stopped_token());
    EXPECT_TRUE(e.optimal);
    EXPECT_EQ(simulate(e.circuit)[0], rep);
    EXPECT_EQ(db.misses(), 1u);
    db.lookup_or_build(rep);
    EXPECT_EQ(db.hits(), 1u);
}

TEST_F(robustness, db_build_fault_propagates_and_next_lookup_recovers)
{
    fault_injection::arm(fault_site::db_build);
    mc_database db;
    const auto rep = nontrivial_representative();
    EXPECT_THROW(db.lookup_or_build(rep), fault_injected_error);
    const auto& e = db.lookup_or_build(rep);
    EXPECT_EQ(simulate(e.circuit)[0], rep);
}

TEST_F(robustness, stopped_token_unblocks_waiter_on_stuck_builder)
{
    sharded_store<int, int> store;
    std::atomic<bool> builder_entered{false};
    std::atomic<bool> release_builder{false};
    std::thread builder{[&] {
        store.lookup_or_build(7, [&](int) {
            builder_entered = true;
            while (!release_builder)
                std::this_thread::sleep_for(1ms);
            return 42;
        });
    }};
    while (!builder_entered)
        std::this_thread::sleep_for(1ms);

    // A waiter without a token would block until the builder finishes; a
    // waiter whose token stops must unwind even though the builder is
    // still stuck.
    cancellation_source src;
    std::atomic<bool> waiter_unwound{false};
    std::thread waiter{[&] {
        try {
            store.lookup_or_build(7, [](int) { return -1; }, src.token());
        } catch (const cancelled_error&) {
            waiter_unwound = true;
        }
    }};
    std::this_thread::sleep_for(20ms);
    EXPECT_FALSE(waiter_unwound);
    src.request();
    waiter.join();
    EXPECT_TRUE(waiter_unwound);

    // The builder's eventual result is published untouched.
    release_builder = true;
    builder.join();
    EXPECT_EQ(store.lookup_or_build(7, [](int) { return -1; }), 42);
}

// --------------------------------------------------------- xor resynthesis

TEST_F(robustness, xor_resynthesis_stopped_token_keeps_network_consistent)
{
    auto net = cleanup(gen_adder(16));
    const auto golden = cleanup(net);
    const auto stats =
        xor_resynthesis(net, {.token = stopped_token()});
    EXPECT_EQ(stats.status, outcome::cancelled);
    EXPECT_TRUE(random_simulation_equal(cleanup(net), golden, 64, 1));
}

// ----------------------------------------------------------- flow behavior

flow_result run_mc_flow(xag& net, const flow_params& params,
                        const std::string& spec = "mc")
{
    const auto f = make_flow(spec, params);
    pass_context ctx{context_params(params)};
    return run_flow(net, f, ctx);
}

TEST_F(robustness, flow_cancelled_before_start_runs_nothing)
{
    auto net = cleanup(gen_adder(8));
    const auto golden = cleanup(net);
    flow_params params;
    params.token = stopped_token();
    const auto result = run_mc_flow(net, params);
    EXPECT_EQ(result.status, outcome::cancelled);
    EXPECT_TRUE(result.limit_hit);
    EXPECT_TRUE(result.passes.empty());
    EXPECT_TRUE(exhaustive_equal(cleanup(net), golden));
}

TEST_F(robustness, flow_deadline_yields_verified_best_effort)
{
    auto net = cleanup(gen_des(4));
    const auto golden = cleanup(net);
    flow_params params;
    params.token = cancellation_token{}.with_timeout(0.05);
    const auto result = run_mc_flow(net, params);
    // The mc pass on des:4 takes far longer than 50 ms (its database misses
    // come from the shipped table, so the time is the rewrite itself), so
    // the deadline fires mid-pass; whatever was committed must still be
    // equivalent.
    EXPECT_EQ(result.status, outcome::deadline_exceeded);
    EXPECT_TRUE(result.limit_hit);
    EXPECT_TRUE(random_simulation_equal(cleanup(net), golden, 64, 1));
}

TEST_F(robustness, pass_deadline_degrades_pass_but_flow_continues)
{
    auto net = cleanup(gen_des(4));
    const auto golden = cleanup(net);
    flow_params params;
    params.pass_deadline_seconds = 0.05;
    const auto result = run_mc_flow(net, params, "mc+cleanup");
    // The mc pass is cut short, but the flow itself finishes: the pass
    // after it still runs and the flow-level status stays ok.
    ASSERT_EQ(result.passes.size(), 2u);
    EXPECT_EQ(result.passes[0].status, outcome::deadline_exceeded);
    EXPECT_EQ(result.passes[1].status, outcome::ok);
    EXPECT_EQ(result.status, outcome::ok);
    EXPECT_TRUE(result.limit_hit);
    EXPECT_TRUE(random_simulation_equal(cleanup(net), golden, 64, 1));
}

// -------------------------------------------------------------- fault matrix

TEST_F(robustness, fault_matrix_verified_network_or_typed_error)
{
    // Every site x thread-count combination must end with run_flow
    // *returning* (faults are converted to typed outcomes at pass
    // boundaries, never thrown to the caller), and the network — whether
    // fully optimized or stopped mid-flow — must stay equivalent.
    const fault_site sites[] = {
        fault_site::sat_budget,
        fault_site::db_build,
        fault_site::worker_task,
        fault_site::journal_overflow,
    };
    const uint32_t thread_counts[] = {1, 4};
    // "xor" alone puts the XOR pass's worker team first in line.
    const char* const specs[] = {"mc+xor", "xor"};
    const auto golden = cleanup(gen_adder(8));

    for (const auto site : sites) {
        for (const auto threads : thread_counts) {
            for (const auto spec : specs) {
                SCOPED_TRACE(std::string{"site="} + to_string(site) +
                             " threads=" + std::to_string(threads) +
                             " flow=" + spec);
                fault_injection::disarm_all();
                fault_injection::arm(site);
                auto net = cleanup(golden);
                flow_params params;
                params.num_threads = threads;
                flow_result result;
                ASSERT_NO_THROW(result = run_mc_flow(net, params, spec));
                // A fault that fired surfaces as a typed limit; a fault that
                // was absorbed (sat-budget -> heuristic fallback,
                // journal-overflow -> full rebuild) leaves the flow ok.
                if (result.status != outcome::ok)
                    EXPECT_TRUE(result.limit_hit);
                EXPECT_TRUE(exhaustive_equal(cleanup(net), golden));
            }
        }
    }
}

} // namespace
} // namespace mcx
