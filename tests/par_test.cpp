// The parallel subsystem: work-stealing thread pool, sharded databases,
// and the determinism contract of the two-phase rewrite round
// (docs/parallel.md) — the optimized network and the replacement counts
// must be byte-identical for every thread count.
#include "core/flow.h"
#include "db/mc_database.h"
#include "db/sharded_store.h"
#include "gen/aes.h"
#include "gen/arithmetic.h"
#include "gen/control.h"
#include "gen/des.h"
#include "gen/hashes.h"
#include "gen/lightweight.h"
#include "io/bench.h"
#include "par/thread_pool.h"
#include "tt/truth_table.h"
#include "xag/cleanup.h"
#include "xag/verify.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

namespace mcx {
namespace {

// ------------------------------------------------------------- work_deque

TEST(work_deque, owner_pops_lifo_thieves_steal_fifo)
{
    work_deque dq;
    dq.reset(8);
    for (uint32_t c = 0; c < 5; ++c)
        dq.push(c);

    uint32_t got = 0;
    ASSERT_TRUE(dq.steal(got)); // thief takes the oldest
    EXPECT_EQ(got, 0u);
    ASSERT_TRUE(dq.pop(got)); // owner takes the newest
    EXPECT_EQ(got, 4u);
    ASSERT_TRUE(dq.steal(got));
    EXPECT_EQ(got, 1u);
    ASSERT_TRUE(dq.pop(got));
    EXPECT_EQ(got, 3u);
    ASSERT_TRUE(dq.pop(got)); // last element: owner wins the race
    EXPECT_EQ(got, 2u);
    EXPECT_FALSE(dq.pop(got));
    EXPECT_FALSE(dq.steal(got));

    // Reset clears leftovers and is reusable.
    dq.reset(2);
    dq.push(7);
    ASSERT_TRUE(dq.pop(got));
    EXPECT_EQ(got, 7u);
    EXPECT_FALSE(dq.steal(got));
}

// ------------------------------------------------------------ thread_pool

TEST(thread_pool, every_index_runs_exactly_once)
{
    thread_pool pool{4};
    EXPECT_EQ(pool.num_workers(), 4u);

    constexpr size_t n = 10'000;
    std::vector<std::atomic<uint32_t>> counts(n);
    std::atomic<uint32_t> bad_worker{0};
    pool.parallel_for(
        0, n,
        [&](size_t i, uint32_t worker) {
            counts[i].fetch_add(1, std::memory_order_relaxed);
            if (worker >= 4)
                bad_worker.fetch_add(1, std::memory_order_relaxed);
        },
        /*grain=*/7);
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(counts[i].load(), 1u) << "index " << i;
    EXPECT_EQ(bad_worker.load(), 0u);
}

TEST(thread_pool, uneven_work_completes_with_small_grain)
{
    // Front-loaded work with grain 1 forces the initial round-robin deal
    // out of balance, so completion exercises pop and steal together.
    thread_pool pool{4};
    constexpr size_t n = 256;
    std::vector<std::atomic<uint32_t>> counts(n);
    pool.parallel_for(
        0, n,
        [&](size_t i, uint32_t) {
            if (i < 8) {
                volatile uint64_t sink = 0;
                for (uint64_t k = 0; k < 2'000'000; ++k)
                    sink += k;
            }
            counts[i].fetch_add(1, std::memory_order_relaxed);
        },
        /*grain=*/1);
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(counts[i].load(), 1u) << "index " << i;
}

TEST(thread_pool, single_worker_runs_inline)
{
    thread_pool pool{1};
    EXPECT_EQ(pool.num_workers(), 1u);
    const auto caller = std::this_thread::get_id();
    size_t visited = 0;
    pool.parallel_for(10, 20, [&](size_t i, uint32_t worker) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(worker, 0u);
        EXPECT_GE(i, 10u);
        EXPECT_LT(i, 20u);
        ++visited; // safe: inline execution is sequential
    });
    EXPECT_EQ(visited, 10u);
}

TEST(thread_pool, worker_task_counts_sum_to_index_count)
{
    for (const uint32_t workers : {1u, 4u}) {
        thread_pool pool{workers};
        const auto total_tasks = [&] {
            uint64_t sum = 0;
            for (uint32_t w = 0; w < pool.num_workers(); ++w)
                sum += pool.stats(w).tasks;
            return sum;
        };
        const uint64_t before = total_tasks();
        constexpr size_t n = 4'321;
        std::atomic<size_t> done{0};
        pool.parallel_for(
            0, n,
            [&](size_t, uint32_t) {
                done.fetch_add(1, std::memory_order_relaxed);
            },
            /*grain=*/3);
        ASSERT_EQ(done.load(), n);
        // Every body index executed is attributed to exactly one worker.
        EXPECT_EQ(total_tasks() - before, n) << workers << " workers";
    }
}

TEST(thread_pool, exceptions_propagate_and_pool_survives)
{
    for (const uint32_t workers : {1u, 4u}) {
        thread_pool pool{workers};
        EXPECT_THROW(
            pool.parallel_for(0, 1000,
                              [&](size_t i, uint32_t) {
                                  if (i == 137)
                                      throw std::runtime_error{"boom"};
                              }),
            std::runtime_error);

        // The team is intact afterwards.
        std::atomic<size_t> done{0};
        pool.parallel_for(0, 100, [&](size_t, uint32_t) {
            done.fetch_add(1, std::memory_order_relaxed);
        });
        EXPECT_EQ(done.load(), 100u) << workers << " workers";
    }
}

TEST(thread_pool, nested_parallel_for_is_rejected)
{
    for (const uint32_t workers : {1u, 3u}) {
        thread_pool pool{workers};
        std::atomic<uint32_t> rejected{0};
        pool.parallel_for(0, 8, [&](size_t, uint32_t) {
            try {
                pool.parallel_for(0, 4, [](size_t, uint32_t) {});
            } catch (const std::logic_error&) {
                rejected.fetch_add(1, std::memory_order_relaxed);
            }
        });
        EXPECT_EQ(rejected.load(), 8u) << workers << " workers";

        // A second pool is equally off-limits from inside a body: the
        // rejection guards the thread, not one pool instance.
        thread_pool other{2};
        std::atomic<uint32_t> cross_rejected{0};
        pool.parallel_for(0, 4, [&](size_t, uint32_t) {
            try {
                other.parallel_for(0, 4, [](size_t, uint32_t) {});
            } catch (const std::logic_error&) {
                cross_rejected.fetch_add(1, std::memory_order_relaxed);
            }
        });
        EXPECT_EQ(cross_rejected.load(), 4u);
    }
}

// -------------------------------------------------------- sharded database

TEST(sharded_database, concurrent_misses_build_each_class_once)
{
    mc_database db{{.use_exact = false}}; // heuristic builds keep this fast

    std::mt19937_64 rng{2024};
    std::vector<truth_table> reps;
    for (int i = 0; i < 60; ++i)
        reps.push_back(truth_table{4, rng() & tt_mask(4)});
    // Dedup: misses must equal the number of *distinct* representatives.
    std::sort(reps.begin(), reps.end(),
              [](const truth_table& a, const truth_table& b) {
                  return a.word() < b.word();
              });
    reps.erase(std::unique(reps.begin(), reps.end()), reps.end());

    constexpr int num_threads = 8;
    constexpr int rounds = 5;
    std::vector<std::thread> threads;
    std::atomic<uint32_t> mismatches{0};
    for (int t = 0; t < num_threads; ++t)
        threads.emplace_back([&, t] {
            std::mt19937_64 order_rng{static_cast<uint64_t>(t)};
            auto mine = reps;
            for (int r = 0; r < rounds; ++r) {
                std::shuffle(mine.begin(), mine.end(), order_rng);
                for (const auto& rep : mine) {
                    const auto& e = db.lookup_or_build(rep);
                    // Every thread must see the same finished entry.
                    if (e.circuit.num_pis() != rep.num_vars() ||
                        e.num_ands != e.circuit.num_ands())
                        mismatches.fetch_add(1,
                                             std::memory_order_relaxed);
                }
            }
        });
    for (auto& t : threads)
        t.join();

    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_EQ(db.size(), reps.size());
    EXPECT_EQ(db.misses(), reps.size()); // once-per-class synthesis
    EXPECT_EQ(db.hits() + db.misses(),
              static_cast<uint64_t>(num_threads) * rounds * reps.size());
}

TEST(sharded_database, builder_exception_releases_the_slot)
{
    // A throwing builder must not leave a permanently not-ready slot
    // behind (that would hang every later lookup of the key); the next
    // lookup takes the build over.
    sharded_store<int, int> store;
    EXPECT_THROW(store.lookup_or_build(
                     7, [](int) -> int { throw std::runtime_error{"boom"}; }),
                 std::runtime_error);
    EXPECT_EQ(store.lookup_or_build(7, [](int k) { return 2 * k; }), 14);
    EXPECT_EQ(store.lookup_or_build(7, [](int) { return -1; }), 14);
    EXPECT_EQ(store.misses(), 2u); // the failed attempt and the takeover
    EXPECT_EQ(store.hits(), 1u);
}

// ------------------------------------------- two-phase round determinism

/// What a flow run at some worker count produced: the serialized network,
/// the total replacements, and the summed per-round memo and database
/// traffic (canon hits, canon misses, db hits, db misses).
struct optimized {
    std::string net;
    uint64_t replacements = 0;
    std::array<uint64_t, 4> traffic{};
};

/// Optimize through the two-phase engine at `threads` workers.
optimized optimize(xag net, uint32_t threads, flow_params params = {},
                   const char* spec = "mc+xor")
{
    params.num_threads = threads;
    pass_context ctx{context_params(params)};
    const auto result = run_flow(net, make_flow(spec, params), ctx);
    optimized out;
    for (const auto& p : result.passes)
        for (const auto& r : p.rounds) {
            out.replacements += r.replacements;
            out.traffic[0] += r.canon_cache_hits;
            out.traffic[1] += r.canon_cache_misses;
            out.traffic[2] += r.db_hits;
            out.traffic[3] += r.db_misses;
        }
    std::ostringstream os;
    write_bench(cleanup(net), os);
    out.net = os.str();
    return out;
}

void expect_thread_count_invariant(const xag& source,
                                   const char* what,
                                   flow_params params = {},
                                   const char* spec = "mc+xor")
{
    const auto golden = cleanup(source);
    const auto run1 = optimize(cleanup(source), 1, params, spec);
    for (const uint32_t threads : {2u, 8u}) {
        const auto run = optimize(cleanup(source), threads, params, spec);
        EXPECT_EQ(run1.net, run.net) << what << ": " << threads
                                     << " threads diverged";
        EXPECT_EQ(run1.replacements, run.replacements) << what;
        // One memo and one database per context: each key is built once
        // whichever worker asks first, so the traffic is schedule-free.
        EXPECT_EQ(run1.traffic, run.traffic)
            << what << ": " << threads << " threads changed the "
            << "canon/db hit-miss totals";
    }

    // And the deterministic result is still the right function.
    std::istringstream is{run1.net};
    const auto reparsed = read_bench(is);
    if (golden.num_pis() <= 16)
        EXPECT_TRUE(exhaustive_equal(reparsed, golden)) << what;
    else
        EXPECT_TRUE(random_simulation_equal(reparsed, golden, 16)) << what;
}

TEST(two_phase_determinism, arithmetic_family)
{
    expect_thread_count_invariant(gen_adder(16), "adder16");
    expect_thread_count_invariant(gen_multiplier(4), "multiplier4");
    expect_thread_count_invariant(gen_comparator_lt_unsigned(6),
                                  "comparator6");
}

TEST(two_phase_determinism, control_family)
{
    expect_thread_count_invariant(gen_decoder(4), "decoder4");
    expect_thread_count_invariant(gen_voter(7), "voter7");
    expect_thread_count_invariant(gen_priority_encoder(8), "prio8");
}

TEST(two_phase_determinism, aes_family)
{
    xag net;
    std::array<signal, 8> in;
    for (auto& s : in)
        s = net.create_pi();
    for (const auto s : aes_sbox_circuit(net, in))
        net.create_po(s);
    expect_thread_count_invariant(net, "aes-sbox");
}

TEST(two_phase_determinism, des_family)
{
    expect_thread_count_invariant(gen_des(1), "des1");
}

TEST(two_phase_determinism, lightweight_family)
{
    expect_thread_count_invariant(gen_simon(16, 4), "simon16x4");
    expect_thread_count_invariant(gen_keccak_f(8), "keccak8");
}

TEST(two_phase_determinism, hashes_family_budgeted)
{
    // Full-size MD5 under the integration suite's budget (3-cuts,
    // heuristic database, one round, mc only) — hash-scale structure
    // without hash-scale runtime.
    flow_params budget;
    budget.max_rounds = 1;
    budget.rewrite.cut_size = 3;
    budget.rewrite.cut_limit = 4;
    budget.rewrite.db.use_exact = false;
    expect_thread_count_invariant(gen_md5(), "md5", budget, "mc");
}

TEST(two_phase_determinism, cut_size4_engine)
{
    flow_params params;
    params.rewrite.cut_size = 4;
    expect_thread_count_invariant(gen_adder(12), "cut4-adder12", params,
                                  "mc");
}

TEST(two_phase_determinism, zero_gain_path)
{
    flow_params params;
    params.rewrite.allow_zero_gain = true;
    expect_thread_count_invariant(gen_adder(12), "zero-gain", params);
}

} // namespace
} // namespace mcx
