// Micro-benchmarks for the cut->canonize->classify->rewrite hot loop.
//
// Self-contained chrono harness (no external benchmark dependency) that
// measures each stage in ns/op, A/B-compares the word-parallel fast paths
// against the retained seed implementations from tests/oracle/ (the
// scalar affine classifier, the scalar cut enumerator and the legacy SAT
// solver), reports cache hit rates from a
// real rewriting round, and emits everything machine-readable to
// BENCH_micro_core.json (override the path with MCX_BENCH_JSON).
//
// CI gates on the speedup ratios printed here: word-parallel cut
// enumeration must be >= 2x the scalar path, the packed-spectrum affine
// classifier >= 4x the scalar one on the cold-cache random and tie-heavy
// workloads, and batched cone simulation >= 1x per-cut cone_function on
// the enumerated cut sets of a shallow and a deep circuit.
#include "core/flow.h"
#include "core/pass.h"
#include "cut/cut_enumeration.h"
#include "sat/equivalence.h"
#include "sat/solver.h"
#include "exact/exact_mc.h"
#include "exact/exact_mc_search.h"
#include "gen/arithmetic.h"
#include "gen/des.h"
#include "gen/hashes.h"
#include "io/bench.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "oracle/check_equivalence.h"
#include "oracle/classify_affine_baseline.h"
#include "oracle/cut_enumeration_scalar.h"
#include "oracle/legacy_solver.h"
#include "spectral/classification.h"
#include "tt/operations.h"
#include "xag/cleanup.h"
#include "xag/cone_batch.h"
#include "xag/simulate.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace {

using namespace mcx;

uint64_t g_sink = 0; ///< defeats dead-code elimination across all benches

struct bench_result {
    std::string name;
    double ns_per_op = 0;
    uint64_t ops = 0;
};

std::vector<bench_result> g_results;

/// Run `body` (which performs `batch` operations per call) and record ns
/// per single operation.  After one warm-up, repetitions are calibrated so
/// a sample lasts >= ~5 ms, then the minimum over five samples is taken —
/// the minimum is robust against scheduler noise and concurrent load,
/// which matters because CI gates on ratios of these numbers.
template <typename Body>
double run_bench(const std::string& name, uint64_t batch, Body&& body)
{
    using clock = std::chrono::steady_clock;
    const auto time_reps = [&](uint64_t reps) {
        const auto start = clock::now();
        for (uint64_t r = 0; r < reps; ++r)
            body();
        return std::chrono::duration<double>(clock::now() - start).count();
    };

    body(); // warm-up
    uint64_t reps = 1;
    while (time_reps(reps) < 0.005 && reps < 1'000'000)
        reps *= 4;

    double best = 1e300;
    uint64_t ops = 0;
    for (int sample = 0; sample < 5; ++sample) {
        const double seconds = time_reps(reps);
        best = std::min(best,
                        seconds / static_cast<double>(reps * batch));
        ops += reps * batch;
    }
    const double ns = best * 1e9;
    g_results.push_back({name, ns, ops});
    std::printf("%-34s %12.1f ns/op   (%llu ops)\n", name.c_str(), ns,
                static_cast<unsigned long long>(ops));
    return ns;
}

/// A/B variant of run_bench for a gated ratio of two arms whose single
/// calls last milliseconds.  Seven samples each time a batch of four calls
/// per arm, the arms' batches alternating (and their order flipping from
/// sample to sample), so a slow stretch of the host lands on both arms
/// instead of on one arm's every sample; within a batch the arm runs as
/// warm as on its own.  Each arm's fastest call is recorded under its
/// name.  Returns {ns_a, ns_b} per call.
template <typename BodyA, typename BodyB>
std::pair<double, double> run_bench_alternating(const std::string& name_a,
                                                const std::string& name_b,
                                                BodyA&& body_a, BodyB&& body_b)
{
    constexpr int samples = 7;
    constexpr int calls_per_batch = 4;
    using clock = std::chrono::steady_clock;
    const auto fastest_call = [](auto& body) {
        double best = 1e300;
        for (int i = 0; i < calls_per_batch; ++i) {
            const auto start = clock::now();
            body();
            best = std::min(
                best,
                std::chrono::duration<double>(clock::now() - start).count());
        }
        return best;
    };
    body_a(); // warm-up
    body_b();
    double best_a = 1e300, best_b = 1e300;
    for (int sample = 0; sample < samples; ++sample) {
        if (sample % 2 == 0) {
            best_a = std::min(best_a, fastest_call(body_a));
            best_b = std::min(best_b, fastest_call(body_b));
        } else {
            best_b = std::min(best_b, fastest_call(body_b));
            best_a = std::min(best_a, fastest_call(body_a));
        }
    }
    const auto record = [](const std::string& name, double seconds) {
        const double ns = seconds * 1e9;
        const uint64_t ops = samples * calls_per_batch;
        g_results.push_back({name, ns, ops});
        std::printf("%-34s %12.1f ns/op   (%llu ops)\n", name.c_str(), ns,
                    static_cast<unsigned long long>(ops));
        return ns;
    };
    const double ns_a = record(name_a, best_a);
    const double ns_b = record(name_b, best_b);
    return {ns_a, ns_b};
}

/// The cleaned network as BENCH text: the byte-identity currency of the
/// A/B stages (node ids may differ between arms, the text may not).
std::string serialize(const xag& n)
{
    std::ostringstream os;
    write_bench(cleanup(n), os);
    return os.str();
}

std::vector<truth_table> random_functions(uint32_t num_vars, size_t count,
                                          uint64_t seed)
{
    std::mt19937_64 rng{seed};
    std::vector<truth_table> fs;
    fs.reserve(count);
    for (size_t i = 0; i < count; ++i)
        fs.push_back(truth_table{num_vars, rng() & tt_mask(num_vars)});
    return fs;
}

} // namespace

int main()
{
    std::printf("micro_core: hot-loop stage benchmarks\n\n");

    // ------------------------------------------------------------- tt ops
    {
        std::mt19937_64 rng{1};
        const truth_table t{6, rng()};
        run_bench("tt/to_anf", 1, [&] { g_sink += to_anf(t).word(); });
        const truth_table wide{6, 0x8888888888888888ull};
        run_bench("tt/shrink_to_support", 1,
                  [&] { g_sink += shrink_to_support(wide).support.size(); });
        run_bench("spectral/walsh_spectrum", 1,
                  [&] { g_sink += static_cast<uint64_t>(walsh_spectrum(t)[0]); });
    }

    // ------------------------------------------------ cut enumeration (A/B)
    // One enumeration takes ~10 ms (scalar ~25 ms); timed one arm after the
    // other, a slow stretch of the host could cover all of one arm's
    // samples and none of the other's, so the arms' batches alternate.
    const auto mult = gen_multiplier(16);
    const auto [cut_fast_ns, cut_scalar_ns] = run_bench_alternating(
        "cut/enumerate_word_parallel", "cut/enumerate_scalar",
        [&] {
            cut_enumeration_stats s;
            g_sink += enumerate_cuts(mult, {}, &s).back().size();
        },
        [&] {
            cut_enumeration_stats s;
            g_sink +=
                oracle::enumerate_cuts_scalar(mult, {}, &s).back().size();
        });
    const double cut_speedup = cut_scalar_ns / cut_fast_ns;
    std::printf("%-34s %12.1f x\n", "cut/speedup", cut_speedup);

    // ------------------------------------------ classification (A/B, cold)
    // Cold-cache workload: classify_affine straight (no memo layer) on
    // random 6-input functions — the dominant cost when the caches miss.
    // Both engines walk the identical search tree; the ratio is pure
    // engine speed.
    double classify_speedup = 0;
    {
        const auto fs = random_functions(6, 8, 3);
        const double cls_fast_ns =
            run_bench("spectral/classify_word_parallel", fs.size(), [&] {
                for (const auto& f : fs)
                    g_sink += classify_affine(f, {.iteration_limit = 100'000})
                                  .iterations;
            });
        const double cls_base_ns =
            run_bench("spectral/classify_baseline", fs.size(), [&] {
                for (const auto& f : fs)
                    g_sink += oracle::classify_affine_baseline(
                                  f, {.iteration_limit = 100'000})
                                  .iterations;
            });
        classify_speedup = cls_base_ns / cls_fast_ns;
        std::printf("%-34s %12.1f x\n", "classify/speedup", classify_speedup);
    }

    // ---------------------------------- classification, 4-input (A/B, cold)
    // Small functions spend their whole search on one- and two-row DFS
    // levels; the sub-word candidate layout (spectrum_zip8_*, 4 candidate
    // keys per word) is what lifts them over the same >= 4x bar as the
    // 6-input workload.
    double classify4_speedup = 0;
    {
        const auto fs = random_functions(4, 64, 5);
        const double cls4_fast_ns =
            run_bench("spectral/classify4_word_parallel", fs.size(), [&] {
                for (const auto& f : fs)
                    g_sink += classify_affine(f, {.iteration_limit = 100'000})
                                  .iterations;
            });
        const double cls4_base_ns =
            run_bench("spectral/classify4_baseline", fs.size(), [&] {
                for (const auto& f : fs)
                    g_sink += oracle::classify_affine_baseline(
                                  f, {.iteration_limit = 100'000})
                                  .iterations;
            });
        classify4_speedup = cls4_base_ns / cls4_fast_ns;
        std::printf("%-34s %12.1f x\n", "classify4/speedup",
                    classify4_speedup);
    }

    // ------------------------------- classification, tie-heavy (A/B, cold)
    // Spectra on which nearly every search node is a tight challenger:
    // single minterms and their complements, a 4-input bent function, and
    // tables that exhausted the default limit in mc+xor runs on des,
    // multiplier, sqrt and log2.  Most of these searches end at the limit,
    // and most of their evaluations are last-level nodes, which the engine
    // charges from its leaf memo instead of evaluating them.
    double classify_tie_speedup = 0;
    {
        std::vector<truth_table> fs;
        for (const uint32_t n : {5u, 6u})
            for (const uint32_t i : {0u, 16u}) {
                const truth_table minterm{n, uint64_t{1} << i};
                fs.push_back(minterm);
                fs.push_back(~minterm);
            }
        fs.push_back(truth_table{4, 0x6ac0});
        for (const char* hex : {"87778887", "935f6ca0", "00020001",
                                "0e0e010e", "ccc43333"})
            fs.push_back(truth_table::from_hex(5, hex));
        fs.push_back(truth_table::from_hex(6, "000000fd000000ff"));
        const double tie_fast_ns =
            run_bench("spectral/classify_tie_heavy_word_parallel", fs.size(),
                      [&] {
                          for (const auto& f : fs)
                              g_sink += classify_affine(
                                            f, {.iteration_limit = 100'000})
                                            .iterations;
                      });
        const double tie_base_ns =
            run_bench("spectral/classify_tie_heavy_baseline", fs.size(), [&] {
                for (const auto& f : fs)
                    g_sink += oracle::classify_affine_baseline(
                                  f, {.iteration_limit = 100'000})
                                  .iterations;
            });
        classify_tie_speedup = tie_base_ns / tie_fast_ns;
        std::printf("%-34s %12.1f x\n", "classify_tie_heavy/speedup",
                    classify_tie_speedup);
    }

    // -------------------------------------------------- exact synthesis
    run_bench("exact/mc_maj3", 1, [&] {
        g_sink += exact_mc_synthesis(truth_table{3, 0xe8}).num_ands;
    });

    // ------------------------------- SAT core, solver vs legacy oracle (A/B)
    // Seeded hard instances solved on both CDCL solvers: a pigeonhole
    // formula (9 pigeons, 8 holes — a classic resolution-hard UNSAT) as
    // raw clauses, plus a full exact-MC synthesis of a 5-input function
    // whose optimality ladder emits the solver's real workload (UNSAT
    // proofs at infeasible k).  sat::solver (arena storage, LBD-tiered
    // retention, EMA restarts, bounded preprocessing) must clear the
    // batch >= 2x faster than the legacy oracle (tests/oracle/); CI gates
    // on the aggregate so no single instance's variance decides the
    // verdict.  The JSON keeps the "modern"/"legacy" key names.
    const auto legacy_mc = [](const truth_table& f) {
        return detail::exact_mc_search(
            f, {}, [] { return oracle::legacy_solver{}; });
    };
    double satcore_modern_s = 1e300, satcore_legacy_s = 1e300;
    {
        using clock = std::chrono::steady_clock;
        const auto solve_php9 = [](auto s) {
            constexpr int pigeons = 9, holes = 8;
            std::vector<std::vector<sat::literal>> var(pigeons);
            for (int p = 0; p < pigeons; ++p)
                for (int h = 0; h < holes; ++h)
                    var[p].push_back(sat::literal{s.add_variable(), false});
            for (int p = 0; p < pigeons; ++p)
                s.add_clause(var[p]);
            for (int h = 0; h < holes; ++h)
                for (int p1 = 0; p1 < pigeons; ++p1)
                    for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                        s.add_clause({~var[p1][h], ~var[p2][h]});
            return s.solve() == sat::solve_result::unsatisfiable;
        };
        // MC-4 under the exact encoding: k = 0..3 are hard UNSAT rounds.
        const truth_table hard5{5, 0x206967ce};
        for (int sample = 0; sample < 2; ++sample) {
            for (const bool legacy : {false, true}) {
                const auto start = clock::now();
                const bool unsat =
                    legacy ? solve_php9(oracle::legacy_solver{})
                           : solve_php9(sat::solver{{.preprocess = true}});
                const auto r =
                    legacy ? legacy_mc(hard5) : exact_mc_synthesis(hard5);
                const double s =
                    std::chrono::duration<double>(clock::now() - start)
                        .count();
                if (!unsat || r.num_ands != 4) {
                    std::fprintf(stderr,
                                 "FAIL: %s solver broke a sat_core verdict "
                                 "(php9 unsat %d, mc %u != 4)\n",
                                 legacy ? "legacy" : "production",
                                 unsat ? 1 : 0, r.num_ands);
                    return 1;
                }
                auto& best = legacy ? satcore_legacy_s : satcore_modern_s;
                best = std::min(best, s);
            }
        }
    }
    const double satcore_speedup = satcore_legacy_s / satcore_modern_s;
    std::printf("\nsat core (php9 + exact-MC 5-input encoding):\n");
    std::printf("  sat::solver               %8.4f s\n", satcore_modern_s);
    std::printf("  legacy oracle             %8.4f s\n", satcore_legacy_s);
    std::printf("%-34s %12.2f x\n", "sat_core/speedup", satcore_speedup);

    // ------------------------------------- harder exact synthesis (gated)
    // A 5-input database miss — the workload the sharded-store and the
    // ROADMAP's offline 4/5-input precompute pay for.  Timed on both
    // solvers; sat::solver must be >= 2x faster here too (this
    // function's ladder is short but its UNSAT rounds are dense, a
    // different profile from the sat_core batch).
    double exact5_modern_s = 1e300, exact5_legacy_s = 1e300;
    {
        using clock = std::chrono::steady_clock;
        const truth_table miss5{5, 0xd9ff7cf6};
        for (int sample = 0; sample < 3; ++sample) {
            for (const bool legacy : {false, true}) {
                const auto start = clock::now();
                const auto r =
                    legacy ? legacy_mc(miss5) : exact_mc_synthesis(miss5);
                const double s =
                    std::chrono::duration<double>(clock::now() - start)
                        .count();
                if (r.num_ands != 3) {
                    std::fprintf(stderr,
                                 "FAIL: %s solver found mc %u != 3 on the "
                                 "5-input miss\n",
                                 legacy ? "legacy" : "production",
                                 r.num_ands);
                    return 1;
                }
                auto& best = legacy ? exact5_legacy_s : exact5_modern_s;
                best = std::min(best, s);
            }
        }
    }
    const double exact5_speedup = exact5_legacy_s / exact5_modern_s;
    std::printf("\nexact synthesis, 5-input miss (0xd9ff7cf6):\n");
    std::printf("  sat::solver               %8.4f s\n", exact5_modern_s);
    std::printf("  legacy oracle             %8.4f s\n", exact5_legacy_s);
    std::printf("%-34s %12.2f x\n", "exact_hard5/speedup", exact5_speedup);

    // ------------------------------------- full round with stage breakdown
    auto net = gen_adder(64);
    pass_context warm_ctx; // databases and memos persist across stages
    const auto round = mc_rewrite_round(net, warm_ctx);

    // --------------------------- cone simulation (A/B, enumerated cuts)
    // Every non-trivial enumerated cut of every gate, simulated the way a
    // rewrite round does (all of a node's cuts in one cone_simulator call)
    // vs. one cone_function per cut.  adder64 is shallow; on des4's deep
    // S-box logic a traversal that strays below the cut leaves walks each
    // node's whole transitive fanin, so this is where the batched path
    // has to hold its ground.  CI gates on >= 1x on both.
    const auto cone_speedup = [](const char* label, const xag& cnet) {
        const auto sets = enumerate_cuts(cnet);
        std::vector<std::pair<uint32_t, std::vector<cone_simulator::leaf_set>>>
            work;
        size_t num_cuts = 0;
        for (const auto n : cnet.topological_order()) {
            if (!cnet.is_gate(n))
                continue;
            auto& [root, cuts] = work.emplace_back();
            root = n;
            for (const auto& c : sets[n])
                if (c.num_leaves > 1 || c.leaves[0] != n)
                    cuts.emplace_back(c.leaf_span().begin(),
                                      c.leaf_span().end());
            num_cuts += cuts.size();
        }
        cone_simulator sim;
        std::vector<uint64_t> words;
        const double batched_ns = run_bench(
            std::string{"cone/simulate_cuts_"} + label, num_cuts, [&] {
                for (const auto& [root, cuts] : work) {
                    g_sink += sim.simulate_cuts(cnet, root, cuts, words);
                    g_sink += words.empty() ? 0 : words[0];
                }
            });
        const double per_cut_ns = run_bench(
            std::string{"cone/cone_function_"} + label, num_cuts, [&] {
                for (const auto& [root, cuts] : work)
                    for (const auto& leaves : cuts)
                        g_sink += cone_function(cnet, root, leaves).word();
            });
        const double speedup = per_cut_ns / batched_ns;
        std::printf("%-34s %12.2f x\n",
                    (std::string{"cone/speedup_"} + label).c_str(), speedup);
        return speedup;
    };
    const double cone_adder64_speedup = cone_speedup("adder64", gen_adder(64));
    const double cone_des4_speedup = cone_speedup("des4", gen_des(4));

    const double cls_hit_rate = round.canon_cache_hit_rate();
    const double db_total =
        static_cast<double>(round.db_hits + round.db_misses);
    const double db_hit_rate =
        db_total == 0 ? 0.0 : static_cast<double>(round.db_hits) / db_total;
    std::printf("\nmc_rewrite_round(adder64):\n");
    std::printf("  total %.3f s  (cuts %.3f s, rewrite %.3f s)\n",
                round.seconds, round.cut_seconds, round.rewrite_seconds);
    std::printf("  classification cache: %llu hits / %llu misses (%.1f%%)\n",
                static_cast<unsigned long long>(round.canon_cache_hits),
                static_cast<unsigned long long>(round.canon_cache_misses),
                100.0 * cls_hit_rate);
    std::printf("  database: %llu hits / %llu builds (%.1f%%)\n",
                static_cast<unsigned long long>(round.db_hits),
                static_cast<unsigned long long>(round.db_misses),
                100.0 * db_hit_rate);
    std::printf("  cuts: %llu stored, %llu pairs merged, %llu duplicates, "
                "%llu dominated\n",
                static_cast<unsigned long long>(round.cut_stats.total_cuts),
                static_cast<unsigned long long>(round.cut_stats.merged_pairs),
                static_cast<unsigned long long>(
                    round.cut_stats.duplicate_cuts),
                static_cast<unsigned long long>(
                    round.cut_stats.dominated_cuts));

    // ---------------------------------- observability overhead (A/B, gated)
    // Identical warmed adder64 rounds with the metrics registry enabled
    // (the default) vs disabled, tracing off in both arms — the production
    // configuration vs a build with instrumentation silenced.  A round
    // takes ~4 ms, so each sample times a batch of `obs_batch` rounds per
    // arm (~50 ms), alternating the arms round by round so that a slow
    // stretch of the host slows both alike; 0.1 ms of jitter on one round
    // no longer crosses the bound.  A 1-worker round runs inline on this
    // thread (src/par/thread_pool.h), so each round is timed in this
    // thread's CPU time: time the scheduler hands to other processes is
    // not counted, as wall time would count it.  Min-of-7 over the
    // samples' per-round means keeps the ratio robust against the rest of
    // the noise (cache and frequency effects).  CI gates the
    // tracing-disabled instrumentation tax at <= 3%
    // (docs/observability.md, the overhead contract).
    constexpr int obs_batch = 12;
    double obs_on_s = 1e300, obs_off_s = 1e300;
    {
        obs::trace::disable();
        const auto round_seconds = [&](bool metrics) {
            obs::set_metrics_enabled(metrics);
            auto n64 = gen_adder(64);
            timespec t0{}, t1{};
            clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t0);
            mc_rewrite_round(n64, warm_ctx);
            clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t1);
            return static_cast<double>(t1.tv_sec - t0.tv_sec) +
                   1e-9 * static_cast<double>(t1.tv_nsec - t0.tv_nsec);
        };
        for (int sample = 0; sample < 7; ++sample) {
            double on = 0, off = 0;
            for (int i = 0; i < obs_batch; ++i) {
                on += round_seconds(true);
                off += round_seconds(false);
            }
            obs_on_s = std::min(obs_on_s, on / obs_batch);
            obs_off_s = std::min(obs_off_s, off / obs_batch);
        }
        obs::set_metrics_enabled(true);
    }
    const double obs_ratio = obs_on_s / obs_off_s;
    std::printf("\nobservability overhead (adder64, warmed db/cache, "
                "per round over batches of %d):\n",
                obs_batch);
    std::printf("  metrics enabled           %8.4f s\n", obs_on_s);
    std::printf("  metrics disabled          %8.4f s\n", obs_off_s);
    std::printf("%-34s %12.3f x\n", "obs/overhead_ratio", obs_ratio);

    // ------------------------- parallel two-phase round (1 vs 4 workers)
    // md5's first round on the deterministic two-phase engine
    // (src/core/pass.cpp, docs/parallel.md), 1 worker vs 4, each context
    // warmed by one throwaway round so databases and memos are hot
    // and the measurement isolates the engine.  md5's round scores ~40k
    // gates, enough parallel work to time; a warmed adder64 round takes a
    // few ms, too short for its 4-worker speedup to show.  The engine's
    // contract — bit-identical networks for any thread count — is
    // asserted on the spot.  On machines with < 4 hardware threads the
    // timing is SKIPPED (recorded as such in the JSON, with the same
    // keys): timing 4 workers on 1-2 cores produces a meaningless ~1x
    // "speedup".
    const uint32_t hw_threads = std::max(1u, std::thread::hardware_concurrency());
    const bool par_skipped = hw_threads < 4;
    double par_1t = 0.0, par_4t = 0.0;
    double par_speedup = 0.0;
    {
        std::string par_net_1t, par_net_4t;
        rewrite_params p1;
        p1.num_threads = 1;
        rewrite_params p4;
        p4.num_threads = 4;
        pass_context ctx1, ctx4;
        {
            auto warm = gen_md5();
            mc_rewrite_round(warm, ctx1, p1);
        }
        {
            auto warm = gen_md5();
            mc_rewrite_round(warm, ctx4, p4);
        }
        // The determinism assertion always runs — 4 workers oversubscribed
        // onto 1-2 cores is a prime stressor for scheduling-dependent bugs
        // and costs nothing; only the *timing* samples are skipped there.
        const int samples = par_skipped ? 1 : 3;
        double best_1t = 1e300, best_4t = 1e300;
        for (int sample = 0; sample < samples; ++sample) {
            {
                auto net = gen_md5();
                const auto r = mc_rewrite_round(net, ctx1, p1);
                best_1t = std::min(best_1t, r.seconds);
                par_net_1t = serialize(net);
            }
            {
                auto net = gen_md5();
                const auto r = mc_rewrite_round(net, ctx4, p4);
                best_4t = std::min(best_4t, r.seconds);
                par_net_4t = serialize(net);
            }
        }
        if (par_net_1t != par_net_4t) {
            std::fprintf(stderr, "FAIL: two-phase round is not bit-identical "
                                 "across thread counts\n");
            return 1;
        }
        if (par_skipped) {
            std::printf("\ntwo-phase round (md5): timing skipped "
                        "(hardware_concurrency %u < 4); determinism "
                        "asserted\n",
                        hw_threads);
        } else {
            par_1t = best_1t;
            par_4t = best_4t;
            par_speedup = par_1t / par_4t;
            std::printf("\ntwo-phase round (md5, warmed db/cache):\n");
            std::printf("  1 worker                  %8.4f s\n", par_1t);
            std::printf("  4 workers                 %8.4f s\n", par_4t);
            std::printf("%-34s %12.2f x\n", "par/round_speedup", par_speedup);
        }
    }

    // ----------------------- incremental cut maintenance (A/B, warmed)
    // Two identical adder64 optimizations, one with incremental cut
    // maintenance, one whose maintainer is invalidated before every round
    // (the full-rebuild oracle).  Networks are asserted byte-identical after
    // every round — the maintainer must be invisible — and the
    // steady-state round (after convergence, when the preceding round
    // committed nothing) must do >= 2x less re-enumeration work, measured
    // in merge pairs (with an empty dirty set it does none at all).  The
    // gate only applies when the warm-up actually replaced something
    // (otherwise there is no dirt to track and the ratio is recorded, not
    // gated).
    uint64_t inc_warmup_repl = 0;
    uint64_t inc_steady_reenum = 0, inc_steady_clean = 0;
    uint64_t inc_steady_merged = 0, full_steady_merged = 0;
    uint32_t inc_rounds = 0;
    bool inc_measured_steady = false;
    {
        pass_context ctx_inc, ctx_full;
        auto net_inc = gen_adder(64);
        auto net_full = gen_adder(64);
        bool converged = false;
        for (int r = 0; r < 8; ++r) {
            const auto si = mc_rewrite_round(net_inc, ctx_inc);
            ctx_full.cut_maintenance().invalidate();
            const auto sf = mc_rewrite_round(net_full, ctx_full);
            ++inc_rounds;
            if (serialize(net_inc) != serialize(net_full)) {
                std::fprintf(stderr,
                             "FAIL: incremental cut maintenance diverged "
                             "from full re-enumeration in round %d\n",
                             r);
                return 1;
            }
            inc_steady_reenum = si.cut_stats.reenumerated_nodes;
            inc_steady_clean = si.cut_stats.clean_nodes;
            inc_steady_merged = si.cut_stats.merged_pairs;
            full_steady_merged = sf.cut_stats.merged_pairs;
            if (converged) {
                inc_measured_steady = true;
                break; // this round ran on an empty dirty set: measure it
            }
            if (si.replacements == 0)
                converged = true;
            else
                inc_warmup_repl += si.replacements;
        }
    }
    // Gate only a genuinely steady measurement: the warm-up must both have
    // replaced something (otherwise there was no dirt to track) and have
    // converged within the round budget (otherwise the last measured round
    // still carried real dirt and the ratio is a property of the workload,
    // not of the maintainer).
    const bool inc_gated = inc_warmup_repl > 0 && inc_measured_steady;
    const double inc_work_ratio =
        static_cast<double>(full_steady_merged) /
        static_cast<double>(std::max<uint64_t>(1, inc_steady_merged));
    std::printf("\nincremental cut maintenance (adder64, steady-state "
                "round %u):\n",
                inc_rounds);
    std::printf("  re-enumerated %llu nodes (%llu clean), %llu merge pairs "
                "vs %llu full\n",
                static_cast<unsigned long long>(inc_steady_reenum),
                static_cast<unsigned long long>(inc_steady_clean),
                static_cast<unsigned long long>(inc_steady_merged),
                static_cast<unsigned long long>(full_steady_merged));
    std::printf("%-34s %12.1f x%s\n", "incremental/work_ratio",
                inc_work_ratio,
                inc_gated ? ""
                : inc_measured_steady
                    ? "   (gate skipped: no replacements)"
                    : "   (gate skipped: not converged)");

    // ----------------------- incremental evaluate (A/B, steady state)
    // Same A/B shape as the cut-maintenance stage, one layer up: two
    // identical adder64 optimizations, one re-evaluating only the nodes
    // whose cut/MFFC context changed, one whose evaluate cache is reset
    // before every round (the full-evaluate oracle).  Networks are asserted
    // byte-identical after every round, and the steady-state round — run
    // on an empty dirty set after convergence — must evaluate exactly
    // zero nodes while the oracle re-evaluates the whole network
    // (docs/hot-path.md, "The evaluate dirty-set contract").
    uint64_t eval_warmup_repl = 0;
    uint64_t eval_steady_evaluated = 0, eval_steady_clean = 0;
    uint64_t eval_oracle_evaluated = 0;
    uint32_t eval_rounds = 0;
    bool eval_measured_steady = false;
    {
        pass_context ctx_inc, ctx_full;
        auto net_inc = gen_adder(64);
        auto net_full = gen_adder(64);
        bool converged = false;
        for (int r = 0; r < 8; ++r) {
            const auto si = mc_rewrite_round(net_inc, ctx_inc);
            ctx_full.eval_cache().reset();
            const auto sf = mc_rewrite_round(net_full, ctx_full);
            ++eval_rounds;
            if (serialize(net_inc) != serialize(net_full)) {
                std::fprintf(stderr,
                             "FAIL: incremental evaluate diverged from the "
                             "full-evaluate oracle in round %d\n",
                             r);
                return 1;
            }
            eval_steady_evaluated = si.nodes_evaluated;
            eval_steady_clean = si.nodes_clean;
            eval_oracle_evaluated = sf.nodes_evaluated;
            if (converged) {
                eval_measured_steady = true;
                break; // this round ran on an empty dirty set: measure it
            }
            if (si.replacements == 0)
                converged = true;
            else
                eval_warmup_repl += si.replacements;
        }
    }
    // des4's converging round — the round after round 1's commits, the
    // last one of the pass — re-scores only the gates whose cut cones hold
    // a change (docs/hot-path.md, "What counts as dirty"), not their whole
    // transitive fanout.  Same A/B and byte-identity assertion; the gate is
    // the oracle/incremental ratio of evaluated nodes, a count, so host
    // noise cannot move it.
    uint64_t conv_evaluated = 0, conv_evaluated_full = 0;
    uint32_t conv_round = 0;
    {
        pass_context ctx_inc, ctx_full;
        auto net_inc = gen_des(4);
        auto net_full = gen_des(4);
        for (uint32_t r = 1; r <= 8; ++r) {
            const auto si = mc_rewrite_round(net_inc, ctx_inc);
            ctx_full.eval_cache().reset();
            const auto sf = mc_rewrite_round(net_full, ctx_full);
            if (serialize(net_inc) != serialize(net_full)) {
                std::fprintf(stderr,
                             "FAIL: incremental evaluate diverged from the "
                             "full-evaluate oracle in des4 round %u\n",
                             r);
                return 1;
            }
            if (r > 1 && si.replacements == 0) {
                conv_round = r;
                conv_evaluated = si.nodes_evaluated;
                conv_evaluated_full = sf.nodes_evaluated;
                break;
            }
        }
    }
    const bool conv_gated = conv_round != 0;
    const double conv_ratio =
        static_cast<double>(conv_evaluated_full) /
        static_cast<double>(std::max<uint64_t>(1, conv_evaluated));
    const bool eval_gated = eval_warmup_repl > 0 && eval_measured_steady;
    std::printf("\nincremental evaluate (adder64, steady-state round %u):\n",
                eval_rounds);
    std::printf("  evaluated %llu nodes (%llu clean) vs %llu full%s\n",
                static_cast<unsigned long long>(eval_steady_evaluated),
                static_cast<unsigned long long>(eval_steady_clean),
                static_cast<unsigned long long>(eval_oracle_evaluated),
                eval_gated ? ""
                : eval_measured_steady
                    ? "   (gate skipped: no replacements)"
                    : "   (gate skipped: not converged)");
    std::printf("incremental evaluate (des4, converging round %u):\n",
                conv_round);
    std::printf("  evaluated %llu nodes vs %llu full\n",
                static_cast<unsigned long long>(conv_evaluated),
                static_cast<unsigned long long>(conv_evaluated_full));
    std::printf("%-34s %12.1f x%s\n", "incremental/converging_ratio",
                conv_ratio, conv_gated ? "" : "   (gate skipped: not converged)");

    // ------------------------------ incremental CEC vs cold miter (A/B)
    // The verification pattern of an iterated flow: one golden reference,
    // several optimized snapshots to certify (here the network after each
    // mc+xor flow iteration over adder64).  Cold path: a fresh
    // whole-network miter per snapshot (oracle::check_equivalence).
    // Incremental path: a fresh incremental_cec per snapshot, which
    // strashes and sweeps the snapshot into the golden encoding and then
    // decides the outputs one by one on the same solver.  CI gates on the
    // incremental path being >= 2x faster over the sequence.
    double cec_cold_s = 1e300, cec_warm_s = 1e300;
    size_t cec_checks = 0, cec_outputs = 0;
    {
        using clock = std::chrono::steady_clock;
        const auto golden = gen_adder(64);
        std::vector<xag> versions;
        {
            auto net = gen_adder(64);
            pass_context ctx;
            const auto f = make_flow("mc+xor", flow_params{});
            for (int i = 0; i < 3; ++i) {
                run_flow(net, f, ctx);
                versions.push_back(cleanup(net));
            }
        }
        cec_checks = versions.size();
        for (int sample = 0; sample < 3; ++sample) {
            {
                const auto start = clock::now();
                for (const auto& v : versions) {
                    const auto rep = oracle::check_equivalence(v, golden);
                    if (rep.result != sat::equivalence_result::equivalent) {
                        std::fprintf(stderr, "FAIL: cold CEC refuted an "
                                             "optimized adder64\n");
                        return 1;
                    }
                }
                cec_cold_s = std::min(
                    cec_cold_s,
                    std::chrono::duration<double>(clock::now() - start)
                        .count());
            }
            {
                const auto start = clock::now();
                cec_outputs = 0;
                for (const auto& v : versions) {
                    sat::incremental_cec cec{golden};
                    const auto rep = cec.check(v);
                    if (rep.result != sat::equivalence_result::equivalent) {
                        std::fprintf(stderr, "FAIL: incremental CEC refuted "
                                             "an optimized adder64\n");
                        return 1;
                    }
                    cec_outputs += cec.records().size();
                }
                cec_warm_s = std::min(
                    cec_warm_s,
                    std::chrono::duration<double>(clock::now() - start)
                        .count());
            }
        }
    }
    const double cec_speedup = cec_cold_s / cec_warm_s;
    std::printf("\nincremental CEC (adder64 mc+xor, %zu snapshots, %zu "
                "output solves):\n",
                cec_checks, cec_outputs);
    std::printf("  cold whole-network miter  %8.4f s\n", cec_cold_s);
    std::printf("  incremental, per snapshot %8.4f s\n", cec_warm_s);
    std::printf("%-34s %12.2f x\n", "cec/warm_speedup", cec_speedup);

    // ------------------------------------------------------- JSON output
    const char* json_path_env = std::getenv("MCX_BENCH_JSON");
    const std::string json_path =
        json_path_env != nullptr ? json_path_env : "BENCH_micro_core.json";
    FILE* json = std::fopen(json_path.c_str(), "w");
    if (json == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
    }
#if defined(__clang__)
    const char* compiler_id = "clang";
    const int compiler_major = __clang_major__;
    const int compiler_minor = __clang_minor__;
#elif defined(__GNUC__)
    const char* compiler_id = "gcc";
    const int compiler_major = __GNUC__;
    const int compiler_minor = __GNUC_MINOR__;
#else
    const char* compiler_id = "unknown";
    const int compiler_major = 0;
    const int compiler_minor = 0;
#endif
#ifndef MCX_BUILD_TYPE
#define MCX_BUILD_TYPE "unknown"
#endif
    std::fprintf(json, "{\n");
    // What produced this file: numbers are only comparable against runs
    // from the same hardware class and build configuration.
    std::fprintf(json,
                 "  \"host\": {\"schema_version\": 7, "
                 "\"hardware_concurrency\": %u, "
                 "\"compiler\": \"%s\", \"compiler_version\": \"%d.%d\", "
                 "\"build_type\": \"%s\"},\n",
                 hw_threads, compiler_id, compiler_major, compiler_minor,
                 MCX_BUILD_TYPE);
    std::fprintf(json, "  \"benchmarks\": [\n");
    for (size_t i = 0; i < g_results.size(); ++i) {
        const auto& r = g_results[i];
        std::fprintf(json,
                     "    {\"name\": \"%s\", \"ns_per_op\": %.2f, "
                     "\"ops\": %llu}%s\n",
                     r.name.c_str(), r.ns_per_op,
                     static_cast<unsigned long long>(r.ops),
                     i + 1 < g_results.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    // speedups.parallel_round reads 0 when the stage's timing was skipped
    // (< 4 hardware threads: the ratio would be noise, not a measurement).
    std::fprintf(json,
                 "  \"speedups\": {"
                 "\"cut_enumeration\": %.2f, \"classify\": %.2f, "
                 "\"classify4\": %.2f, \"classify_tie_heavy\": %.2f, "
                 "\"simulate_cuts_adder64\": %.2f, "
                 "\"simulate_cuts_des4\": %.2f, \"parallel_round\": %.2f",
                 cut_speedup, classify_speedup, classify4_speedup,
                 classify_tie_speedup, cone_adder64_speedup,
                 cone_des4_speedup, par_speedup);
    std::fprintf(json,
                 ", \"incremental_work\": %.2f, \"warm_cec\": %.2f, "
                 "\"sat_core\": %.2f, \"exact_hard5\": %.2f},\n",
                 inc_work_ratio, cec_speedup, satcore_speedup,
                 exact5_speedup);
    std::fprintf(json,
                 "  \"cache\": {\"classification_hit_rate\": %.4f, "
                 "\"db_hit_rate\": %.4f},\n",
                 cls_hit_rate, db_hit_rate);
    std::fprintf(json,
                 "  \"round\": {\"seconds\": %.4f, \"cut_seconds\": %.4f, "
                 "\"rewrite_seconds\": %.4f, \"replacements\": %llu},\n",
                 round.seconds, round.cut_seconds, round.rewrite_seconds,
                 static_cast<unsigned long long>(round.replacements));
    std::fprintf(json,
                 "  \"obs_overhead\": {\"workload\": \"adder64\", "
                 "\"rounds_per_sample\": %d, "
                 "\"enabled_seconds\": %.4f, \"disabled_seconds\": %.4f, "
                 "\"ratio\": %.4f, \"gated\": true},\n",
                 obs_batch, obs_on_s, obs_off_s, obs_ratio);
    // The same keys whether or not the timing ran; `skipped` tells which.
    std::fprintf(json,
                 "  \"parallel_round\": {\"workload\": \"md5\", "
                 "\"threads\": 4, \"skipped\": %s, \"reason\": \"%s\", "
                 "\"seconds_1t\": %.4f, \"seconds_4t\": %.4f, "
                 "\"speedup\": %.2f, \"hardware_concurrency\": %u, "
                 "\"gated\": %s, \"deterministic\": true},\n",
                 par_skipped ? "true" : "false",
                 par_skipped ? "hardware_concurrency < 4" : "", par_1t,
                 par_4t, par_speedup, hw_threads,
                 par_skipped ? "false" : "true");
    std::fprintf(json,
                 "  \"incremental_round\": {\"workload\": \"adder64\", "
                 "\"rounds\": %u, \"warmup_replacements\": %llu, "
                 "\"steady_reenumerated_nodes\": %llu, "
                 "\"steady_clean_nodes\": %llu, "
                 "\"steady_merged_pairs\": %llu, "
                 "\"steady_merged_pairs_full\": %llu, "
                 "\"work_ratio\": %.2f, \"steady\": %s, \"gated\": %s, "
                 "\"deterministic\": true},\n",
                 inc_rounds,
                 static_cast<unsigned long long>(inc_warmup_repl),
                 static_cast<unsigned long long>(inc_steady_reenum),
                 static_cast<unsigned long long>(inc_steady_clean),
                 static_cast<unsigned long long>(inc_steady_merged),
                 static_cast<unsigned long long>(full_steady_merged),
                 inc_work_ratio, inc_measured_steady ? "true" : "false",
                 inc_gated ? "true" : "false");
    std::fprintf(json,
                 "  \"incremental_evaluate\": {\"workload\": \"adder64\", "
                 "\"rounds\": %u, \"warmup_replacements\": %llu, "
                 "\"steady_nodes_evaluated\": %llu, "
                 "\"steady_nodes_clean\": %llu, "
                 "\"steady_nodes_evaluated_full\": %llu, "
                 "\"steady\": %s, \"gated\": %s, "
                 "\"deterministic\": true, "
                 "\"converging\": {\"workload\": \"des4\", \"round\": %u, "
                 "\"nodes_evaluated\": %llu, "
                 "\"nodes_evaluated_full\": %llu, \"ratio\": %.2f, "
                 "\"gated\": %s}},\n",
                 eval_rounds,
                 static_cast<unsigned long long>(eval_warmup_repl),
                 static_cast<unsigned long long>(eval_steady_evaluated),
                 static_cast<unsigned long long>(eval_steady_clean),
                 static_cast<unsigned long long>(eval_oracle_evaluated),
                 eval_measured_steady ? "true" : "false",
                 eval_gated ? "true" : "false", conv_round,
                 static_cast<unsigned long long>(conv_evaluated),
                 static_cast<unsigned long long>(conv_evaluated_full),
                 conv_ratio, conv_gated ? "true" : "false");
    std::fprintf(json,
                 "  \"incremental_verify\": {\"workload\": "
                 "\"adder64 mc+xor\", \"snapshots\": %zu, "
                 "\"output_solves\": %zu, "
                 "\"cold_seconds\": %.4f, \"warm_seconds\": %.4f, "
                 "\"speedup\": %.2f, \"gated\": true},\n",
                 cec_checks, cec_outputs, cec_cold_s, cec_warm_s,
                 cec_speedup);
    std::fprintf(json,
                 "  \"sat_core\": {\"workload\": \"php9 + exact-MC 5-input "
                 "encoding\", \"modern_seconds\": %.4f, "
                 "\"legacy_seconds\": %.4f, \"speedup\": %.2f, "
                 "\"gated\": true},\n",
                 satcore_modern_s, satcore_legacy_s, satcore_speedup);
    std::fprintf(json,
                 "  \"exact_hard5\": {\"workload\": \"5-input miss "
                 "0xd9ff7cf6\", \"modern_seconds\": %.4f, "
                 "\"legacy_seconds\": %.4f, \"speedup\": %.2f, "
                 "\"gated\": true},\n",
                 exact5_modern_s, exact5_legacy_s, exact5_speedup);
    std::fprintf(json, "  \"sink\": %llu\n}\n",
                 static_cast<unsigned long long>(g_sink));
    std::fclose(json);
    std::printf("\nwrote %s\n", json_path.c_str());

    // Acceptance gates: fail loudly if the fast paths regress.  Batched
    // cone simulation must not be slower than per-cut cone_function on
    // either circuit; the word-parallel affine classifier must stay >= 4x
    // its scalar baseline cold-cache, on random and on tie-heavy spectra.
    if (cut_speedup < 2.0 || classify_speedup < 4.0 ||
        classify4_speedup < 4.0 || classify_tie_speedup < 4.0 ||
        cone_adder64_speedup < 1.0 || cone_des4_speedup < 1.0) {
        std::fprintf(stderr,
                     "FAIL: speedup gates not met (cut %.2fx >= 2x, "
                     "classify %.2fx >= 4x, classify4 %.2fx >= 4x, "
                     "classify_tie_heavy %.2fx >= 4x, simulate_cuts "
                     "adder64 %.2fx >= 1x, des4 %.2fx >= 1x)\n",
                     cut_speedup, classify_speedup, classify4_speedup,
                     classify_tie_speedup, cone_adder64_speedup,
                     cone_des4_speedup);
        return 1;
    }
    // The parallel-round gate needs real cores: >= 2x at 4 workers is
    // physically impossible on a 1-2 thread machine, so there the stage is
    // skipped (parallel_round.skipped = true) without failing CI.
    if (!par_skipped && par_speedup < 2.0) {
        std::fprintf(stderr,
                     "FAIL: parallel round speedup %.2fx < 2x at 4 threads "
                     "(%u hardware threads)\n",
                     par_speedup, hw_threads);
        return 1;
    }
    // Incremental cut maintenance must pay in steady state: the round
    // after convergence re-enumerates >= 2x less than a full rebuild
    // (gated only when the warm-up rounds actually replaced something —
    // with nothing to track, the ratio is recorded but meaningless).
    if (inc_gated && inc_work_ratio < 2.0) {
        std::fprintf(stderr,
                     "FAIL: incremental cut maintenance work ratio %.2fx "
                     "< 2x on the steady-state adder64 round\n",
                     inc_work_ratio);
        return 1;
    }
    // Incremental evaluate must go quiescent: the round after convergence
    // runs on an empty dirty set and re-evaluates NOTHING — not "less",
    // zero — while staying byte-identical to the full-evaluate oracle
    // (asserted above, every round).
    if (eval_gated && eval_steady_evaluated != 0) {
        std::fprintf(stderr,
                     "FAIL: steady-state round evaluated %llu nodes with "
                     "incremental evaluate on (expected 0)\n",
                     static_cast<unsigned long long>(eval_steady_evaluated));
        return 1;
    }
    // A converging round must not re-score the whole transitive fanout of
    // the previous round's commits: on des4 the oracle re-scores >= 4x the
    // gates the dirty set names.
    if (conv_gated && conv_ratio < 4.0) {
        std::fprintf(stderr,
                     "FAIL: des4 converging round evaluated %llu nodes vs "
                     "%llu full (%.2fx < 4x)\n",
                     static_cast<unsigned long long>(conv_evaluated),
                     static_cast<unsigned long long>(conv_evaluated_full),
                     conv_ratio);
        return 1;
    }
    // Observing must be close to free: with tracing disabled (the
    // default), the metrics registry may tax the warmed round by at most
    // 3% — the overhead contract in docs/observability.md.
    if (obs_ratio > 1.03) {
        std::fprintf(stderr,
                     "FAIL: observability overhead %.3fx > 1.03x on the "
                     "warmed adder64 round (enabled %.4fs, disabled %.4fs)\n",
                     obs_ratio, obs_on_s, obs_off_s);
        return 1;
    }
    // The modern CDCL core must earn its complexity on the solver-bound
    // workloads: >= 2x over the legacy oracle on the hard-instance batch
    // and on the 5-input exact-synthesis miss (docs/sat.md).
    if (satcore_speedup < 2.0 || exact5_speedup < 2.0) {
        std::fprintf(stderr,
                     "FAIL: modern SAT core speedup below 2x (sat_core "
                     "%.2fx, exact_hard5 %.2fx vs legacy)\n",
                     satcore_speedup, exact5_speedup);
        return 1;
    }
    // The incremental CEC (strash, sweep, per-output solves) must beat
    // fresh whole-network miters over the iterated-flow verification
    // sequence, one fresh prover per snapshot.
    if (cec_speedup < 2.0) {
        std::fprintf(stderr,
                     "FAIL: incremental CEC %.2fx < 2x vs cold "
                     "whole-network miters (cold %.4fs, incremental "
                     "%.4fs)\n",
                     cec_speedup, cec_cold_s, cec_warm_s);
        return 1;
    }
    std::printf("speedup gates passed (cut %.1fx >= 2x, "
                "classify %.1fx >= 4x, classify4 %.1fx >= 4x, "
                "classify_tie_heavy %.1fx >= 4x, simulate_cuts "
                "adder64 %.1fx / des4 %.1fx >= 1x, parallel round %s, "
                "incremental work %.1fx%s)\n",
                cut_speedup, classify_speedup,
                classify4_speedup, classify_tie_speedup,
                cone_adder64_speedup, cone_des4_speedup,
                par_skipped ? "[timing skipped: < 4 hw threads; "
                              "determinism asserted]"
                            : "measured >= 2x",
                inc_work_ratio,
                inc_gated ? " >= 2x" : " [recorded, not gated]");
    std::printf("incremental gates passed (steady evaluate %llu == 0%s, "
                "des4 converging round %.1fx%s, incremental CEC %.1fx >= "
                "2x)\n",
                static_cast<unsigned long long>(eval_steady_evaluated),
                eval_gated ? "" : " [recorded, not gated]", conv_ratio,
                conv_gated ? " >= 4x" : " [recorded, not gated]",
                cec_speedup);
    std::printf("observability gate passed (overhead %.3fx <= 1.03x)\n",
                obs_ratio);
    std::printf("sat core gates passed (sat_core %.1fx >= 2x, exact_hard5 "
                "%.1fx >= 2x vs legacy)\n",
                satcore_speedup, exact5_speedup);
    return 0;
}
