// End-to-end pipeline tests: generators -> optimizer -> exporters, verified
// by simulation against software references and by SAT equivalence, plus
// the flow-level equivalence sweep (`mc+xor` over every generator family).
#include "core/flow.h"
#include "db/mc_database.h"
#include "gen/aes.h"
#include "gen/arithmetic.h"
#include "gen/control.h"
#include "gen/des.h"
#include "gen/hashes.h"
#include "gen/lightweight.h"
#include "io/bench.h"
#include "io/bristol.h"
#include "oracle/check_equivalence.h"
#include "spectral/classification.h"
#include "xag/cleanup.h"
#include "xag/depth.h"
#include "xag/simulate.h"
#include "xag/verify.h"

#include <gtest/gtest.h>

#include <random>
#include <sstream>

namespace mcx {
namespace {

TEST(integration, optimized_des_still_encrypts)
{
    auto net = gen_des(2); // two rounds keep the test fast
    pass_context ctx;
    mc_rewrite_pass{{}, 3}.run(net, ctx);
    net.check_integrity();

    // Compare against an independently-built reference circuit by random
    // simulation (the reference integer model covers 16 rounds only).
    const auto reference = gen_des(2);
    EXPECT_TRUE(random_simulation_equal(cleanup(net), cleanup(reference), 64));
}

TEST(integration, optimized_sbox_equals_reference)
{
    xag net;
    std::array<signal, 8> in;
    for (auto& s : in)
        s = net.create_pi();
    for (const auto s : aes_sbox_circuit(net, in))
        net.create_po(s);

    const auto before = net.num_ands();
    pass_context ctx;
    mc_rewrite_pass{}.run(net, ctx);
    EXPECT_LE(net.num_ands(), before);

    const auto tts = simulate(net);
    for (uint32_t x = 0; x < 256; ++x) {
        uint8_t y = 0;
        for (int b = 0; b < 8; ++b)
            y |= static_cast<uint8_t>(tts[b].get_bit(x)) << b;
        ASSERT_EQ(y, aes_sbox_reference(static_cast<uint8_t>(x)));
    }
}

TEST(integration, optimize_then_export_bristol_sat_equivalent)
{
    auto net = gen_adder(12);
    const auto golden = cleanup(net);
    pass_context ctx;
    mc_rewrite_pass{}.run(net, ctx);
    auto optimized = cleanup(net);

    std::stringstream buffer;
    write_bristol(optimized, buffer);
    const auto reparsed = read_bristol(buffer);

    const auto report = oracle::check_equivalence(reparsed, golden);
    EXPECT_EQ(report.result, sat::equivalence_result::equivalent);
}

TEST(integration, optimize_then_export_bench_roundtrip)
{
    auto net = gen_comparator_lt_unsigned(8); // 16 PIs: exhaustive range
    pass_context ctx;
    mc_rewrite_pass{}.run(net, ctx);
    auto optimized = cleanup(net);

    std::stringstream buffer;
    write_bench(optimized, buffer);
    const auto reparsed = read_bench(buffer);
    EXPECT_TRUE(exhaustive_equal(optimized, reparsed));
}

TEST(integration, rewriting_reduces_multiplicative_depth_of_adders)
{
    // Not a paper claim, but a sanity property of the majority rewrite:
    // replacing 2-AND-deep carry cones with single ANDs cannot deepen.
    auto net = gen_adder(16);
    const auto depth_before = and_depth(net);
    pass_context ctx;
    mc_rewrite_pass{}.run(net, ctx);
    EXPECT_LE(and_depth(net), depth_before);
}

TEST(integration, database_roundtrip_through_rewrite)
{
    // Warm a database on one circuit, save, reload, and rewrite the same
    // circuit again with the reloaded copy: it must serve the very circuits
    // the fresh database served, so the two results are byte-identical.
    // (log2:8 is a circuit where a reload used to serve re-serialized,
    // structurally different entries.)
    mc_database db;
    pass_context ctx;
    ctx.adopt(&db);
    auto first = gen_log2(8);
    mc_rewrite_pass{{}, 4}.run(first, ctx);

    std::stringstream buffer;
    db.save(buffer);
    auto reloaded = mc_database::load(buffer);
    EXPECT_EQ(reloaded.size(), db.size());

    auto second = gen_log2(8);
    const auto golden = cleanup(second);
    pass_context ctx2;
    ctx2.adopt(&reloaded);
    mc_rewrite_pass{{}, 4}.run(second, ctx2);
    EXPECT_TRUE(exhaustive_equal(cleanup(second), golden));
    std::ostringstream first_text, second_text;
    write_bench(first, first_text);
    write_bench(second, second_text);
    EXPECT_EQ(second_text.str(), first_text.str());
}

TEST(integration, combined_xag_db_matches_entries)
{
    // The paper's XAG_DB: one network, one output per representative.
    mc_database db;
    std::mt19937_64 rng{77};
    for (int i = 0; i < 6; ++i) {
        truth_table f{4};
        f.words()[0] = rng() & tt_mask(4);
        const auto cls = classify_affine(f, {.iteration_limit = 2'000'000});
        if (cls.success)
            db.lookup_or_build(cls.representative);
    }
    const auto combined = db.export_combined();
    ASSERT_EQ(combined.representatives.size(), db.size());
    EXPECT_EQ(combined.network.num_pis(), 6u);
    EXPECT_EQ(combined.network.num_pos(), db.size());

    const auto tts = simulate(combined.network);
    for (size_t i = 0; i < combined.representatives.size(); ++i) {
        const auto& rep = combined.representatives[i];
        // Output i, restricted to the entry's variable count, must equal
        // the representative.
        for (uint64_t x = 0; x < rep.num_bits(); ++x)
            ASSERT_EQ(tts[i].get_bit(x), rep.get_bit(x))
                << "entry " << i << " x=" << x;
    }
}

// Parameterized pipeline sweep: every parameter combination must preserve
// function and network invariants.
struct sweep_params {
    uint32_t cut_size;
    uint32_t cut_limit;
    bool zero_gain;
};

class rewrite_sweep : public ::testing::TestWithParam<sweep_params> {};

TEST_P(rewrite_sweep, preserves_function_and_invariants)
{
    const auto p = GetParam();
    std::mt19937_64 rng{p.cut_size * 100 + p.cut_limit};
    xag net;
    std::vector<signal> pool;
    for (int i = 0; i < 9; ++i)
        pool.push_back(net.create_pi());
    for (int i = 0; i < 150; ++i) {
        const auto a = pool[rng() % pool.size()] ^ ((rng() & 1) != 0);
        const auto b = pool[rng() % pool.size()] ^ ((rng() & 1) != 0);
        pool.push_back((rng() % 3) ? net.create_and(a, b)
                                   : net.create_xor(a, b));
    }
    for (int i = 0; i < 6; ++i)
        net.create_po(pool[pool.size() - 1 - i]);

    const auto golden = cleanup(net);
    const auto before = net.num_ands();

    rewrite_params params;
    params.cut_size = p.cut_size;
    params.cut_limit = p.cut_limit;
    params.allow_zero_gain = p.zero_gain;
    pass_context ctx;
    mc_rewrite_pass{params, 4}.run(net, ctx);

    net.check_integrity();
    EXPECT_LE(net.num_ands(), before);
    EXPECT_TRUE(exhaustive_equal(cleanup(net), golden))
        << "cut_size=" << p.cut_size << " cut_limit=" << p.cut_limit
        << " zero_gain=" << p.zero_gain;
}

INSTANTIATE_TEST_SUITE_P(
    parameter_grid, rewrite_sweep,
    ::testing::Values(sweep_params{2, 4, false}, sweep_params{3, 8, false},
                      sweep_params{4, 12, false}, sweep_params{5, 12, false},
                      sweep_params{6, 12, false}, sweep_params{6, 4, false},
                      sweep_params{6, 25, false}, sweep_params{4, 8, true},
                      sweep_params{6, 12, true}));

// ------------------------------------------------- flow-level equivalence
//
// `mc+xor` over every src/gen/ generator family at small widths: the
// optimized network must be equivalent to the unoptimized one —
// exhaustively when the input count allows, by word-parallel random
// simulation otherwise.

void run_flow_equivalence(xag net, const flow_params& params = {})
{
    const auto golden = cleanup(net);
    pass_context ctx{context_params(params)};
    const auto result = run_flow(net, make_flow("mc+xor", params), ctx);
    EXPECT_LE(result.after.num_ands, result.before.num_ands);
    EXPECT_EQ(result.passes.size(), 2u);
    auto optimized = cleanup(net);
    optimized.check_integrity();
    if (optimized.num_pis() <= 16)
        EXPECT_TRUE(exhaustive_equal(optimized, golden));
    else
        EXPECT_TRUE(random_simulation_equal(optimized, golden, 16));
}

TEST(flow_equivalence, arithmetic_family)
{
    run_flow_equivalence(gen_adder(8));
    run_flow_equivalence(gen_comparator_lt_unsigned(6));
    run_flow_equivalence(gen_multiplier(4));
}

TEST(flow_equivalence, control_family)
{
    run_flow_equivalence(gen_decoder(4));
    run_flow_equivalence(gen_voter(7));
    run_flow_equivalence(gen_priority_encoder(8));
}

TEST(flow_equivalence, aes_family)
{
    xag net;
    std::array<signal, 8> in;
    for (auto& s : in)
        s = net.create_pi();
    for (const auto s : aes_sbox_circuit(net, in))
        net.create_po(s);
    run_flow_equivalence(std::move(net));
}

TEST(flow_equivalence, des_family)
{
    run_flow_equivalence(gen_des(1));
}

TEST(flow_equivalence, lightweight_family)
{
    run_flow_equivalence(gen_simon(16, 4));
    run_flow_equivalence(gen_keccak_f(8));
}

TEST(flow_equivalence, hashes_family)
{
    // Full-size compression function: a budgeted flow configuration (3-cuts,
    // heuristic database, one round) keeps the test affordable while still
    // exercising the whole mc+xor pipeline at hash scale.
    flow_params budget;
    budget.max_rounds = 1;
    budget.rewrite.cut_size = 3;
    budget.rewrite.cut_limit = 4;
    budget.rewrite.db.use_exact = false;
    run_flow_equivalence(gen_md5(), budget);
}

} // namespace
} // namespace mcx
