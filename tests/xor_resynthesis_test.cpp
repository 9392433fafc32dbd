#include "core/pass.h"
#include "core/xor_pairing.h"
#include "core/xor_resynthesis.h"
#include "gen/arithmetic.h"
#include "gen/des.h"
#include "gen/hashes.h"
#include "gen/lightweight.h"
#include "io/bench.h"
#include "oracle/xor_pairing_reference.h"
#include "par/thread_pool.h"
#include "xag/cleanup.h"
#include "xag/simulate.h"
#include "xag/verify.h"
#include "xag/xag.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <random>
#include <sstream>
#include <string>

namespace mcx {
namespace {

TEST(xor_resynthesis_pass, extracts_common_pairs)
{
    // Three linear outputs sharing the pair (a ^ b):
    //   y0 = a^b^c, y1 = a^b^d, y2 = a^b^c^d
    // Naive chains cost 2+2+3 = 7 XORs; with the shared pair: 1+3 = 4.
    xag net;
    const auto a = net.create_pi();
    const auto b = net.create_pi();
    const auto c = net.create_pi();
    const auto d = net.create_pi();
    // Build deliberately unshared chains (different association orders).
    net.create_po(net.create_xor(net.create_xor(a, b), c));
    net.create_po(net.create_xor(net.create_xor(b, d), a));
    net.create_po(net.create_xor(net.create_xor(c, a), net.create_xor(d, b)));
    const auto golden = simulate(net);
    const auto before = net.num_xors();

    const auto stats = xor_resynthesis(net);
    net.check_integrity();
    EXPECT_EQ(simulate(net), golden);
    EXPECT_LT(net.num_xors(), before);
    EXPECT_GE(stats.pairs_extracted, 1u);
    EXPECT_EQ(stats.xors_after, net.num_xors());
}

TEST(xor_resynthesis_pass, cancels_duplicate_terms)
{
    // y = a ^ b ^ a = b: the expansion must cancel the doubled term and the
    // root must collapse to a wire.
    xag net;
    const auto a = net.create_pi();
    const auto b = net.create_pi();
    const auto c = net.create_pi();
    const auto t = net.create_xor(a, b);
    const auto y = net.create_xor(t, a);
    net.create_po(net.create_and(y, c)); // consume via an AND: block root
    const auto golden = simulate(net);

    xor_resynthesis(net);
    net.check_integrity();
    EXPECT_EQ(simulate(net), golden);
    // y collapsed to b: no XOR gates remain.
    EXPECT_EQ(net.num_xors(), 0u);
}

TEST(xor_resynthesis_pass, preserves_and_count)
{
    std::mt19937_64 rng{81};
    for (int rep = 0; rep < 6; ++rep) {
        xag net;
        std::vector<signal> pool;
        for (int i = 0; i < 8; ++i)
            pool.push_back(net.create_pi());
        for (int i = 0; i < 120; ++i) {
            const auto x = pool[rng() % pool.size()] ^ ((rng() & 1) != 0);
            const auto y = pool[rng() % pool.size()] ^ ((rng() & 1) != 0);
            pool.push_back((rng() % 3) ? net.create_xor(x, y)
                                       : net.create_and(x, y));
        }
        for (int i = 0; i < 6; ++i)
            net.create_po(pool[pool.size() - 1 - i]);

        const auto golden = cleanup(net);
        const auto ands = net.num_ands();
        xor_resynthesis(net);
        net.check_integrity();
        // Rewiring can only help the AND count (roots collapsing to shared
        // wires let downstream AND gates fold), never hurt it.
        EXPECT_LE(net.num_ands(), ands) << "rep " << rep;
        EXPECT_TRUE(exhaustive_equal(cleanup(net), golden)) << "rep " << rep;
    }
}

TEST(xor_resynthesis_pass, after_mc_rewrite_on_adder)
{
    // The paper's pipeline leaves XOR-heavy affine interfaces behind; the
    // resynthesis pass must clean them up without touching the AND optimum.
    auto net = gen_adder(16);
    pass_context ctx;
    mc_rewrite_pass{}.run(net, ctx);
    const auto ands = net.num_ands();
    const auto golden = cleanup(net);

    const auto stats = xor_resynthesis(net);
    net.check_integrity();
    EXPECT_EQ(net.num_ands(), ands);
    EXPECT_LE(stats.xors_after, stats.xors_before);
    EXPECT_TRUE(random_simulation_equal(cleanup(net), golden, 32));
}

TEST(xor_resynthesis_pass, noop_on_and_only_network)
{
    xag net;
    const auto a = net.create_pi();
    const auto b = net.create_pi();
    net.create_po(net.create_and(a, b));
    const auto stats = xor_resynthesis(net);
    EXPECT_EQ(stats.blocks, 0u);
    EXPECT_EQ(stats.xors_before, stats.xors_after);
}

// ------------------------------------------------------ wide-row pairing

/// Rows of `width` terms sharing a long prefix, deliberately associated
/// differently so the naive trees share nothing.  Terms are AND gates so
/// the PI count stays at 8 (exhaustive verification) while rows grow past
/// the old 16-term pairing cap.
xag wide_row_network(uint32_t width, uint32_t num_rows)
{
    xag net;
    std::vector<signal> pis;
    for (int i = 0; i < 8; ++i)
        pis.push_back(net.create_pi());
    std::vector<signal> terms;
    for (uint32_t i = 0; terms.size() < width + num_rows; ++i)
        for (uint32_t j = i + 1; j < 8 && terms.size() < width + num_rows;
             ++j) {
            const auto t = net.create_and(pis[i] ^ (i & 1), pis[j]);
            if ((i + j) % 3 != 0)
                terms.push_back(t);
            else
                terms.push_back(net.create_and(t, pis[(i + j) % 8] ^ true));
        }
    std::mt19937_64 rng{7};
    for (uint32_t r = 0; r < num_rows; ++r) {
        // Shared prefix terms 0..width-1 plus one private term, built in a
        // per-row shuffled order so every row's tree is distinct.
        std::vector<signal> row(terms.begin(), terms.begin() + width);
        row.push_back(terms[width + r]);
        std::shuffle(row.begin(), row.end(), rng);
        auto acc = row[0];
        for (size_t i = 1; i < row.size(); ++i)
            acc = net.create_xor(acc, row[i]);
        net.create_po(net.create_and(acc, pis[r % 8]));
    }
    return net;
}

TEST(xor_resynthesis_pass, pairs_rows_beyond_the_old_16_term_cap)
{
    // 24-term rows: before PR 4 these skipped pairing entirely and kept
    // their unshared trees (0 pairs, no XOR reduction).
    auto net = wide_row_network(24, 4);
    const auto golden = cleanup(net);
    const auto before = net.num_xors();

    const auto stats = xor_resynthesis(net);
    net.check_integrity();
    EXPECT_GT(stats.widest_row, 16u);
    EXPECT_GT(stats.widest_row_paired, 16u);
    EXPECT_EQ(stats.rows_paired, stats.blocks);
    EXPECT_GT(stats.pairs_extracted, 0u);
    EXPECT_LT(net.num_xors(), before);
    EXPECT_TRUE(exhaustive_equal(cleanup(net), golden));
}

TEST(xor_resynthesis_pass, starved_budget_skips_rows)
{
    // A starved work budget admits no row; the pass must still leave the
    // network correct and no larger.
    auto net = wide_row_network(24, 4);
    const auto golden = cleanup(net);
    const auto before = net.num_xors();
    const auto stats = xor_resynthesis(net, {.pairing_work_budget = 1});
    net.check_integrity();
    EXPECT_EQ(stats.rows_paired, 0u);
    EXPECT_EQ(stats.pairs_extracted, 0u);
    EXPECT_LE(net.num_xors(), before);
    EXPECT_TRUE(exhaustive_equal(cleanup(net), golden));
}

TEST(xor_resynthesis_pass, pool_seeding_is_deterministic)
{
    // Pair-count seeding fans out across workers, but with the admission
    // set pinned (unlimited budget ⇒ every row admitted at any worker
    // count) the extracted pairs — and therefore the rebuilt network —
    // must be byte-identical to the pool-free pass.  Workloads are kept
    // small enough that unlimited admission stays cheap: 20- and 24-term
    // rows, an adder's xor-heavy carry interface, and simon's round
    // structure.
    const auto serialize = [](const xag& n) {
        std::ostringstream os;
        write_bench(cleanup(n), os);
        return os.str();
    };
    const auto sources = {wide_row_network(24, 4), wide_row_network(20, 6),
                          gen_adder(16), gen_simon(16, 4)};
    for (const auto& source : sources) {
        auto seq = source;
        xor_resynthesis(seq, {.pairing_work_budget = 0});
        const auto oracle = serialize(seq);
        for (const uint32_t workers : {1u, 4u}) {
            thread_pool pool{workers};
            auto par = source;
            const auto stats = xor_resynthesis(
                par, {.pairing_work_budget = 0, .pool = &pool});
            par.check_integrity();
            EXPECT_EQ(serialize(par), oracle) << workers << " workers";
            EXPECT_EQ(stats.seed_workers, workers);
        }
    }
}

/// A few rows wide enough that one row's pair loop alone exceeds the
/// seeding chunk floor (~4096 pairs), so the pool must split single rows
/// across workers.  16 PIs give 120 distinct AND pairs; doubled variants
/// push the distinct-term pool past the requested width.
xag giant_row_network(uint32_t width, uint32_t num_rows)
{
    xag net;
    std::vector<signal> pis;
    for (int i = 0; i < 16; ++i)
        pis.push_back(net.create_pi());
    std::vector<signal> terms;
    for (uint32_t i = 0; i < 16 && terms.size() < width + num_rows; ++i)
        for (uint32_t j = i + 1; j < 16 && terms.size() < width + num_rows;
             ++j) {
            const auto t = net.create_and(pis[i] ^ (i & 1), pis[j]);
            terms.push_back(t);
            if (terms.size() < width + num_rows)
                terms.push_back(net.create_and(t, pis[(i + j) % 16] ^ true));
        }
    std::mt19937_64 rng{19};
    for (uint32_t r = 0; r < num_rows; ++r) {
        std::vector<signal> row(terms.begin(), terms.begin() + width);
        row.push_back(terms[width + r]);
        std::shuffle(row.begin(), row.end(), rng);
        auto acc = row[0];
        for (size_t i = 1; i < row.size(); ++i)
            acc = net.create_xor(acc, row[i]);
        net.create_po(net.create_and(acc, pis[r % 16]));
    }
    return net;
}

TEST(xor_resynthesis_pass, pool_splits_single_wide_rows_deterministically)
{
    // 150-term rows carry 150·149/2 ≈ 11k pairs each — several seeding
    // chunks — so a single row's quadratic loop is spread across workers
    // rather than serializing on one.  Per-pair sums are schedule-
    // independent, so the rebuilt network must stay byte-identical to the
    // pool-free pass at any worker count.
    const auto serialize = [](const xag& n) {
        std::ostringstream os;
        write_bench(cleanup(n), os);
        return os.str();
    };
    const auto source = giant_row_network(150, 3);
    auto seq = source;
    const auto stats_seq = xor_resynthesis(seq, {.pairing_work_budget = 0});
    EXPECT_GE(stats_seq.widest_row_paired, 150u);
    const auto oracle = serialize(seq);
    for (const uint32_t workers : {1u, 4u}) {
        thread_pool pool{workers};
        auto par = source;
        const auto stats = xor_resynthesis(
            par, {.pairing_work_budget = 0, .pool = &pool});
        par.check_integrity();
        EXPECT_EQ(serialize(par), oracle) << workers << " workers";
        EXPECT_EQ(stats.seed_workers, workers);
        EXPECT_GE(stats.widest_row_paired, 150u) << workers << " workers";
    }
}

TEST(xor_resynthesis_pass, binding_budget_is_worker_count_independent)
{
    // The work budget is the same for every team size: under a budget that
    // admits some rows but not all, the admission set — and so the rebuilt
    // network — must not depend on whether or how wide a pool seeds pairs.
    const auto serialize = [](const xag& n) {
        std::ostringstream os;
        write_bench(cleanup(n), os);
        return os.str();
    };
    const uint64_t budget = 2400; // 25-term rows cost 625 each: 3 of 4 fit
    auto seq = wide_row_network(24, 4);
    const auto golden = cleanup(seq);
    const auto stats_seq =
        xor_resynthesis(seq, {.pairing_work_budget = budget});
    ASSERT_GT(stats_seq.rows_paired, 0u);
    ASSERT_LT(stats_seq.rows_paired, stats_seq.blocks); // the budget binds
    const auto oracle = serialize(seq);
    EXPECT_TRUE(exhaustive_equal(cleanup(seq), golden));
    for (const uint32_t workers : {1u, 4u}) {
        thread_pool pool{workers};
        auto par = wide_row_network(24, 4);
        const auto stats = xor_resynthesis(
            par, {.pairing_work_budget = budget, .pool = &pool});
        par.check_integrity();
        EXPECT_EQ(serialize(par), oracle) << workers << " workers";
        EXPECT_EQ(stats.rows_paired, stats_seq.rows_paired)
            << workers << " workers";
        EXPECT_EQ(stats.seed_workers, workers);
    }
}

/// A reconvergent XOR lattice over AND terminals t_0..t_6.  Node (l, j)
/// is the XOR of nodes (l-1, j) and (l-1, j+1 mod 7), so every lattice
/// node feeds two nodes of the next layer and t_{j+k} reaches node (l, j)
/// along C(l, k) paths: odd for some k, even (cancelled) for others.
///  - Node (3, 0) also drives an AND, so it is a block root of its own and
///    lies inside the cones of the last layer's roots: its row must
///    survive their reads.
///  - Each last-layer node reaches its output through a private chain
///    that adds four terminals twice, so the chain cancels out of the row
///    and the old tree is wasteful enough for the rebuild to pay off.
///  - Finally t_0 is re-pointed at a complemented gate: substitution
///    leaves the complement on the XOR fanin edges, so rows carry
///    constants.
xag lattice_network()
{
    xag net;
    std::vector<signal> pis;
    for (int i = 0; i < 10; ++i)
        pis.push_back(net.create_pi());
    constexpr uint32_t width = 7;
    std::vector<signal> terms;
    for (uint32_t j = 0; j < width; ++j)
        terms.push_back(
            net.create_and(pis[j], pis[(j + 3) % 10] ^ ((j & 1) != 0)));
    auto layer = terms;
    for (uint32_t l = 1; l <= 6; ++l) {
        std::vector<signal> next;
        for (uint32_t j = 0; j < width; ++j)
            next.push_back(net.create_xor(
                layer[j], layer[(j + 1) % width] ^ ((l + j) % 3 == 0)));
        layer = std::move(next);
        if (l == 3)
            net.create_po(net.create_and(layer[0], pis[9]));
    }
    for (uint32_t j = 0; j < width; ++j) {
        auto acc = layer[j];
        for (uint32_t k = 0; k < 8; ++k)
            acc = net.create_xor(acc, terms[(j + 1 + k % 4) % width]);
        net.create_po(acc);
    }
    net.substitute(terms[0].node(), !net.create_and(pis[7], pis[8]));
    return net;
}

TEST(xor_resynthesis_pass, reconvergent_lattice_keeps_function_and_ands)
{
    const auto serialize = [](const xag& n) {
        std::ostringstream os;
        write_bench(cleanup(n), os);
        return os.str();
    };
    const auto source = lattice_network();
    const auto golden = cleanup(source);

    auto net = source;
    const auto stats = xor_resynthesis(net);
    net.check_integrity();
    EXPECT_EQ(stats.blocks, 8u); // (3, 0) and the seven chain ends
    EXPECT_EQ(stats.rows_paired, stats.blocks);
    EXPECT_GT(stats.pairs_extracted, 0u);
    EXPECT_LT(stats.xors_after, stats.xors_before); // rebuilds were taken
    EXPECT_EQ(net.num_ands(), source.num_ands());
    EXPECT_TRUE(exhaustive_equal(cleanup(net), golden));

    const auto oracle = serialize(net);
    for (const uint32_t workers : {1u, 2u, 4u}) {
        thread_pool pool{workers};
        auto par = source;
        xor_resynthesis(par, {.pool = &pool});
        par.check_integrity();
        EXPECT_EQ(serialize(par), oracle) << workers << " workers";
    }
}

TEST(xor_resynthesis_pass, keccak_generator_produces_wide_rows)
{
    // A real generator whose linear blocks dwarf the old cap: keccak's
    // theta/chi structure yields rows of hundreds of terms.  Wide-row
    // pairing must hold the XOR count (never grow it) and preserve the
    // function.
    auto net = gen_keccak_f(8);
    const auto golden = cleanup(net);
    const auto stats = xor_resynthesis(net);
    net.check_integrity();
    EXPECT_GT(stats.widest_row, 16u);
    EXPECT_GT(stats.widest_row_paired, 16u);
    EXPECT_GT(stats.rows_paired, 0u);
    EXPECT_LE(stats.xors_after, stats.xors_before);
    EXPECT_TRUE(random_simulation_equal(cleanup(net), golden, 16));
}

// ------------------------------------------- pair extraction vs. oracle

/// The rows the XOR pass pairs on `net`: each block root's terminals, in
/// root order, with the rows beyond the default Σwidth² budget (admitted
/// narrowest first) left empty.
std::vector<linear_row> block_rows(const xag& net)
{
    std::vector<linear_row> rows(net.size());
    std::vector<uint8_t> is_root(net.size(), 0);
    for (const auto n : net.topological_order()) {
        if (!net.is_and(n) && !net.is_xor(n))
            continue;
        linear_row operand[2];
        for (int i = 0; i < 2; ++i) {
            const auto m = (i == 0 ? net.fanin0(n) : net.fanin1(n)).node();
            if (net.is_xor(m)) {
                operand[i] = rows[m];
                is_root[m] |= net.is_and(n) ? 1 : 0;
            } else if (m != 0) {
                operand[i] = {m};
            }
        }
        if (net.is_xor(n))
            std::set_symmetric_difference(
                operand[0].begin(), operand[0].end(), operand[1].begin(),
                operand[1].end(), std::back_inserter(rows[n]));
    }
    for (uint32_t i = 0; i < net.num_pos(); ++i)
        if (net.is_xor(net.po_at(i).node()))
            is_root[net.po_at(i).node()] = 1;
    std::vector<linear_row> roots;
    for (uint32_t n = 0; n < net.size(); ++n)
        if (is_root[n])
            roots.push_back(std::move(rows[n]));
    std::vector<uint32_t> by_width(roots.size());
    for (uint32_t r = 0; r < roots.size(); ++r)
        by_width[r] = r;
    std::stable_sort(by_width.begin(), by_width.end(),
                     [&](uint32_t a, uint32_t b) {
                         return roots[a].size() < roots[b].size();
                     });
    uint64_t work = 0;
    for (const auto r : by_width) {
        const uint64_t w = roots[r].size();
        if (work + w * w > xor_resynthesis_params{}.pairing_work_budget)
            roots[r].clear();
        else
            work += w * w;
    }
    return roots;
}

/// Extract pairs from `rows` with the oracle, then with the fast path
/// inline and on 1- and 4-worker pools: the plans and the rewritten rows
/// must be equal.  Returns the length of the oracle's plan.
size_t expect_plans_equal(const std::vector<linear_row>& rows,
                        uint32_t first_pair, const std::string& what)
{
    auto expected_rows = rows;
    const auto expected = oracle::extract_pairs_reference(
        expected_rows, first_pair, nullptr, {});
    const auto same = [&](const pair_plan& plan,
                          const std::vector<linear_row>& paired,
                          const std::string& how) {
        ASSERT_EQ(plan.pairs.size(), expected.pairs.size()) << what << how;
        for (size_t k = 0; k < plan.pairs.size(); ++k) {
            ASSERT_EQ(plan.pairs[k].a, expected.pairs[k].a)
                << what << how << " pair " << k;
            ASSERT_EQ(plan.pairs[k].b, expected.pairs[k].b)
                << what << how << " pair " << k;
        }
        EXPECT_EQ(plan.status, outcome::ok) << what << how;
        EXPECT_EQ(paired, expected_rows) << what << how;
    };
    auto paired = rows;
    same(extract_pairs(paired, first_pair, nullptr, {}), paired, " inline");
    for (const uint32_t workers : {1u, 4u}) {
        thread_pool pool{workers};
        paired = rows;
        same(extract_pairs(paired, first_pair, &pool, {}), paired,
             " on " + std::to_string(workers) + " workers");
    }
    return expected.pairs.size();
}

TEST(xor_pairing_differential, random_systems_over_small_alphabets)
{
    // Few terms and many rows: most pairs tie on count, so the plans agree
    // only if the tie-break (larger (a, b) first) agrees.
    std::mt19937_64 rng{2024};
    size_t pairs = 0;
    for (int rep = 0; rep < 300; ++rep) {
        const auto alphabet = static_cast<uint32_t>(4 + rng() % 12);
        const auto num_rows = static_cast<uint32_t>(2 + rng() % 40);
        std::vector<linear_row> rows(num_rows);
        for (auto& row : rows) {
            // Terms start at 1, as terminal 0 is the constant node.
            for (uint32_t t = 1; t <= alphabet; ++t)
                if (rng() % 3 != 0)
                    row.push_back(t);
        }
        const auto first_pair =
            alphabet + 1 + static_cast<uint32_t>(rng() % 3);
        pairs += expect_plans_equal(rows, first_pair,
                                    "rep " + std::to_string(rep));
    }
    EXPECT_GT(pairs, 1000u); // the systems do share pairs
}

TEST(xor_pairing_differential, generator_rows)
{
    for (const auto& [name, net] :
         {std::pair{"multiplier:8", gen_multiplier(8)},
          std::pair{"des:2", gen_des(2)},
          std::pair{"keccak:8", gen_keccak_f(8)}}) {
        const auto rows = block_rows(net);
        EXPECT_GT(expect_plans_equal(rows, net.size(), name), 0u) << name;
    }
}

} // namespace
} // namespace mcx
