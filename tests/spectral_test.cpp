#include "oracle/classify_affine_baseline.h"
#include "spectral/classification.h"
#include "tt/operations.h"
#include "tt/truth_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <unordered_set>

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

/// Independent ground truth: expand the full affine orbit of `f` by BFS over
/// the five elementary operations of paper Definition 2.1.
std::set<truth_table> affine_orbit(const truth_table& f)
{
    const auto n = f.num_vars();
    std::set<truth_table> orbit{f};
    std::vector<truth_table> frontier{f};
    while (!frontier.empty()) {
        std::vector<truth_table> next;
        for (const auto& g : frontier) {
            std::vector<truth_table> neighbours;
            for (uint32_t i = 0; i < n; ++i) {
                neighbours.push_back(op_input_complement(g, i));
                neighbours.push_back(op_disjoint_translation(g, i));
                for (uint32_t j = 0; j < n; ++j)
                    if (i != j) {
                        neighbours.push_back(op_swap(g, i, j));
                        neighbours.push_back(op_translation(g, i, j));
                    }
            }
            neighbours.push_back(op_output_complement(g));
            for (auto& h : neighbours)
                if (orbit.insert(h).second)
                    next.push_back(h);
        }
        frontier = std::move(next);
    }
    return orbit;
}

/// Number of affine classes of n-variable functions, counted by orbit BFS.
uint32_t count_classes_bfs(uint32_t n)
{
    const uint64_t total = uint64_t{1} << (1u << n);
    std::vector<uint8_t> seen(total, 0);
    uint32_t classes = 0;
    for (uint64_t bits = 0; bits < total; ++bits) {
        if (seen[bits])
            continue;
        ++classes;
        for (const auto& g : affine_orbit(truth_table{n, bits}))
            seen[g.word()] = 1;
    }
    return classes;
}

TEST(walsh_spectrum, known_values)
{
    // Constant 0: s[0] = 2^n, all other coefficients 0.
    const auto s0 = walsh_spectrum(truth_table::constant(3, false));
    EXPECT_EQ(s0[0], 8);
    for (size_t i = 1; i < 8; ++i)
        EXPECT_EQ(s0[i], 0);

    // x0 on 1 variable: s = [0, 2].
    const auto s1 = walsh_spectrum(truth_table::projection(1, 0));
    EXPECT_EQ(s1, (std::vector<int32_t>{0, 2}));

    // AND: s = [2, 2, 2, -2].
    const auto a = truth_table::projection(2, 0);
    const auto b = truth_table::projection(2, 1);
    EXPECT_EQ(walsh_spectrum(a & b), (std::vector<int32_t>{2, 2, 2, -2}));
}

TEST(walsh_spectrum, parseval_identity)
{
    std::mt19937_64 rng{17};
    for (uint32_t n : {2u, 4u, 6u}) {
        for (int rep = 0; rep < 8; ++rep) {
            const auto f = random_tt(n, rng);
            const auto s = walsh_spectrum(f);
            const auto sum = std::accumulate(
                s.begin(), s.end(), int64_t{0},
                [](int64_t acc, int32_t x) { return acc + int64_t{x} * x; });
            EXPECT_EQ(sum, int64_t{1} << (2 * n));
        }
    }
}

TEST(walsh_spectrum, roundtrip)
{
    std::mt19937_64 rng{18};
    for (uint32_t n : {1u, 3u, 5u, 6u}) {
        for (int rep = 0; rep < 10; ++rep) {
            const auto f = random_tt(n, rng);
            EXPECT_EQ(function_from_spectrum(walsh_spectrum(f), n), f);
        }
    }
}

TEST(walsh_spectrum, rejects_invalid_spectrum)
{
    std::vector<int32_t> bogus{1, 0, 0, 0};
    EXPECT_THROW(function_from_spectrum(bogus, 2), std::invalid_argument);
    EXPECT_THROW(function_from_spectrum(bogus, 3), std::invalid_argument);
    // Coefficients beyond ±2^n can never come from a Boolean function.
    std::vector<int32_t> oversized{100, 0, 0, 0};
    EXPECT_THROW(function_from_spectrum(oversized, 2), std::invalid_argument);
}

TEST(walsh_spectrum, matches_scalar_definition)
{
    // Independent ground truth for the packed butterfly: evaluate
    // s[w] = sum_x (-1)^(f(x) ^ (w.x)) literally.
    std::mt19937_64 rng{25};
    for (uint32_t n = 0; n <= 6; ++n) {
        for (int rep = 0; rep < 6; ++rep) {
            const auto f = random_tt(n, rng);
            const auto s = walsh_spectrum(f);
            for (uint64_t w = 0; w < f.num_bits(); ++w) {
                int32_t expected = 0;
                for (uint64_t x = 0; x < f.num_bits(); ++x) {
                    const auto parity =
                        (std::popcount(w & x) & 1) ^ (f.get_bit(x) ? 1 : 0);
                    expected += parity ? -1 : 1;
                }
                ASSERT_EQ(s[w], expected) << "n=" << n << " w=" << w;
            }
        }
    }
}

TEST(walsh_spectrum, roundtrip_exhaustive_small)
{
    // Every function on up to 3 variables survives the packed
    // forward/inverse transform pair bit-exactly.
    for (uint32_t n = 0; n <= 3; ++n)
        for (uint64_t bits = 0; bits < (uint64_t{1} << (1u << n)); ++bits) {
            const truth_table f{n, bits};
            EXPECT_EQ(function_from_spectrum(walsh_spectrum(f), n), f);
        }
}

TEST(classify_affine, paper_example_majority_and)
{
    // Paper Example 2.3 / 3.1: <x1x2x3> (0xe8) is affine-equivalent to the
    // AND x1x2 viewed as a 3-variable function (0x88).
    const auto maj = truth_table{3, 0xe8};
    const auto and3 = truth_table{3, 0x88};
    const auto rm = classify_affine(maj);
    const auto ra = classify_affine(and3);
    ASSERT_TRUE(rm.success);
    ASSERT_TRUE(ra.success);
    EXPECT_EQ(rm.representative, ra.representative);
    // Reconstruction identities.
    EXPECT_EQ(rm.transform.apply(rm.representative), maj);
    EXPECT_EQ(ra.transform.apply(ra.representative), and3);
}

TEST(classify_affine, representative_is_idempotent)
{
    std::mt19937_64 rng{19};
    for (uint32_t n : {2u, 3u, 4u}) {
        for (int rep = 0; rep < 20; ++rep) {
            const auto f = random_tt(n, rng);
            const auto r1 = classify_affine(f);
            ASSERT_TRUE(r1.success);
            const auto r2 = classify_affine(r1.representative);
            ASSERT_TRUE(r2.success);
            EXPECT_EQ(r2.representative, r1.representative);
        }
    }
}

TEST(classify_affine, class_counts_match_paper_small)
{
    // Paper §2.2: n = 1, 2, 3 collapse into 1, 2, 3 classes.
    EXPECT_EQ(count_classes_bfs(1), 1u);
    EXPECT_EQ(count_classes_bfs(2), 2u);
    EXPECT_EQ(count_classes_bfs(3), 3u);
}

TEST(classify_affine, all_3var_functions_canonize_into_3_classes)
{
    std::set<truth_table> reps;
    for (uint64_t bits = 0; bits < 256; ++bits) {
        const auto r = classify_affine(truth_table{3, bits});
        ASSERT_TRUE(r.success) << "function 0x" << std::hex << bits;
        reps.insert(r.representative);
    }
    EXPECT_EQ(reps.size(), 3u);
}

TEST(classify_affine, four_var_classes_match_orbit_bfs)
{
    // Paper §2.2: 8 classes for n = 4.  Compute the orbits exactly by BFS,
    // then check the canonizer maps sampled members of each orbit to one
    // representative per orbit.
    std::mt19937_64 rng{20};
    std::vector<std::set<truth_table>> orbits;
    {
        std::vector<uint8_t> seen(65536, 0);
        for (uint64_t bits = 0; bits < 65536; ++bits) {
            if (seen[bits])
                continue;
            auto orbit = affine_orbit(truth_table{4, bits});
            for (const auto& g : orbit)
                seen[g.word()] = 1;
            orbits.push_back(std::move(orbit));
        }
    }
    ASSERT_EQ(orbits.size(), 8u);

    std::set<truth_table> all_reps;
    for (const auto& orbit : orbits) {
        std::vector<truth_table> members(orbit.begin(), orbit.end());
        std::set<truth_table> reps_of_orbit;
        for (int s = 0; s < 12; ++s) {
            const auto& f = members[rng() % members.size()];
            const auto r = classify_affine(f, {.iteration_limit = 5'000'000});
            ASSERT_TRUE(r.success);
            reps_of_orbit.insert(r.representative);
            ASSERT_TRUE(orbit.count(r.representative))
                << "representative escaped its own orbit";
        }
        EXPECT_EQ(reps_of_orbit.size(), 1u)
            << "members of one orbit got different representatives";
        all_reps.insert(*reps_of_orbit.begin());
    }
    EXPECT_EQ(all_reps.size(), 8u);
}

TEST(classify_affine, five_var_representative_count_is_bounded)
{
    // Paper §2.2: 48 classes for n = 5.  Random sampling must never produce
    // more than 48 distinct representatives.
    std::mt19937_64 rng{21};
    std::set<truth_table> reps;
    int successes = 0;
    for (int i = 0; i < 400; ++i) {
        const auto f = random_tt(5, rng);
        const auto r = classify_affine(f, {.iteration_limit = 2'000'000});
        if (!r.success)
            continue;
        ++successes;
        reps.insert(r.representative);
    }
    EXPECT_GT(successes, 350);
    EXPECT_LE(reps.size(), 48u);
    EXPECT_GE(reps.size(), 10u);
}

TEST(classify_affine, affine_equivalent_functions_share_representative)
{
    std::mt19937_64 rng{22};
    for (uint32_t n : {5u, 6u}) {
        for (int rep = 0; rep < (n == 5 ? 12 : 6); ++rep) {
            const auto f = random_tt(n, rng);
            // Apply a random sequence of elementary affine operations.
            auto g = f;
            for (int k = 0; k < 8; ++k) {
                const auto i = static_cast<uint32_t>(rng() % n);
                auto j = static_cast<uint32_t>(rng() % n);
                switch (rng() % 5) {
                case 0:
                    g = op_input_complement(g, i);
                    break;
                case 1:
                    g = op_output_complement(g);
                    break;
                case 2:
                    g = op_disjoint_translation(g, i);
                    break;
                case 3:
                    if (j == i)
                        j = (i + 1) % n;
                    g = op_translation(g, i, j);
                    break;
                default:
                    if (j == i)
                        j = (i + 1) % n;
                    g = op_swap(g, i, j);
                }
            }
            const auto rf = classify_affine(f, {.iteration_limit = 3'000'000});
            const auto rg = classify_affine(g, {.iteration_limit = 3'000'000});
            if (!rf.success || !rg.success)
                continue; // limit hit: allowed, mirrors the paper
            EXPECT_EQ(rf.representative, rg.representative);
        }
    }
}

TEST(classify_affine, reconstruction_closed_form_random)
{
    // classify_affine throws internally if the reconstruction identity
    // fails; this test additionally checks it end-to-end.
    std::mt19937_64 rng{23};
    for (uint32_t n = 1; n <= 6; ++n) {
        for (int rep = 0; rep < 10; ++rep) {
            const auto f = random_tt(n, rng);
            const auto r = classify_affine(f, {.iteration_limit = 2'000'000});
            if (!r.success)
                continue;
            EXPECT_EQ(r.transform.apply(r.representative), f);
        }
    }
}

TEST(classify_affine, degree_is_invariant_for_nonlinear_functions)
{
    std::mt19937_64 rng{24};
    for (int rep = 0; rep < 30; ++rep) {
        const auto f = random_tt(4, rng);
        if (degree(f) < 2)
            continue;
        const auto r = classify_affine(f, {.iteration_limit = 2'000'000});
        ASSERT_TRUE(r.success);
        EXPECT_EQ(degree(r.representative), degree(f));
    }
}

TEST(classify_affine, bent_function_canonizes)
{
    // x0x1 ^ x2x3, the classic 4-variable bent function: its spectrum is
    // flat, the worst case for tie-heavy search.
    const auto x0 = truth_table::projection(4, 0);
    const auto x1 = truth_table::projection(4, 1);
    const auto x2 = truth_table::projection(4, 2);
    const auto x3 = truth_table::projection(4, 3);
    const auto bent = (x0 & x1) ^ (x2 & x3);
    const auto r = classify_affine(bent, {.iteration_limit = 20'000'000});
    ASSERT_TRUE(r.success);
    EXPECT_EQ(r.transform.apply(r.representative), bent);
    const auto r2 = classify_affine(r.representative,
                                    {.iteration_limit = 20'000'000});
    ASSERT_TRUE(r2.success);
    EXPECT_EQ(r2.representative, r.representative);
}

TEST(classify_affine, iteration_limit_reports_failure)
{
    // A 6-variable linear function has a degenerate spectrum whose tie tree
    // exceeds any small limit.
    truth_table f{6};
    for (uint32_t i = 0; i < 6; ++i)
        f = f ^ truth_table::projection(6, i);
    const auto r = classify_affine(f, {.iteration_limit = 500});
    EXPECT_FALSE(r.success);
    EXPECT_GT(r.iterations, 0u);
}

TEST(classify_affine, constant_and_trivial_inputs)
{
    const auto r0 = classify_affine(truth_table::constant(0, false));
    EXPECT_TRUE(r0.success);
    const auto r1 = classify_affine(truth_table::constant(0, true));
    EXPECT_TRUE(r1.success);
    // f(y) = r(...) ^ s must give back the constant one.
    EXPECT_EQ(r1.representative.get_bit(0) ^ r1.transform.output_complement,
              true);
    EXPECT_THROW(classify_affine(truth_table{7}), std::invalid_argument);
}

/// The word-parallel engine replicates the scalar baseline's search tree
/// exactly, so agreement is total: same success flag, same iteration count
/// (where the limit aborts the search too), same representative, same
/// closed-form transform.
void expect_engines_agree(const truth_table& f, uint64_t iteration_limit)
{
    const auto fast =
        classify_affine(f, {.iteration_limit = iteration_limit});
    const auto slow = oracle::classify_affine_baseline(
        f, {.iteration_limit = iteration_limit});
    ASSERT_EQ(fast.success, slow.success)
        << "f = " << f.to_hex() << ", limit " << iteration_limit;
    ASSERT_EQ(fast.iterations, slow.iterations)
        << "f = " << f.to_hex() << ", limit " << iteration_limit;
    if (!fast.success)
        return;
    ASSERT_EQ(fast.representative, slow.representative)
        << "f = " << f.to_hex();
    EXPECT_EQ(fast.transform.c, slow.transform.c);
    EXPECT_EQ(fast.transform.v, slow.transform.v);
    EXPECT_EQ(fast.transform.m_columns, slow.transform.m_columns);
    EXPECT_EQ(fast.transform.output_complement,
              slow.transform.output_complement);
}

TEST(classify_affine_vs_baseline, exhaustive_up_to_4_inputs)
{
    for (uint32_t n = 1; n <= 4; ++n)
        for (uint64_t bits = 0; bits < (uint64_t{1} << (1u << n)); ++bits)
            expect_engines_agree(truth_table{n, bits}, 500'000);
}

TEST(classify_affine_vs_baseline, randomized_5_and_6_inputs)
{
    std::mt19937_64 rng{26};
    for (int rep = 0; rep < 400; ++rep)
        expect_engines_agree(random_tt(5, rng), 2'000'000);
    for (int rep = 0; rep < 60; ++rep)
        expect_engines_agree(random_tt(6, rng), 2'000'000);
}

TEST(classify_affine_vs_baseline, truncation_agrees_under_tight_limits)
{
    // When iteration_limit aborts the search, both engines must abort at
    // the same point — including the reported iteration count.
    std::mt19937_64 rng{27};
    for (const uint64_t limit : {50u, 500u, 5'000u}) {
        for (int rep = 0; rep < 10; ++rep) {
            const auto f = random_tt(6, rng);
            const auto fast = classify_affine(f, {.iteration_limit = limit});
            const auto slow = oracle::classify_affine_baseline(
                f, {.iteration_limit = limit});
            EXPECT_EQ(fast.success, slow.success) << "f = " << f.to_hex();
            EXPECT_EQ(fast.iterations, slow.iterations)
                << "f = " << f.to_hex();
        }
    }
}

TEST(classify_affine_vs_baseline, tie_heavy_functions)
{
    // Tie-heavy spectra: nearly every node of their search is a tight
    // challenger, and most of the work sits on last-level nodes that the
    // engine accounts from its leaf memo instead of evaluating.  These are
    // the searches that exhaust the default limit in practice: single
    // minterms, bent functions, and tables logged from mc+xor runs on
    // des:3, des:4, multiplier:16, sqrt:12 and log2:12.
    std::vector<truth_table> fs;
    for (const uint32_t n : {5u, 6u})
        for (uint32_t i = 0; i < (1u << n); ++i) {
            const truth_table minterm{n, uint64_t{1} << i};
            fs.push_back(minterm);
            fs.push_back(~minterm);
        }
    std::vector<truth_table> bent; // the 896 with a flat spectrum, all ±4
    for (uint64_t bits = 0; bits < 65536; ++bits) {
        const auto s = walsh_spectrum(truth_table{4, bits});
        if (std::all_of(s.begin(), s.end(),
                        [](int32_t x) { return x == 4 || x == -4; }))
            bent.push_back(truth_table{4, bits});
    }
    ASSERT_EQ(bent.size(), 896u);
    for (size_t i = 0; i < bent.size(); i += 16)
        fs.push_back(bent[i]);
    for (const char* hex : {"ccc43333", "fdff0000", "0000f7ff"})
        fs.push_back(truth_table::from_hex(5, hex));
    for (const char* hex : {"000000fd000000ff", "0e0101010e0e010e",
                            "3300221130032112", "f700ff0000f700ff"})
        fs.push_back(truth_table::from_hex(6, hex));

    // Logged tables whose search completes a little above the default
    // limit, with the exact number of evaluations it takes.
    struct completing {
        uint32_t num_vars;
        const char* hex;
        uint64_t iterations;
    };
    const completing near_misses[] = {
        {4, "6ac0", 133'936},     {4, "8788", 133'936},
        {5, "0e0e010e", 111'243}, {5, "00020001", 133'715},
        {5, "0000007f", 137'667}, {5, "00000103", 139'923},
        {5, "87778887", 372'560}, {5, "935f6ca0", 372'560},
    };
    for (const auto& c : near_misses)
        fs.push_back(truth_table::from_hex(c.num_vars, c.hex));

    // Found by fuzzing: a search in which a last-level block recurs after
    // the incumbent changed and is decided differently against the new
    // one, so the memo must be emptied whenever an incumbent completes.
    fs.push_back(truth_table::from_hex(6, "7c9e941892f2e124"));

    for (const auto& f : fs)
        expect_engines_agree(f, 100'000);

    // Every limit around the default aborts at a different point — also
    // inside the evaluations a memo hit charges at once.
    const std::vector<truth_table> sweep{
        truth_table{5, 0x00010000}, ~truth_table{5, 0x00010000},
        truth_table{6, 1},          bent.front(),
        truth_table::from_hex(5, "87778887"),
        truth_table::from_hex(5, "935f6ca0"),
        truth_table::from_hex(5, "00020001")};
    for (uint64_t limit = 99'990; limit <= 100'010; ++limit)
        for (const auto& f : sweep)
            expect_engines_agree(f, limit);

    // At the exact cost the search completes; one evaluation less aborts.
    for (const auto& c : near_misses) {
        const auto f = truth_table::from_hex(c.num_vars, c.hex);
        expect_engines_agree(f, c.iterations);
        expect_engines_agree(f, c.iterations - 1);
        const auto done = classify_affine(f, {.iteration_limit = c.iterations});
        EXPECT_TRUE(done.success) << c.hex;
        EXPECT_EQ(done.iterations, c.iterations) << c.hex;
        EXPECT_FALSE(classify_affine(f, {.iteration_limit = c.iterations - 1})
                         .success)
            << c.hex;
    }
    // Bent functions complete at the cost of the logged 4-input tables.
    for (size_t i = 0; i < bent.size(); i += 64) {
        expect_engines_agree(bent[i], 133'936);
        EXPECT_TRUE(
            classify_affine(bent[i], {.iteration_limit = 133'936}).success);
    }
}

TEST(classification_cache_suite, caches_results)
{
    classification_cache cache;
    const truth_table f{3, 0xe8};
    const auto& r1 = cache.classify(f);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);
    const auto& r2 = cache.classify(f);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(r1.representative, r2.representative);
    EXPECT_EQ(cache.size(), 1u);
}

} // namespace
} // namespace mcx
