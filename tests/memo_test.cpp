// The memoization layer of the hot loop: the context's classification
// memo in front of affine classification, and the MC circuit database.
// The property under test everywhere: memoized and direct calls return
// identical results, and each key is computed once however many threads
// ask for it.
#include "core/pass.h"
#include "db/mc_database.h"
#include "spectral/classification.h"
#include "tt/truth_table.h"

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>
#include <unordered_set>
#include <vector>

namespace mcx {
namespace {

truth_table random_tt(uint32_t num_vars, std::mt19937_64& rng)
{
    truth_table t{num_vars};
    t.words()[0] = rng() & tt_mask(num_vars);
    return t;
}

bool same_classification(const classification_result& a,
                         const classification_result& b)
{
    return a.success == b.success && a.iterations == b.iterations &&
           a.representative == b.representative &&
           a.transform.m_columns == b.transform.m_columns &&
           a.transform.c == b.transform.c && a.transform.v == b.transform.v &&
           a.transform.output_complement == b.transform.output_complement;
}

TEST(memo_invariance, shared_memo_classifies_each_function_once)
{
    // Several threads classify overlapping function sets through one
    // context memo: every thread starts at a different offset into the
    // same list, so the first lookups of most functions race.  Results
    // must equal classify_affine's, and the memo must have classified
    // each distinct function exactly once.
    std::mt19937_64 rng{12};
    std::vector<truth_table> functions;
    for (int i = 0; i < 48; ++i)
        functions.push_back(random_tt(4 + i % 2, rng));
    for (int i = 0; i < 16; ++i) // repeats inside each thread's walk
        functions.push_back(functions[3 * i]);

    pass_context ctx;
    auto& memo = ctx.classification();
    constexpr size_t num_threads = 4;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> team;
    for (size_t t = 0; t < num_threads; ++t)
        team.emplace_back([&, t] {
            for (size_t i = 0; i < functions.size(); ++i) {
                const auto& f = functions[(i + 16 * t) % functions.size()];
                if (!same_classification(memo.classify(f),
                                         classify_affine(f)))
                    ++mismatches;
            }
        });
    for (auto& th : team)
        th.join();

    EXPECT_EQ(mismatches.load(), 0);
    const std::unordered_set<truth_table, truth_table_hash> distinct(
        functions.begin(), functions.end());
    EXPECT_EQ(memo.misses(), distinct.size());
    EXPECT_EQ(memo.size(), distinct.size());
    EXPECT_EQ(memo.hits() + memo.misses(), num_threads * functions.size());
}

TEST(memo_invariance, classification_cache_counts_traffic)
{
    classification_cache cache;
    const truth_table maj{3, 0xe8};
    cache.classify(maj);
    cache.classify(maj);
    cache.classify(maj);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(memo_invariance, mc_database_counts_hits_and_misses)
{
    mc_database db;
    classification_cache cache;
    const auto& cls = cache.classify(truth_table{3, 0xe8});
    ASSERT_TRUE(cls.success);
    const auto rep = cls.representative;
    db.lookup_or_build(rep);
    EXPECT_EQ(db.misses(), 1u);
    EXPECT_EQ(db.hits(), 0u);
    const auto& again = db.lookup_or_build(rep);
    EXPECT_EQ(db.misses(), 1u);
    EXPECT_EQ(db.hits(), 1u);
    EXPECT_GT(again.circuit.num_pis(), 0u);
}

} // namespace
} // namespace mcx
