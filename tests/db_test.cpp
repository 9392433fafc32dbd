#include "db/mc_database.h"
#include "obs/metrics.h"
#include "spectral/classification.h"
#include "xag/simulate.h"

#include <gtest/gtest.h>

#include <array>
#include <random>
#include <sstream>
#include <string>
#include <utility>

namespace mcx {
namespace {

TEST(serialization, single_output_roundtrip)
{
    xag net;
    const auto a = net.create_pi();
    const auto b = net.create_pi();
    const auto c = net.create_pi();
    net.create_po(!net.create_xor(net.create_and(a, !b), c));

    const auto text = serialize_single_output(net);
    const auto back = deserialize_single_output(text);
    EXPECT_EQ(back.num_pis(), 3u);
    EXPECT_EQ(simulate(back), simulate(net));
}

TEST(serialization, rejects_malformed)
{
    EXPECT_THROW(deserialize_single_output(""), std::invalid_argument);
    EXPECT_THROW(deserialize_single_output("2 1 q 2 4 2"),
                 std::invalid_argument);
    EXPECT_THROW(deserialize_single_output("2 1 a 2 99 2"),
                 std::invalid_argument);
}

TEST(serialization, rejects_non_topological_ids)
{
    // Rewiring a gate to a newer one breaks the id order the format keeps.
    xag net;
    const auto a = net.create_pi();
    const auto b = net.create_pi();
    const auto g = net.create_and(a, b);
    net.create_po(net.create_xor(g, a));
    const auto newer = net.create_and(!a, b);
    net.substitute(g.node(), newer);
    EXPECT_THROW(serialize_single_output(net), std::invalid_argument);
}

TEST(mc_database_suite, lazily_builds_optimal_entries)
{
    mc_database db;
    // Majority representative: must cost exactly one AND (paper Ex. 3.1).
    const auto maj = truth_table{3, 0xe8};
    const auto cls = classify_affine(maj);
    ASSERT_TRUE(cls.success);
    const auto& e = db.lookup_or_build(cls.representative);
    EXPECT_EQ(e.num_ands, 1u);
    EXPECT_TRUE(e.optimal);
    EXPECT_EQ(simulate(e.circuit)[0], cls.representative);
    EXPECT_EQ(db.size(), 1u);
    // Second lookup is a cache hit.
    db.lookup_or_build(cls.representative);
    EXPECT_EQ(db.size(), 1u);
}

TEST(mc_database_suite, save_and_load_roundtrip)
{
    mc_database db;
    std::mt19937_64 rng{51};
    std::vector<truth_table> reps;
    for (int i = 0; i < 5; ++i) {
        truth_table f{4};
        f.words()[0] = rng() & tt_mask(4);
        const auto cls = classify_affine(f, {.iteration_limit = 2'000'000});
        if (!cls.success)
            continue;
        reps.push_back(cls.representative);
        db.lookup_or_build(cls.representative);
    }
    std::stringstream buffer;
    db.save(buffer);
    auto loaded = mc_database::load(buffer);
    EXPECT_EQ(loaded.size(), db.size());
    for (const auto& r : reps) {
        const auto& e = loaded.lookup_or_build(r);
        EXPECT_EQ(simulate(e.circuit)[0], r);
    }
}

TEST(mc_database_suite, heuristic_fallback_without_exact)
{
    mc_database db{{.use_exact = false}};
    const auto cls = classify_affine(truth_table{3, 0xe8});
    ASSERT_TRUE(cls.success);
    const auto& e = db.lookup_or_build(cls.representative);
    EXPECT_FALSE(e.optimal);
    EXPECT_EQ(simulate(e.circuit)[0], cls.representative);
    EXPECT_EQ(db.exact_entries(), 0u);
    EXPECT_EQ(db.heuristic_entries(), 1u);
}

TEST(mc_database_suite, reload_serves_identical_circuits)
{
    // Non-default params: every entry is synthesized in-process.
    const mc_database_params params{.exact_conflict_budget = 20'000};
    mc_database db{params};
    std::mt19937_64 rng{52};
    for (int i = 0; i < 8; ++i) {
        truth_table f{4};
        f.words()[0] = rng() & tt_mask(4);
        const auto cls = classify_affine(f);
        if (cls.success)
            db.lookup_or_build(cls.representative);
    }
    std::stringstream first;
    db.save(first);
    auto loaded = mc_database::load(first, params);
    std::stringstream second;
    loaded.save(second);
    EXPECT_EQ(second.str(), first.str());
}

TEST(mc_database_suite, table_serves_default_params_misses)
{
    const auto builtin = obs::register_metric("db.mc.builtin");
    const auto synthesized = obs::register_metric("db.mc.synthesize");
    const auto cls = classify_affine(truth_table{3, 0xe8});
    ASSERT_TRUE(cls.success);

    const auto builtin0 = builtin.value();
    const auto synthesized0 = synthesized.value();
    mc_database db;
    const auto& e = db.lookup_or_build(cls.representative);
    EXPECT_EQ(builtin.value() - builtin0, 1u);
    EXPECT_EQ(synthesized.value() - synthesized0, 0u);
    EXPECT_EQ(db.misses(), 1u);
    EXPECT_EQ(db.exact_entries(), 1u);
    // The served entry is the one synthesis builds.
    EXPECT_EQ(mc_database::row(cls.representative, e),
              mc_database::row(cls.representative,
                               mc_database::synthesize(cls.representative)));

    // Any other params synthesize the miss.
    mc_database other{{.exact_conflict_budget = 20'000}};
    other.lookup_or_build(cls.representative);
    EXPECT_EQ(builtin.value() - builtin0, 1u);
    EXPECT_EQ(synthesized.value() - synthesized0, 1u);
}

// --- The shipped table (src/db/mc_table.cpp) --------------------------------

std::vector<std::pair<truth_table, mc_database::entry>> table_entries()
{
    std::vector<std::pair<truth_table, mc_database::entry>> out;
    for (const auto row : mc_builtin_rows())
        out.push_back(mc_database::parse_row(std::string{row}));
    return out;
}

TEST(mc_table, rows_sorted_unique_and_pinned)
{
    const auto rows = mc_builtin_rows();
    const auto entries = table_entries();
    for (size_t i = 1; i < entries.size(); ++i) {
        const auto& a = entries[i - 1].first;
        const auto& b = entries[i].first;
        EXPECT_LT(std::pair(a.num_vars(), a.word()),
                  std::pair(b.num_vars(), b.word()))
            << "row " << i;
        // The lookup binary-searches the rows as strings.
        EXPECT_LT(rows[i - 1], rows[i]) << "row " << i;
    }
    // 2 / 3 / 7 / 40 / 37 keys at widths 2-6.  The enumeration reaches 40
    // of the 48 five-input affine classes at the default iteration limit:
    // its members of the other 8 all exceed the limit, and so do 3 of the
    // 40 width-6 extensions.  Those classes are not shipped; a workload
    // that reaches them (through a member that does classify) gets them
    // synthesized on the miss, as any key outside the table.
    std::array<size_t, 7> per_width{};
    for (const auto& [key, e] : entries)
        ++per_width.at(key.num_vars());
    EXPECT_EQ(entries.size(), 89u);
    EXPECT_EQ(per_width[5], 40u);
    EXPECT_EQ(per_width[6], 37u);
}

TEST(mc_table, every_row_serves_its_key)
{
    const auto builtin = obs::register_metric("db.mc.builtin");
    const auto synthesized = obs::register_metric("db.mc.synthesize");
    const auto builtin0 = builtin.value();
    const auto synthesized0 = synthesized.value();
    mc_database db;
    for (const auto& [key, e] : table_entries())
        EXPECT_EQ(mc_database::row(key, db.lookup_or_build(key)),
                  mc_database::row(key, e));
    EXPECT_EQ(builtin.value() - builtin0, mc_builtin_rows().size());
    EXPECT_EQ(synthesized.value() - synthesized0, 0u);
}

TEST(mc_table, rows_simulate_to_their_representative)
{
    for (const auto row : mc_builtin_rows()) {
        const auto [key, e] = mc_database::parse_row(std::string{row});
        ASSERT_EQ(e.circuit.num_pis(), key.num_vars()) << row;
        EXPECT_EQ(simulate(e.circuit)[0], key) << row;
        EXPECT_EQ(e.circuit.num_ands(), e.num_ands) << row;
        // Support <= 5: every width-6 key ignores one input.
        EXPECT_LE(key.support().size(), 5u) << row;
        // The served entry re-serializes to its row (a fixed point), so it
        // is the circuit a lazy miss would memoize.
        EXPECT_EQ(mc_database::row(key, e), row);
    }
}

TEST(mc_table, representatives_are_canonical)
{
    for (const auto& [key, e] : table_entries()) {
        const auto cls = classify_affine(key);
        ASSERT_TRUE(cls.success) << key.num_vars() << ' ' << key.to_hex();
        EXPECT_EQ(cls.representative, key) << key.to_hex();
    }
}

TEST(mc_table, rows_rederive_through_synthesize)
{
    // Every row of width <= 4, plus a fixed-seed sample of widths 5 and 6,
    // rebuilt by the miss path's builder, byte for byte.
    std::vector<std::string_view> wide[2];
    for (const auto row : mc_builtin_rows()) {
        const auto key = mc_database::parse_row(std::string{row}).first;
        if (key.num_vars() <= 4)
            EXPECT_EQ(mc_database::row(key, mc_database::synthesize(key)),
                      row);
        else
            wide[key.num_vars() - 5].push_back(row);
    }
    std::mt19937_64 rng{18};
    for (const auto& rows : wide) {
        ASSERT_FALSE(rows.empty());
        for (int i = 0; i < 2; ++i) {
            const auto row = rows[rng() % rows.size()];
            const auto key = mc_database::parse_row(std::string{row}).first;
            EXPECT_EQ(mc_database::row(key, mc_database::synthesize(key)),
                      row);
        }
    }
}

} // namespace
} // namespace mcx
