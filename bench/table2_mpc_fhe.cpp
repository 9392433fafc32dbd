// Regenerates paper Table 2: MPC and FHE benchmarks.
//
// The paper's initial points are the best-known circuits from the MPC
// community (already engineered for low AND count in the AES case, generic
// elsewhere); those files are not in the repository, so generator-built
// circuits of the same functions stand in for them.  Expected shape: AES
// ~0 % (it starts near-MC-optimal), DES moderate, hashes large (>= 50 %),
// adders reach the known optimum of n AND gates.
#include "common.h"

#include "gen/aes.h"
#include "gen/arithmetic.h"
#include "gen/des.h"
#include "gen/hashes.h"

#include <cstdio>

using namespace mcx;
using namespace mcx::bench;

int main()
{
    const bool full = full_scale();
    std::printf("mcx — Table 2 (MPC and FHE benchmarks), %s\n",
                full ? "full variants" : "reduced variants");

    pass_context ctx;

    struct spec {
        const char* name;
        xag circuit;
        int paper_one;
        int paper_conv;
    };

    std::vector<spec> specs;
    specs.push_back({"AES (No Key Expansion)", gen_aes128(false), 0, 0});
    specs.push_back({"AES (Key Expansion)", gen_aes128_expanded(), 0, 0});
    specs.push_back({"DES (No Key Expansion)", gen_des(full ? 16 : 8), 4, 17});
    specs.push_back(
        {"DES (Key Expansion)", gen_des_expanded(full ? 16 : 8), 4, 17});
    specs.push_back({"MD5", gen_md5(), 58, 68});
    specs.push_back({"SHA-1", gen_sha1(), 54, 68});
    specs.push_back({"SHA-256", gen_sha256(), 41, 66});
    specs.push_back({"32-bit Adder", gen_adder(32), 70, 75});
    specs.push_back({"64-bit Adder", gen_adder(64), 62, 76});
    specs.push_back(
        {"32x32-bit Multiplier", gen_multiplier(full ? 32 : 16), 28, 31});
    specs.push_back(
        {"Comp. 32-bit Signed LTEQ", gen_comparator_leq_signed(32), 19, 24});
    specs.push_back(
        {"Comp. 32-bit Signed LT", gen_comparator_lt_signed(32), 14, 28});
    specs.push_back({"Comp. 32-bit Unsigned LTEQ",
                     gen_comparator_leq_unsigned(32), 19, 24});
    specs.push_back(
        {"Comp. 32-bit Unsigned LT", gen_comparator_lt_unsigned(32), 14, 28});

    print_header("MPC / FHE benchmarks");
    std::vector<row> rows;
    const uint32_t max_rounds = full ? 16 : 8;
    for (auto& s : specs) {
        auto r = run_protocol(s.name, std::move(s.circuit), ctx, {},
                              max_rounds);
        r.paper_improvement_one = s.paper_one;
        r.paper_improvement_conv = s.paper_conv;
        print_row(r);
        rows.push_back(r);
    }
    std::printf("\nnormalized geometric mean (AND, converged/initial): %.2f "
                "[paper: 0.56]\n",
                geomean_ratio(rows));

    // Headline checks from the paper's §5.2.
    for (const auto& r : rows) {
        if (r.name == std::string{"32-bit Adder"})
            std::printf("32-bit adder final AND count: %u (known optimum: 32, "
                        "paper reaches 32)\n",
                        r.final_and);
        if (r.name == std::string{"64-bit Adder"})
            std::printf("64-bit adder final AND count: %u (known optimum: 64, "
                        "paper reaches 64)\n",
                        r.final_and);
    }
    const auto& cache = ctx.classification();
    auto& db = ctx.mc_db();
    std::printf("classification cache: %zu entries, %llu hits; database: %zu "
                "entries (%llu exact, %llu heuristic)\n",
                cache.size(),
                static_cast<unsigned long long>(cache.hits()), db.size(),
                static_cast<unsigned long long>(db.exact_entries()),
                static_cast<unsigned long long>(db.heuristic_entries()));
    return 0;
}
