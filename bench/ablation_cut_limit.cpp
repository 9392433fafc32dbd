// Ablation for paper §4.1: "a cut limit of 12 leads to a good trade-off
// between runtime and quality".  Sweeps the per-node cut limit on
// representative circuits and reports final AND count and runtime.
#include "common.h"

#include "gen/arithmetic.h"
#include "gen/hashes.h"

#include <cstdio>

using namespace mcx;
using namespace mcx::bench;

int main()
{
    std::printf("mcx — ablation: cut limit (paper default 12)\n");
    std::printf("%-14s %6s | %10s %10s %10s\n", "circuit", "limit", "AND_init",
                "AND_final", "time[s]");

    struct spec {
        const char* name;
        xag (*make)();
    };
    const spec specs[] = {
        {"multiplier16", [] { return gen_multiplier(16); }},
        {"divisor16", [] { return gen_divisor(16); }},
        {"md5", [] { return gen_md5(); }},
    };

    for (const auto& s : specs) {
        for (const uint32_t limit : {1u, 2u, 4u, 8u, 12u, 16u, 24u}) {
            auto net = s.make();
            const auto initial = net.num_ands();
            pass_context ctx;
            rewrite_params params;
            params.cut_limit = limit;
            const auto conv = mc_rewrite_pass{params, 6}.run(net, ctx);
            std::printf("%-14s %6u | %10u %10u %10.2f\n", s.name, limit,
                        initial, net.num_ands(), conv.seconds);
        }
        std::printf("\n");
    }
    return 0;
}
