// Ablation for paper §4.1: the classification iteration limit (paper:
// 100 000; functions above the limit are omitted from rewriting, as are
// 2 359 of the 150 357 6-input classes in the paper) and the effect of the
// classification cache ("no Boolean function needs to be classified twice").
#include "common.h"

#include "cut/cut_enumeration.h"
#include "spectral/classification.h"
#include "tt/operations.h"

#include <chrono>
#include "gen/arithmetic.h"
#include "gen/hashes.h"

#include <cstdio>

using namespace mcx;
using namespace mcx::bench;

int main()
{
    std::printf("mcx — ablation: classification iteration limit and cache\n\n");
    std::printf("%-8s %10s | %10s %12s %10s %10s\n", "circuit", "limit",
                "AND_final", "class_fails", "time[s]", "cache_hits");

    for (const uint64_t limit : {100ull, 1'000ull, 10'000ull, 100'000ull,
                                 1'000'000ull}) {
        auto net = gen_md5();
        pass_context ctx{{.classification_iteration_limit = limit}};
        const auto stats = mc_rewrite_round(net, ctx);
        std::printf("%-8s %10llu | %10u %12llu %10.2f %10llu\n", "md5",
                    static_cast<unsigned long long>(limit), stats.ands_after,
                    static_cast<unsigned long long>(stats.classify_failures),
                    stats.seconds,
                    static_cast<unsigned long long>(stats.canon_cache_hits));
    }

    std::printf("\ncache effect (md5, one round, limit 100k):\n");
    {
        auto net = gen_md5();
        pass_context ctx;
        const auto stats = mc_rewrite_round(net, ctx);
        std::printf("  with cache:   %.2fs (%zu entries, %llu hits)\n",
                    stats.seconds, ctx.classification().size(),
                    static_cast<unsigned long long>(stats.canon_cache_hits));
    }
    {
        // A fresh cache per cut simulates "no cache": approximate by
        // clearing between rounds — here we emulate it with a tiny
        // iteration budget spent on classify misses only.
        auto net = gen_md5();
        double seconds = 0;
        // Classify a sample of cuts afresh and extrapolate to the ~300k
        // cut evaluations of a full round.
        const auto cuts = enumerate_cuts(net);
        uint64_t classified = 0, total = 0;
        constexpr uint64_t sample = 10'000;
        const auto start = std::chrono::steady_clock::now();
        for (const auto n : net.topological_order()) {
            if (!net.is_gate(n))
                continue;
            for (const auto& c : cuts[n]) {
                if (c.num_leaves < 2)
                    continue;
                const auto view = shrink_to_support(c.function_tt());
                if (view.support.size() < 2)
                    continue;
                ++total;
                if (classified < sample) {
                    (void)classify_affine(view.function);
                    ++classified;
                }
            }
        }
        seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
        std::printf("  without cache: %.2fs for %llu fresh classifications "
                    "(~%.0fs extrapolated to all %llu cut evaluations)\n",
                    seconds, static_cast<unsigned long long>(classified),
                    seconds * static_cast<double>(total) /
                        static_cast<double>(sample),
                    static_cast<unsigned long long>(total));
    }
    return 0;
}
