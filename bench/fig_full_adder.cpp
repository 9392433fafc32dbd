// Walks through the paper's running example (Fig. 1, Fig. 2, Examples 2.3
// and 3.1): the full adder's carry-out cone is the majority function 0xe8,
// its affine class representative is the AND function 0x88, and rewriting
// brings the full adder from 3 AND gates down to its multiplicative
// complexity of 1.
#include "core/pass.h"
#include "db/mc_database.h"
#include "spectral/classification.h"
#include "xag/cleanup.h"
#include "xag/simulate.h"

#include <cstdio>

using namespace mcx;

int main()
{
    std::printf("mcx — paper worked example (Fig. 1 / Fig. 2, Example 3.1)\n\n");

    // Fig. 1(a): textbook full adder.
    xag net;
    const auto a = net.create_pi();
    const auto b = net.create_pi();
    const auto cin = net.create_pi();
    const auto axb = net.create_xor(a, b);
    net.create_po(net.create_xor(axb, cin));
    net.create_po(net.create_or(net.create_and(a, b), net.create_and(axb, cin)));
    std::printf("Fig. 1(a) full adder: %u AND, %u XOR\n", net.num_ands(),
                net.num_xors());

    // Fig. 1(b): the cout cut over {a, b, cin} implements 0xe8.
    const auto tts = simulate(net);
    std::printf("  sum  = 0x%s\n  cout = 0x%s   (majority <a b cin>)\n",
                tts[0].to_hex().c_str(), tts[1].to_hex().c_str());

    // Example 2.3: classify the majority function.
    const auto cls = classify_affine(truth_table{3, 0xe8});
    std::printf("\nAffine classification of 0xe8:\n");
    std::printf("  representative: 0x%s\n",
                cls.representative.to_hex().c_str());
    std::printf("  affine-equivalent to the AND class: %s\n",
                classify_affine(truth_table{3, 0x88}).representative ==
                        cls.representative
                    ? "yes (paper: representative of <abc> is 0x88)"
                    : "NO");
    std::printf("  transform back: f(y) = r(M^T y ^ c) ^ v.y ^ s with\n");
    std::printf("    M columns = {%x, %x, %x}, c = %x, v = %x, s = %d\n",
                cls.transform.m_columns[0], cls.transform.m_columns[1],
                cls.transform.m_columns[2], cls.transform.c, cls.transform.v,
                cls.transform.output_complement ? 1 : 0);
    std::printf("  iterations used: %llu\n",
                static_cast<unsigned long long>(cls.iterations));

    // The database circuit of the representative: one AND gate.
    mc_database db;
    const auto& entry = db.lookup_or_build(cls.representative);
    std::printf("  database circuit of the representative: %u AND gate(s), "
                "optimal=%s\n",
                entry.num_ands, entry.optimal ? "yes" : "no");

    // Fig. 2(c): rewrite the full adder.
    const auto golden = simulate(net);
    pass_context ctx;
    const auto result = mc_rewrite_pass{}.run(net, ctx);
    std::printf("\nAfter cut rewriting (Alg. 1): %u AND, %u XOR "
                "(%zu round(s))\n",
                net.num_ands(), net.num_xors(), result.rounds.size());
    std::printf("  multiplicative complexity of the full adder: at most %u "
                "(paper: 1)\n",
                net.num_ands());
    std::printf("  function preserved: %s\n",
                simulate(net) == golden ? "yes" : "NO");

    const auto clean = cleanup(net);
    std::printf("\nFinal XAG (cf. Fig. 2(c)):\n");
    for (const auto n : clean.topological_order()) {
        if (!clean.is_gate(n))
            continue;
        std::printf("  n%u = %s(%s%u, %s%u)\n", n,
                    clean.is_and(n) ? "AND" : "XOR",
                    clean.fanin0(n).complemented() ? "~n" : "n",
                    clean.fanin0(n).node(),
                    clean.fanin1(n).complemented() ? "~n" : "n",
                    clean.fanin1(n).node());
    }
    return 0;
}
