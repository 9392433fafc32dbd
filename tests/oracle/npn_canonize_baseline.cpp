#include "oracle/npn_canonize_baseline.h"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace mcx::oracle {

npn_result npn_canonize_baseline(const truth_table& f)
{
    const auto n = f.num_vars();
    if (n > 4)
        throw std::invalid_argument{"npn_canonize: at most 4 variables"};

    std::array<uint8_t, 4> perm{0, 1, 2, 3};
    npn_result best;
    best.representative = f;
    best.transform.num_vars = n;
    best.transform.perm = perm;
    bool first = true;

    std::array<uint8_t, 4> p = perm;
    std::sort(p.begin(), p.begin() + n);
    do {
        for (uint32_t neg = 0; neg < (1u << n); ++neg) {
            for (const bool out : {false, true}) {
                npn_transform t;
                t.num_vars = n;
                t.perm = p;
                t.input_negation = neg;
                t.output_negation = out;
                // Candidate representative r with f = t.apply(r):
                // r(y) = out ^ f(x) where x[perm[i]] = y[i] ^ neg_i.
                truth_table r{n};
                for (uint64_t y = 0; y < f.num_bits(); ++y) {
                    uint64_t x = 0;
                    for (uint32_t i = 0; i < n; ++i) {
                        const bool bit = (((y >> i) & 1) != 0) ^
                                         (((neg >> i) & 1) != 0);
                        x |= uint64_t{bit} << p[i];
                    }
                    if (f.get_bit(x) ^ out)
                        r.set_bit(y, true);
                }
                if (first || r < best.representative) {
                    first = false;
                    best.representative = r;
                    best.transform = t;
                }
            }
        }
    } while (std::next_permutation(p.begin(), p.begin() + n));
    return best;
}

} // namespace mcx::oracle
