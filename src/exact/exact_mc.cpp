#include "exact/exact_mc.h"

#include "exact/exact_mc_search.h"
#include "sat/solver.h"
#include "tt/operations.h"

namespace mcx {

xag detail::affine_circuit(const truth_table& f)
{
    const auto anf = to_anf(f);
    xag net;
    std::vector<signal> inputs;
    for (uint32_t i = 0; i < f.num_vars(); ++i)
        inputs.push_back(net.create_pi());
    auto acc = net.get_constant(anf.get_bit(0));
    for (uint32_t i = 0; i < f.num_vars(); ++i)
        if (anf.get_bit(uint64_t{1} << i))
            acc = net.create_xor(acc, inputs[i]);
    net.create_po(acc);
    return net;
}

uint32_t mc_lower_bound(const truth_table& f)
{
    const auto d = degree(f);
    return d <= 1 ? 0 : d - 1;
}

exact_mc_result exact_mc_synthesis(const truth_table& f,
                                   const exact_mc_params& params)
{
    // One encoding, one solve per k: the bounded preprocessor is sound
    // here and shrinks the parity-chain CNF before search.
    return detail::exact_mc_search(
        f, params, [] { return sat::solver{{.preprocess = true}}; });
}

} // namespace mcx
