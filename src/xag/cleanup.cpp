#include "xag/cleanup.h"

namespace mcx {

xag cleanup(const xag& network)
{
    xag fresh;
    std::vector<signal> leaves;
    leaves.reserve(network.num_pis());
    for (uint32_t i = 0; i < network.num_pis(); ++i)
        leaves.push_back(fresh.create_pi());
    for (const auto po : insert_network(fresh, network, leaves))
        fresh.create_po(po);
    return fresh;
}

} // namespace mcx
