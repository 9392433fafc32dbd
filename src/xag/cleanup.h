// Network hygiene: rebuilding a compacted copy (drop dead/dangling nodes,
// re-strash) and splicing one network into another (used to insert database
// circuits during rewriting and to compose generator blocks).
#pragma once

#include "xag/xag.h"

#include <span>
#include <stdexcept>
#include <vector>

namespace mcx {

/// A compacted, freshly strashed copy of `network`: only cones reachable
/// from the primary outputs survive, node ids are in topological order.
xag cleanup(const xag& network);

/// Copy the logic of `src` into `dst`, substituting `leaf_map[i]` (a signal
/// in dst) for PI i of src.  Returns the dst signals of src's primary
/// outputs.  Shares structure with dst through strashing.  `Dst` is an
/// xag or anything with its get_constant/create_and/create_xor (the
/// rewrite engine's candidate probe).
template <typename Dst>
std::vector<signal> insert_network(Dst& dst, const xag& src,
                                   std::span<const signal> leaf_map)
{
    if (leaf_map.size() != src.num_pis())
        throw std::invalid_argument{"insert_network: one signal per src PI"};

    std::vector<signal> map(src.size(), dst.get_constant(false));
    for (uint32_t i = 0; i < src.num_pis(); ++i)
        map[src.pi_at(i)] = leaf_map[i];

    for (const auto n : src.topological_order()) {
        if (!src.is_gate(n))
            continue;
        const auto f0 = src.fanin0(n);
        const auto f1 = src.fanin1(n);
        const auto a = map[f0.node()] ^ f0.complemented();
        const auto b = map[f1.node()] ^ f1.complemented();
        map[n] = src.is_and(n) ? dst.create_and(a, b) : dst.create_xor(a, b);
    }

    std::vector<signal> outputs;
    outputs.reserve(src.num_pos());
    for (uint32_t i = 0; i < src.num_pos(); ++i) {
        const auto po = src.po_at(i);
        outputs.push_back(map[po.node()] ^ po.complemented());
    }
    return outputs;
}

} // namespace mcx
