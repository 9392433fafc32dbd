#include "xag/simulate.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace mcx {

std::vector<truth_table> simulate(const xag& network, uint32_t max_vars)
{
    const auto n = network.num_pis();
    if (n > max_vars)
        throw std::invalid_argument{
            "simulate: too many PIs for exhaustive simulation"};

    std::vector<truth_table> values(network.size(), truth_table{n});
    for (uint32_t i = 0; i < n; ++i)
        values[network.pi_at(i)] = truth_table::projection(n, i);

    for (const auto node : network.topological_order()) {
        if (!network.is_gate(node))
            continue;
        const auto f0 = network.fanin0(node);
        const auto f1 = network.fanin1(node);
        const auto a =
            f0.complemented() ? ~values[f0.node()] : values[f0.node()];
        const auto b =
            f1.complemented() ? ~values[f1.node()] : values[f1.node()];
        values[node] = network.is_and(node) ? (a & b) : (a ^ b);
    }

    std::vector<truth_table> outputs;
    outputs.reserve(network.num_pos());
    for (uint32_t i = 0; i < network.num_pos(); ++i) {
        const auto po = network.po_at(i);
        outputs.push_back(po.complemented() ? ~values[po.node()]
                                            : values[po.node()]);
    }
    return outputs;
}

std::vector<uint64_t> simulate_nodes(const xag& network,
                                     std::span<const uint64_t> pi_words,
                                     uint32_t words)
{
    if (pi_words.size() != size_t{network.num_pis()} * words)
        throw std::invalid_argument{"simulate_nodes: `words` words per PI"};

    std::vector<uint64_t> values(size_t{network.size()} * words, 0);
    for (uint32_t i = 0; i < network.num_pis(); ++i)
        std::copy_n(&pi_words[size_t{i} * words], words,
                    &values[size_t{network.pi_at(i)} * words]);

    for (const auto node : network.topological_order()) {
        if (!network.is_gate(node))
            continue;
        const auto f0 = network.fanin0(node);
        const auto f1 = network.fanin1(node);
        const uint64_t c0 = f0.complemented() ? ~uint64_t{0} : 0;
        const uint64_t c1 = f1.complemented() ? ~uint64_t{0} : 0;
        const uint64_t* a = &values[size_t{f0.node()} * words];
        const uint64_t* b = &values[size_t{f1.node()} * words];
        uint64_t* y = &values[size_t{node} * words];
        if (network.is_and(node))
            for (uint32_t w = 0; w < words; ++w)
                y[w] = (a[w] ^ c0) & (b[w] ^ c1);
        else
            for (uint32_t w = 0; w < words; ++w)
                y[w] = a[w] ^ b[w] ^ c0 ^ c1;
    }
    return values;
}

std::vector<uint64_t> simulate_words(const xag& network,
                                     std::span<const uint64_t> pi_words)
{
    if (pi_words.size() != network.num_pis())
        throw std::invalid_argument{"simulate_words: one word per PI"};

    const auto values = simulate_nodes(network, pi_words, 1);
    std::vector<uint64_t> outputs;
    outputs.reserve(network.num_pos());
    for (uint32_t i = 0; i < network.num_pos(); ++i) {
        const auto po = network.po_at(i);
        outputs.push_back(values[po.node()] ^
                          (po.complemented() ? ~uint64_t{0} : 0));
    }
    return outputs;
}

std::vector<bool> simulate_pattern(const xag& network,
                                   const std::vector<bool>& inputs)
{
    std::vector<uint64_t> words(inputs.size());
    for (size_t i = 0; i < inputs.size(); ++i)
        words[i] = inputs[i] ? 1 : 0;
    const auto out_words = simulate_words(network, words);
    std::vector<bool> outputs(out_words.size());
    for (size_t i = 0; i < out_words.size(); ++i)
        outputs[i] = (out_words[i] & 1) != 0;
    return outputs;
}

truth_table cone_function(const xag& network, uint32_t root,
                          std::span<const uint32_t> leaves)
{
    const auto k = static_cast<uint32_t>(leaves.size());
    if (k > 16)
        throw std::invalid_argument{"cone_function: too many leaves"};

    std::unordered_map<uint32_t, truth_table> values;
    for (uint32_t i = 0; i < k; ++i)
        values.emplace(leaves[i], truth_table::projection(k, i));

    // Recursive evaluation with memoization over the cone.
    std::vector<uint32_t> stack{root};
    while (!stack.empty()) {
        const auto n = stack.back();
        if (values.count(n)) {
            stack.pop_back();
            continue;
        }
        if (n == 0) {
            values.emplace(n, truth_table::constant(k, false));
            stack.pop_back();
            continue;
        }
        if (!network.is_gate(n))
            throw std::invalid_argument{
                "cone_function: cone escapes the leaf boundary"};
        const auto n0 = network.fanin0(n).node();
        const auto n1 = network.fanin1(n).node();
        const auto it0 = values.find(n0);
        const auto it1 = values.find(n1);
        if (it0 == values.end() || it1 == values.end()) {
            if (it0 == values.end())
                stack.push_back(n0);
            if (it1 == values.end())
                stack.push_back(n1);
            continue;
        }
        const auto a =
            network.fanin0(n).complemented() ? ~it0->second : it0->second;
        const auto b =
            network.fanin1(n).complemented() ? ~it1->second : it1->second;
        values.emplace(n, network.is_and(n) ? (a & b) : (a ^ b));
        stack.pop_back();
    }
    return values.at(root);
}

} // namespace mcx
