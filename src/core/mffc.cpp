#include "core/mffc.h"

#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace mcx {

namespace {

uint32_t mffc_count(const xag& network, uint32_t root,
                    std::span<const uint32_t> leaves,
                    std::span<const uint32_t> pinned, bool count_xor)
{
    const std::unordered_set<uint32_t> leaf_set(leaves.begin(), leaves.end());
    std::unordered_map<uint32_t, uint32_t> remaining;
    for (const auto p : pinned)
        ++remaining.try_emplace(p, network.ref_count(p)).first->second;
    uint32_t count = 0;

    // Simulated dereferencing: a fanin whose (local) reference count drops
    // to zero joins the cone.
    std::vector<uint32_t> stack{root};
    while (!stack.empty()) {
        const auto n = stack.back();
        stack.pop_back();
        if (network.is_and(n) || count_xor)
            ++count;
        for (const auto fi : {network.fanin0(n), network.fanin1(n)}) {
            const auto child = fi.node();
            if (!network.is_gate(child) || leaf_set.count(child))
                continue;
            auto [it, inserted] =
                remaining.try_emplace(child, network.ref_count(child));
            if (--it->second == 0)
                stack.push_back(child);
        }
    }
    return count;
}

} // namespace

uint32_t mffc_and_count(const xag& network, uint32_t root,
                        std::span<const uint32_t> leaves,
                        std::span<const uint32_t> pinned)
{
    return mffc_count(network, root, leaves, pinned, false);
}

uint32_t mffc_gate_count(const xag& network, uint32_t root,
                         std::span<const uint32_t> leaves,
                         std::span<const uint32_t> pinned)
{
    return mffc_count(network, root, leaves, pinned, true);
}

} // namespace mcx
