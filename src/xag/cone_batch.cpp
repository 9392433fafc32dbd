#include "xag/cone_batch.h"

#include "tt/truth_table.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace mcx {

void cone_simulator::ensure_size(size_t num_nodes)
{
    if (leaf_epoch_.size() < num_nodes) {
        leaf_epoch_.resize(num_nodes, 0);
        leaf_mask_.resize(num_nodes, 0);
        visit_epoch_.resize(num_nodes, 0);
        live_epoch_.resize(num_nodes, 0);
        live_.resize(num_nodes, 0);
        slot_.resize(num_nodes, 0);
    }
}

uint32_t cone_simulator::run_chunk(const xag& net, uint32_t root,
                                   std::span<const leaf_set> cuts,
                                   std::span<uint64_t> out, uint32_t forbidden)
{
    const auto C = static_cast<uint32_t>(cuts.size());
    const uint32_t full =
        C >= 32 ? ~0u : ((1u << C) - 1);
    ensure_size(net.size());
    if (epoch_ == UINT32_MAX) { // stamp wrap: invalidate everything once
        std::fill(leaf_epoch_.begin(), leaf_epoch_.end(), 0u);
        std::fill(visit_epoch_.begin(), visit_epoch_.end(), 0u);
        std::fill(live_epoch_.begin(), live_epoch_.end(), 0u);
        epoch_ = 0;
    }
    ++epoch_; // one epoch serves the leaf, live and visit stamps
    ++traversals_;

    // Stamp leaf membership: leaf_mask_[l] = lanes where l is a leaf.
    for (uint32_t j = 0; j < C; ++j) {
        for (const auto l : cuts[j]) {
            if (l >= leaf_mask_.size())
                throw std::invalid_argument{"cone_simulator: bad leaf id"};
            if (leaf_epoch_[l] != epoch_) {
                leaf_epoch_[l] = epoch_;
                leaf_mask_[l] = 0;
            }
            leaf_mask_[l] |= 1u << j;
        }
    }
    const auto leaves_of = [&](uint32_t n) -> uint32_t {
        return leaf_epoch_[n] == epoch_ ? leaf_mask_[n] : 0;
    };

    // Mark the nodes some lane needs: live_[n] = lanes whose cone reaches
    // n.  A gate passes on only the lanes live at it and not cut there, so
    // every lane stops at its own leaves instead of the union cone running
    // down to the PIs.  A node is re-expanded only when it gains lanes.
    stack_.clear();
    stack_.push_back(uint64_t{root} << 32 | full);
    while (!stack_.empty()) {
        const auto top = stack_.back();
        stack_.pop_back();
        const auto n = static_cast<uint32_t>(top >> 32);
        if (live_epoch_[n] != epoch_) {
            live_epoch_[n] = epoch_;
            live_[n] = 0;
        }
        const auto gained = static_cast<uint32_t>(top) & ~live_[n];
        if (gained == 0)
            continue;
        live_[n] |= gained;
        const auto pass_on = gained & ~leaves_of(n);
        if (net.is_gate(n) && pass_on != 0) {
            stack_.push_back(uint64_t{net.fanin0(n).node()} << 32 | pass_on);
            stack_.push_back(uint64_t{net.fanin1(n).node()} << 32 | pass_on);
        }
    }
    // A gate is computed from its fanins iff some lane live at it is not
    // cut there; its other lanes are leaf projections or never read.
    const auto expands = [&](uint32_t n) {
        return net.is_gate(n) && (live_[n] & ~leaves_of(n)) != 0;
    };

    // Iterative post-order DFS of the marked subgraph.
    order_.clear();
    stack_.push_back(uint64_t{root} << 1);
    while (!stack_.empty()) {
        const auto top = stack_.back();
        stack_.pop_back();
        const auto n = static_cast<uint32_t>(top >> 1);
        if (top & 1) { // children done: emit
            order_.push_back(n);
            continue;
        }
        if (visit_epoch_[n] == epoch_)
            continue; // already scheduled or emitted
        visit_epoch_[n] = epoch_;
        stack_.push_back(top | 1);
        if (expands(n)) {
            const auto n0 = net.fanin0(n).node();
            const auto n1 = net.fanin1(n).node();
            if (visit_epoch_[n0] != epoch_)
                stack_.push_back(uint64_t{n0} << 1);
            if (visit_epoch_[n1] != epoch_)
                stack_.push_back(uint64_t{n1} << 1);
        }
    }

    // Evaluate in post-order; slot_[n] indexes the lane pool.
    lanes_.resize(order_.size() * C);
    fail_.resize(order_.size());
    nodes_evaluated_ += order_.size();
    for (uint32_t s = 0; s < order_.size(); ++s) {
        const auto n = order_[s];
        slot_[n] = s;
        auto* v = lanes_.data() + static_cast<size_t>(s) * C;
        const auto lm = leaves_of(n);
        uint32_t failed;
        if (expands(n)) {
            const auto f0 = net.fanin0(n);
            const auto f1 = net.fanin1(n);
            const auto* a = lanes_.data() +
                            static_cast<size_t>(slot_[f0.node()]) * C;
            const auto* b = lanes_.data() +
                            static_cast<size_t>(slot_[f1.node()]) * C;
            const uint64_t ca = f0.complemented() ? ~uint64_t{0} : 0;
            const uint64_t cb = f1.complemented() ? ~uint64_t{0} : 0;
            if (net.is_and(n)) {
                for (uint32_t j = 0; j < C; ++j)
                    v[j] = (a[j] ^ ca) & (b[j] ^ cb);
            } else {
                for (uint32_t j = 0; j < C; ++j)
                    v[j] = (a[j] ^ ca) ^ (b[j] ^ cb);
            }
            failed = fail_[slot_[f0.node()]] | fail_[slot_[f1.node()]];
        } else if (net.is_constant(n)) {
            std::fill(v, v + C, uint64_t{0});
            failed = 0;
        } else {
            // PI, or a gate every live lane cuts: no intrinsic value.  A
            // PI read by a lane it does not serve as a leaf makes that lane
            // escape its boundary.
            std::fill(v, v + C, uint64_t{0});
            failed = net.is_gate(n) ? 0 : full;
        }
        if (n == forbidden)
            failed = full;
        // Leaf lanes override with their projection word and never fail.
        uint32_t pending = lm;
        while (pending != 0) {
            const auto j = static_cast<uint32_t>(std::countr_zero(pending));
            pending &= pending - 1;
            const auto& ls = cuts[j];
            const auto it = std::lower_bound(ls.begin(), ls.end(), n);
            v[j] = tt_projection_word(
                static_cast<uint32_t>(it - ls.begin()));
            failed &= ~(1u << j);
        }
        fail_[s] = failed;
    }

    const auto root_slot = slot_[root];
    const auto* rv = lanes_.data() + static_cast<size_t>(root_slot) * C;
    uint32_t valid = full & ~fail_[root_slot];
    for (uint32_t j = 0; j < C; ++j) {
        const auto k = static_cast<uint32_t>(cuts[j].size());
        if (k > 6) { // single-word limit; cuts never exceed 6 leaves
            valid &= ~(1u << j);
            out[j] = 0;
            continue;
        }
        out[j] = rv[j] & tt_mask(k);
    }
    return valid;
}

uint64_t cone_simulator::simulate_cuts(const xag& net, uint32_t root,
                                       std::span<const leaf_set> cuts,
                                       std::vector<uint64_t>& out,
                                       uint32_t forbidden)
{
    if (cuts.size() > 64)
        throw std::invalid_argument{"simulate_cuts: at most 64 cuts per call"};
    out.assign(cuts.size(), 0);
    uint64_t valid = 0;
    for (size_t base = 0; base < cuts.size(); base += max_lanes) {
        const auto n = std::min<size_t>(max_lanes, cuts.size() - base);
        const auto chunk_valid =
            run_chunk(net, root, cuts.subspan(base, n),
                      std::span<uint64_t>{out.data() + base, n}, forbidden);
        valid |= static_cast<uint64_t>(chunk_valid) << base;
    }
    return valid;
}

std::optional<uint64_t> cone_simulator::cone_word(
    const xag& net, uint32_t root, std::span<const uint32_t> leaves,
    uint32_t forbidden)
{
    single_.assign(leaves.begin(), leaves.end());
    uint64_t word = 0;
    const auto valid =
        run_chunk(net, root, {&single_, 1}, {&word, 1}, forbidden);
    if ((valid & 1) == 0)
        return std::nullopt;
    return word;
}

} // namespace mcx
