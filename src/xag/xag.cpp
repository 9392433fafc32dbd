#include "xag/xag.h"

#include <algorithm>
#include <atomic>

namespace mcx {

xag::xag()
{
    // Version numbers never collide across networks (each instance claims a
    // disjoint 2^32 range), so a consumer holding a (pointer, version) pair
    // cannot be fooled by a different network reusing the same address.
    static std::atomic<uint64_t> next_version_base{0};
    structural_version_ = next_version_base.fetch_add(1) << 32;
    nodes_.emplace_back(); // node 0: constant false
    fanouts_.emplace_back();
}

void xag::arm_change_log()
{
    changes_.armed = true;
    changes_.overflowed = false;
    changes_.base_version = structural_version_;
    changes_.nodes.clear();
}

void xag::disarm_change_log()
{
    changes_.armed = false;
    changes_.overflowed = false;
    changes_.nodes.clear();
    changes_.nodes.shrink_to_fit();
}

signal xag::create_pi()
{
    const auto id = static_cast<uint32_t>(nodes_.size());
    node n;
    n.kind = node_kind::pi;
    n.aux = static_cast<uint32_t>(pis_.size());
    nodes_.push_back(n);
    fanouts_.emplace_back();
    pis_.push_back(id);
    log_change(id);
    return signal{id, false};
}

uint32_t xag::pi_index(uint32_t n) const
{
    if (!is_pi(n))
        throw std::invalid_argument{"pi_index: node is not a PI"};
    return nodes_[n].aux;
}

uint32_t xag::create_po(signal s)
{
    incr_ref(s.node());
    pos_.push_back(s);
    // A new PO can make an externally-held cone reachable, so conservatively
    // dirty its root for incremental consumers.
    log_change(s.node());
    return static_cast<uint32_t>(pos_.size() - 1);
}

bool xag::try_fold(node_kind kind, signal a, signal b, signal& folded) const
{
    if (kind == node_kind::and_gate) {
        if (a == b) {
            folded = a;
            return true;
        }
        if (a == !b) {
            folded = get_constant(false);
            return true;
        }
        if (a.node() == 0) {
            folded = a.complemented() ? b : get_constant(false);
            return true;
        }
        if (b.node() == 0) {
            folded = b.complemented() ? a : get_constant(false);
            return true;
        }
    } else {
        if (a == b) {
            folded = get_constant(false);
            return true;
        }
        if (a == !b) {
            folded = get_constant(true);
            return true;
        }
        if (a.node() == 0) {
            folded = b ^ a.complemented();
            return true;
        }
        if (b.node() == 0) {
            folded = a ^ b.complemented();
            return true;
        }
    }
    return false;
}

xag::canon_gate xag::canonicalize(node_kind kind, signal a, signal b) const
{
    canon_gate c{a, b, false};
    if (kind == node_kind::xor_gate) {
        c.output_parity = a.complemented() ^ b.complemented();
        c.a = signal{a.node(), false};
        c.b = signal{b.node(), false};
    }
    if (c.a.literal() > c.b.literal())
        std::swap(c.a, c.b);
    return c;
}

std::optional<signal> xag::find_gate(node_kind kind, signal a,
                                     signal b) const
{
    signal folded;
    if (try_fold(kind, a, b, folded))
        return folded;
    const auto canon = canonicalize(kind, a, b);
    const auto key = strash_key(kind, canon.a, canon.b);
    if (const auto it = strash_.find(key); it != strash_.end())
        return signal{it->second} ^ canon.output_parity;
    return std::nullopt;
}

signal xag::create_gate(node_kind kind, signal a, signal b)
{
    if (const auto found = find_gate(kind, a, b))
        return *found;

    const auto canon = canonicalize(kind, a, b);
    const auto key = strash_key(kind, canon.a, canon.b);

    const auto id = static_cast<uint32_t>(nodes_.size());
    node n;
    n.kind = kind;
    n.fanin[0] = canon.a;
    n.fanin[1] = canon.b;
    nodes_.push_back(n);
    fanouts_.emplace_back();
    incr_ref(canon.a.node());
    incr_ref(canon.b.node());
    add_fanout(canon.a.node(), id);
    add_fanout(canon.b.node(), id);
    strash_.emplace(key, signal{id, false}.literal());
    if (kind == node_kind::and_gate)
        ++num_ands_;
    else
        ++num_xors_;
    log_change(id);
    return signal{id, false} ^ canon.output_parity;
}

signal xag::create_and(signal a, signal b)
{
    return create_gate(node_kind::and_gate, a, b);
}

signal xag::create_xor(signal a, signal b)
{
    return create_gate(node_kind::xor_gate, a, b);
}

void xag::add_fanout(uint32_t n, uint32_t parent)
{
    fanouts_[n].push_back(parent);
}

void xag::remove_fanout(uint32_t n, uint32_t parent)
{
    auto& list = fanouts_[n];
    const auto it = std::find(list.begin(), list.end(), parent);
    if (it != list.end()) {
        *it = list.back();
        list.pop_back();
    }
}

void xag::decr_ref(uint32_t n)
{
    auto& nd = nodes_[n];
    if (nd.refs == 0)
        throw std::logic_error{"decr_ref: reference count underflow"};
    if (--nd.refs == 0 && is_gate(n) && !nd.dead)
        take_out(n);
}

void xag::unhash(uint32_t n)
{
    const auto& nd = nodes_[n];
    const auto canon = canonicalize(nd.kind, nd.fanin[0], nd.fanin[1]);
    const auto key = strash_key(nd.kind, canon.a, canon.b);
    if (const auto it = strash_.find(key);
        it != strash_.end() && signal{it->second}.node() == n)
        strash_.erase(it);
}

void xag::take_out(uint32_t n)
{
    auto& nd = nodes_[n];
    unhash(n);
    log_change(n);
    nd.dead = true;
    nd.repl = signal{n, false}; // dangling death: no replacement
    if (nd.kind == node_kind::and_gate)
        --num_ands_;
    else
        --num_xors_;
    for (const auto fi : {nd.fanin[0], nd.fanin[1]}) {
        remove_fanout(fi.node(), n);
        decr_ref(fi.node());
    }
}

signal xag::resolve(signal s) const
{
    while (nodes_[s.node()].dead) {
        const auto repl = nodes_[s.node()].repl;
        if (repl.node() == s.node())
            break; // dangling death, nothing better to offer
        s = repl ^ s.complemented();
    }
    return s;
}

void xag::take_ref(signal s)
{
    incr_ref(s.node());
}

void xag::release_ref(signal s)
{
    decr_ref(s.node());
}

void xag::substitute(uint32_t old_node, signal replacement)
{
    if (is_pi(old_node) || is_constant(old_node))
        throw std::invalid_argument{"substitute: can only substitute gates"};

    struct item {
        uint32_t old_node;
        signal replacement; ///< protected by one reference until processed
    };
    std::vector<item> queue;
    const auto enqueue = [&](uint32_t o, signal s) {
        incr_ref(s.node());
        queue.push_back({o, s});
    };
    enqueue(old_node, replacement);

    for (size_t qi = 0; qi < queue.size(); ++qi) {
        const auto [o, original_s] = queue[qi];
        const auto s = resolve(original_s);
        auto& old_nd = nodes_[o];
        if (old_nd.dead || (s.node() == o && !s.complemented())) {
            decr_ref(original_s.node());
            continue;
        }
        if (s.node() == o)
            throw std::logic_error{"substitute: node equals own complement"};

        // Retire o: mark dead with a forwarding literal.
        unhash(o);
        log_change(o);
        old_nd.dead = true;
        old_nd.repl = s;
        if (old_nd.kind == node_kind::and_gate)
            --num_ands_;
        else
            --num_xors_;

        // Re-point primary outputs.  The replacement gains a reference,
        // which can shrink the MFFC of every gate above it: journal it.
        for (auto& po : pos_)
            if (po.node() == o) {
                const auto updated = s ^ po.complemented();
                incr_ref(updated.node());
                if (is_gate(updated.node()))
                    log_change(updated.node());
                --old_nd.refs;
                po = updated;
            }

        // Re-point fanouts, folding and re-hashing each affected parent.
        const auto fanout_list = std::move(fanouts_[o]);
        fanouts_[o].clear();
        for (const auto p : fanout_list) {
            auto& pn = nodes_[p];
            if (pn.dead)
                continue;
            unhash(p);
            log_change(p); // fanin rewired below: p's cut sets are stale
            for (auto& fi : pn.fanin)
                if (fi.node() == o) {
                    const auto updated = s ^ fi.complemented();
                    incr_ref(updated.node());
                    add_fanout(updated.node(), p);
                    --old_nd.refs;
                    fi = updated;
                }
            signal folded;
            if (try_fold(pn.kind, pn.fanin[0], pn.fanin[1], folded)) {
                enqueue(p, folded);
                continue;
            }
            const auto canon = canonicalize(pn.kind, pn.fanin[0], pn.fanin[1]);
            const auto key = strash_key(pn.kind, canon.a, canon.b);
            if (const auto it = strash_.find(key); it != strash_.end()) {
                const auto existing = signal{it->second};
                if (existing.node() != p)
                    enqueue(p, existing ^ canon.output_parity);
            } else {
                strash_.emplace(key,
                                (signal{p, false} ^ canon.output_parity)
                                    .literal());
            }
        }

        // Release o's cone.
        for (const auto fi : {old_nd.fanin[0], old_nd.fanin[1]}) {
            remove_fanout(fi.node(), o);
            decr_ref(fi.node());
        }
        decr_ref(original_s.node());
    }
}

std::vector<uint32_t> xag::topological_order() const
{
    // Post-order DFS with three colours: a node is appended only when all
    // its fanins are finalized.  (Marking at push time is not enough: a node
    // reachable through paths of different depths could otherwise appear
    // after one of its fanouts.)
    std::vector<uint32_t> order;
    order.reserve(nodes_.size());
    std::vector<uint8_t> colour(nodes_.size(), 0); // 0 new, 1 open, 2 done
    colour[0] = 2;
    for (const auto pi : pis_) {
        order.push_back(pi);
        colour[pi] = 2;
    }
    std::vector<std::pair<uint32_t, uint8_t>> stack;
    for (const auto po : pos_) {
        if (colour[po.node()] == 2)
            continue;
        stack.emplace_back(po.node(), 0);
        while (!stack.empty()) {
            const auto [n, phase] = stack.back();
            if (phase == 0) {
                if (colour[n] == 2) {
                    stack.pop_back();
                    continue;
                }
                colour[n] = 1;
                stack.back().second = 1;
                const auto f0 = fanin0(n).node();
                const auto f1 = fanin1(n).node();
                if (colour[f0] != 2)
                    stack.emplace_back(f0, 0);
                if (colour[f1] != 2)
                    stack.emplace_back(f1, 0);
            } else {
                if (colour[n] != 2) {
                    colour[n] = 2;
                    order.push_back(n);
                }
                stack.pop_back();
            }
        }
    }
    return order;
}

void xag::check_integrity() const
{
    std::vector<uint32_t> expected_refs(nodes_.size(), 0);
    uint32_t live_ands = 0, live_xors = 0;
    for (uint32_t n = 0; n < nodes_.size(); ++n) {
        const auto& nd = nodes_[n];
        if (nd.dead || !is_gate(n))
            continue;
        (nd.kind == node_kind::and_gate ? live_ands : live_xors) += 1;
        for (const auto fi : {nd.fanin[0], nd.fanin[1]}) {
            if (nodes_[fi.node()].dead)
                throw std::logic_error{"live node references dead fanin"};
            ++expected_refs[fi.node()];
            const auto& list = fanouts_[fi.node()];
            if (std::find(list.begin(), list.end(), n) == list.end())
                throw std::logic_error{"fanout list missing a parent"};
        }
        const auto canon = canonicalize(nd.kind, nd.fanin[0], nd.fanin[1]);
        const auto it = strash_.find(strash_key(nd.kind, canon.a, canon.b));
        if (it == strash_.end())
            throw std::logic_error{"live gate missing from strash table"};
        if (signal{it->second}.node() != n)
            throw std::logic_error{"strash entry does not match live gate"};
    }
    for (const auto po : pos_) {
        if (nodes_[po.node()].dead)
            throw std::logic_error{"primary output references dead node"};
        ++expected_refs[po.node()];
    }
    for (uint32_t n = 0; n < nodes_.size(); ++n)
        if (!nodes_[n].dead && nodes_[n].refs != expected_refs[n])
            throw std::logic_error{
                "reference count mismatch at node " + std::to_string(n) +
                ": stored " + std::to_string(nodes_[n].refs) + ", expected " +
                std::to_string(expected_refs[n])};
    if (live_ands != num_ands_ || live_xors != num_xors_)
        throw std::logic_error{"gate counters out of sync"};

    // Acyclicity via DFS colouring.
    std::vector<uint8_t> colour(nodes_.size(), 0);
    for (const auto po : pos_) {
        std::vector<std::pair<uint32_t, uint8_t>> stack{{po.node(), 0}};
        while (!stack.empty()) {
            const auto [n, phase] = stack.back();
            if (phase == 0) {
                if (colour[n] == 1)
                    throw std::logic_error{"cycle detected"};
                if (colour[n] == 2 || !is_gate(n)) {
                    stack.pop_back();
                    continue;
                }
                colour[n] = 1;
                stack.back().second = 1;
                const auto f0 = fanin0(n).node();
                const auto f1 = fanin1(n).node();
                stack.emplace_back(f0, 0);
                stack.emplace_back(f1, 0);
            } else {
                colour[n] = 2;
                stack.pop_back();
            }
        }
    }
}

} // namespace mcx
