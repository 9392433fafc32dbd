// XOR-AND graph (XAG): the paper's logic-network data structure (§2.1).
//
// An XAG is a DAG whose internal nodes are 2-input AND or XOR gates and whose
// edges may be complemented.  The number of AND nodes is the multiplicative
// complexity of the network, the cost function the whole library minimizes.
//
// The network keeps
//  * structural hashing (strash) with constant folding, so that syntactically
//    equal gates are created once;
//  * reference (fanout) counts, needed for MFFC-based rewriting gains;
//  * explicit fanout lists, enabling in-place node substitution with
//    cascading merge/fold (the "DAG-aware" part of DAG-aware rewriting).
#pragma once

#include "core/fault_inject.h"

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace mcx {

/// A polarized edge: node index plus complement flag, packed as a literal.
class signal {
public:
    constexpr signal() = default;
    constexpr explicit signal(uint32_t literal) : lit_{literal} {}
    constexpr signal(uint32_t node, bool complemented)
        : lit_{(node << 1) | static_cast<uint32_t>(complemented)} {}

    constexpr uint32_t node() const { return lit_ >> 1; }
    constexpr bool complemented() const { return (lit_ & 1) != 0; }
    constexpr uint32_t literal() const { return lit_; }

    constexpr signal operator!() const { return signal{lit_ ^ 1}; }
    constexpr signal operator^(bool c) const
    {
        return signal{lit_ ^ static_cast<uint32_t>(c)};
    }

    constexpr bool operator==(const signal&) const = default;

private:
    uint32_t lit_ = 0;
};

enum class node_kind : uint8_t { constant, pi, and_gate, xor_gate };

class xag {
public:
    /// Node 0 is the constant-false node; `get_constant(true)` is its
    /// complemented literal.
    xag();

    // ------------------------------------------------------------ building
    signal get_constant(bool value) const { return signal{0u, value}; }
    signal create_pi();
    signal create_and(signal a, signal b);
    signal create_xor(signal a, signal b);

    signal create_not(signal a) const { return !a; }
    signal create_or(signal a, signal b) { return !create_and(!a, !b); }
    signal create_nand(signal a, signal b) { return !create_and(a, b); }
    signal create_nor(signal a, signal b) { return create_and(!a, !b); }
    signal create_xnor(signal a, signal b) { return !create_xor(a, b); }

    /// if-then-else with one AND gate: ite(c,t,e) = ((t ^ e) & c) ^ e.
    signal create_ite(signal c, signal t, signal e)
    {
        return create_xor(create_and(create_xor(t, e), c), e);
    }

    /// Majority-of-three with one AND gate (the paper's Example 3.1 shows
    /// MC(<abc>) = 1): <abc> = ((a ^ b) & (a ^ c)) ^ a.
    signal create_maj(signal a, signal b, signal c)
    {
        return create_xor(create_and(create_xor(a, b), create_xor(a, c)), a);
    }

    /// Majority-of-three the "textbook" way (3 AND gates); used by generators
    /// that intentionally start from non-MC-optimized structures.
    signal create_maj_naive(signal a, signal b, signal c)
    {
        return create_or(create_or(create_and(a, b), create_and(a, c)),
                         create_and(b, c));
    }

    uint32_t create_po(signal s);

    /// What create_and/create_xor would return for (a, b), without creating
    /// anything: the folded signal or the structurally hashed gate that
    /// already exists; nullopt when the gate would be new.  Operands may
    /// name nodes at or beyond size() (a caller's not-yet-built gates):
    /// they fold like any literal but never hit the hash table.  Read-only,
    /// so concurrent callers are safe while nobody mutates the network.
    std::optional<signal> find_gate(node_kind kind, signal a, signal b) const;

    // ------------------------------------------------------------- access
    uint32_t size() const { return static_cast<uint32_t>(nodes_.size()); }
    uint32_t num_pis() const { return static_cast<uint32_t>(pis_.size()); }
    uint32_t num_pos() const { return static_cast<uint32_t>(pos_.size()); }
    uint32_t num_ands() const { return num_ands_; }
    uint32_t num_xors() const { return num_xors_; }
    /// Live gates (AND + XOR).
    uint32_t num_gates() const { return num_ands_ + num_xors_; }

    node_kind kind(uint32_t n) const { return nodes_[n].kind; }
    bool is_constant(uint32_t n) const { return n == 0; }
    bool is_pi(uint32_t n) const { return nodes_[n].kind == node_kind::pi; }
    bool is_and(uint32_t n) const
    {
        return nodes_[n].kind == node_kind::and_gate;
    }
    bool is_xor(uint32_t n) const
    {
        return nodes_[n].kind == node_kind::xor_gate;
    }
    bool is_gate(uint32_t n) const { return is_and(n) || is_xor(n); }
    bool is_dead(uint32_t n) const { return nodes_[n].dead; }

    signal fanin0(uint32_t n) const { return nodes_[n].fanin[0]; }
    signal fanin1(uint32_t n) const { return nodes_[n].fanin[1]; }

    uint32_t pi_at(uint32_t index) const { return pis_[index]; }
    signal po_at(uint32_t index) const { return pos_[index]; }
    /// Index of a PI node among the PIs (node must be a PI).
    uint32_t pi_index(uint32_t n) const;

    /// Number of referencing fanouts (gate fanins + primary outputs).
    uint32_t ref_count(uint32_t n) const { return nodes_[n].refs; }
    const std::vector<uint32_t>& fanouts(uint32_t n) const
    {
        return fanouts_[n];
    }

    // ------------------------------------------------------- manipulation
    /// Replace every reference to node `old_node` by `replacement` (which
    /// must compute the same function).  Merges with structurally equal
    /// nodes, folds constants, and recursively removes dangling cones.
    /// Precondition: the cone of `replacement` does not contain `old_node`
    /// (otherwise rewiring would alter the replacement's own function);
    /// callers such as the rewriting engine check this before substituting.
    void substitute(uint32_t old_node, signal replacement);

    /// Hold an external reference on a signal (e.g. a candidate circuit that
    /// is not yet attached anywhere), preventing cleanup of its cone.
    void take_ref(signal s);

    /// Release a reference taken with take_ref; a cone whose references drop
    /// to zero is removed recursively.
    void release_ref(signal s);

    /// Follow substitution chains: the live signal currently representing s.
    signal resolve(signal s) const;

    /// Nodes in a topological order (fanins before fanouts), live nodes
    /// reachable from the primary outputs only.  Includes PIs, excludes the
    /// constant node.
    std::vector<uint32_t> topological_order() const;

    /// Verify internal invariants (ref counts, fanout lists, strash, acyclicity).
    /// Throws std::logic_error with a description on violation.  For tests.
    void check_integrity() const;

    // ------------------------------------------- structural-change tracking
    //
    // Incremental consumers (the cut maintainer, src/cut/cut_incremental.h)
    // need to know which nodes' local structure changed between two points
    // in time.  The network keeps a monotone `structural_version` (seeded
    // from a process-global counter, so two different networks never share
    // a version) and an opt-in journal: while armed, every node whose
    // structure changes — a gate created, a fanin rewired by substitute, a
    // node dying — is appended to `changes().nodes` (duplicates allowed;
    // consumers dedup).  A consumer arms the log, remembers the version,
    // and later trusts the journal exactly when the log is still armed with
    // the same base version — any re-arm, copy, or object replacement in
    // between breaks the match and forces a full rebuild.

    // The journal is bounded: once more nodes have been recorded than an
    // incremental consumer could profitably use (several times the node
    // count), recording stops, the memory is released, and `overflowed`
    // tells consumers to fall back to a full rebuild.  This also caps the
    // cost of an armed log that its consumer abandoned (e.g. a destroyed
    // pass_context) on a long-lived network.
    struct change_log {
        bool armed = false;
        bool overflowed = false;     ///< recording stopped; do a full rebuild
        uint64_t base_version = 0;   ///< structural_version at arm time
        std::vector<uint32_t> nodes; ///< touched node ids since armed
    };

    uint64_t structural_version() const { return structural_version_; }
    /// Clear the journal and start recording; base_version is the current
    /// structural_version.
    void arm_change_log();
    /// Stop recording and drop the journal.
    void disarm_change_log();
    const change_log& changes() const { return changes_; }

private:
    struct node {
        node_kind kind = node_kind::constant;
        bool dead = false;
        signal fanin[2] = {signal{0}, signal{0}};
        uint32_t refs = 0;
        uint32_t aux = 0; ///< PI index for PI nodes
        signal repl{0};   ///< replacement literal once dead by substitution
    };

    uint64_t strash_key(node_kind kind, signal a, signal b) const
    {
        return (static_cast<uint64_t>(kind) << 62) |
               (static_cast<uint64_t>(a.literal()) << 31) |
               static_cast<uint64_t>(b.literal());
    }

    /// Constant-fold a gate; returns true and sets `folded` when the gate
    /// collapses to an existing signal.
    bool try_fold(node_kind kind, signal a, signal b, signal& folded) const;

    /// Canonical strash form of a gate: orders fanins and, for XOR, strips
    /// fanin complements into the returned output parity.
    struct canon_gate {
        signal a, b;
        bool output_parity;
    };
    canon_gate canonicalize(node_kind kind, signal a, signal b) const;

    signal create_gate(node_kind kind, signal a, signal b);

    void add_fanout(uint32_t n, uint32_t parent);
    void remove_fanout(uint32_t n, uint32_t parent);
    void incr_ref(uint32_t n) { ++nodes_[n].refs; }
    void decr_ref(uint32_t n);

    /// Mark a zero-ref gate dead and release its fanins, recursively.
    void take_out(uint32_t n);

    /// Erase n's current strash entry if it points at n.
    void unhash(uint32_t n);

    /// Record a structural change of node n (journal + version bump).
    void log_change(uint32_t n)
    {
        ++structural_version_;
        if (!changes_.armed || changes_.overflowed)
            return;
        // An injected journal-overflow fault takes the same degradation
        // path as a real one — overflow is a state, not an exception, so
        // the injection is absorbed here rather than thrown onward.
        bool force_overflow = false;
        try {
            fault_injection::fire(fault_site::journal_overflow);
        } catch (const fault_injected_error&) {
            force_overflow = true;
        }
        if (force_overflow ||
            changes_.nodes.size() >= 8 * nodes_.size() + 65536) {
            changes_.overflowed = true;
            changes_.nodes.clear();
            changes_.nodes.shrink_to_fit();
            return;
        }
        changes_.nodes.push_back(n);
    }

    std::vector<node> nodes_;
    std::vector<uint32_t> pis_;
    std::vector<signal> pos_;
    std::vector<std::vector<uint32_t>> fanouts_;
    std::unordered_map<uint64_t, uint32_t> strash_; ///< key -> stored literal
    uint32_t num_ands_ = 0;
    uint32_t num_xors_ = 0;
    uint64_t structural_version_ = 0; ///< seeded per network, see xag()
    change_log changes_;
};

/// Statistics bundle used by reports and benches.
struct xag_stats {
    uint32_t num_pis = 0;
    uint32_t num_pos = 0;
    uint32_t num_ands = 0;
    uint32_t num_xors = 0;
};

inline xag_stats stats_of(const xag& network)
{
    return {network.num_pis(), network.num_pos(), network.num_ands(),
            network.num_xors()};
}

} // namespace mcx
