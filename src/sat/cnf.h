// Tseitin encoding of XAGs into CNF.
#pragma once

#include "sat/solver.h"
#include "xag/xag.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

namespace mcx::sat {

/// Result of encoding a network: SAT literals for PIs, POs and every node.
struct cnf_encoding {
    std::vector<literal> pi_literals;
    std::vector<literal> po_literals;
    std::vector<literal> node_literals; ///< indexed by node id (live cone)
    /// Gates that took an existing literal from the base encoding's
    /// structural-hash table and emitted no clauses (`encode_merged`).
    uint64_t strash_hits = 0;
};

/// Encode `network` into `s`.  If `shared_pis` is non-empty it supplies the
/// PI literals (for miters over a common input space); otherwise fresh
/// variables are created.
cnf_encoding encode(solver& s, const xag& network,
                    const std::vector<literal>& shared_pis = {});

/// Structural-hash table over the gates of an encoding, keyed in SAT-literal
/// space — a gate's fanin literals, not its node ids — so that a gate of
/// another network whose fanins already resolved to those literals finds
/// it.  Keys are normalized: AND fanins are sorted; XOR fanins have their
/// complements stripped and moved to the output.
class gate_table {
public:
    gate_table() = default;
    /// Register every live gate of `network`, encoded as `enc`.
    gate_table(const xag& network, const cnf_encoding& enc);

    /// The literal of a registered gate computing `a AND b` (`is_and`) or
    /// `a XOR b`, if there is one.
    std::optional<literal> find(bool is_and, literal a, literal b) const;

private:
    std::unordered_map<uint64_t, literal> gates_[2]; ///< [is_and]
};

/// Receives every gate `encode_merged` encodes, with its fresh output
/// literal `y`; returns the literal the gate's fanouts use instead — `y`
/// itself, or a base literal proved equal to it (SAT sweeping,
/// src/sat/equivalence.cpp).
using gate_settler = std::function<literal(uint32_t node, literal y)>;

/// Encode `network` merged into the encoding `base` (same solver), whose
/// PI literals and constant it shares.  Gates are visited in topological
/// order: a gate whose normalized fanin-literal key names a gate of
/// `table` takes that literal and emits no clauses (structural hashing);
/// every other gate is encoded with a fresh variable and then handed to
/// `settle`.
cnf_encoding encode_merged(solver& s, const xag& network,
                           const cnf_encoding& base, const gate_table& table,
                           const gate_settler& settle);

} // namespace mcx::sat
