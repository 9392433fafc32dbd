// Tseitin encoding of XAGs into CNF.
#pragma once

#include "sat/solver.h"
#include "xag/xag.h"

#include <vector>

namespace mcx::sat {

/// Result of encoding a network: SAT literals for PIs, POs and every node.
struct cnf_encoding {
    std::vector<literal> pi_literals;
    std::vector<literal> po_literals;
    std::vector<literal> node_literals; ///< indexed by node id (live cone)
};

/// Encode `network` into `s`.  If `shared_pis` is non-empty it supplies the
/// PI literals (for miters over a common input space); otherwise fresh
/// variables are created.
cnf_encoding encode(solver& s, const xag& network,
                    const std::vector<literal>& shared_pis = {});

/// Encode `network` as a retirable session: every emitted clause carries
/// `~activation`, so the encoding only constrains solves that assume
/// `activation` and a later top-level unit `~activation` retires the whole
/// session at once (the incremental-CEC idiom, src/sat/equivalence.h).
cnf_encoding encode_guarded(solver& s, const xag& network, literal activation,
                            const std::vector<literal>& shared_pis = {});

} // namespace mcx::sat
