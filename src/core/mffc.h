// Maximum fanout-free cone measurement: the set of nodes that become
// dangling when a root is replaced, bounded below by a cut's leaves.  The
// AND count of the MFFC is the DAG-aware "what we save" side of the
// rewriting gain (paper §4, following Mishchenko's AIG rewriting).
#pragma once

#include "xag/xag.h"

#include <cstdint>
#include <span>

namespace mcx {

/// Number of AND gates in the MFFC of `root` with respect to `leaves`.
/// Each entry of `pinned` holds one extra reference on its node (the
/// fanin edges of a replacement not yet built), so a pinned node and the
/// cone only it keeps alive are not counted.
uint32_t mffc_and_count(const xag& network, uint32_t root,
                        std::span<const uint32_t> leaves,
                        std::span<const uint32_t> pinned = {});

/// Number of gates (AND + XOR) in the MFFC of `root` w.r.t. `leaves`.
uint32_t mffc_gate_count(const xag& network, uint32_t root,
                         std::span<const uint32_t> leaves,
                         std::span<const uint32_t> pinned = {});

} // namespace mcx
