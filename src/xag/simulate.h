// XAG simulation: exhaustive (truth table per output) for small input
// counts, and 64-pattern word-parallel simulation for large networks.
#pragma once

#include "tt/truth_table.h"
#include "xag/xag.h"

#include <cstdint>
#include <span>
#include <vector>

namespace mcx {

/// Exhaustive simulation: one truth table over all PIs per primary output.
/// Guarded to at most `max_vars` PIs (default 16) — beyond that the tables
/// no longer fit in memory for realistic networks.
std::vector<truth_table> simulate(const xag& network, uint32_t max_vars = 16);

/// Word-parallel simulation of 64 input patterns: `pi_words[i]` holds the 64
/// values of PI i; returns one word per primary output.
std::vector<uint64_t> simulate_words(const xag& network,
                                     std::span<const uint64_t> pi_words);

/// Word-parallel simulation of 64 * `words` input patterns, keeping every
/// node's value: `pi_words` holds `words` words per PI (PI-major); returns
/// `words` words per node id (dead nodes and the constant read 0).
std::vector<uint64_t> simulate_nodes(const xag& network,
                                     std::span<const uint64_t> pi_words,
                                     uint32_t words);

/// Single-pattern simulation (convenience wrapper over simulate_words).
std::vector<bool> simulate_pattern(const xag& network,
                                   const std::vector<bool>& inputs);

/// Truth table of an arbitrary internal cone: function of `root` expressed
/// over the given `leaves` (at most 16).  Nodes outside the cone of the
/// leaves must not be reachable from root without passing a leaf.
truth_table cone_function(const xag& network, uint32_t root,
                          std::span<const uint32_t> leaves);

} // namespace mcx
