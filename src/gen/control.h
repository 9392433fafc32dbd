// Generator-based equivalents of the EPFL random-control benchmarks, which
// stand in for the paper's netlists (not in the repository).  Circuits with
// no published functional spec (cavlc, i2c, mem_ctrl) are substituted by
// seeded structured random control logic of comparable size.
#pragma once

#include "xag/xag.h"

#include <cstdint>

namespace mcx {

/// k-to-2^k decoder (AND tree of two half-decoders).
xag gen_decoder(uint32_t address_bits);

/// Priority encoder: n request PIs -> ceil(log2 n) index POs + valid PO.
xag gen_priority_encoder(uint32_t requests);

/// Round-robin arbiter: n requests + n one-hot pointer PIs -> n grants +
/// "any grant" PO.  The first request at or (cyclically) after the pointer
/// wins.
xag gen_round_robin_arbiter(uint32_t requests);

/// Majority voter over n inputs (paper's Voter has n = 1001): popcount by a
/// carry-save adder tree, then a threshold comparison.
xag gen_voter(uint32_t inputs);

/// ALU control unit: 2-bit op class + `funct_bits` function code ->
/// `controls` one-hot-ish control lines (MIPS-style decode).
xag gen_alu_control(uint32_t funct_bits = 5, uint32_t controls = 26);

/// Look-ahead XY router: current and destination coordinates
/// (2 x 2 x coord_bits PIs) -> per-axis direction/zero flags and the
/// next-hop decision (comparator-based).
xag gen_xy_router(uint32_t coord_bits = 15);

/// Structured random control logic (mux/and-or trees over a seeded DAG):
/// stand-in for cavlc / i2c / mem_ctrl-style netlists.
xag gen_random_control(uint32_t pis, uint32_t gates, uint32_t pos,
                       uint64_t seed);

} // namespace mcx
