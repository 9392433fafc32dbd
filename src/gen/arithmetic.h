// Generator-based equivalents of the EPFL arithmetic benchmarks and the
// MPC arithmetic benchmarks of Table 2: the paper's source netlists are not
// in the repository, so these stand in for them.  Every generator returns
// a self-contained XAG built from textbook structures; widths are
// parameters so benches can scale between laptop runs and paper-scale
// runs.
#pragma once

#include "xag/xag.h"

#include <cstdint>

namespace mcx {

/// Ripple-carry adder: 2n PIs (a, b), n+1 POs (sum, carry).  Full adders in
/// the paper's Fig. 1(a) shape.
xag gen_adder(uint32_t bits);

/// Barrel rotator: n data PIs + log2(n) shift PIs -> n POs (left rotation).
/// n must be a power of two.
xag gen_barrel_shifter(uint32_t bits);

/// Restoring array divider: 2n PIs (dividend, divisor) -> 2n POs
/// (quotient, remainder).  Division by zero yields quotient all-ones.
xag gen_divisor(uint32_t bits);

/// Mitchell-style log2 approximation: n PIs -> n POs
/// (ceil(log2 n) integer bits + normalized mantissa fraction).
xag gen_log2(uint32_t bits);

/// Maximum of `words` unsigned values: words*n PIs -> n POs.
xag gen_max(uint32_t bits, uint32_t words = 4);

/// Array multiplier: 2n PIs -> 2n POs.
xag gen_multiplier(uint32_t bits);

/// Squarer: n PIs -> 2n POs.
xag gen_square(uint32_t bits);

/// Fixed-point sine via unrolled CORDIC: n PIs (angle in [0, pi/2) as a
/// 0.n fixed-point fraction of pi/2) -> n POs (sin, 1.(n-1) fixed point).
xag gen_sine(uint32_t bits, uint32_t iterations = 0 /* default: bits - 2 */);

/// Integer square root: n PIs -> n/2 POs (n must be even).
xag gen_sqrt(uint32_t bits);

/// Comparators of Table 2: 2n PIs -> 1 PO.
xag gen_comparator_lt_unsigned(uint32_t bits);
xag gen_comparator_leq_unsigned(uint32_t bits);
xag gen_comparator_lt_signed(uint32_t bits);
xag gen_comparator_leq_signed(uint32_t bits);

/// Integer to floating point: `in_bits` PIs -> (1 + exp_bits + man_bits)
/// POs (sign-less small float; value truncated).
xag gen_int2float(uint32_t in_bits = 11, uint32_t exp_bits = 4,
                  uint32_t man_bits = 3);

} // namespace mcx
