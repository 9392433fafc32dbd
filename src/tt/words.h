// Word-parallel primitives on single-word truth tables (<= 6 variables).
//
// Every function here transforms a whole 64-bit truth table with a handful
// of mask/shift operations instead of a loop over its 2^n bits.  They are
// the substrate of the hot cut->classify->rewrite loop: the affine
// classifier complements variables by one flip each, and cut enumeration
// re-expresses child cut functions over merged leaf sets purely with
// insertions of don't-care variables.
//
// Conventions match truth_table: bit x of the word is f(x), variable i
// contributes bit i of the index x.  Callers keep words masked to
// tt_mask(n); all operations preserve that invariant (a flip only
// permutes bits within the valid range).
#pragma once

#include "tt/truth_table.h"

#include <cstdint>

namespace mcx {

/// g(x) = f(x ^ e_k): complement variable k (k < 6).
constexpr uint64_t tt_flip_word(uint64_t w, uint32_t k)
{
    const uint64_t m = tt_projection_word(k);
    const uint32_t s = 1u << k;
    return ((w & m) >> s) | ((w & ~m) << s);
}

/// Insert a don't-care variable at position j into an m-variable table
/// (m < 6, j <= m): the result has m + 1 variables, old variables >= j are
/// shifted up by one, and the result ignores its variable j.
///
/// Implementation: each source block of 2^j bits (one block per assignment
/// of the old variables >= j) must move to twice its block index and then
/// be duplicated.  The move is a falling sequence of masked shifts — when
/// the block-index bits above t are already spread out, index bit t of a
/// block sits at bit j + t of its current position, so one projection mask
/// selects exactly the bits that still need to travel 2^(j+t) places.
constexpr uint64_t tt_insert_var_word(uint64_t w, uint32_t m, uint32_t j)
{
    for (uint32_t t = m - j; t-- > 0;) {
        const uint64_t sel = tt_projection_word(j + t);
        w = (w & ~sel) | ((w & sel) << (1u << (j + t)));
    }
    return w | (w << (1u << j));
}

} // namespace mcx
