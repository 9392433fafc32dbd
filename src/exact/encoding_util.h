// Small CNF gadget builders of the exact-MC encoder (exact_mc_search.h).
// They are generic over the solver type (anything with `add_variable()` and
// `add_clause({...})`), so the encoder can run on a substitute solver.
#pragma once

#include "sat/types.h"

#include <span>

namespace mcx::sat {

/// y = a AND b (3 clauses).
template <class Solver>
literal add_and_gate(Solver& s, literal a, literal b)
{
    const literal y{s.add_variable(), false};
    s.add_clause({~y, a});
    s.add_clause({~y, b});
    s.add_clause({y, ~a, ~b});
    return y;
}

/// y = a XOR b (4 clauses).
template <class Solver>
literal add_xor_gate(Solver& s, literal a, literal b)
{
    const literal y{s.add_variable(), false};
    s.add_clause({~y, a, b});
    s.add_clause({~y, ~a, ~b});
    s.add_clause({y, ~a, b});
    s.add_clause({y, a, ~b});
    return y;
}

/// y = parity of `terms` (false for an empty list), via a sequential ladder.
template <class Solver>
literal add_xor_ladder(Solver& s, std::span<const literal> terms)
{
    if (terms.empty()) {
        const literal zero{s.add_variable(), false};
        s.add_clause({~zero});
        return zero;
    }
    literal acc = terms[0];
    for (size_t i = 1; i < terms.size(); ++i)
        acc = add_xor_gate(s, acc, terms[i]);
    return acc;
}

/// Pin a literal to a constant.
template <class Solver>
void force(Solver& s, literal l, bool value)
{
    s.add_clause({value ? l : ~l});
}

} // namespace mcx::sat
