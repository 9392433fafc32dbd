// The exact-MC search behind exact_mc_synthesis (src/exact/exact_mc.h):
// encode "an XAG with k ANDs computes f", solve, step k up from the degree
// bound, decode the first satisfiable k.  Generic over the SAT solver so a
// test can substitute one; production always runs `sat::solver` with
// preprocessing.
#pragma once

#include "exact/encoding_util.h"
#include "exact/exact_mc.h"
#include "tt/operations.h"
#include "xag/simulate.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace mcx::detail {

/// Build the affine function (degree <= 1) directly as an XOR tree.
xag affine_circuit(const truth_table& f);

/// Selector variables of one affine operand: one per basis element
/// (inputs then previous gates) plus a constant bit.
struct operand_selectors {
    std::vector<uint32_t> basis; ///< selector var per basis element
    uint32_t constant = 0;       ///< selector var of the constant 1
};

struct mc_encoding {
    std::vector<operand_selectors> lhs, rhs; ///< per AND gate
    operand_selectors output;
    /// T[g][m]: value of gate g at minterm m.
    std::vector<std::vector<sat::literal>> gate_value;
};

template <class Solver>
operand_selectors make_selectors(Solver& s, uint32_t basis_size)
{
    operand_selectors sel;
    sel.basis.reserve(basis_size);
    for (uint32_t i = 0; i < basis_size; ++i)
        sel.basis.push_back(s.add_variable());
    sel.constant = s.add_variable();
    return sel;
}

/// CNF literal for "affine combination selected by `sel` evaluated at
/// minterm m", given the values of previous gates at m.
template <class Solver>
sat::literal
operand_value(Solver& s, const operand_selectors& sel, uint32_t n,
              uint32_t num_prev, uint64_t m,
              const std::vector<std::vector<sat::literal>>& gate_value)
{
    using sat::literal;
    std::vector<literal> terms;
    terms.push_back(literal{sel.constant, false});
    for (uint32_t i = 0; i < n; ++i)
        if ((m >> i) & 1)
            terms.push_back(literal{sel.basis[i], false});
    for (uint32_t g = 0; g < num_prev; ++g)
        terms.push_back(sat::add_and_gate(s, literal{sel.basis[n + g], false},
                                          gate_value[g][m]));
    return sat::add_xor_ladder(s, terms);
}

template <class Solver>
mc_encoding build_mc_encoding(Solver& s, const truth_table& f, uint32_t k)
{
    const auto n = f.num_vars();
    mc_encoding enc;
    for (uint32_t g = 0; g < k; ++g) {
        enc.lhs.push_back(make_selectors(s, n + g));
        enc.rhs.push_back(make_selectors(s, n + g));
    }
    enc.output = make_selectors(s, n + k);

    enc.gate_value.assign(k, {});
    for (uint32_t g = 0; g < k; ++g)
        enc.gate_value[g].assign(f.num_bits(), sat::literal{});

    for (uint64_t m = 0; m < f.num_bits(); ++m) {
        for (uint32_t g = 0; g < k; ++g) {
            const auto p =
                operand_value(s, enc.lhs[g], n, g, m, enc.gate_value);
            const auto q =
                operand_value(s, enc.rhs[g], n, g, m, enc.gate_value);
            enc.gate_value[g][m] = sat::add_and_gate(s, p, q);
        }
        const auto out =
            operand_value(s, enc.output, n, k, m, enc.gate_value);
        sat::force(s, out, f.get_bit(m));
    }
    return enc;
}

/// Decode one affine operand from the model into a signal of `net`.
template <class Solver>
signal decode_operand(const Solver& s, const operand_selectors& sel,
                      uint32_t n, xag& net,
                      const std::vector<signal>& inputs,
                      const std::vector<signal>& gates)
{
    auto acc = net.get_constant(s.model_value(sel.constant));
    for (uint32_t i = 0; i < sel.basis.size(); ++i)
        if (s.model_value(sel.basis[i]))
            acc = net.create_xor(acc, i < n ? inputs[i] : gates[i - n]);
    return acc;
}

template <class Solver>
xag decode_mc_circuit(const Solver& s, const mc_encoding& enc,
                      const truth_table& f, uint32_t k)
{
    const auto n = f.num_vars();
    xag net;
    std::vector<signal> inputs;
    for (uint32_t i = 0; i < n; ++i)
        inputs.push_back(net.create_pi());
    std::vector<signal> gates;
    for (uint32_t g = 0; g < k; ++g) {
        const auto p = decode_operand(s, enc.lhs[g], n, net, inputs, gates);
        const auto q = decode_operand(s, enc.rhs[g], n, net, inputs, gates);
        gates.push_back(net.create_and(p, q));
    }
    net.create_po(decode_operand(s, enc.output, n, net, inputs, gates));
    return net;
}

/// exact_mc_synthesis on the solvers `make_solver()` returns, one fresh
/// solver per k step.
template <class MakeSolver>
exact_mc_result exact_mc_search(const truth_table& f,
                                const exact_mc_params& params,
                                MakeSolver make_solver)
{
    if (f.num_vars() > 6)
        throw std::invalid_argument{"exact_mc_synthesis: at most 6 variables"};

    exact_mc_result result;
    if (is_affine_function(f)) {
        result.success = true;
        result.optimal = true;
        result.num_ands = 0;
        result.circuit = affine_circuit(f);
        return result;
    }

    const auto lb = mc_lower_bound(f);
    bool all_refuted = true;
    bool budget_hit = false;
    for (uint32_t k = std::max(lb, 1u); k <= params.max_ands; ++k) {
        if (params.token.stop_requested()) {
            result.status = params.token.stop_reason();
            return result;
        }
        auto s = make_solver();
        const auto enc = build_mc_encoding(s, f, k);
        switch (s.solve(params.conflict_budget, params.token)) {
        case sat::solve_result::satisfiable: {
            result.success = true;
            result.optimal = all_refuted;
            result.num_ands = k;
            result.circuit = decode_mc_circuit(s, enc, f, k);
            if (simulate(result.circuit)[0] != f)
                throw std::logic_error{
                    "exact_mc_synthesis: decoded circuit mismatch"};
            if (result.circuit.num_ands() > k)
                throw std::logic_error{
                    "exact_mc_synthesis: AND budget exceeded"};
            return result;
        }
        case sat::solve_result::unsatisfiable:
            break; // try one more AND gate
        case sat::solve_result::undecided:
            all_refuted = false; // optimality can no longer be certified
            budget_hit = true;
            break;
        }
    }
    if (params.token.stop_requested())
        result.status = params.token.stop_reason();
    else if (budget_hit)
        result.status = outcome::resource_exhausted;
    return result;
}

} // namespace mcx::detail
