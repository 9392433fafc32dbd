#include "exact/exact_size.h"

#include "exact/encoding_util.h"
#include "tt/operations.h"
#include "xag/simulate.h"

#include <stdexcept>
#include <vector>

namespace mcx {

namespace {

using sat::force;
using sat::literal;
using sat::solve_result;
using sat::solver;

struct gate_vars {
    uint32_t type = 0;                      ///< true = AND, false = XOR
    std::array<std::vector<uint32_t>, 2> sel; ///< one-hot fanin selection
    std::array<uint32_t, 2> pol{};            ///< fanin polarities
};

struct encoding {
    std::vector<gate_vars> gates;
    uint32_t out_pol = 0;
    std::vector<std::vector<literal>> value; ///< value[i][m] of gate i
};

/// A ↔ (base ⊕ pol) under condition sel, where base is a constant.
void fanin_const_clauses(solver& s, literal sel, literal a, literal pol,
                         bool base)
{
    const auto x = base ? ~pol : pol; // value of base ⊕ pol
    s.add_clause({~sel, ~a, x});
    s.add_clause({~sel, a, ~x});
}

/// A ↔ (g ⊕ pol) under condition sel, where g is a variable.
void fanin_var_clauses(solver& s, literal sel, literal a, literal pol,
                       literal g)
{
    s.add_clause({~sel, ~a, g, pol});
    s.add_clause({~sel, ~a, ~g, ~pol});
    s.add_clause({~sel, a, ~g, pol});
    s.add_clause({~sel, a, g, ~pol});
}

encoding build_encoding(solver& s, const truth_table& f, uint32_t r)
{
    const auto n = f.num_vars();
    encoding enc;
    enc.gates.resize(r);
    enc.value.assign(r, {});

    for (uint32_t i = 0; i < r; ++i) {
        auto& g = enc.gates[i];
        g.type = s.add_variable();
        for (int side = 0; side < 2; ++side) {
            g.pol[side] = s.add_variable();
            for (uint32_t j = 0; j < n + i; ++j)
                g.sel[side].push_back(s.add_variable());
            // Exactly-one selection.
            std::vector<literal> at_least;
            for (const auto v : g.sel[side])
                at_least.push_back(literal{v, false});
            s.add_clause(at_least);
            for (size_t a = 0; a < g.sel[side].size(); ++a)
                for (size_t b = a + 1; b < g.sel[side].size(); ++b)
                    s.add_clause({literal{g.sel[side][a], true},
                                  literal{g.sel[side][b], true}});
        }
        // The two fanins must differ (a gate on one signal is never needed
        // in a minimal chain).
        for (uint32_t j = 0; j < n + i; ++j)
            s.add_clause({literal{g.sel[0][j], true},
                          literal{g.sel[1][j], true}});
    }
    enc.out_pol = s.add_variable();

    for (uint64_t m = 0; m < f.num_bits(); ++m) {
        for (uint32_t i = 0; i < r; ++i) {
            auto& g = enc.gates[i];
            std::array<literal, 2> operand;
            for (int side = 0; side < 2; ++side) {
                const literal a{s.add_variable(), false};
                const literal pol{g.pol[side], false};
                for (uint32_t j = 0; j < n + i; ++j) {
                    const literal sel{g.sel[side][j], false};
                    if (j < n)
                        fanin_const_clauses(s, sel, a, pol,
                                            ((m >> j) & 1) != 0);
                    else
                        fanin_var_clauses(s, sel, a, pol,
                                          enc.value[j - n][m]);
                }
                operand[side] = a;
            }
            const literal t{g.type, false};
            const literal y{s.add_variable(), false};
            const auto [a, b] = operand;
            // t -> (y = a AND b)
            s.add_clause({~t, ~y, a});
            s.add_clause({~t, ~y, b});
            s.add_clause({~t, y, ~a, ~b});
            // !t -> (y = a XOR b)
            s.add_clause({t, ~y, a, b});
            s.add_clause({t, ~y, ~a, ~b});
            s.add_clause({t, y, ~a, b});
            s.add_clause({t, y, a, ~b});
            enc.value[i].push_back(y);
        }
        const literal out = enc.value[r - 1][m];
        const literal pol{enc.out_pol, false};
        // f(m) = out ⊕ pol.
        if (f.get_bit(m)) {
            s.add_clause({out, pol});
            s.add_clause({~out, ~pol});
        } else {
            s.add_clause({~out, pol});
            s.add_clause({out, ~pol});
        }
    }
    return enc;
}

xag decode_circuit(const solver& s, const encoding& enc,
                   const truth_table& f, uint32_t r)
{
    const auto n = f.num_vars();
    xag net;
    std::vector<signal> nodes;
    for (uint32_t i = 0; i < n; ++i)
        nodes.push_back(net.create_pi());
    for (uint32_t i = 0; i < r; ++i) {
        const auto& g = enc.gates[i];
        std::array<signal, 2> operand;
        for (int side = 0; side < 2; ++side) {
            uint32_t chosen = 0;
            for (uint32_t j = 0; j < g.sel[side].size(); ++j)
                if (s.model_value(g.sel[side][j]))
                    chosen = j;
            operand[side] = nodes[chosen] ^ s.model_value(g.pol[side]);
        }
        nodes.push_back(s.model_value(g.type)
                            ? net.create_and(operand[0], operand[1])
                            : net.create_xor(operand[0], operand[1]));
    }
    net.create_po(nodes.back() ^ s.model_value(enc.out_pol));
    return net;
}

/// Constant or single-literal functions need no gates.
bool trivial_circuit(const truth_table& f, exact_size_result& result)
{
    xag net;
    std::vector<signal> inputs;
    for (uint32_t i = 0; i < f.num_vars(); ++i)
        inputs.push_back(net.create_pi());
    if (f.is_constant()) {
        net.create_po(net.get_constant(f.get_bit(0)));
    } else {
        const auto support = f.support();
        if (support.size() != 1)
            return false;
        const auto x = truth_table::projection(f.num_vars(), support[0]);
        if (f == x)
            net.create_po(inputs[support[0]]);
        else if (f == ~x)
            net.create_po(!inputs[support[0]]);
        else
            return false;
    }
    result.success = true;
    result.optimal = true;
    result.num_gates = 0;
    result.circuit = std::move(net);
    return true;
}

} // namespace

exact_size_result exact_size_synthesis(const truth_table& f,
                                       const exact_size_params& params)
{
    if (f.num_vars() > 6)
        throw std::invalid_argument{
            "exact_size_synthesis: at most 6 variables"};

    exact_size_result result;
    if (trivial_circuit(f, result))
        return result;

    bool all_refuted = true;
    bool budget_hit = false;
    for (uint32_t r = 1; r <= params.max_gates; ++r) {
        if (params.token.stop_requested()) {
            result.status = params.token.stop_reason();
            return result;
        }
        // One encoding, one solve: the bounded preprocessor is sound here
        // (see exact_mc.cpp).
        solver s{sat::sat_params{.preprocess = true}};
        const auto enc = build_encoding(s, f, r);
        switch (s.solve(params.conflict_budget, params.token)) {
        case solve_result::satisfiable: {
            result.success = true;
            result.optimal = all_refuted;
            result.num_gates = r;
            result.circuit = decode_circuit(s, enc, f, r);
            if (simulate(result.circuit)[0] != f)
                throw std::logic_error{
                    "exact_size_synthesis: decoded circuit mismatch"};
            return result;
        }
        case solve_result::unsatisfiable:
            break;
        case solve_result::undecided:
            all_refuted = false;
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

} // namespace mcx
