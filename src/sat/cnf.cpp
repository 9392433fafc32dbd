#include "sat/cnf.h"

#include <stdexcept>
#include <utility>

namespace mcx::sat {

namespace {

/// Tseitin clauses of y = a AND b (`is_and`) or y = a XOR b.
void emit_gate(solver& s, bool is_and, literal y, literal a, literal b)
{
    if (is_and) {
        s.add_clause({~y, a});
        s.add_clause({~y, b});
        s.add_clause({y, ~a, ~b});
    } else {
        s.add_clause({~y, a, b});
        s.add_clause({~y, ~a, ~b});
        s.add_clause({y, ~a, b});
        s.add_clause({y, a, ~b});
    }
}

literal literal_of(const cnf_encoding& enc, signal sig)
{
    const auto base = enc.node_literals[sig.node()];
    return sig.complemented() ? ~base : base;
}

/// Normalized gate key (see gate_table); `parity` receives the output
/// complement that XOR normalization moved out of the fanins.
uint64_t gate_key(bool is_and, literal a, literal b, bool& parity)
{
    parity = false;
    if (!is_and) {
        parity = a.negative() != b.negative();
        a = literal{a.var(), false};
        b = literal{b.var(), false};
    }
    if (a.code() > b.code())
        std::swap(a, b);
    return (static_cast<uint64_t>(a.code()) << 32) | b.code();
}

} // namespace

cnf_encoding encode(solver& s, const xag& network,
                    const std::vector<literal>& shared_pis)
{
    if (!shared_pis.empty() && shared_pis.size() != network.num_pis())
        throw std::invalid_argument{"encode: wrong number of shared PIs"};

    cnf_encoding enc;
    enc.node_literals.assign(network.size(), literal{});

    // Constant-false node: a fixed variable forced to 0.
    const literal const_lit{s.add_variable(), false};
    s.add_clause({~const_lit});
    enc.node_literals[0] = const_lit;

    enc.pi_literals.reserve(network.num_pis());
    for (uint32_t i = 0; i < network.num_pis(); ++i) {
        const auto l = shared_pis.empty() ? literal{s.add_variable(), false}
                                          : shared_pis[i];
        enc.pi_literals.push_back(l);
        enc.node_literals[network.pi_at(i)] = l;
    }

    for (const auto n : network.topological_order()) {
        if (!network.is_gate(n))
            continue;
        const literal y{s.add_variable(), false};
        emit_gate(s, network.is_and(n), y,
                  literal_of(enc, network.fanin0(n)),
                  literal_of(enc, network.fanin1(n)));
        enc.node_literals[n] = y;
    }

    enc.po_literals.reserve(network.num_pos());
    for (uint32_t i = 0; i < network.num_pos(); ++i)
        enc.po_literals.push_back(literal_of(enc, network.po_at(i)));
    return enc;
}

gate_table::gate_table(const xag& network, const cnf_encoding& enc)
{
    for (const auto n : network.topological_order()) {
        if (!network.is_gate(n))
            continue;
        const bool is_and = network.is_and(n);
        bool parity = false;
        const auto key =
            gate_key(is_and, literal_of(enc, network.fanin0(n)),
                     literal_of(enc, network.fanin1(n)), parity);
        const auto y = enc.node_literals[n];
        gates_[is_and].emplace(key, parity ? ~y : y);
    }
}

std::optional<literal> gate_table::find(bool is_and, literal a,
                                        literal b) const
{
    bool parity = false;
    const auto& gates = gates_[is_and];
    const auto it = gates.find(gate_key(is_and, a, b, parity));
    if (it == gates.end())
        return std::nullopt;
    return parity ? ~it->second : it->second;
}

cnf_encoding encode_merged(solver& s, const xag& network,
                           const cnf_encoding& base, const gate_table& table,
                           const gate_settler& settle)
{
    if (base.pi_literals.size() != network.num_pis())
        throw std::invalid_argument{"encode_merged: interface mismatch"};

    cnf_encoding enc;
    enc.node_literals.assign(network.size(), literal{});
    enc.node_literals[0] = base.node_literals[0];
    enc.pi_literals = base.pi_literals;
    for (uint32_t i = 0; i < network.num_pis(); ++i)
        enc.node_literals[network.pi_at(i)] = base.pi_literals[i];

    for (const auto n : network.topological_order()) {
        if (!network.is_gate(n))
            continue;
        const bool is_and = network.is_and(n);
        const auto a = literal_of(enc, network.fanin0(n));
        const auto b = literal_of(enc, network.fanin1(n));
        if (const auto hit = table.find(is_and, a, b)) {
            enc.node_literals[n] = *hit;
            ++enc.strash_hits;
            continue;
        }
        const literal y{s.add_variable(), false};
        emit_gate(s, is_and, y, a, b);
        enc.node_literals[n] = settle(n, y);
    }

    enc.po_literals.reserve(network.num_pos());
    for (uint32_t i = 0; i < network.num_pos(); ++i)
        enc.po_literals.push_back(literal_of(enc, network.po_at(i)));
    return enc;
}

} // namespace mcx::sat
