#include "sat/cnf.h"

#include <optional>
#include <stdexcept>

namespace mcx::sat {

namespace {

// Shared Tseitin walk; `guard`, when present, is appended (negated) to
// every emitted clause so the encoding becomes an activation session.
cnf_encoding encode_impl(solver& s, const xag& network,
                         const std::vector<literal>& shared_pis,
                         std::optional<literal> guard)
{
    if (!shared_pis.empty() && shared_pis.size() != network.num_pis())
        throw std::invalid_argument{"encode: wrong number of shared PIs"};

    const auto emit = [&](std::initializer_list<literal> lits) {
        if (!guard) {
            s.add_clause(lits);
            return;
        }
        std::vector<literal> guarded{lits.begin(), lits.end()};
        guarded.push_back(~*guard);
        s.add_clause(guarded);
    };

    cnf_encoding enc;
    enc.node_literals.assign(network.size(), literal{});

    // Constant-false node: a fixed variable forced to 0.
    const literal const_lit{s.add_variable(), false};
    emit({~const_lit});
    enc.node_literals[0] = const_lit;

    enc.pi_literals.reserve(network.num_pis());
    for (uint32_t i = 0; i < network.num_pis(); ++i) {
        const auto l = shared_pis.empty() ? literal{s.add_variable(), false}
                                          : shared_pis[i];
        enc.pi_literals.push_back(l);
        enc.node_literals[network.pi_at(i)] = l;
    }

    const auto lit_of = [&](signal sig) {
        const auto base = enc.node_literals[sig.node()];
        return sig.complemented() ? ~base : base;
    };

    for (const auto n : network.topological_order()) {
        if (!network.is_gate(n))
            continue;
        const auto a = lit_of(network.fanin0(n));
        const auto b = lit_of(network.fanin1(n));
        const literal y{s.add_variable(), false};
        if (network.is_and(n)) {
            emit({~y, a});
            emit({~y, b});
            emit({y, ~a, ~b});
        } else {
            emit({~y, a, b});
            emit({~y, ~a, ~b});
            emit({y, ~a, b});
            emit({y, a, ~b});
        }
        enc.node_literals[n] = y;
    }

    enc.po_literals.reserve(network.num_pos());
    for (uint32_t i = 0; i < network.num_pos(); ++i)
        enc.po_literals.push_back(lit_of(network.po_at(i)));
    return enc;
}

} // namespace

cnf_encoding encode(solver& s, const xag& network,
                    const std::vector<literal>& shared_pis)
{
    return encode_impl(s, network, shared_pis, std::nullopt);
}

cnf_encoding encode_guarded(solver& s, const xag& network, literal activation,
                            const std::vector<literal>& shared_pis)
{
    return encode_impl(s, network, shared_pis, activation);
}

} // namespace mcx::sat
