#include "db/mc_database.h"

#include "core/fault_inject.h"
#include "exact/heuristic_mc.h"
#include "obs/trace.h"
#include "xag/cleanup.h"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace mcx {

std::string serialize_single_output(const xag& network)
{
    if (network.num_pos() != 1)
        throw std::invalid_argument{
            "serialize_single_output: exactly one PO expected"};

    // Re-number live nodes densely in topological order.
    std::vector<uint32_t> index(network.size(), 0);
    for (uint32_t i = 0; i < network.num_pis(); ++i)
        index[network.pi_at(i)] = 1 + i; // 0 is the constant
    uint32_t next = 1 + network.num_pis();
    std::ostringstream os;
    std::ostringstream gates;
    uint32_t num_gates = 0;
    for (const auto n : network.topological_order()) {
        if (!network.is_gate(n))
            continue;
        index[n] = next++;
        ++num_gates;
        const auto f0 = network.fanin0(n);
        const auto f1 = network.fanin1(n);
        gates << (network.is_and(n) ? " a " : " x ")
              << (2 * index[f0.node()] + f0.complemented()) << ' '
              << (2 * index[f1.node()] + f1.complemented());
    }
    const auto po = network.po_at(0);
    os << network.num_pis() << ' ' << num_gates << gates.str() << ' '
       << (2 * index[po.node()] + po.complemented());
    return os.str();
}

xag deserialize_single_output(const std::string& text)
{
    std::istringstream is{text};
    uint32_t num_pis = 0, num_gates = 0;
    if (!(is >> num_pis >> num_gates))
        throw std::invalid_argument{"deserialize: malformed header"};

    xag net;
    std::vector<signal> nodes;
    nodes.push_back(net.get_constant(false));
    for (uint32_t i = 0; i < num_pis; ++i)
        nodes.push_back(net.create_pi());

    const auto lit_to_signal = [&](uint32_t lit) {
        const auto idx = lit >> 1;
        if (idx >= nodes.size())
            throw std::invalid_argument{"deserialize: literal out of range"};
        return nodes[idx] ^ ((lit & 1) != 0);
    };

    for (uint32_t g = 0; g < num_gates; ++g) {
        std::string kind;
        uint32_t l0 = 0, l1 = 0;
        if (!(is >> kind >> l0 >> l1) || (kind != "a" && kind != "x"))
            throw std::invalid_argument{"deserialize: malformed gate"};
        const auto a = lit_to_signal(l0);
        const auto b = lit_to_signal(l1);
        nodes.push_back(kind == "a" ? net.create_and(a, b)
                                    : net.create_xor(a, b));
    }
    uint32_t out = 0;
    if (!(is >> out))
        throw std::invalid_argument{"deserialize: missing output"};
    net.create_po(lit_to_signal(out));
    return net;
}

const mc_database::entry& mc_database::lookup_or_build(
    const truth_table& representative, const cancellation_token& token)
{
    return entries_.lookup_or_build(
        representative,
        [&](const truth_table& rep) {
            fault_injection::fire(fault_site::db_build);
            const obs::trace::trace_span span{"db.mc.synthesize"};
            static const auto synthesized =
                obs::register_metric("db.mc.synthesize");
            synthesized.add();
            entry e;
            bool built = false;
            if (params_.use_exact) {
                const auto exact = exact_mc_synthesis(
                    rep, {.max_ands = exact_max_ands,
                          .conflict_budget = params_.exact_conflict_budget,
                          .token = token});
                if (exact.success) {
                    e.circuit = exact.circuit;
                    e.num_ands = exact.num_ands;
                    e.optimal = exact.optimal;
                    built = true;
                    exact_entries_.fetch_add(1, std::memory_order_relaxed);
                }
            }
            if (!built) {
                // An interrupted search must not be memoized as this
                // class's answer; unwind and leave the slot failed so an
                // uncancelled lookup rebuilds it.  (Budget exhaustion is
                // not interruption: the heuristic below IS the answer
                // under that budget, cached with optimal = false.)
                throw_if_stopped(token);
                e.circuit = heuristic_mc_circuit(rep);
                e.num_ands = e.circuit.num_ands();
                e.optimal = false;
                heuristic_entries_.fetch_add(1, std::memory_order_relaxed);
            }
            return e;
        },
        token);
}

void mc_database::save(std::ostream& os) const
{
    entries_.for_each([&](const truth_table& tt, const entry& e) {
        os << tt.num_vars() << ' ' << tt.to_hex() << ' ' << e.num_ands << ' '
           << (e.optimal ? 1 : 0) << ' ' << serialize_single_output(e.circuit)
           << '\n';
    });
}

void mc_database::save_file(const std::string& path) const
{
    std::ofstream os{path};
    if (!os)
        throw std::runtime_error{"mc_database: cannot write " + path};
    save(os);
}

mc_database mc_database::load(std::istream& is, mc_database_params params)
{
    mc_database db{params};
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        std::istringstream ls{line};
        uint32_t num_vars = 0;
        std::string hex;
        entry e;
        uint32_t optimal = 0;
        if (!(ls >> num_vars >> hex >> e.num_ands >> optimal))
            throw std::invalid_argument{"mc_database: malformed line"};
        std::string rest;
        std::getline(ls, rest);
        e.circuit = deserialize_single_output(rest);
        e.optimal = optimal != 0;
        (e.optimal ? db.exact_entries_ : db.heuristic_entries_)
            .fetch_add(1, std::memory_order_relaxed);
        db.entries_.insert(truth_table::from_hex(num_vars, hex),
                           std::move(e));
    }
    return db;
}

mc_database mc_database::load_file(const std::string& path,
                                   mc_database_params params)
{
    std::ifstream is{path};
    if (!is)
        throw std::runtime_error{"mc_database: cannot read " + path};
    return load(is, params);
}

mc_database::combined_xag mc_database::export_combined() const
{
    combined_xag result;
    std::vector<signal> inputs;
    for (int i = 0; i < 6; ++i)
        inputs.push_back(result.network.create_pi());
    entries_.for_each([&](const truth_table& tt, const entry& e) {
        // Entry circuits have tt.num_vars() inputs; wire them to the first
        // inputs of the shared 6-input network (structural hashing shares
        // common substructure across entries, like the paper's XAG_DB).
        const std::vector<signal> leaves(inputs.begin(),
                                         inputs.begin() + tt.num_vars());
        const auto outs = insert_network(result.network, e.circuit, leaves);
        result.network.create_po(outs[0]);
        result.representatives.push_back(tt);
    });
    return result;
}

} // namespace mcx
