#include "db/mc_database.h"

#include "core/fault_inject.h"
#include "exact/heuristic_mc.h"
#include "obs/trace.h"
#include "xag/cleanup.h"

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace mcx {

std::string serialize_single_output(const xag& network)
{
    if (network.num_pos() != 1)
        throw std::invalid_argument{
            "serialize_single_output: exactly one PO expected"};

    // Keep the gates the output reaches, numbered densely in node-id order
    // (ids are topological in a network built gate by gate, as every entry
    // circuit is).  Keeping the ids' relative order makes the text a fixed
    // point of deserialize-then-serialize: fanin order and strashing come
    // out the same.
    std::vector<uint32_t> gates_in_order;
    for (const auto n : network.topological_order())
        if (network.is_gate(n))
            gates_in_order.push_back(n);
    std::sort(gates_in_order.begin(), gates_in_order.end());

    std::vector<uint32_t> index(network.size(), 0);
    for (uint32_t i = 0; i < network.num_pis(); ++i)
        index[network.pi_at(i)] = 1 + i; // 0 is the constant
    uint32_t next = 1 + network.num_pis();
    std::ostringstream os;
    std::ostringstream gates;
    for (const auto n : gates_in_order) {
        if (network.fanin0(n).node() > n || network.fanin1(n).node() > n)
            throw std::invalid_argument{
                "serialize_single_output: node ids are not topological"};
        index[n] = next++;
        const auto f0 = network.fanin0(n);
        const auto f1 = network.fanin1(n);
        gates << (network.is_and(n) ? " a " : " x ")
              << (2 * index[f0.node()] + f0.complemented()) << ' '
              << (2 * index[f1.node()] + f1.complemented());
    }
    const auto po = network.po_at(0);
    os << network.num_pis() << ' ' << gates_in_order.size() << gates.str()
       << ' ' << (2 * index[po.node()] + po.complemented());
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

namespace {

/// The shipped row for `rep`.  A row starts "<num_vars> <hex> ", and within
/// one width the hex digits are fixed in number and lowercase, so the rows'
/// string order is (num_vars, word) order and the row is found by a binary
/// search on that prefix.
std::optional<std::string_view> builtin_row(const truth_table& rep)
{
    const auto rows = mc_builtin_rows();
    const auto prefix =
        std::to_string(rep.num_vars()) + ' ' + rep.to_hex() + ' ';
    const auto it = std::lower_bound(rows.begin(), rows.end(), prefix);
    if (it == rows.end() || !it->starts_with(prefix))
        return std::nullopt;
    return *it;
}

} // namespace

mc_database::entry mc_database::synthesize(const truth_table& representative,
                                           const mc_database_params& params,
                                           const cancellation_token& token)
{
    xag circuit;
    bool built = false;
    bool optimal = false;
    if (params.use_exact) {
        auto exact = exact_mc_synthesis(
            representative,
            {.max_ands = exact_max_ands,
             .conflict_budget = params.exact_conflict_budget,
             .token = token});
        if (exact.success) {
            circuit = std::move(exact.circuit);
            optimal = exact.optimal;
            built = true;
        }
    }
    if (!built) {
        // An interrupted search must not be memoized as this class's
        // answer; unwind and leave the slot failed so an uncancelled
        // lookup rebuilds it.  (Budget exhaustion is not interruption: the
        // heuristic below IS the answer under that budget, cached with
        // optimal = false.)
        throw_if_stopped(token);
        circuit = heuristic_mc_circuit(representative);
    }
    // The serialized form drops gates the output does not reach and
    // renumbers the rest; memoizing exactly that form makes a fresh, a
    // reloaded and a table-served entry the same circuit.
    entry e;
    e.circuit = deserialize_single_output(serialize_single_output(circuit));
    e.num_ands = e.circuit.num_ands();
    e.optimal = optimal;
    return e;
}

void mc_database::count(const entry& e)
{
    (e.optimal ? exact_entries_ : heuristic_entries_)
        .fetch_add(1, std::memory_order_relaxed);
}

const mc_database::entry& mc_database::lookup_or_build(
    const truth_table& representative, const cancellation_token& token)
{
    static const auto builtin = obs::register_metric("db.mc.builtin");
    static const auto synthesized = obs::register_metric("db.mc.synthesize");
    return entries_.lookup_or_build(
        representative,
        [&](const truth_table& rep) {
            fault_injection::fire(fault_site::db_build);
            const auto shipped = params_ == mc_database_params{}
                                     ? builtin_row(rep)
                                     : std::nullopt;
            entry e;
            if (shipped) {
                builtin.add();
                e = parse_row(std::string{*shipped}).second;
            } else {
                const obs::trace::trace_span span{"db.mc.synthesize"};
                synthesized.add();
                e = synthesize(rep, params_, token);
            }
            count(e);
            return e;
        },
        token);
}

std::string mc_database::row(const truth_table& representative,
                             const entry& e)
{
    std::ostringstream os;
    os << representative.num_vars() << ' ' << representative.to_hex() << ' '
       << e.num_ands << ' ' << (e.optimal ? 1 : 0) << ' '
       << serialize_single_output(e.circuit);
    return os.str();
}

std::pair<truth_table, mc_database::entry>
mc_database::parse_row(const std::string& line)
{
    std::istringstream is{line};
    uint32_t num_vars = 0;
    std::string hex;
    entry e;
    uint32_t optimal = 0;
    if (!(is >> num_vars >> hex >> e.num_ands >> optimal))
        throw std::invalid_argument{"mc_database: malformed line"};
    std::string rest;
    std::getline(is, rest);
    e.circuit = deserialize_single_output(rest);
    e.optimal = optimal != 0;
    return {truth_table::from_hex(num_vars, hex), std::move(e)};
}

void mc_database::save(std::ostream& os) const
{
    entries_.for_each([&](const truth_table& tt, const entry& e) {
        os << row(tt, e) << '\n';
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
        auto [key, e] = parse_row(line);
        db.count(e);
        db.entries_.insert(key, std::move(e));
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
