#include "sat/equivalence.h"

#include "xag/simulate.h"

#include <algorithm>
#include <array>
#include <random>
#include <stdexcept>

namespace mcx::sat {

namespace {

/// Simulation words per node signature (64 patterns each).
constexpr uint32_t sim_words = 8;
/// Conflict cap of each of the two solves that prove one sweep pair.  A
/// pair that needs more is left unmerged; the output solves still decide.
constexpr uint64_t sweep_pair_conflicts = 2000;
/// Rebuild (GC) once the solver's variable count exceeds this multiple of
/// the golden encoding.  Each retired check leaves roughly one candidate
/// encoding of garbage behind, so the factor is the number of distinct
/// candidates between golden re-encodes (measured best on the adder64
/// iterated flow: lean watch lists beat fewer rebuilds).
constexpr uint64_t rebuild_growth = 4;

/// Hash of a signature normalized up to complement (first bit cleared).
uint64_t signature_hash(const uint64_t* sig)
{
    const uint64_t flip = (sig[0] & 1) != 0 ? ~uint64_t{0} : 0;
    uint64_t h = 0x9e3779b97f4a7c15ull;
    for (uint32_t w = 0; w < sim_words; ++w) {
        h = (h ^ sig[w] ^ flip) * 0xbf58476d1ce4e5b9ull;
        h ^= h >> 31;
    }
    return h;
}

} // namespace

// ------------------------------------------------------- incremental_cec

incremental_cec::incremental_cec(const xag& golden) : golden_{&golden}
{
    rebuild();
    rebuilds_ = 0; // the constructor's build is not a GC event

    // Fixed patterns, so every check of every verifier sweeps alike.
    std::mt19937_64 rng{0x5eed5eedu};
    patterns_.resize(size_t{golden.num_pis()} * sim_words);
    for (auto& w : patterns_)
        w = rng();
    golden_sigs_ = simulate_nodes(golden, patterns_, sim_words);
    // The constant first, then PIs, then gates in topological order: a
    // signature class keeps the first golden node that has it.
    sig_index_.emplace(signature_hash(&golden_sigs_[0]), 0);
    for (const auto v : golden.topological_order())
        sig_index_.emplace(
            signature_hash(&golden_sigs_[size_t{v} * sim_words]), v);
}

std::optional<literal> incremental_cec::golden_match(const uint64_t* sig) const
{
    const auto it = sig_index_.find(signature_hash(sig));
    if (it == sig_index_.end())
        return std::nullopt;
    const uint64_t* g = &golden_sigs_[size_t{it->second} * sim_words];
    const bool flip = ((sig[0] ^ g[0]) & 1) != 0;
    const uint64_t mask = flip ? ~uint64_t{0} : 0;
    for (uint32_t w = 0; w < sim_words; ++w)
        if (sig[w] != (g[w] ^ mask))
            return std::nullopt; // hash collision
    const auto l = golden_enc_.node_literals[it->second];
    return flip ? ~l : l;
}

void incremental_cec::rebuild()
{
    // Variable remapper: the golden encoding is deterministic (same
    // add_variable order on a fresh solver), so golden variables map to
    // themselves in the new solver and learnt clauses confined to
    // [0, base_vars_) migrate verbatim.  Clauses derived through any
    // session clause carry that session's ~activation literal — a
    // session variable — so the range filter is exactly the soundness
    // filter: everything it admits is implied by the golden CNF alone.
    std::vector<std::vector<literal>> migrated;
    if (solver_)
        for (auto& c : solver_->export_learnt(8)) {
            bool golden_only = true;
            for (const auto l : c)
                if (l.var() >= base_vars_) {
                    golden_only = false;
                    break;
                }
            if (golden_only)
                migrated.push_back(std::move(c));
        }

    solver_ = std::make_unique<solver>();
    session_ = {}; // its variables died with the old solver
    pis_.clear();
    pis_.reserve(golden_->num_pis());
    for (uint32_t i = 0; i < golden_->num_pis(); ++i)
        pis_.push_back(literal{solver_->add_variable(), false});
    golden_enc_ = encode(*solver_, *golden_, pis_);
    golden_gates_ = gate_table{*golden_, golden_enc_};
    base_vars_ = solver_->num_vars();
    for (const auto& c : migrated)
        solver_->add_clause(c);
    warm_ = !migrated.empty();
    ++rebuilds_;
}

namespace {

/// Exact structural signature: two networks produce the same word
/// sequence iff they have identical node arrays and interfaces (node
/// ids included — reuse targets the re-check of a literally unchanged
/// network, not isomorphism detection).
std::vector<uint64_t> shape_of(const xag& n)
{
    const auto code = [](signal s) {
        return (static_cast<uint64_t>(s.node()) << 1) |
               static_cast<uint64_t>(s.complemented());
    };
    std::vector<uint64_t> shape;
    shape.reserve(2 * n.size() + n.num_pis() + n.num_pos() + 2);
    shape.push_back(n.num_pis());
    shape.push_back(n.size());
    for (uint32_t i = 0; i < n.num_pis(); ++i)
        shape.push_back(n.pi_at(i));
    for (uint32_t v = 0; v < n.size(); ++v)
        if (n.is_gate(v)) {
            shape.push_back((static_cast<uint64_t>(v) << 1) |
                            static_cast<uint64_t>(n.is_xor(v)));
            shape.push_back(code(n.fanin0(v)) << 32 | code(n.fanin1(v)));
        }
    for (uint32_t i = 0; i < n.num_pos(); ++i)
        shape.push_back(code(n.po_at(i)));
    return shape;
}

} // namespace

void incremental_cec::retire(literal activation)
{
    solver_->add_clause({~activation});
}

equivalence_report incremental_cec::check(const xag& optimized,
                                          uint64_t conflict_budget,
                                          const cancellation_token& token)
{
    if (optimized.num_pis() != golden_->num_pis() ||
        optimized.num_pos() != golden_->num_pos())
        throw std::invalid_argument{"incremental_cec: interface mismatch"};

    // GC: once retired-session garbage outweighs the golden encoding,
    // rebuild and migrate golden-only learnt clauses.
    if (solver_->num_vars() > rebuild_growth * base_vars_)
        rebuild();

    equivalence_report report;
    report.result = equivalence_result::equivalent;
    uint64_t spent = 0; // conflicts, against conflict_budget
    // One solve under `assumptions`, capped at `cap` (0 = none) and at
    // what is left of the check's budget; nullopt once that is spent.
    const auto budgeted_solve =
        [&](std::span<const literal> assumptions,
            uint64_t cap) -> std::optional<solve_result> {
        if (conflict_budget != 0) {
            if (spent >= conflict_budget)
                return std::nullopt;
            const auto left = conflict_budget - spent;
            cap = cap == 0 ? left : std::min(cap, left);
        }
        const auto before = solver_->stats().conflicts;
        const auto res = solver_->solve(assumptions, cap, token);
        spent += solver_->stats().conflicts - before;
        warm_ = true;
        return res;
    };

    // The previous candidate's session is still live.  If this candidate
    // is structurally identical — re-verification in a converged iterated
    // flow — re-solve on the same variables: the session's learnt clauses
    // (which mention its activation and miter literals, so they never
    // migrate) short-circuit every proof they refuted before.  Otherwise
    // retire the old session and merge this candidate in fresh.
    auto shape = shape_of(optimized);
    if (session_.valid && session_.shape == shape) {
        ++session_reuses_;
    } else {
        if (session_.valid)
            retire(session_.act);
        session_ = {};
        const literal act{solver_->add_variable(), false};
        // SAT sweeping: a gate that did not strash onto golden but matches
        // a golden node's signature (up to complement) is proved equal to
        // it — y ∧ ¬g and ¬y ∧ g both UNSAT under the session — and its
        // fanouts then read the golden literal, so the gates above it can
        // strash in turn.  Every merge is proved; anything else (a model,
        // the pair cap, a stop) leaves the gate as encoded.
        const auto sigs = simulate_nodes(optimized, patterns_, sim_words);
        auto& sweep = report.sweep;
        bool sweeping = true;
        const auto settle = [&](uint32_t n, literal y) {
            const auto g =
                sweeping ? golden_match(&sigs[size_t{n} * sim_words])
                         : std::nullopt;
            if (!g)
                return y;
            ++sweep.pairs_tried;
            const auto conflicts_before = spent;
            std::optional<solve_result> res;
            for (const auto& side : {std::array<literal, 3>{act, y, ~*g},
                                     std::array<literal, 3>{act, ~y, *g}}) {
                res = budgeted_solve(side, sweep_pair_conflicts);
                if (res != solve_result::unsatisfiable)
                    break;
            }
            sweep.conflicts += spent - conflicts_before;
            if (res == solve_result::unsatisfiable) {
                ++sweep.merged;
                return *g;
            }
            if (res == solve_result::satisfiable)
                ++sweep.refuted;
            else if (!res || token.stop_requested())
                sweeping = false; // budget spent or stopped
            return y;
        };
        const auto enc = encode_merged(*solver_, optimized, act, golden_enc_,
                                       golden_gates_, settle);
        sweep.strash_hits = enc.strash_hits;
        session_.valid = true;
        session_.act = act;
        session_.outputs = enc.po_literals;
        session_.diffs.assign(golden_->num_pos(), std::nullopt);
        session_.shape = std::move(shape);
    }
    const literal act = session_.act;

    for (uint32_t i = 0; i < golden_->num_pos(); ++i) {
        const auto x = golden_enc_.po_literals[i];
        const auto y = session_.outputs[i];
        if (x == y) {
            // Merged onto the golden output itself: proved, no solve.
            records_.push_back({i, 0, warm_});
            continue;
        }
        auto& d = session_.diffs[i];
        if (!d) {
            d = literal{solver_->add_variable(), false};
            solver_->add_clause({~*d, x, y, ~act});
            solver_->add_clause({~*d, ~x, ~y, ~act});
            solver_->add_clause({*d, ~x, y, ~act});
            solver_->add_clause({*d, x, ~y, ~act});
        }

        const auto before = spent;
        const bool warm = warm_;
        const std::array<literal, 2> assumptions{act, *d};
        const auto res = budgeted_solve(assumptions, 0);
        if (!res) {
            report.result = equivalence_result::undecided;
            break;
        }
        records_.push_back({i, spent - before, warm});

        if (res == solve_result::satisfiable) {
            report.result = equivalence_result::not_equivalent;
            std::vector<bool> cex(golden_->num_pis());
            for (uint32_t k = 0; k < golden_->num_pis(); ++k)
                cex[k] = solver_->model_value(pis_[k].var());
            report.counterexample = std::move(cex);
            break;
        }
        if (res == solve_result::undecided) {
            report.result = equivalence_result::undecided;
            break;
        }
    }
    // The session is NOT retired here: it stays live so an identical
    // next candidate re-solves on it.  Retirement happens when a
    // different candidate arrives or the GC rebuild fires.
    report.stats = solver_->stats();
    return report;
}

} // namespace mcx::sat
