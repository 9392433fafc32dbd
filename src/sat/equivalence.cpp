#include "sat/equivalence.h"

#include "obs/trace.h"
#include "sat/cnf.h"
#include "sat/solver.h"
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

std::optional<signal> incremental_cec::golden_match(const uint64_t* sig) const
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
    return signal{it->second, flip};
}

equivalence_report incremental_cec::check(const xag& optimized,
                                          uint64_t conflict_budget,
                                          const cancellation_token& token)
{
    if (optimized.num_pis() != golden_->num_pis() ||
        optimized.num_pos() != golden_->num_pos())
        throw std::invalid_argument{"incremental_cec: interface mismatch"};

    solver s;
    std::vector<literal> pis;
    pis.reserve(golden_->num_pis());
    for (uint32_t i = 0; i < golden_->num_pis(); ++i)
        pis.push_back(literal{s.add_variable(), false});
    const auto golden_enc = encode(s, *golden_, pis);
    const gate_table golden_gates{*golden_, golden_enc};

    equivalence_report report;
    report.result = equivalence_result::equivalent;
    uint64_t spent = 0; // conflicts, against conflict_budget
    bool warm = false;  // an earlier solve of this check ran
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
        const auto before = s.stats().conflicts;
        const auto res = s.solve(assumptions, cap, token);
        spent += s.stats().conflicts - before;
        warm = true;
        return res;
    };

    // SAT sweeping: a gate that did not strash onto golden but matches a
    // golden node's signature (up to complement) is proved equal to it —
    // y ∧ ¬g and ¬y ∧ g both UNSAT — and its fanouts then read the golden
    // literal, so the gates above it can strash in turn.  Every merge is
    // proved; anything else (a model, the pair cap, a stop) leaves the
    // gate as encoded.
    cnf_encoding enc;
    {
        obs::trace::trace_span span{"sat.sweep"};
        const auto sigs = simulate_nodes(optimized, patterns_, sim_words);
        auto& sweep = report.sweep;
        bool sweeping = true;
        const auto settle = [&](uint32_t n, literal y) {
            const auto match =
                sweeping ? golden_match(&sigs[size_t{n} * sim_words])
                         : std::nullopt;
            if (!match)
                return y;
            const auto l = golden_enc.node_literals[match->node()];
            const auto g = match->complemented() ? ~l : l;
            ++sweep.pairs_tried;
            const auto conflicts_before = spent;
            std::optional<solve_result> res;
            for (const auto& side : {std::array<literal, 2>{y, ~g},
                                     std::array<literal, 2>{~y, g}}) {
                res = budgeted_solve(side, sweep_pair_conflicts);
                if (res != solve_result::unsatisfiable)
                    break;
            }
            sweep.conflicts += spent - conflicts_before;
            if (res == solve_result::unsatisfiable) {
                ++sweep.merged;
                return g;
            }
            if (res == solve_result::satisfiable)
                ++sweep.refuted;
            else if (!res || token.stop_requested())
                sweeping = false; // budget spent or stopped
            return y;
        };
        enc = encode_merged(s, optimized, golden_enc, golden_gates, settle);
        sweep.strash_hits = enc.strash_hits;
        span.set_arg(sweep.merged);
    }

    // One miter literal d ↔ (x ≠ y) per output, decided under {d}.
    obs::trace::trace_span span{"sat.outputs"};
    uint64_t solves = 0;
    for (uint32_t i = 0; i < golden_->num_pos(); ++i) {
        const auto x = golden_enc.po_literals[i];
        const auto y = enc.po_literals[i];
        if (x == y) {
            // Merged onto the golden output itself: proved, no solve.
            records_.push_back({i, 0, warm});
            continue;
        }
        const literal d{s.add_variable(), false};
        s.add_clause({~d, x, y});
        s.add_clause({~d, ~x, ~y});
        s.add_clause({d, ~x, y});
        s.add_clause({d, x, ~y});

        const auto before = spent;
        const bool warm_start = warm;
        const std::array<literal, 1> assumptions{d};
        const auto res = budgeted_solve(assumptions, 0);
        if (!res) {
            report.result = equivalence_result::undecided;
            break;
        }
        ++solves;
        records_.push_back({i, spent - before, warm_start});

        if (res == solve_result::satisfiable) {
            report.result = equivalence_result::not_equivalent;
            std::vector<bool> cex(golden_->num_pis());
            for (uint32_t k = 0; k < golden_->num_pis(); ++k)
                cex[k] = s.model_value(pis[k].var());
            report.counterexample = std::move(cex);
            break;
        }
        if (res == solve_result::undecided) {
            report.result = equivalence_result::undecided;
            break;
        }
    }
    span.set_arg(solves);
    report.stats = s.stats();
    return report;
}

} // namespace mcx::sat
