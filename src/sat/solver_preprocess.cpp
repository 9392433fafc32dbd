// Bounded one-shot preprocessing for the CDCL core (the
// `sat_params::preprocess` contract, see src/sat/types.h): subsumption,
// self-subsumption (clause strengthening), and bounded variable
// elimination with model reconstruction.
//
// Runs once, at the first assumption-free solve: the current clause
// database (level-0 units + binaries from the watcher lists + long
// clauses from the arena) is lifted into a scratch representation,
// simplified under explicit work budgets, and the solver is rebuilt from
// the result.  Eliminated variables are recorded on `elim_stack_`; after
// a satisfiable solve `reconstruct_model()` extends the model over them
// (MiniSat's extend-model rule), so `model_value` stays valid for every
// variable the caller ever created.
#include "sat/solver.h"

#include <algorithm>

namespace mcx::sat {

namespace {

struct pclause {
    std::vector<literal> lits;
    uint64_t sig = 0; ///< OR of bit (var mod 64) — quick non-subset filter
    bool dead = false;
};

uint64_t signature(const std::vector<literal>& lits)
{
    uint64_t s = 0;
    for (const auto l : lits)
        s |= uint64_t{1} << (l.var() & 63);
    return s;
}

bool contains(const std::vector<literal>& lits, literal l)
{
    return std::find(lits.begin(), lits.end(), l) != lits.end();
}

// Work budgets: preprocessing must stay a small fraction of search time
// even on large miters, so every quadratic loop is capped.
constexpr int64_t total_budget = 20'000'000; ///< literal-comparison steps
constexpr size_t max_subsume_len = 16;  ///< clauses longer than this are
                                        ///< never subsumption candidates
constexpr size_t max_occ_scan = 400;    ///< occurrence-list scan cap
constexpr size_t max_elim_product = 16; ///< |pos| * |neg| cap for BVE
constexpr size_t max_elim_occs = 10;    ///< |pos| + |neg| cap for BVE
constexpr size_t max_resolvent_len = 16;

} // namespace

void solver::preprocess()
{
    // ---- lift the clause database into scratch form -------------------
    std::vector<literal> units(trail_.begin(), trail_.end());
    std::vector<pclause> cls;
    for (uint32_t code = 0; code < watches_.size(); ++code) {
        // watches_[p] holds clauses in which ~p is watched, so the literal
        // actually in the clause is the negation of this list's index.
        const auto in_clause = ~literal::from_code(code);
        for (const auto& w : watches_[code]) {
            if (!(w.ref & binary_flag))
                continue;
            const auto other = literal::from_code(w.ref & ~binary_flag);
            if (in_clause.code() < other.code())
                cls.push_back({{in_clause, other}});
        }
    }
    for (const auto c : clauses_)
        cls.push_back(
            {{arena_.lits(c), arena_.lits(c) + arena_.size(c)}});

    const auto n = num_vars();
    std::vector<std::vector<uint32_t>> occ(2 * size_t{n});
    for (uint32_t i = 0; i < cls.size(); ++i) {
        cls[i].sig = signature(cls[i].lits);
        for (const auto l : cls[i].lits)
            occ[l.code()].push_back(i);
    }

    std::vector<int8_t> pval(n, -1);
    const auto lit_val = [&](literal l) -> int {
        const auto v = pval[l.var()];
        return v < 0 ? -1 : int{(v == 1) != l.negative()};
    };

    bool contradiction = false;
    std::vector<literal> unit_queue = units;

    const auto push_clause = [&](std::vector<literal>&& lits) {
        const auto idx = static_cast<uint32_t>(cls.size());
        cls.push_back({std::move(lits)});
        cls[idx].sig = signature(cls[idx].lits);
        for (const auto l : cls[idx].lits)
            occ[l.code()].push_back(idx);
        return idx;
    };

    const auto assign_unit = [&](literal l) {
        const auto v = lit_val(l);
        if (v == 1)
            return;
        if (v == 0) {
            contradiction = true;
            return;
        }
        pval[l.var()] = l.negative() ? 0 : 1;
        for (const auto ci : occ[l.code()])
            cls[ci].dead = true; // satisfied
        for (const auto ci : occ[(~l).code()]) {
            auto& c = cls[ci];
            if (c.dead)
                continue;
            std::erase(c.lits, ~l);
            c.sig = signature(c.lits);
            if (c.lits.empty()) {
                contradiction = true;
                return;
            }
            if (c.lits.size() == 1) {
                unit_queue.push_back(c.lits[0]);
                c.dead = true;
            }
        }
    };
    const auto flush_units = [&] {
        while (!unit_queue.empty() && !contradiction) {
            const auto l = unit_queue.back();
            unit_queue.pop_back();
            assign_unit(l);
        }
    };
    flush_units();

    int64_t budget = total_budget;

    // ---- subsumption + self-subsumption (strengthening) ---------------
    // For a candidate clause C: every clause D ⊇ C is subsumed (dropped);
    // every D ⊇ (C with exactly one literal flipped) is strengthened by
    // removing that flipped literal.  Returns 0 (unrelated), 1 (subsumed)
    // or 2 via `flipped`.
    const auto subsume_check = [&](const pclause& a, const pclause& b,
                                   literal& flipped) -> int {
        budget -=
            static_cast<int64_t>(a.lits.size()) * b.lits.size();
        bool has_flip = false;
        for (const auto l : a.lits) {
            if (contains(b.lits, l))
                continue;
            if (!has_flip && contains(b.lits, ~l)) {
                has_flip = true;
                flipped = l;
                continue;
            }
            return 0;
        }
        return has_flip ? 2 : 1;
    };

    const auto subsumption_pass = [&] {
        std::vector<uint32_t> queue(cls.size());
        for (uint32_t i = 0; i < queue.size(); ++i)
            queue[i] = i;
        std::vector<uint32_t> scratch;
        while (!queue.empty() && budget > 0 && !contradiction) {
            const auto ci = queue.back();
            queue.pop_back();
            auto& c = cls[ci];
            if (c.dead || c.lits.empty() ||
                c.lits.size() > max_subsume_len)
                continue;
            // Candidate set: occurrences of C's rarest literal (catches
            // D ⊇ C) plus occurrences of each literal's negation (catches
            // the one-flip strengthening case).
            scratch.clear();
            size_t min_occ = ~size_t{0};
            literal min_lit = c.lits[0];
            for (const auto l : c.lits)
                if (occ[l.code()].size() < min_occ) {
                    min_occ = occ[l.code()].size();
                    min_lit = l;
                }
            for (const auto di : occ[min_lit.code()])
                if (scratch.size() < max_occ_scan)
                    scratch.push_back(di);
            for (const auto l : c.lits)
                for (const auto di : occ[(~l).code()]) {
                    if (scratch.size() >= 2 * max_occ_scan)
                        break;
                    scratch.push_back(di);
                }
            for (const auto di : scratch) {
                if (di == ci)
                    continue;
                auto& d = cls[di];
                if (d.dead || d.lits.size() < c.lits.size())
                    continue;
                if ((c.sig & ~d.sig) != 0)
                    continue;
                literal flipped{};
                const auto r = subsume_check(c, d, flipped);
                if (r == 1) {
                    d.dead = true;
                } else if (r == 2) {
                    std::erase(d.lits, ~flipped);
                    d.sig = signature(d.lits);
                    if (d.lits.size() == 1) {
                        unit_queue.push_back(d.lits[0]);
                        d.dead = true;
                    } else {
                        queue.push_back(di);
                    }
                }
                if (budget <= 0)
                    break;
            }
            flush_units();
        }
        flush_units();
    };

    // ---- bounded variable elimination ---------------------------------
    const auto gather = [&](literal l, std::vector<uint32_t>& out) {
        out.clear();
        for (const auto ci : occ[l.code()]) {
            const auto& c = cls[ci];
            if (c.dead || !contains(c.lits, l))
                continue; // stale occurrence (strengthened away)
            out.push_back(ci);
            if (out.size() > max_elim_occs)
                return; // over the cap; caller skips this variable
        }
    };

    const auto elimination_pass = [&] {
        std::vector<uint32_t> pos, neg;
        for (uint32_t v = 0; v < n && budget > 0 && !contradiction; ++v) {
            if (pval[v] >= 0 || eliminated_[v])
                continue;
            const literal lp{v, false}, ln{v, true};
            gather(lp, pos);
            gather(ln, neg);
            if (pos.empty() && neg.empty())
                continue; // variable untouched by any clause
            budget -= static_cast<int64_t>(pos.size() + neg.size());
            if (pos.empty() || neg.empty()) {
                // Pure literal: drop its clauses, reconstruct later.
                const auto l = pos.empty() ? ln : lp;
                auto& side = pos.empty() ? neg : pos;
                elim_record rec{l, {}};
                for (const auto ci : side) {
                    auto saved = cls[ci].lits;
                    std::erase(saved, l);
                    rec.saved.push_back(std::move(saved));
                    cls[ci].dead = true;
                }
                eliminated_[v] = 1;
                elim_stack_.push_back(std::move(rec));
                continue;
            }
            if (pos.size() + neg.size() > max_elim_occs ||
                pos.size() * neg.size() > max_elim_product)
                continue;
            // All non-tautological resolvents; give up on growth.
            std::vector<std::vector<literal>> resolvents;
            bool abort = false;
            for (const auto pi : pos) {
                for (const auto ni : neg) {
                    std::vector<literal> res;
                    bool taut = false;
                    for (const auto l : cls[pi].lits)
                        if (!(l == lp))
                            res.push_back(l);
                    for (const auto l : cls[ni].lits) {
                        if (l == ln)
                            continue;
                        if (contains(res, ~l)) {
                            taut = true;
                            break;
                        }
                        if (!contains(res, l))
                            res.push_back(l);
                    }
                    budget -= static_cast<int64_t>(
                        cls[pi].lits.size() * cls[ni].lits.size());
                    if (taut)
                        continue;
                    if (res.size() > max_resolvent_len) {
                        abort = true;
                        break;
                    }
                    resolvents.push_back(std::move(res));
                }
                if (abort)
                    break;
            }
            if (abort || resolvents.size() > pos.size() + neg.size())
                continue;
            // Eliminate: save the smaller side for model reconstruction,
            // replace both sides by the resolvents.
            const bool save_pos = pos.size() <= neg.size();
            const auto l = save_pos ? lp : ln;
            elim_record rec{l, {}};
            for (const auto ci : save_pos ? pos : neg) {
                auto saved = cls[ci].lits;
                std::erase(saved, l);
                rec.saved.push_back(std::move(saved));
            }
            for (const auto ci : pos)
                cls[ci].dead = true;
            for (const auto ci : neg)
                cls[ci].dead = true;
            eliminated_[v] = 1;
            elim_stack_.push_back(std::move(rec));
            for (auto& res : resolvents) {
                if (res.size() == 1) {
                    unit_queue.push_back(res[0]);
                    continue;
                }
                push_clause(std::move(res));
            }
            flush_units();
        }
        flush_units();
    };

    subsumption_pass();
    elimination_pass();
    subsumption_pass();

    if (contradiction) {
        unsat_ = true;
        return;
    }

    // ---- rebuild the solver from the simplified database --------------
    std::vector<literal> final_units;
    for (uint32_t v = 0; v < n; ++v)
        if (pval[v] >= 0)
            final_units.push_back(literal{v, pval[v] == 0});
    std::vector<std::vector<literal>> out;
    for (auto& c : cls)
        if (!c.dead)
            out.push_back(std::move(c.lits));
    rebuild_from(std::move(out), final_units);
}

void solver::rebuild_from(std::vector<std::vector<literal>>&& clauses,
                                 std::span<const literal> units)
{
    arena_.clear();
    clauses_.clear();
    learnts_.clear();
    for (auto& ws : watches_)
        ws.clear();
    std::fill(assign_.begin(), assign_.end(), int8_t{-1});
    std::fill(level_.begin(), level_.end(), 0u);
    std::fill(reason_.begin(), reason_.end(), no_reason);
    trail_.clear();
    trail_lim_.clear();
    qhead_ = 0;
    heap_.clear();
    std::fill(heap_pos_.begin(), heap_pos_.end(), heap_npos);
    for (uint32_t v = 0; v < num_vars(); ++v)
        heap_insert(v);

    for (auto& c : clauses) {
        if (c.size() == 1) {
            if (value_of(c[0]) == 0) {
                unsat_ = true;
                return;
            }
            if (value_of(c[0]) < 0)
                enqueue(c[0], no_reason);
        } else if (c.size() == 2) {
            attach_binary(c[0], c[1]);
        } else {
            const auto r = arena_.alloc(c, false);
            clauses_.push_back(r);
            attach_long(r);
        }
    }
    for (const auto u : units) {
        if (value_of(u) == 0) {
            unsat_ = true;
            return;
        }
        if (value_of(u) < 0)
            enqueue(u, no_reason);
    }
    if (propagate())
        unsat_ = true;
}

void solver::reconstruct_model()
{
    // Reverse elimination order: a variable eliminated later may appear in
    // the saved clauses of one eliminated earlier, so by the time a record
    // is processed every variable in its saved clauses already has a model
    // value.  `l` defaults to false; it must be true exactly when one of
    // its saved clauses is otherwise unsatisfied.
    for (auto it = elim_stack_.rbegin(); it != elim_stack_.rend(); ++it) {
        bool must = false;
        for (const auto& saved : it->saved) {
            bool satisfied = false;
            for (const auto x : saved)
                if (lit_true_in_model(x)) {
                    satisfied = true;
                    break;
                }
            if (!satisfied) {
                must = true;
                break;
            }
        }
        const auto v = it->l.var();
        model_[v] = (must != it->l.negative()) ? 1 : 0;
    }
}

} // namespace mcx::sat
