#include "core/xor_resynthesis.h"

#include "core/mffc.h"
#include "core/xor_pairing.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/thread_pool.h"

#include <algorithm>
#include <iterator>
#include <span>
#include <vector>

namespace mcx {

xor_resynthesis_stats xor_resynthesis(xag& network,
                                      const xor_resynthesis_params& params)
{
    xor_resynthesis_stats stats;
    stats.xors_before = network.num_xors();
    const uint32_t base_size = network.size(); // pair ids start here

    // Block roots: XOR nodes consumed by an AND gate or a primary output.
    // Interior XOR nodes (all fanouts are XOR gates feeding the same
    // blocks) are swallowed by the expansion.  The topological order holds
    // only the live logic reachable from the outputs, so dangling gates
    // are never expanded.
    const auto order = network.topological_order();
    std::vector<uint8_t> is_root(base_size, 0);
    std::vector<uint32_t> xor_readers(base_size, 0); // fanin reads pending
    for (const auto n : order) {
        if (!network.is_and(n) && !network.is_xor(n))
            continue;
        for (const auto fi : {network.fanin0(n), network.fanin1(n)}) {
            if (!network.is_xor(fi.node()))
                continue;
            if (network.is_and(n))
                is_root[fi.node()] = 1;
            else
                ++xor_readers[fi.node()];
        }
    }
    for (uint32_t i = 0; i < network.num_pos(); ++i)
        if (network.is_xor(network.po_at(i).node()))
            is_root[network.po_at(i).node()] = 1;
    std::vector<uint32_t> roots;
    for (uint32_t n = 0; n < base_size; ++n)
        if (is_root[n])
            roots.push_back(n);
    if (roots.empty()) {
        stats.xors_after = stats.xors_before;
        return stats;
    }

    // Expand every XOR node over its terminals in one bottom-up sweep: a
    // node's row is the symmetric difference of its fanins' rows (a
    // terminal reached by an even number of paths cancels), its constant
    // the parity of the complemented edges and fanin constants.  Each row
    // is computed once and freed when its last XOR reader has merged it,
    // unless it is a root.
    std::vector<linear_row> rows(base_size);
    std::vector<uint8_t> constant(base_size, 0);
    {
        obs::trace::trace_span expand_span{"phase.xor-expand"};
        uint32_t leaf[2];
        const auto operand = [&](signal fi, uint32_t& slot) {
            const auto m = fi.node();
            if (network.is_xor(m))
                return std::span<const uint32_t>{rows[m]};
            slot = m; // terminal; the constant node contributes nothing
            return std::span<const uint32_t>{&slot, m != 0 ? 1u : 0u};
        };
        for (const auto n : order) {
            if (!network.is_xor(n))
                continue;
            const auto f0 = network.fanin0(n);
            const auto f1 = network.fanin1(n);
            const auto a = operand(f0, leaf[0]);
            const auto b = operand(f1, leaf[1]);
            std::set_symmetric_difference(a.begin(), a.end(), b.begin(),
                                          b.end(),
                                          std::back_inserter(rows[n]));
            constant[n] = f0.complemented() ^ f1.complemented();
            for (const auto fi : {f0, f1}) {
                const auto m = fi.node();
                if (!network.is_xor(m))
                    continue;
                constant[n] ^= constant[m];
                if (--xor_readers[m] == 0 && !is_root[m])
                    linear_row{}.swap(rows[m]);
            }
        }
        expand_span.set_arg(roots.size());
    }
    stats.blocks = static_cast<uint32_t>(roots.size());

    // Paar's greedy algorithm on the whole system (core/xor_pairing.h):
    // extract the most common terminal pair as a new shared term until no
    // pair repeats.
    //
    // Rows of any width take part in pair extraction.  Pair seeding is
    // quadratic per row, so admission is narrowest-first under a Σwidth²
    // work budget: every row of rewrite-scale circuits qualifies, while
    // the widest accumulator rows of full-hash linear systems — whose
    // unbounded seeding would be ~10¹⁰ operations on MD5 — keep their
    // existing trees.  Admission depends only on the multiset of row
    // widths, so the result is deterministic.
    stats.seed_workers =
        params.pool != nullptr ? params.pool->num_workers() : 1;

    const auto width = [&](uint32_t r) {
        return static_cast<uint32_t>(rows[roots[r]].size());
    };
    std::vector<uint8_t> admitted(roots.size(), 0);
    {
        std::vector<uint32_t> by_width(roots.size());
        for (uint32_t r = 0; r < roots.size(); ++r) {
            by_width[r] = r;
            stats.widest_row = std::max(stats.widest_row, width(r));
        }
        std::stable_sort(by_width.begin(), by_width.end(),
                         [&](uint32_t a, uint32_t b) {
                             return width(a) < width(b);
                         });
        uint64_t work = 0;
        for (const auto r : by_width) {
            const uint64_t w = width(r);
            // The budget does not scale with the team, so the admission
            // set — and the output — is the same at any worker count.
            if (params.pairing_work_budget != 0 &&
                work + w * w > params.pairing_work_budget)
                break;
            work += w * w;
            admitted[r] = 1;
            ++stats.rows_paired;
            stats.widest_row_paired =
                std::max(stats.widest_row_paired, width(r));
        }
    }

    // Pairing rewrites a copy of each admitted row (the others stay empty
    // and take no part); the expansion stays as the leaf set of the MFFC
    // gain check below.
    std::vector<linear_row> paired(roots.size());
    for (uint32_t r = 0; r < roots.size(); ++r)
        if (admitted[r])
            paired[r] = rows[roots[r]];
    const auto pairing =
        extract_pairs(paired, base_size, params.pool, params.token);
    const auto& plan = pairing.pairs;
    stats.pairs_extracted = static_cast<uint32_t>(plan.size());
    stats.status = pairing.status;

    // Stopping mid-rebuild must not throw: the protected-ref release
    // sweeps at the end are unconditional cleanup, so the token breaks out
    // of the loop and the stats carry the reason.
    const auto stop_reason = [&]() -> outcome {
        const auto reason = params.token.stop_reason();
        return reason == outcome::ok ? outcome::cancelled : reason;
    };
    obs::trace::trace_span rebuild_span{"phase.xor-rebuild"};

    // Pin every real terminal: substitution cascades below may restructure
    // later rows' old cones and would otherwise free terminals before
    // their new chains are built.  Flags instead of a set; the take/release
    // sweeps walk them in ascending order.
    std::vector<uint8_t> is_protected(base_size, 0);
    for (uint32_t r = 0; r < roots.size(); ++r)
        for (const auto t : admitted[r] ? paired[r] : rows[roots[r]])
            if (t < base_size)
                is_protected[t] = 1;
    for (const auto& p : plan)
        for (const auto t : {p.a, p.b})
            if (t < base_size)
                is_protected[t] = 1;
    for (uint32_t term = 0; term < base_size; ++term)
        if (is_protected[term])
            network.take_ref(signal{term, false});

    // Materialize lazily: a planned pair gate is created the first time a
    // chain consumes it (recursively: pairs of pairs), so its cost lands in
    // that chain's `created` and the gain check below charges the first
    // consumer for it — later consumers share it for free, and a pair no
    // chain ever uses is never built.  Building all pairs up front instead
    // charged them to nobody, which let wide-row pairing *grow* the
    // network when rebuilds were rejected.  Terminals merged away by
    // cascades are followed via resolve().
    std::vector<signal> planned_signal(plan.size());
    std::vector<uint8_t> planned_built(plan.size(), 0);
    std::vector<uint32_t> built_this_row;
    const auto signal_of = [&](auto&& self, uint32_t term) -> signal {
        if (term < base_size)
            return network.resolve(signal{term, false});
        const auto idx = term - base_size;
        if (!planned_built[idx]) {
            const auto& p = plan[idx];
            const auto g = network.create_xor(self(self, p.a),
                                              self(self, p.b));
            planned_signal[idx] = g;
            planned_built[idx] = 1;
            built_this_row.push_back(idx);
            network.take_ref(g);
        }
        return network.resolve(planned_signal[idx]);
    };
    // Drop the pair gates a rejected rebuild materialized (reverse build
    // order releases pair-of-pair parents before their children): keeping
    // them would hand later rows gates whose cost no gain check ever
    // approved.  A later chain that does profit re-creates them and pays.
    const auto rollback_pairs = [&] {
        for (auto it = built_this_row.rbegin(); it != built_this_row.rend();
             ++it) {
            network.release_ref(planned_signal[*it]);
            planned_built[*it] = 0;
        }
    };

    for (uint32_t r = 0; r < roots.size(); ++r) {
        if (params.token.stop_requested()) {
            // Rows already rebuilt keep their gains; the rest keep their
            // old trees.  Either way the network stays equivalent.
            stats.status = stop_reason();
            break;
        }
        const auto root = roots[r];
        if (network.is_dead(root))
            continue; // collapsed by an earlier substitution in this pass
        if (!admitted[r])
            continue; // rows beyond the pairing budget keep their trees
        built_this_row.clear();
        const auto xors_before_row = network.num_xors();
        auto acc = network.get_constant(constant[root]);
        for (const auto term : paired[r])
            acc = network.create_xor(acc, signal_of(signal_of, term));
        const auto created = network.num_xors() - xors_before_row;
        const auto resolved = network.resolve(acc);
        if (resolved.node() == root) {
            // Already in optimal form: every chain gate strash-hit an
            // existing node, so only this row's fresh pair gates (if any)
            // need dropping.
            rollback_pairs();
            continue;
        }
        network.take_ref(resolved);
        // Gain check mirroring the rewriting engine: what the new chain
        // costs (after strashing) vs. the XOR gates exclusively owned by
        // the old cone (the chain's references pin anything shared).  The
        // old cone's leaves are the expansion's terminals.
        const auto& leaves = rows[root];
        const auto freed = mffc_gate_count(network, root, leaves) -
                           mffc_and_count(network, root, leaves);
        if (created <= freed) {
            network.substitute(root, resolved);
            network.release_ref(network.resolve(resolved));
        } else {
            network.release_ref(resolved);
            rollback_pairs();
        }
    }

    // Release the tokens on the nodes they were taken on: a reference taken
    // on a node that was merged away afterwards must not be released on the
    // merge survivor (that would steal one of its real references).  Pair
    // gates only the rejected rebuilds needed die right here.
    for (size_t k = 0; k < plan.size(); ++k)
        if (planned_built[k])
            network.release_ref(planned_signal[k]);
    for (uint32_t term = 0; term < base_size; ++term)
        if (is_protected[term])
            network.release_ref(signal{term, false});

    static const auto blocks_metric = obs::register_metric("xor.blocks");
    static const auto pairs_metric = obs::register_metric("xor.pairs");
    blocks_metric.add(stats.blocks);
    pairs_metric.add(stats.pairs_extracted);
    stats.xors_after = network.num_xors();
    return stats;
}

} // namespace mcx
