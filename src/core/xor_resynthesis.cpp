#include "core/xor_resynthesis.h"

#include "core/mffc.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/thread_pool.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <queue>
#include <span>
#include <unordered_map>
#include <vector>

namespace mcx {

namespace {

/// A linear row: the terms whose parity a block computes, as ascending
/// ids.  Ids below the network size are terminal nodes (AND gates, PIs);
/// planned pair k of the extraction below is `base_size + k`.  One form
/// carries a row from expansion through pairing to the chain rebuild.
using row = std::vector<uint32_t>;

} // namespace

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
    std::vector<row> rows(base_size);
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
                    row{}.swap(rows[m]);
            }
        }
        expand_span.set_arg(roots.size());
    }
    stats.blocks = static_cast<uint32_t>(roots.size());

    // Paar's greedy algorithm on the whole system: extract the most common
    // terminal pair as a new shared term until no pair repeats.  Pair
    // counts are maintained incrementally (rebuilding them per extraction
    // is quadratic and intractable on hash-sized linear systems), with a
    // lazily-invalidated max-heap selecting the next pair.
    //
    // Rows of any width take part in pair extraction.  Pair seeding is
    // quadratic per row, so admission is narrowest-first under a Σwidth²
    // work budget: every row of rewrite-scale circuits qualifies, while
    // the widest accumulator rows of full-hash linear systems — whose
    // unbounded seeding would be ~10¹⁰ operations on MD5 — keep their
    // existing trees.  Admission depends only on the multiset of row
    // widths, so the result is deterministic.
    const uint32_t seed_workers =
        params.pool != nullptr ? params.pool->num_workers() : 1;
    stats.seed_workers = seed_workers;

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

    // Pairing rewrites a copy of each admitted row; the expansion stays as
    // the leaf set of the MFFC gain check below.
    std::vector<row> paired(roots.size());
    struct planned_pair {
        uint32_t a, b; ///< term ids (terminal or earlier planned pair)
    };
    std::vector<planned_pair> plan;

    using term_pair = std::pair<uint32_t, uint32_t>;
    struct pair_hash {
        size_t operator()(const term_pair& p) const
        {
            return (static_cast<size_t>(p.first) << 32) ^ p.second;
        }
    };
    using pair_counts = std::unordered_map<term_pair, uint32_t, pair_hash>;
    pair_counts pair_count;
    std::unordered_map<uint32_t, std::vector<uint32_t>> rows_of_term;
    std::priority_queue<std::pair<uint32_t, term_pair>> heap;

    const auto ordered = [](uint32_t a, uint32_t b) {
        return a < b ? term_pair{a, b} : term_pair{b, a};
    };
    const auto bump = [&](uint32_t a, uint32_t b, int delta) {
        const auto key = ordered(a, b);
        auto& count = pair_count[key];
        count = static_cast<uint32_t>(static_cast<int>(count) + delta);
        if (delta > 0 && count >= 2)
            heap.push({count, key});
    };

    // Seeding: count every pair of every admitted row.  The quadratic
    // per-row loops split into (row, outer-index-range) chunks, so one
    // very wide admitted row (a hash accumulator row can dominate the
    // whole Σwidth² budget) spreads across the team instead of serializing
    // on one worker.  Each worker counts into its own map and the maps
    // merge afterwards; without a pool the same chunks run inline.  Sums
    // are schedule-independent, and the heap is seeded once per pair at
    // its final count, so extraction pops the same pairs in the same order
    // at any worker count.
    struct seed_chunk {
        uint32_t row;        ///< root index of an admitted row
        uint32_t begin, end; ///< outer-index range [begin, end)
    };
    std::vector<seed_chunk> chunks;
    {
        uint64_t total_pairs = 0;
        for (uint32_t r = 0; r < roots.size(); ++r) {
            if (!admitted[r])
                continue;
            paired[r] = rows[roots[r]];
            for (const auto t : paired[r])
                rows_of_term[t].push_back(r);
            const uint64_t w = width(r);
            total_pairs += w * (w - 1) / 2;
        }
        // ~8 chunks per worker smooths the work-stealing partition; the
        // floor keeps per-chunk map overhead negligible for small rounds.
        const uint64_t chunk_target = std::max<uint64_t>(
            4096, total_pairs / (uint64_t{8} * seed_workers + 1));
        for (uint32_t r = 0; r < roots.size(); ++r) {
            if (!admitted[r])
                continue;
            const auto w = width(r);
            uint32_t begin = 0;
            uint64_t acc = 0;
            for (uint32_t a = 0; a + 1 < w; ++a) {
                acc += w - a - 1; // pairs contributed by outer index a
                if (acc >= chunk_target) {
                    chunks.push_back({r, begin, a + 1});
                    begin = a + 1;
                    acc = 0;
                }
            }
            if (begin + 1 < w)
                chunks.push_back({r, begin, w - 1});
        }
    }
    std::vector<pair_counts> local(seed_workers);
    const auto count_chunk = [&](size_t i, uint32_t worker) {
        const auto& chunk = chunks[i];
        const auto& t = paired[chunk.row];
        auto& counts = local[worker];
        for (size_t a = chunk.begin; a < chunk.end; ++a)
            for (size_t b = a + 1; b < t.size(); ++b)
                ++counts[{t[a], t[b]}];
    };
    if (params.pool != nullptr)
        params.pool->parallel_for(0, chunks.size(), count_chunk);
    else
        for (size_t i = 0; i < chunks.size(); ++i)
            count_chunk(i, 0);
    for (const auto& counts : local)
        for (const auto& [key, c] : counts)
            pair_count[key] += c;
    local.clear();
    for (const auto& [key, c] : pair_count)
        if (c >= 2)
            heap.push({c, key});

    // Stopping mid-extraction (or mid-rebuild below) must not throw: the
    // protected-ref release sweeps at the end are unconditional cleanup,
    // so the token breaks out of the loops and the stats carry the reason.
    uint64_t extract_steps = 0;
    const auto stop_reason = [&]() -> outcome {
        const auto reason = params.token.stop_reason();
        return reason == outcome::ok ? outcome::cancelled : reason;
    };
    // Ends after the extraction loop via reset() — the loop body is too
    // entangled with surrounding locals for a scoped block.
    std::optional<obs::trace::trace_span> pair_span{std::in_place,
                                                    "phase.xor-pair"};
    while (!heap.empty()) {
        if ((++extract_steps & 1023u) == 0 &&
            params.token.stop_requested()) {
            stats.status = stop_reason();
            break;
        }
        const auto [count, key] = heap.top();
        heap.pop();
        const auto it = pair_count.find(key);
        if (it == pair_count.end() || it->second != count) {
            // Stale entry: if the pair still qualifies with its decreased
            // count, requeue it at that count (strictly smaller each time,
            // so this terminates).
            if (it != pair_count.end() && it->second >= 2 &&
                it->second < count)
                heap.push({it->second, key});
            continue;
        }
        if (count < 2)
            break;
        const auto [a, b] = key;
        // Above every terminal and every earlier pair, so appending it
        // keeps a row ascending.
        const auto id = base_size + static_cast<uint32_t>(plan.size());
        plan.push_back({a, b});
        ++stats.pairs_extracted;

        for (const auto r : rows_of_term[a]) {
            auto& terms = paired[r];
            if (!std::binary_search(terms.begin(), terms.end(), a) ||
                !std::binary_search(terms.begin(), terms.end(), b))
                continue;
            // Update counts for every other term of this row.
            for (const auto t : terms)
                if (t != a && t != b) {
                    bump(a, t, -1);
                    bump(b, t, -1);
                    bump(id, t, +1);
                }
            bump(a, b, -1);
            std::erase_if(terms, [&](uint32_t t) { return t == a || t == b; });
            terms.push_back(id);
            rows_of_term[id].push_back(r);
        }
    }
    if (pair_span)
        pair_span->set_arg(stats.pairs_extracted);
    pair_span.reset();

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
