#include "core/xor_resynthesis.h"

#include "core/mffc.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/thread_pool.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

namespace mcx {

namespace {

/// A linear block root expressed over terminals: value = parity of the
/// terminal node values in `terms` (sorted ascending), complemented if
/// `constant`.
struct linear_row {
    uint32_t root = 0;
    std::vector<uint32_t> terms;
    bool constant = false;
};

/// Packed bitset rows over a dense term-id space (remapped terminal ids
/// first, planned pair ids above them), one row per linear block that
/// takes part in pair extraction.  Replaces the per-row std::set:
/// membership is one bit test, the expander's XOR-cancellation is one
/// flip, and the ascending iteration order the chain rebuild relies on
/// falls out of the word scan.  All rows live in one flat pool sized
/// once, and the same bits flow from the pairing loop into the chain
/// rebuild — no per-step container churn.
class packed_rows {
public:
    packed_rows(size_t num_rows, size_t id_limit)
        : stride_{(id_limit + 63) / 64}, pool_(num_rows * stride_, 0)
    {
    }

    bool test(uint32_t row, uint32_t id) const
    {
        return (word(row, id) >> (id & 63)) & 1;
    }

    void insert(uint32_t row, uint32_t id)
    {
        word(row, id) |= uint64_t{1} << (id & 63);
    }

    void erase(uint32_t row, uint32_t id)
    {
        word(row, id) &= ~(uint64_t{1} << (id & 63));
    }

    /// Visit the row's term ids in ascending order (the std::set order the
    /// seed implementation iterated in).
    template <typename F>
    void for_each(uint32_t row, F&& f) const
    {
        const uint64_t* words = pool_.data() + row * stride_;
        for (size_t i = 0; i < stride_; ++i)
            for (uint64_t w = words[i]; w != 0; w &= w - 1)
                f(static_cast<uint32_t>(64 * i + std::countr_zero(w)));
    }

private:
    uint64_t& word(uint32_t row, uint32_t id)
    {
        return pool_[row * stride_ + (id >> 6)];
    }
    const uint64_t& word(uint32_t row, uint32_t id) const
    {
        return pool_[row * stride_ + (id >> 6)];
    }

    size_t stride_;
    std::vector<uint64_t> pool_;
};

/// Expands XOR cones down to non-XOR terminals with cancellation (a
/// terminal reached by an even number of paths vanishes).
///
/// A terminal's membership is the parity of the number of root-to-terminal
/// paths, and the row constant is the parity of complemented-edge
/// traversals over all paths — so instead of enumerating paths (the seed
/// implementation, exponential on reconvergent XOR structure such as hash
/// accumulators), propagate path-count parity through the cone in one
/// topological sweep: each cone node is visited exactly once.  Terminal
/// membership itself is one shared scratch bitset (flip on every arrival,
/// survivors collected and reset afterwards) instead of set insert/erase.
class linear_expander {
public:
    explicit linear_expander(const xag& net) : net_{net}
    {
        topo_index_.resize(net.size(), 0);
        uint32_t i = 0;
        for (const auto n : net.topological_order())
            topo_index_[n] = ++i;
        parity_.resize(net.size(), 0);
        in_cone_.resize(net.size(), 0);
        term_bit_.resize((net.size() + 63) / 64, 0);
    }

    linear_row expand(uint32_t root)
    {
        linear_row row;
        row.root = root;

        // Collect the XOR cone (root plus XOR nodes reachable through XOR
        // fanins) once per root.
        cone_.clear();
        cone_.push_back(root);
        in_cone_[root] = 1;
        for (size_t i = 0; i < cone_.size(); ++i) {
            for (const auto fi :
                 {net_.fanin0(cone_[i]), net_.fanin1(cone_[i])}) {
                const auto m = fi.node();
                if (net_.is_xor(m) && !in_cone_[m]) {
                    in_cone_[m] = 1;
                    cone_.push_back(m);
                }
            }
        }
        // Fanins before fanouts globally, so descending topo index
        // processes every node before its cone fanins.
        std::sort(cone_.begin(), cone_.end(), [&](uint32_t a, uint32_t b) {
            return topo_index_[a] > topo_index_[b];
        });

        touched_.clear();
        parity_[root] = 1;
        for (const auto n : cone_) {
            const auto p = parity_[n];
            parity_[n] = 0; // reset for the next expand() call
            in_cone_[n] = 0;
            if (p == 0)
                continue;
            for (const auto fi : {net_.fanin0(n), net_.fanin1(n)}) {
                row.constant ^= fi.complemented();
                const auto m = fi.node();
                if (net_.is_xor(m)) {
                    parity_[m] ^= 1;
                } else if (m != 0) {
                    // Terminal: AND node or PI (node 0 contributes nothing).
                    term_bit_[m >> 6] ^= uint64_t{1} << (m & 63);
                    touched_.push_back(m);
                }
            }
        }
        // Survivors (odd path parity) in ascending order; reset the scratch.
        std::sort(touched_.begin(), touched_.end());
        touched_.erase(std::unique(touched_.begin(), touched_.end()),
                       touched_.end());
        for (const auto m : touched_)
            if ((term_bit_[m >> 6] >> (m & 63)) & 1) {
                row.terms.push_back(m);
                term_bit_[m >> 6] &= ~(uint64_t{1} << (m & 63));
            }
        return row;
    }

private:
    const xag& net_;
    std::vector<uint32_t> topo_index_;
    std::vector<uint8_t> parity_;
    std::vector<uint8_t> in_cone_;
    std::vector<uint64_t> term_bit_; ///< scratch terminal-parity bitset
    std::vector<uint32_t> cone_;
    std::vector<uint32_t> touched_;
};

} // namespace

xor_resynthesis_stats xor_resynthesis(xag& network,
                                      const xor_resynthesis_params& params)
{
    xor_resynthesis_stats stats;
    stats.xors_before = network.num_xors();
    const uint32_t base_size = network.size(); // term ids below are real

    // Block roots: XOR nodes consumed by an AND gate or a primary output.
    // Interior XOR nodes (all fanouts are XOR gates feeding the same
    // blocks) are swallowed by the expansion.
    std::vector<uint32_t> roots;
    {
        std::vector<uint8_t> is_root(network.size(), 0);
        for (const auto n : network.topological_order()) {
            if (!network.is_and(n))
                continue;
            for (const auto fi : {network.fanin0(n), network.fanin1(n)})
                if (network.is_xor(fi.node()))
                    is_root[fi.node()] = 1;
        }
        for (uint32_t i = 0; i < network.num_pos(); ++i)
            if (network.is_xor(network.po_at(i).node()))
                is_root[network.po_at(i).node()] = 1;
        for (uint32_t n = 0; n < network.size(); ++n)
            if (is_root[n] && !network.is_dead(n))
                roots.push_back(n);
    }
    if (roots.empty()) {
        stats.xors_after = stats.xors_before;
        return stats;
    }

    std::vector<linear_row> rows;
    rows.reserve(roots.size());
    {
        obs::trace::trace_span expand_span{"phase.xor-expand"};
        linear_expander expander{network};
        for (const auto r : roots)
            rows.push_back(expander.expand(r));
        expand_span.set_arg(rows.size());
    }
    stats.blocks = static_cast<uint32_t>(rows.size());

    // Paar's greedy algorithm on the whole system: extract the most common
    // terminal pair as a new shared term until no pair repeats.  Pair
    // counts are maintained incrementally (rebuilding them per extraction
    // is quadratic and intractable on hash-sized linear systems), with a
    // lazily-invalidated max-heap selecting the next pair.
    //
    // Pairing works in a DENSE id space: the distinct terminals of the
    // narrow rows get ids [0, num_terms) in ascending node order, planned
    // pair ids follow from num_terms — so the bitset rows span only the
    // ids that can actually occur instead of the whole network, and only
    // narrow rows get a bitset at all.  The mapping is monotone, so pair
    // ordering, heap tie-breaking, and the ascending chain-rebuild scan
    // are unchanged from the node-id formulation.
    struct planned_pair {
        uint32_t a, b;   ///< dense term ids (terminal or earlier planned)
        uint32_t id;     ///< dense id of the new term
    };
    std::vector<planned_pair> plan;

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

    const std::vector<uint8_t> narrow = [&] {
        std::vector<uint8_t> flags(rows.size(), 0);
        std::vector<uint32_t> by_width(rows.size());
        for (uint32_t r = 0; r < rows.size(); ++r) {
            by_width[r] = r;
            stats.widest_row =
                std::max(stats.widest_row,
                         static_cast<uint32_t>(rows[r].terms.size()));
        }
        std::stable_sort(by_width.begin(), by_width.end(),
                         [&](uint32_t a, uint32_t b) {
                             return rows[a].terms.size() <
                                    rows[b].terms.size();
                         });
        uint64_t work = 0;
        for (const auto r : by_width) {
            const auto w = static_cast<uint64_t>(rows[r].terms.size());
            // The budget does not scale with the team, so the admission
            // set — and the output — is the same at any worker count.
            if (params.pairing_work_budget != 0 &&
                work + w * w > params.pairing_work_budget)
                break;
            work += w * w;
            flags[r] = 1;
            ++stats.rows_paired;
            stats.widest_row_paired =
                std::max(stats.widest_row_paired, static_cast<uint32_t>(w));
        }
        return flags;
    }();
    std::vector<uint32_t> slot(rows.size(), 0); // narrow row -> bitset row
    uint32_t num_narrow = 0;
    for (size_t r = 0; r < rows.size(); ++r)
        if (narrow[r])
            slot[r] = num_narrow++;

    // term_of: dense id -> node id (ascending); dense_of: node id -> dense.
    std::vector<uint32_t> term_of;
    size_t narrow_instances = 0;
    for (size_t r = 0; r < rows.size(); ++r)
        if (narrow[r]) {
            narrow_instances += rows[r].terms.size();
            term_of.insert(term_of.end(), rows[r].terms.begin(),
                           rows[r].terms.end());
        }
    std::sort(term_of.begin(), term_of.end());
    term_of.erase(std::unique(term_of.begin(), term_of.end()),
                  term_of.end());
    const auto num_terms = static_cast<uint32_t>(term_of.size());
    std::vector<uint32_t> dense_of(base_size, 0);
    for (uint32_t d = 0; d < num_terms; ++d)
        dense_of[term_of[d]] = d;
    uint32_t next_term_id = num_terms; // dense ids above terminals = planned

    // Every extraction removes two term instances per affected row (>= 2
    // rows) and mints exactly one new id, so the planned-id space is
    // bounded by half the narrow rows' initial term instances.
    const size_t id_limit = num_terms + narrow_instances / 2 + 1;

    packed_rows bits{num_narrow, id_limit};

    using term_pair = std::pair<uint32_t, uint32_t>;
    struct pair_hash {
        size_t operator()(const term_pair& p) const
        {
            return (static_cast<size_t>(p.first) << 32) ^ p.second;
        }
    };
    std::unordered_map<term_pair, uint32_t, pair_hash> pair_count;
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

    // Linear setup (bitsets, term->row index) stays sequential; only the
    // quadratic pair counting fans out.
    std::vector<uint32_t> narrow_rows;
    narrow_rows.reserve(stats.rows_paired);
    for (uint32_t r = 0; r < rows.size(); ++r) {
        if (!narrow[r])
            continue;
        narrow_rows.push_back(r);
        const auto& t = rows[r].terms;
        for (size_t i = 0; i < t.size(); ++i) {
            bits.insert(slot[r], dense_of[t[i]]);
            rows_of_term[dense_of[t[i]]].push_back(r);
        }
    }
    if (params.pool != nullptr && narrow_rows.size() > 1) {
        // Per-worker count maps over a work-stealing partition of (row,
        // outer-index-range) chunks, merged into the shared map afterwards.
        // Chunking the outer index of the quadratic per-row loop means one
        // very wide admitted row (a hash accumulator row can dominate the
        // whole Σwidth² budget) spreads across the team instead of
        // serializing on one worker.  Per-pair sums are schedule-
        // independent, and the heap is seeded once per pair at its final
        // count — the heap's valid-tuple set (count, key) is exactly the
        // sequential path's, so extraction pops the same pairs in the same
        // order (stale lower-count entries, which only the sequential path
        // carries, are discarded by the staleness check).
        struct seed_chunk {
            uint32_t row;            ///< index into narrow_rows
            uint32_t begin, end;     ///< outer-index range [begin, end)
        };
        uint64_t total_pairs = 0;
        for (const auto r : narrow_rows) {
            const auto w = static_cast<uint64_t>(rows[r].terms.size());
            total_pairs += w * (w - 1) / 2;
        }
        // ~8 chunks per worker smooths the work-stealing partition; the
        // floor keeps per-chunk map overhead negligible for small rounds.
        const uint64_t chunk_target = std::max<uint64_t>(
            4096, total_pairs / (uint64_t{8} * seed_workers + 1));
        std::vector<seed_chunk> chunks;
        for (uint32_t i = 0; i < narrow_rows.size(); ++i) {
            const auto w =
                static_cast<uint32_t>(rows[narrow_rows[i]].terms.size());
            uint32_t begin = 0;
            uint64_t acc = 0;
            for (uint32_t a = 0; a + 1 < w; ++a) {
                acc += w - a - 1; // pairs contributed by outer index a
                if (acc >= chunk_target) {
                    chunks.push_back({i, begin, a + 1});
                    begin = a + 1;
                    acc = 0;
                }
            }
            if (begin + 1 < w)
                chunks.push_back({i, begin, w - 1});
        }
        std::vector<std::unordered_map<term_pair, uint32_t, pair_hash>>
            local(seed_workers);
        params.pool->parallel_for(
            0, chunks.size(), [&](size_t i, uint32_t worker) {
                const auto& chunk = chunks[i];
                const auto& t = rows[narrow_rows[chunk.row]].terms;
                auto& counts = local[worker];
                for (size_t a = chunk.begin; a < chunk.end; ++a)
                    for (size_t b = a + 1; b < t.size(); ++b)
                        ++counts[ordered(dense_of[t[a]], dense_of[t[b]])];
            });
        for (const auto& counts : local)
            for (const auto& [key, c] : counts)
                pair_count[key] += c;
        for (const auto& [key, c] : pair_count)
            if (c >= 2)
                heap.push({c, key});
    } else {
        for (const auto r : narrow_rows) {
            const auto& t = rows[r].terms;
            for (size_t i = 0; i < t.size(); ++i)
                for (size_t j = i + 1; j < t.size(); ++j)
                    bump(dense_of[t[i]], dense_of[t[j]], 1);
        }
    }

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
        const auto id = next_term_id++;
        plan.push_back({a, b, id});
        ++stats.pairs_extracted;

        for (const auto r : rows_of_term[a]) {
            if (!bits.test(slot[r], a) || !bits.test(slot[r], b))
                continue;
            // Update counts for every other term of this row.
            bits.for_each(slot[r], [&](uint32_t t) {
                if (t != a && t != b) {
                    bump(a, t, -1);
                    bump(b, t, -1);
                    bump(id, t, +1);
                }
            });
            bump(a, b, -1);
            bits.erase(slot[r], a);
            bits.erase(slot[r], b);
            bits.insert(slot[r], id);
            rows_of_term[id].push_back(r);
        }
    }
    if (pair_span)
        pair_span->set_arg(stats.pairs_extracted);
    pair_span.reset();

    // Pin every real terminal: substitution cascades below may restructure
    // later rows' old cones and would otherwise free terminals before
    // their new chains are built.  Flags instead of a set; the take/release
    // sweeps walk them in the same ascending order.
    std::vector<uint8_t> is_protected(base_size, 0);
    for (uint32_t r = 0; r < rows.size(); ++r) {
        if (narrow[r])
            bits.for_each(slot[r], [&](uint32_t term) {
                if (term < num_terms)
                    is_protected[term_of[term]] = 1;
            });
        else
            for (const auto term : rows[r].terms)
                is_protected[term] = 1;
    }
    for (const auto& p : plan) {
        if (p.a < num_terms)
            is_protected[term_of[p.a]] = 1;
        if (p.b < num_terms)
            is_protected[term_of[p.b]] = 1;
    }
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
        if (term < num_terms)
            return network.resolve(signal{term_of[term], false});
        const auto idx = term - num_terms;
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

    for (uint32_t r = 0; r < rows.size(); ++r) {
        if (params.token.stop_requested()) {
            // Rows already rebuilt keep their gains; the rest keep their
            // old trees.  Either way the network stays equivalent.
            stats.status = stop_reason();
            break;
        }
        const auto& row = rows[r];
        if (network.is_dead(row.root))
            continue; // collapsed by an earlier substitution in this pass
        if (!narrow[r])
            continue; // rows beyond the pairing budget keep their trees
        built_this_row.clear();
        const auto xors_before_row = network.num_xors();
        auto acc = network.get_constant(row.constant);
        bits.for_each(slot[r], [&](uint32_t term) {
            acc = network.create_xor(acc, signal_of(signal_of, term));
        });
        const auto created = network.num_xors() - xors_before_row;
        const auto resolved = network.resolve(acc);
        if (resolved.node() == row.root) {
            // Already in optimal form: every chain gate strash-hit an
            // existing node, so only this row's fresh pair gates (if any)
            // need dropping.
            rollback_pairs();
            continue;
        }
        network.take_ref(resolved);
        // Gain check mirroring the rewriting engine: what the new chain
        // costs (after strashing) vs. the XOR gates exclusively owned by
        // the old cone (the chain's references pin anything shared).
        const auto freed =
            mffc_gate_count(network, row.root, row.terms) -
            mffc_and_count(network, row.root, row.terms);
        if (created <= freed) {
            network.substitute(row.root, resolved);
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
    for (const auto& p : plan)
        if (planned_built[p.id - num_terms])
            network.release_ref(planned_signal[p.id - num_terms]);
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
