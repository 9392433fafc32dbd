#include "core/pass.h"

#include "core/mffc.h"
#include "core/xor_resynthesis.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tt/operations.h"
#include "xag/cleanup.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <optional>
#include <utility>

namespace mcx {

// ------------------------------------------------------- context accessors

mc_database& pass_context::mc_db()
{
    if (external_mc_db_)
        return *external_mc_db_;
    if (!mc_db_)
        mc_db_ = std::make_unique<mc_database>(params_.mc_db);
    return *mc_db_;
}

thread_pool& pass_context::pool(uint32_t num_threads)
{
    if (num_threads == 0)
        num_threads = 1;
    if (!pool_ || pool_->num_workers() != num_threads)
        pool_ = std::make_unique<thread_pool>(num_threads);
    return *pool_;
}

pass_scratch& pass_context::scratch(uint32_t worker)
{
    while (scratch_.size() <= worker)
        scratch_.push_back(std::make_unique<pass_scratch>());
    return *scratch_[worker];
}

namespace {

/// Splice the representative circuit into `dst`, mirroring
/// affine_transform::apply: input i of the representative reads the parity
/// of the leaves selected by column i of M^T plus c_i; the output adds the
/// v-masked leaf parity and the optional complement.  Only XOR gates and
/// inverters are created around the representative — AND count is exactly
/// the database entry's (modulo structural hashing savings).
template <typename Dst>
signal splice_affine(Dst& dst, const affine_transform& t,
                     std::span<const signal> leaves, const xag& repr_circuit)
{
    std::array<signal, 6> repr_inputs{};
    for (uint32_t i = 0; i < t.num_vars; ++i) {
        auto acc = dst.get_constant(((t.c >> i) & 1) != 0);
        for (uint32_t k = 0; k < t.num_vars; ++k)
            if ((t.mt_column(k) >> i) & 1)
                acc = dst.create_xor(acc, leaves[k]);
        repr_inputs[i] = acc;
    }
    auto out = insert_network(dst, repr_circuit,
                              std::span{repr_inputs.data(), t.num_vars})[0];
    for (uint32_t k = 0; k < t.num_vars; ++k)
        if ((t.v >> k) & 1)
            out = dst.create_xor(out, leaves[k]);
    return out ^ t.output_complement;
}

/// The database half of a candidate: classify the cut function through
/// the context's memo, look its class up in (or synthesize it into) the MC
/// database, and splice the representative into the network (commit) or a
/// splice_probe (evaluate).  Thread-safe for a probe: touches only the
/// striped memo and database.
struct candidate_source {
    classification_cache& memo;
    mc_database& db;
    cancellation_token token;

    /// nullopt when the classification search fails.
    template <typename Dst>
    std::optional<signal> build(Dst& dst, const truth_table& f,
                                std::span<const signal> leaves) const
    {
        const auto& cls = memo.classify(f);
        if (!cls.success)
            return std::nullopt;
        const auto& entry = db.lookup_or_build(cls.representative, token);
        return splice_affine(dst, cls.transform, leaves, entry.circuit);
    }
};

/// A candidate measured without being built.  The splice replays against
/// the frozen network through xag::find_gate, so a gate that folds or
/// already exists costs nothing — exactly what create_and/create_xor will
/// do at commit time — while a gate that would be new gets an id past the
/// end of the network and local structural hashing among its peers.  Every
/// existing gate a new gate (or the output) would reference is recorded as
/// a pin for the pinned MFFC count, and a candidate whose cone would reach
/// the rewrite root is flagged (commit-time containment check).  Read-only
/// on the network, so every evaluate worker probes concurrently.
class splice_probe {
public:
    splice_probe(const xag& net, uint32_t root,
                 std::span<const uint32_t> cut_leaves, pass_scratch& sc)
        : net_{net}, root_{root}, base_{net.size()}, cut_leaves_{cut_leaves},
          gates_{sc.probe_gates}, pins_{sc.probe_pins},
          reach_{sc.probe_reach}, cone_{sc.probe_cone},
          stack_{sc.probe_stack}, outside_{sc.probe_outside}
    {
        gates_.clear();
        pins_.clear();
        reach_.clear();
        cone_.clear();
        outside_.clear();
    }

    signal get_constant(bool value) const { return net_.get_constant(value); }
    signal create_and(signal a, signal b)
    {
        return create(node_kind::and_gate, a, b);
    }
    signal create_xor(signal a, signal b)
    {
        return create(node_kind::xor_gate, a, b);
    }

    /// Pin the output like take_ref would; false when the candidate is the
    /// root itself or its cone would contain the root.
    bool finish(signal out)
    {
        if (out.node() == root_ || reaches_root(out))
            return false;
        pin(out.node());
        return true;
    }

    uint64_t new_ands() const
    {
        return static_cast<uint64_t>(
            std::count_if(gates_.begin(), gates_.end(),
                          [](const auto& g) { return g.is_and; }));
    }
    std::span<const uint32_t> pins() const { return pins_; }

    /// Existing gates outside the root's cone over the cut that the splice
    /// built on.  The cost depends on their fanouts' structural-hashing
    /// entries, which the evaluate dirty set does not cover (it covers the
    /// cone and the cut leaves), so they become the winner's `outside`
    /// dependencies.
    std::span<const uint32_t> outside() const { return outside_; }

private:
    signal create(node_kind kind, signal a, signal b)
    {
        note_operand(a.node());
        note_operand(b.node());
        if (const auto found = net_.find_gate(kind, a, b)) {
            const auto f = found->node();
            // A structural-hashing hit (not a fold to an operand or a
            // constant) is an existing gate over a and b.
            if (f < base_ && f != 0 && f != a.node() && f != b.node() &&
                (f == root_ || reaches_root(a) || reaches_root(b)))
                reach_.push_back(f);
            return *found;
        }
        const bool is_and = kind == node_kind::and_gate;
        bool parity = false;
        if (!is_and) {
            parity = a.complemented() != b.complemented();
            a = signal{a.node(), false};
            b = signal{b.node(), false};
        }
        if (a.literal() > b.literal())
            std::swap(a, b);
        for (size_t i = 0; i < gates_.size(); ++i)
            if (gates_[i].is_and == is_and && gates_[i].a == a &&
                gates_[i].b == b)
                return signal{base_ + static_cast<uint32_t>(i), parity};
        pin(a.node());
        pin(b.node());
        gates_.push_back({a, b, is_and, reaches_root(a) || reaches_root(b)});
        return signal{base_ + static_cast<uint32_t>(gates_.size() - 1),
                      parity};
    }

    bool reaches_root(signal s) const
    {
        if (s.node() >= base_)
            return gates_[s.node() - base_].reaches_root;
        return std::find(reach_.begin(), reach_.end(), s.node()) !=
               reach_.end();
    }

    bool is_leaf(uint32_t node) const
    {
        return std::binary_search(cut_leaves_.begin(), cut_leaves_.end(),
                                  node);
    }

    /// Only existing gates strictly inside the cut can change the MFFC.
    void pin(uint32_t node)
    {
        if (node < base_ && net_.is_gate(node) && !is_leaf(node))
            pins_.push_back(node);
    }

    void note_operand(uint32_t node)
    {
        if (node >= base_ || !net_.is_gate(node) || is_leaf(node) ||
            std::find(outside_.begin(), outside_.end(), node) !=
                outside_.end())
            return;
        if (cone_.empty()) {
            // The root's cone down to the cut leaves, collected once.
            stack_.assign(1, root_);
            while (!stack_.empty()) {
                const auto x = stack_.back();
                stack_.pop_back();
                if (std::find(cone_.begin(), cone_.end(), x) != cone_.end())
                    continue;
                cone_.push_back(x);
                for (const auto fi : {net_.fanin0(x), net_.fanin1(x)})
                    if (net_.is_gate(fi.node()) && !is_leaf(fi.node()))
                        stack_.push_back(fi.node());
            }
        }
        if (std::find(cone_.begin(), cone_.end(), node) == cone_.end())
            outside_.push_back(node);
    }

    const xag& net_;
    uint32_t root_;
    uint32_t base_;
    std::span<const uint32_t> cut_leaves_;
    std::vector<pass_scratch::probe_gate>& gates_;
    std::vector<uint32_t>& pins_;
    std::vector<uint32_t>& reach_;
    std::vector<uint32_t>& cone_;
    std::vector<uint32_t>& stack_;
    std::vector<uint32_t>& outside_;
};

/// Verify a built candidate: one epoch-stamped traversal computes its
/// function word and checks that `forbidden` (the rewrite root) is not part
/// of its cone.
bool verify_candidate(const xag& net, cone_simulator& sim, signal candidate,
                      std::span<const uint32_t> leaves,
                      const truth_table& expected, uint32_t forbidden)
{
    const auto word =
        sim.cone_word(net, candidate.node(), leaves, forbidden);
    if (!word)
        return false;
    const auto k = static_cast<uint32_t>(leaves.size());
    const auto tt = truth_table{k, *word};
    return (candidate.complemented() ? ~tt : tt) == expected;
}

/// Direct replacements for cuts whose (support-shrunk) function collapsed
/// to a constant or a single leaf (no database needed).  `f` is the
/// shrunk function, `leaf_sigs` its support leaves.
template <typename Dst>
std::optional<signal> trivial_replacement(Dst& net, const truth_table& f,
                                          std::span<const signal> leaf_sigs)
{
    if (leaf_sigs.empty())
        return net.get_constant(f.get_bit(0));
    if (leaf_sigs.size() == 1) {
        const auto x = truth_table::projection(1, 0);
        return leaf_sigs[0] ^ (f == ~x);
    }
    return std::nullopt;
}

/// Phases 1-2 of a node visit: resolve the node's enumerated cuts to live,
/// sorted, deduplicated leaf sets, then evaluate every cut function in
/// batched live-lane traversals.  Returns the number of active cuts; leaf
/// sets are in pool[0..count), function words in `words`, per-cut validity
/// in `valid`.  `cuts_evaluated` is bumped once per resolved cut.
size_t resolve_and_simulate(const xag& net, std::span<const cut> node_cuts,
                            uint32_t n, cone_simulator& sim,
                            std::vector<cone_simulator::leaf_set>& pool,
                            std::vector<uint64_t>& words,
                            std::vector<uint64_t>& chunk_words,
                            std::vector<uint8_t>& valid,
                            uint64_t& cuts_evaluated)
{
    // Leaves replaced by earlier rounds are followed to their live
    // equivalents; `pool` is an index-reused scratch: slots keep their
    // capacity across nodes.
    size_t count = 0;
    for (const auto& c : node_cuts) {
        if (c.num_leaves < 2 && c.leaves[0] == n)
            continue; // trivial cut
        if (pool.size() == count)
            pool.emplace_back();
        auto& cut_leaves = pool[count];
        cut_leaves.clear();
        bool leaves_ok = true;
        for (const auto l : c.leaf_span()) {
            const auto live = net.resolve(signal{l, false});
            if (net.is_dead(live.node()) || live.node() == n) {
                leaves_ok = false;
                break;
            }
            if (live.node() != 0)
                cut_leaves.push_back(live.node());
        }
        if (!leaves_ok || cut_leaves.empty())
            continue;
        std::sort(cut_leaves.begin(), cut_leaves.end());
        cut_leaves.erase(std::unique(cut_leaves.begin(), cut_leaves.end()),
                         cut_leaves.end());
        ++cuts_evaluated;
        ++count;
    }
    if (count == 0)
        return 0;
    const std::span<const cone_simulator::leaf_set> active{pool.data(),
                                                           count};

    words.assign(count, 0);
    valid.assign(count, 0);
    // Chunked so arbitrarily large per-node cut counts work (the simulator
    // evaluates up to 64 lanes per call).
    for (size_t base = 0; base < count; base += 64) {
        const auto chunk = std::min<size_t>(64, count - base);
        const auto mask = sim.simulate_cuts(
            net, n, active.subspan(base, chunk), chunk_words);
        for (size_t j = 0; j < chunk; ++j) {
            words[base + j] = chunk_words[j];
            valid[base + j] = static_cast<uint8_t>((mask >> j) & 1);
        }
    }
    return count;
}

/// A built, verified, scored candidate.  It holds one network reference —
/// the caller either substitutes it or releases it.
struct scored_candidate {
    signal sig{};
    int64_t gain = 0;
};

/// Commit-side kernel: build the candidate for a support-shrunk function —
/// trivially, or through the database splice — count the AND gates it
/// really created, verify function and containment against the current
/// network, and score the DAG-aware gain (AND gates of the MFFC over the
/// full cut, computed while the candidate's references pin any shared
/// nodes, minus the created ANDs).
/// Returns nullopt with every temporary reference released when the build
/// fails or verification rejects.
std::optional<scored_candidate> build_scored_candidate(
    xag& net, cone_simulator& sim, const candidate_source& source,
    const truth_table& f, std::span<const signal> leaf_sigs,
    std::span<const uint32_t> support_nodes,
    std::span<const uint32_t> mffc_leaves, uint32_t n)
{
    const auto ands_before = net.num_ands();
    std::optional<signal> candidate = trivial_replacement(net, f, leaf_sigs);
    if (!candidate) {
        candidate = source.build(net, f, leaf_sigs);
        if (!candidate)
            return std::nullopt;
    }
    const auto created = net.num_ands() - ands_before;
    net.take_ref(*candidate);
    if (!verify_candidate(net, sim, *candidate, support_nodes, f, n)) {
        net.release_ref(net.resolve(*candidate));
        return std::nullopt;
    }
    const int64_t saved = mffc_and_count(net, n, mffc_leaves);
    return scored_candidate{*candidate,
                            saved - static_cast<int64_t>(created)};
}

/// Incremental-evaluate wiring for one round, derived by mc_rewrite_round
/// from the maintainer/cache coherence handshake.  `cache_valid` says the
/// surviving entries of `cache` may be consulted this round (`dirty` then
/// marks the seeds of what changed since they were written and every gate
/// with a seed in one of its cut cones, leaves included —
/// cut_maintainer's evaluate dirty set).
struct round_env {
    evaluate_cache& cache;
    bool cache_valid = false;
    std::span<const uint8_t> dirty{};
};

// ------------------------------------------------------- two-phase round
//
// The one rewrite engine, deterministic at any worker count
// (docs/parallel.md):
//
//  * EVALUATE (parallel): every gate node is scored independently against
//    the network as it stands at round start — resolve its cuts, batch-
//    simulate their functions on the worker's own cone_simulator, classify
//    through the context's memo and look the class up in the database
//    (both striped and once-per-key), probe the splice against the
//    structural-hashing table (splice_probe), and record the best
//    candidate by its exact gain on the frozen network (pinned MFFC
//    savings minus the gates the splice would really add).  Nothing
//    touches the network, so the per-node result is a pure function of
//    (network, cut sets, node) and the winner array is identical for any
//    thread count and any work-stealing schedule.
//
//  * COMMIT (sequential, ascending node order): re-validate each winner
//    against the network as modified by the commits before it — the node
//    and every cut leaf must still be live and unmoved — then build the
//    real candidate, verify its function and containment, and commit when
//    the exact gain (actual created cost, current MFFC) clears the
//    threshold.  Winners invalidated by an earlier commit are simply
//    dropped; the next round re-enumerates and re-scores them (the
//    "deferred to the next round" half of the contract).
//
// The evaluate phase never sees this round's own rewrites, so the output
// depends only on the input network and the parameters, never on the
// thread count; one worker is the reference run.  (eval_winner lives in
// pass.h: it doubles as the evaluate cache's payload.)

void evaluate_node(const xag& net, const cut_sets& cuts,
                   const candidate_source& source, pass_scratch& sc,
                   bool allow_zero_gain, uint32_t n, eval_winner& winner)
{
    // ---- phases 1-2 against the frozen network.
    const auto num_resolved = resolve_and_simulate(
        net, cuts[n], n, sc.simulator, sc.resolved, sc.words,
        sc.chunk_words, sc.valid, sc.cuts_evaluated);
    if (num_resolved == 0)
        return;
    const std::span<const cone_simulator::leaf_set> active{
        sc.resolved.data(), num_resolved};

    // ---- score: the exact gain against the frozen network — the MFFC's
    // AND gates with the candidate's references pinned, minus the ANDs the
    // splice really adds (probed, so structural-hashing shares count; the
    // sequential commit re-measures against the network as it then is).
    // The unpinned MFFC bounds the gain from above, so a cut that cannot
    // beat the best so far is skipped before classification.
    int64_t best_gain = allow_zero_gain ? -1 : 0;
    std::array<signal, 6> leaf_sigs{};
    for (size_t i = 0; i < active.size(); ++i) {
        if (!sc.valid[i])
            continue;
        const auto& cut_leaves = active[i];
        const int64_t saved_bound = mffc_and_count(net, n, cut_leaves);
        if (saved_bound <= best_gain)
            continue;
        const auto k = static_cast<uint32_t>(cut_leaves.size());
        const truth_table tt{k, sc.words[i]};
        const auto view = shrink_to_support(tt);
        for (size_t s = 0; s < view.support.size(); ++s)
            leaf_sigs[s] = signal{cut_leaves[view.support[s]], false};
        const std::span<const signal> leaves{leaf_sigs.data(),
                                             view.support.size()};

        splice_probe probe{net, n, cut_leaves, sc};
        auto out = trivial_replacement(probe, view.function, leaves);
        if (!out) {
            out = source.build(probe, view.function, leaves);
            if (!out) {
                ++sc.classify_failures;
                continue;
            }
        }
        ++sc.candidates_built;
        for (const auto g : probe.outside()) {
            const auto end = winner.outside.begin() + winner.num_outside;
            if (std::find(winner.outside.begin(), end, g) != end)
                continue;
            if (winner.num_outside == winner.outside.size())
                winner.cacheable = false;
            else
                winner.outside[winner.num_outside++] = g;
        }
        if (!probe.finish(*out))
            continue;
        const int64_t saved =
            probe.pins().empty()
                ? saved_bound
                : mffc_and_count(net, n, cut_leaves, probe.pins());
        const int64_t gain = saved - static_cast<int64_t>(probe.new_ands());
        if (gain <= best_gain)
            continue;
        best_gain = gain;
        winner.node = n;
        winner.function = view.function;
        winner.num_cut_leaves = static_cast<uint8_t>(cut_leaves.size());
        std::copy(cut_leaves.begin(), cut_leaves.end(),
                  winner.cut_leaves.begin());
        winner.num_support = static_cast<uint8_t>(view.support.size());
        for (size_t s = 0; s < view.support.size(); ++s)
            winner.support[s] = static_cast<uint8_t>(view.support[s]);
        winner.valid = true;
    }
}

void run_two_phase_round(xag& net, pass_context& ctx, round_stats& stats,
                         bool allow_zero_gain, uint32_t num_threads,
                         const candidate_source& source, const round_env& env)
{
    // Gate nodes in topological order: the evaluate phase's index space
    // and the commit phase's application order.
    std::vector<uint32_t> nodes;
    for (const auto n : net.topological_order())
        if (net.is_gate(n) && !net.is_dead(n))
            nodes.push_back(n);

    auto& pool = ctx.pool(num_threads);
    const auto workers = pool.num_workers();
    for (uint32_t w = 0; w < workers; ++w) {
        auto& sc = ctx.scratch(w); // created before the team needs it
        sc.cuts_evaluated = 0;
        sc.classify_failures = 0;
        sc.candidates_built = 0;
    }

    // ---- phase 1: parallel evaluate over the frozen network — but only
    // for nodes the maintainer's dirty set reaches.  A winner is a pure
    // function of (network, cut sets, node), so the cached winner of a
    // clean node whose outside gates are clean too is byte-equal to what
    // re-evaluating it would produce, at any thread count.
    auto& cache = env.cache;
    const auto outside_clean = [&](const eval_winner& w) {
        for (uint8_t i = 0; i < w.num_outside; ++i) {
            const auto g = w.outside[i];
            if (g >= env.dirty.size() || env.dirty[g] != 0 || net.is_dead(g))
                return false;
        }
        return true;
    };
    std::vector<eval_winner> winners(nodes.size());
    std::vector<uint32_t> fresh; // indices into `nodes` needing evaluation
    fresh.reserve(nodes.size());
    {
        obs::trace::trace_span eval_span{"phase.evaluate"};
        for (size_t idx = 0; idx < nodes.size(); ++idx) {
            const auto n = nodes[idx];
            if (env.cache_valid && n < env.dirty.size() &&
                env.dirty[n] == 0 && n < cache.has_entry.size() &&
                cache.has_entry[n] != 0 &&
                outside_clean(cache.winners[n])) {
                winners[idx] = cache.winners[n];
                ++stats.nodes_clean;
            } else {
                fresh.push_back(static_cast<uint32_t>(idx));
            }
        }
        stats.nodes_evaluated += fresh.size();
        eval_span.set_arg(fresh.size());

        const auto& cuts = ctx.cuts();
        const auto& token = ctx.token;
        pool.parallel_for(0, fresh.size(), [&](size_t i, uint32_t worker) {
            if (token.stop_possible() && token.stop_requested())
                return; // leave the winner invalid; the round is discarded
            const auto idx = fresh[i];
            evaluate_node(net, cuts, source, ctx.scratch(worker),
                          allow_zero_gain, nodes[idx], winners[idx]);
        });
    }
    const auto& token = ctx.token;

    const auto collect_counters = [&](pass_scratch& sc) {
        stats.cuts_evaluated += std::exchange(sc.cuts_evaluated, 0);
        stats.classify_failures += std::exchange(sc.classify_failures, 0);
        stats.candidates_built += std::exchange(sc.candidates_built, 0);
    };
    for (uint32_t w = 0; w < workers; ++w)
        collect_counters(ctx.scratch(w));

    // A stop during evaluate discards the whole round before anything is
    // committed: a partially-scored winner array would make the committed
    // prefix depend on timing, and the network has not been touched yet —
    // dropping the round keeps uninterrupted runs bit-identical and the
    // interrupted one consistent.  The cache is poisoned by the same
    // partial scoring, so it resets too.
    if (token.stop_requested()) {
        cache.reset();
        stats.status = token.stop_reason();
        if (stats.status == outcome::ok)
            stats.status = outcome::cancelled;
        return;
    }

    // Store the freshly scored winners back by node id; the cache now
    // reflects the refresh this round started from (mc_rewrite_round
    // stamps the serial after the engine returns).
    if (cache.winners.size() < net.size()) {
        cache.winners.resize(net.size());
        cache.has_entry.resize(net.size(), 0);
    }
    for (const auto idx : fresh) {
        cache.winners[nodes[idx]] = winners[idx];
        cache.has_entry[nodes[idx]] = winners[idx].cacheable;
    }

    // ---- phase 2: sequential commit in node order.
    const obs::trace::trace_span commit_span{"phase.commit"};
    auto& sim = ctx.simulator();
    std::vector<signal> leaf_sigs;
    std::vector<uint32_t> support_nodes;
    std::vector<uint32_t> full_leaves;
    const auto leaves_intact = [&](const eval_winner& w) {
        for (uint8_t k = 0; k < w.num_cut_leaves; ++k) {
            const auto l = w.cut_leaves[k];
            if (net.is_dead(l) ||
                net.resolve(signal{l, false}) != signal{l, false})
                return false;
        }
        return true;
    };
    eval_winner rescored;
    for (const auto& scored_winner : winners) {
        // Between winners every commit is complete; stopping here keeps
        // the applied prefix (already equivalence-preserving) and drops
        // the rest.
        if (token.stop_possible() && token.stop_requested()) {
            stats.status = token.stop_reason();
            if (stats.status == outcome::ok)
                stats.status = outcome::cancelled;
            break;
        }
        if (!scored_winner.valid)
            continue;
        const auto n = scored_winner.node;
        if (net.is_dead(n))
            continue; // consumed by an earlier commit — next round's problem

        // Every leaf of the scored cut must still be exactly the node the
        // evaluation saw.  A leaf merged or freed by an earlier commit
        // invalidates both the function and the MFFC bound: the node is
        // then re-scored right here against the network as it now stands
        // (sequential and in node order, so still thread-count
        // independent), through worker 0's scratch.
        const eval_winner* wp = &scored_winner;
        if (!leaves_intact(scored_winner)) {
            rescored = {};
            evaluate_node(net, ctx.cuts(), source, ctx.scratch(0),
                          allow_zero_gain, n, rescored);
            if (!rescored.valid)
                continue;
            wp = &rescored;
        }
        const auto& w = *wp;
        full_leaves.assign(w.cut_leaves.begin(),
                           w.cut_leaves.begin() + w.num_cut_leaves);
        leaf_sigs.clear();
        support_nodes.clear();
        for (uint8_t s = 0; s < w.num_support; ++s) {
            const auto l = w.cut_leaves[w.support[s]];
            support_nodes.push_back(l);
            leaf_sigs.push_back(signal{l, false});
        }

        // Exact gain against the *current* network: the ANDs actually
        // created (structural hashing may have shared most of the
        // candidate) and the MFFC as it stands after the commits above.
        // Classification is a warm hit in the memo the evaluate phase
        // filled.
        const auto scored =
            build_scored_candidate(net, sim, source, w.function, leaf_sigs,
                                   support_nodes, full_leaves, n);
        if (!scored)
            continue;
        if (scored->sig.node() != n &&
            scored->gain > (allow_zero_gain ? -1 : 0)) {
            net.substitute(n, scored->sig);
            net.release_ref(net.resolve(scored->sig));
            ++stats.replacements;
        } else {
            net.release_ref(net.resolve(scored->sig));
        }
    }

    collect_counters(ctx.scratch(0)); // the commit phase's re-scoring
}

pass_stats finish_pass(pass_context& ctx, pass_stats ps, const xag& network,
                       std::chrono::steady_clock::time_point start)
{
    ps.after = stats_of(network);
    ps.seconds = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    ctx.history.push_back(ps);
    return ps;
}

} // namespace

// ---------------------------------------------------------- round engine

/// One round: network shape, memo- and database-traffic deltas, stage
/// timing, cut refresh into the context's arena (incremental across rounds
/// — only the previous round's dirty region is re-enumerated,
/// level-parallel on the worker pool), then the two-phase round above.
round_stats mc_rewrite_round(xag& network, pass_context& ctx,
                             const rewrite_params& params)
{
    const auto start = std::chrono::steady_clock::now();
    obs::trace::trace_span round_span{"round"};
    const candidate_source source{ctx.classification(), ctx.mc_db(),
                                  ctx.token};
    round_stats stats;
    stats.ands_before = network.num_ands();
    stats.xors_before = network.num_xors();
    const auto canon_hits0 = source.memo.hits();
    const auto canon_misses0 = source.memo.misses();
    const auto db_hits0 = source.db.hits();
    const auto db_misses0 = source.db.misses();

    // Exceptions from the layers below — cancelled_error unwinding out of
    // a cut sweep or a database build, an injected or organic fault from a
    // worker task — are converted to a typed round status right here, the
    // round boundary.  In every case the network itself is consistent:
    // substitutions are atomic and function-preserving, and the cut
    // maintainer invalidates itself when a sweep dies half-way (the next
    // round simply pays for a full rebuild).
    auto cuts_done = start;
    try {
        auto& maint = ctx.cut_maintenance();
        {
            const obs::trace::trace_span refresh_span{"phase.cut-refresh"};
            maint.refresh(
                network, ctx.cuts(),
                {.cut_size = params.cut_size, .cut_limit = params.cut_limit},
                &stats.cut_stats, &ctx.pool(params.num_threads), ctx.token);
        }
        cuts_done = std::chrono::steady_clock::now();
        stats.cut_seconds =
            std::chrono::duration<double>(cuts_done - start).count();

        // ---- incremental-evaluate handshake (docs/hot-path.md).  The
        // cache is consulted iff it was populated against this exact
        // network at the previous refresh serial, the refresh chain is
        // unbroken (this refresh was incremental, so its dirty set covers
        // the whole window since the entries were written), and every
        // parameter that shapes an evaluation matches.  Anything else
        // resets the cache; it repopulates this round and is usable the
        // next.  The thread count does not matter — winners are
        // thread-count independent.
        auto& cache = ctx.eval_cache();
        round_env env{.cache = cache};
        env.cache_valid = cache.net == &network &&
                          cache.cut_size == params.cut_size &&
                          cache.cut_limit == params.cut_limit &&
                          cache.allow_zero_gain == params.allow_zero_gain &&
                          maint.last_refresh_incremental() &&
                          cache.serial + 1 == maint.refresh_serial();
        if (env.cache_valid) {
            env.dirty = maint.evaluate_dirty();
        } else {
            cache.reset();
            cache.net = &network;
            cache.cut_size = params.cut_size;
            cache.cut_limit = params.cut_limit;
            cache.allow_zero_gain = params.allow_zero_gain;
        }

        run_two_phase_round(network, ctx, stats, params.allow_zero_gain,
                            params.num_threads, source, env);

        cache.serial = maint.refresh_serial();
    } catch (const cancelled_error& e) {
        stats.status = e.reason();
        ctx.cut_maintenance().invalidate();
        ctx.eval_cache().reset();
    } catch (const std::exception&) {
        stats.status = outcome::resource_exhausted;
        ctx.cut_maintenance().invalidate();
        ctx.eval_cache().reset();
    }

    stats.ands_after = network.num_ands();
    stats.xors_after = network.num_xors();
    const auto end = std::chrono::steady_clock::now();
    stats.rewrite_seconds =
        std::chrono::duration<double>(end - cuts_done).count();
    stats.seconds = std::chrono::duration<double>(end - start).count();
    stats.canon_cache_hits = source.memo.hits() - canon_hits0;
    stats.canon_cache_misses = source.memo.misses() - canon_misses0;
    stats.db_hits = source.db.hits() - db_hits0;
    stats.db_misses = source.db.misses() - db_misses0;

    static const auto rounds_metric = obs::register_metric("rewrite.rounds");
    static const auto replacements_metric =
        obs::register_metric("rewrite.replacements");
    static const auto cuts_metric =
        obs::register_metric("rewrite.cuts_evaluated");
    static const auto evaluated_metric =
        obs::register_metric("rewrite.nodes_evaluated");
    static const auto clean_metric =
        obs::register_metric("rewrite.nodes_clean");
    rounds_metric.add();
    replacements_metric.add(stats.replacements);
    cuts_metric.add(stats.cuts_evaluated);
    evaluated_metric.add(stats.nodes_evaluated);
    clean_metric.add(stats.nodes_clean);
    round_span.set_arg(stats.replacements);
    // A round cut short (deadline, cancellation, fault) leaves a marker at
    // the exact spot in the timeline; to_string yields a literal, which is
    // what the trace record stores.
    if (stats.status != outcome::ok)
        obs::trace::instant(to_string(stats.status));
    return stats;
}

// ----------------------------------------------------------------- passes

pass_stats mc_rewrite_pass::run(xag& network, pass_context& ctx) const
{
    const auto start = std::chrono::steady_clock::now();
    pass_stats ps;
    ps.pass_name = name();
    ps.before = stats_of(network);
    ps.num_threads = std::max(1u, params_.num_threads);
    auto& db = ctx.mc_db();
    const auto db_hits0 = db.hits();
    const auto db_misses0 = db.misses();
    // Repeat rounds until the AND count stops improving, or max_rounds_.
    for (uint32_t i = 0; i < max_rounds_; ++i) {
        obs::set_progress_round(i + 1);
        const auto stats = mc_rewrite_round(network, ctx, params_);
        ps.rounds.push_back(stats);
        if (stats.status != outcome::ok) {
            // The round was cut short — its counters do not mean "no more
            // gains", so this is a stop, not convergence.
            ps.status = stats.status;
            break;
        }
        if (stats.ands_after >= stats.ands_before) {
            ps.converged = true;
            break;
        }
    }
    ps.db_hits = db.hits() - db_hits0;
    ps.db_misses = db.misses() - db_misses0;
    ps.db_entries = db.size();
    ps.db_exact = db.exact_entries();
    ps.db_heuristic = db.heuristic_entries();
    return finish_pass(ctx, std::move(ps), network, start);
}

pass_stats xor_resynthesis_pass::run(xag& network, pass_context& ctx) const
{
    const auto start = std::chrono::steady_clock::now();
    pass_stats ps;
    ps.pass_name = name();
    ps.before = stats_of(network);
    xor_resynthesis_params xp;
    xp.token = ctx.token;
    xp.pool = &ctx.pool(num_threads_);
    ps.num_threads = xp.pool->num_workers();
    // A fault in the worker team (the pair-count seeding, which runs
    // before the network is touched) becomes the pass's typed status, as
    // in the rewrite rounds.
    xor_resynthesis_stats stats;
    try {
        stats = xor_resynthesis(network, xp);
    } catch (const cancelled_error& e) {
        stats.status = e.reason();
    } catch (const std::exception&) {
        stats.status = outcome::resource_exhausted;
    }
    ps.xor_blocks = stats.blocks;
    ps.xor_pairs_extracted = stats.pairs_extracted;
    ps.status = stats.status;
    ps.converged = stats.status == outcome::ok;
    return finish_pass(ctx, std::move(ps), network, start);
}

pass_stats cleanup_pass::run(xag& network, pass_context& ctx) const
{
    const auto start = std::chrono::steady_clock::now();
    pass_stats ps;
    ps.pass_name = name();
    ps.before = stats_of(network);
    network = cleanup(network);
    ps.converged = true;
    return finish_pass(ctx, std::move(ps), network, start);
}

} // namespace mcx
