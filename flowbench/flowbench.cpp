// flowbench — one iteration of a whole-flow benchmark workload.  run.py
// drives it (one process per iteration, under a hard kill budget) and
// aggregates the iterations into the benchmark result; README.md in this
// directory describes the workloads and every metric.
//
//   flowbench --workload <name> --seed <n> --out <dir> [--trace-file <path>]
//   flowbench --probe     the two fixed host-speed probes
//   flowbench --host      compiler, build type and hardware threads
//
// An iteration drives the library through the same public API tools/mcx
// uses.  Set-up (generate every circuit, take its golden copy, build the
// pass_context and its worker pool) runs once, in a fresh process, and is
// timed (`setup_s`).  The timed run (`run_s`) then takes each circuit
// through the mc+xor flow (run_flow), cleanup, the equivalence check and
// write_bench_file.  After the run each written file is read back through
// src/io: the emitted network is what gets counted and checked again.
//
// With --trace-file the run records obs spans (the library's own plus one
// per module call made here) and writes them as a Chrome trace; afterwards
// the module replays run on each input network and the per-module metrics
// are added to the output.  Everything is printed as one JSON line.
#include "core/flow.h"
#include "core/xor_resynthesis.h"
#include "cut/cut_enumeration.h"
#include "gen/arithmetic.h"
#include "gen/des.h"
#include "io/bench.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sat/equivalence.h"
#include "spectral/classification.h"
#include "xag/cleanup.h"
#include "xag/cone_batch.h"
#include "xag/verify.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace {

using namespace mcx;
using steady = std::chrono::steady_clock;

double seconds_since(steady::time_point start)
{
    return std::chrono::duration<double>(steady::now() - start).count();
}

double process_cpu_seconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---------------------------------------------------------------- workloads

struct circuit_spec {
    std::string name; ///< generator spec as mcx spells it after "gen:"
    std::function<xag()> make;
    bool prove = false; ///< warm incremental_cec after the simulation check
};

/// Circuits run in order through ONE pass_context, so a later circuit sees
/// the database entries an earlier one synthesized (the paper's Table 1
/// protocol).  Why each workload exists is recorded in README.md.
struct workload {
    std::string name;
    std::vector<circuit_spec> circuits;
    uint32_t threads = 1; ///< two-phase engine workers (mcx --threads)
};

const std::vector<workload>& workloads()
{
    static const std::vector<workload> table = {
        {"des4-t1", {{"des:4", [] { return gen_des(4); }}}, 1},
        {"mult16-t4",
         {{"multiplier:16", [] { return gen_multiplier(16); }}},
         4},
        {"epfl-arith-t1",
         {{"sqrt:12", [] { return gen_sqrt(12); }},
          {"log2:12", [] { return gen_log2(12); }}},
         1},
        {"des3-cec", {{"des:3", [] { return gen_des(3); }, true}}, 1},
        // Seconds-long configuration for the benchmark's own test: one
        // circuit per check method (sampled, proof, exhaustive) and a
        // multi-worker pool.
        {"smoke",
         {{"des:2", [] { return gen_des(2); }},
          {"adder:16", [] { return gen_adder(16); }, true},
          {"sqrt:8", [] { return gen_sqrt(8); }}},
         2},
    };
    return table;
}

const workload* find_workload(const std::string& name)
{
    for (const auto& w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

constexpr const char* flow_spec = "mc+xor";
constexpr uint32_t random_sim_rounds = 64; ///< 64-pattern words, as mcx

// ------------------------------------------------------------------- JSON

/// Appends `"key": value` members to one flat JSON object.
class json_object {
public:
    void number(const char* key, double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        raw(key, buf);
    }
    void integer(const char* key, uint64_t value)
    {
        raw(key, std::to_string(value));
    }
    void boolean(const char* key, bool value)
    {
        raw(key, value ? "true" : "false");
    }
    void string(const char* key, const std::string& value)
    {
        raw(key, "\"" + value + "\"");
    }
    void raw(const std::string& key, const std::string& json)
    {
        body_ += body_.empty() ? "{" : ", ";
        body_ += "\"" + key + "\": " + json;
    }
    std::string str() const { return body_.empty() ? "{}" : body_ + "}"; }

private:
    std::string body_;
};

// ------------------------------------------------------------------ probes

/// Host-speed probes compiled into the benchmark, not the library, so a
/// library change cannot move them.  Each is a fixed amount of dependent
/// work; when the same probe reads slower, the host was slower.
double memory_probe(uint64_t& sink)
{
    // Pointer chase over a single random cycle of 4 Mi slots (16 MiB, well
    // past a 2 MiB L2): every hop is a dependent load that misses L2.
    constexpr uint32_t slots = 1u << 22;
    std::vector<uint32_t> next(slots);
    std::iota(next.begin(), next.end(), 0u);
    uint64_t state = 0x9e3779b97f4a7c15ull;
    for (uint32_t i = slots - 1; i > 0; --i) { // Sattolo: one cycle
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        std::swap(next[i], next[state % i]);
    }
    const auto start = steady::now();
    uint32_t p = 0;
    for (uint32_t hop = 0; hop < slots / 2; ++hop)
        p = next[p];
    const double s = seconds_since(start);
    sink += p;
    return s;
}

double alu_probe(uint64_t& sink)
{
    // A dependent xorshift chain: integer ALU latency only, no memory.
    uint64_t x = 88172645463325252ull;
    const auto start = steady::now();
    for (uint32_t i = 0; i < (1u << 26); ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    const double s = seconds_since(start);
    sink += x;
    return s;
}

// --------------------------------------------------------------- iteration

struct prepared {
    std::vector<xag> nets;    ///< optimized in place by the run
    std::vector<xag> goldens; ///< cleanup() of the input, never touched
    std::unique_ptr<pass_context> ctx;
    double gen_s = 0.0;
};

prepared prepare(const workload& w, const flow_params& params)
{
    prepared p;
    const auto gen_start = steady::now();
    for (const auto& c : w.circuits)
        p.nets.push_back(c.make());
    p.gen_s = seconds_since(gen_start);
    for (const auto& n : p.nets)
        p.goldens.push_back(cleanup(n));
    p.ctx = std::make_unique<pass_context>(context_params(params));
    p.ctx->pool(w.threads);
    return p;
}

/// Exhaustive where the network has at most 16 PIs, else seeded random
/// simulation — a sample, and labelled so.
bool simulation_check(const xag& a, const xag& b, uint64_t seed,
                      std::string& method)
{
    if (a.num_pis() <= 16) {
        method = "exhaustive";
        return exhaustive_equal(a, b);
    }
    method = "sampled";
    return random_simulation_equal(a, b, random_sim_rounds, seed);
}

/// Accumulates the wall time of one module call into `total` and records
/// it as an obs span (a no-op unless tracing is on).  Names must be string
/// literals, as for every obs span.
class module_call {
public:
    module_call(const char* name, double& total) : total_{total}, span_{name}
    {
    }
    module_call(const module_call&) = delete;
    module_call& operator=(const module_call&) = delete;
    ~module_call() { total_ += seconds_since(start_); }

private:
    double& total_;
    obs::trace::trace_span span_;
    steady::time_point start_ = steady::now();
};

struct module_times {
    double flow = 0, rewrite = 0, xor_pass = 0, cleanup = 0, check = 0,
           prove = 0, write = 0, read = 0;
    /// Every call made inside the run window, which is what a span covers.
    double covered() const { return flow + cleanup + check + prove + write; }
};

struct circuit_result {
    std::string check; ///< exhaustive | sampled | proof
    bool ok = false;   ///< every check of the emitted network passed
    xag_stats emitted{};
    xag_stats in_memory{};
    pass_stats rewrite, xor_pass;
    xag xor_input; ///< network entering the xor pass (traced runs only)
    std::vector<sat::verification_record> proof_records;
    uint64_t proof_rebuilds = 0, proof_session_reuses = 0;
};

// ------------------------------------------------------ per-module metrics

class layer_metrics {
public:
    void add(const char* name, double value, const char* unit)
    {
        json_object m;
        m.number("value", value);
        m.string("unit", unit);
        all_.raw(name, m.str());
    }
    std::string str() const { return all_.str(); }

private:
    json_object all_;
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// The module replays: the three modules that work inside a rewrite round
/// have their public entry points called once more, on the input network,
/// so their cost can be timed on its own.
struct replay_totals {
    double enum_s = 0, sim_s = 0, classify_s = 0, synth_s = 0;
    uint64_t cuts = 0, merged_pairs = 0, functions = 0, iterations = 0,
             failures = 0;
};

void replay_modules(const xag& input, const flow_params& params,
                    replay_totals& t)
{
    const cut_enumeration_params cp{.cut_size = params.rewrite.cut_size,
                                    .cut_limit = params.rewrite.cut_limit};
    cut_sets cuts;
    cut_enumeration_stats cs;
    auto start = steady::now();
    enumerate_cuts(input, cuts, cp, &cs);
    t.enum_s += seconds_since(start);
    t.cuts += cs.total_cuts;
    t.merged_pairs += cs.merged_pairs;

    std::vector<std::pair<uint32_t, std::vector<cone_simulator::leaf_set>>>
        requests;
    std::vector<truth_table> functions;
    for (uint32_t n = 0; n < input.size(); ++n) {
        if (!input.is_gate(n) || input.is_dead(n))
            continue;
        std::vector<cone_simulator::leaf_set> sets;
        for (const auto& c : cuts[n]) {
            if (c.num_leaves == 1 && c.leaves[0] == n)
                continue; // the trivial cut
            sets.emplace_back(c.leaf_span().begin(), c.leaf_span().end());
            functions.push_back(c.function_tt());
        }
        if (!sets.empty())
            requests.emplace_back(n, std::move(sets));
    }
    cone_simulator sim;
    std::vector<uint64_t> words;
    start = steady::now();
    for (const auto& [root, sets] : requests)
        sim.simulate_cuts(input, root, sets, words);
    t.sim_s += seconds_since(start);

    const auto by_value = [](const truth_table& a, const truth_table& b) {
        return std::pair{a.num_vars(), a.word()} <
               std::pair{b.num_vars(), b.word()};
    };
    const auto same = [](const truth_table& a, const truth_table& b) {
        return a.num_vars() == b.num_vars() && a.word() == b.word();
    };
    std::sort(functions.begin(), functions.end(), by_value);
    functions.erase(std::unique(functions.begin(), functions.end(), same),
                    functions.end());
    const classification_params clp{
        .iteration_limit = params.rewrite.classification_iteration_limit};
    std::vector<truth_table> representatives;
    start = steady::now();
    for (const auto& f : functions) {
        const auto r = classify_affine(f, clp);
        t.iterations += r.iterations;
        if (r.success)
            representatives.push_back(r.representative);
        else
            ++t.failures;
    }
    t.classify_s += seconds_since(start);
    t.functions += functions.size();

    std::sort(representatives.begin(), representatives.end(), by_value);
    representatives.erase(std::unique(representatives.begin(),
                                      representatives.end(), same),
                          representatives.end());
    mc_database db{params.rewrite.db};
    start = steady::now();
    for (const auto& r : representatives)
        db.lookup_or_build(r);
    t.synth_s += seconds_since(start);
}

void add_layer_metrics(layer_metrics& out, const workload& w,
                       const flow_params& params, prepared& prep,
                       const std::vector<circuit_result>& results,
                       const module_times& times, double run_s, double cpu_s,
                       uint64_t exact_conflicts, double evaluate_s,
                       double synthesize_s)
{
    // Flow counters, read from what the calls returned.
    uint64_t rounds = 0, evaluated = 0, clean = 0, candidates = 0,
             replacements = 0, and_reported = 0, canon_hits = 0,
             canon_misses = 0, reenumerated = 0, clean_cut_nodes = 0;
    uint64_t xor_blocks = 0, xor_pairs = 0, verify_conflicts = 0,
             verify_solves = 0, rebuilds = 0, reuses = 0;
    int64_t xor_saved = 0;
    double refresh_s = 0;
    for (const auto& r : results) {
        rounds += r.rewrite.rounds.size();
        for (const auto& rs : r.rewrite.rounds) {
            evaluated += rs.nodes_evaluated;
            clean += rs.nodes_clean;
            candidates += rs.candidates_built;
            replacements += rs.replacements;
            canon_hits += rs.canon_cache_hits;
            canon_misses += rs.canon_cache_misses;
            refresh_s += rs.cut_seconds;
            reenumerated += rs.cut_stats.reenumerated_nodes;
            clean_cut_nodes += rs.cut_stats.clean_nodes;
        }
        and_reported += r.rewrite.after.num_ands;
        xor_blocks += r.xor_pass.xor_blocks;
        xor_pairs += r.xor_pass.xor_pairs_extracted;
        xor_saved += static_cast<int64_t>(r.xor_pass.before.num_xors) -
                     static_cast<int64_t>(r.xor_pass.after.num_xors);
        for (const auto& rec : r.proof_records)
            verify_conflicts += rec.sat_conflicts;
        verify_solves += r.proof_records.size();
        rebuilds += r.proof_rebuilds;
        reuses += r.proof_session_reuses;
    }
    auto& ctx = *prep.ctx;
    uint64_t sim_nodes = ctx.simulator().nodes_evaluated();
    uint64_t sim_traversals = ctx.simulator().traversals();
    for (uint32_t worker = 0; worker < w.threads; ++worker) {
        sim_nodes += ctx.scratch(worker).simulator.nodes_evaluated();
        sim_traversals += ctx.scratch(worker).simulator.traversals();
    }
    auto& pool = ctx.pool(w.threads);
    uint64_t tasks = 0, steals = 0, idle = 0;
    for (uint32_t worker = 0; worker < pool.num_workers(); ++worker) {
        const auto s = pool.stats(worker);
        tasks += s.tasks;
        steals += s.steals;
        idle += s.idle;
    }
    auto& db = ctx.mc_db();

    // Replays: the xor pass once more on the network it saw (for the
    // xor_resynthesis_stats that pass_stats drops), then cut / simulate /
    // classify / synthesize on each input network.
    uint32_t widest_row = 0, rows_paired = 0, seed_workers = 0;
    for (const auto& r : results) {
        auto copy = r.xor_input;
        xor_resynthesis_params xp;
        xp.pool = &pool;
        const auto xs = xor_resynthesis(copy, xp);
        widest_row = std::max(widest_row, xs.widest_row);
        rows_paired += xs.rows_paired;
        seed_workers = std::max(seed_workers, xs.seed_workers);
    }
    replay_totals rt;
    for (const auto& g : prep.goldens)
        replay_modules(g, params, rt);

    constexpr const char* s = "s";
    constexpr const char* count = "count";
    constexpr const char* frac = "frac";
    const auto d = [](uint64_t v) { return static_cast<double>(v); };
    out.add("xag.sim_s", rt.sim_s, s);
    out.add("xag.sim_nodes", d(sim_nodes), count);
    out.add("xag.sim_traversals", d(sim_traversals), count);
    out.add("xag.sim_nodes_per_traversal",
            ratio(d(sim_nodes), d(sim_traversals)), count);
    out.add("xag.cleanup_s", times.cleanup, s);
    out.add("xag.check_s", times.check, s);
    out.add("core.rewrite_s", times.rewrite, s);
    out.add("core.evaluate_s", evaluate_s, s);
    out.add("core.rounds", d(rounds), count);
    out.add("core.nodes_evaluated", d(evaluated), count);
    out.add("core.clean_frac", ratio(d(clean), d(evaluated + clean)), frac);
    out.add("core.candidates", d(candidates), count);
    out.add("core.replacements", d(replacements), count);
    out.add("core.yield", ratio(d(replacements), d(candidates)), frac);
    out.add("core.and_reported", d(and_reported), count);
    out.add("cut.enum_s", rt.enum_s, s);
    out.add("cut.cuts", d(rt.cuts), count);
    out.add("cut.merged_pairs", d(rt.merged_pairs), count);
    out.add("cut.refresh_s", refresh_s, s);
    out.add("cut.reenumerated_nodes", d(reenumerated), count);
    out.add("cut.clean_nodes", d(clean_cut_nodes), count);
    out.add("spectral.classify_s", rt.classify_s, s);
    out.add("spectral.functions", d(rt.functions), count);
    out.add("spectral.iterations", d(rt.iterations), count);
    out.add("spectral.failures", d(rt.failures), count);
    out.add("spectral.cache_hit_rate",
            ratio(d(canon_hits), d(canon_hits + canon_misses)), frac);
    out.add("db.synth_s", rt.synth_s, s);
    out.add("db.misses", d(db.misses()), count);
    out.add("db.hit_rate", ratio(d(db.hits()), d(db.hits() + db.misses())),
            frac);
    out.add("db.exact", d(db.exact_entries()), count);
    out.add("db.heuristic", d(db.heuristic_entries()), count);
    out.add("exact.synth_s", synthesize_s, s);
    out.add("exact.sat_conflicts", d(exact_conflicts), count);
    out.add("core.xor_s", times.xor_pass, s);
    out.add("core.xor_blocks", d(xor_blocks), count);
    out.add("core.xor_pairs", d(xor_pairs), count);
    out.add("core.xor_saved", static_cast<double>(xor_saved), count);
    out.add("core.xor_widest_row", widest_row, count);
    out.add("core.xor_rows_paired", rows_paired, count);
    out.add("core.xor_seed_workers", seed_workers, count);
    out.add("par.tasks", d(tasks), count);
    out.add("par.steals", d(steals), count);
    out.add("par.idle", d(idle), count);
    out.add("par.util", ratio(cpu_s, run_s * w.threads), frac);
    out.add("sat.verify_s", times.prove, s);
    out.add("sat.verify_conflicts", d(verify_conflicts), count);
    out.add("sat.verify_solves", d(verify_solves), count);
    out.add("sat.verify_rebuilds", d(rebuilds), count);
    out.add("sat.session_reuses", d(reuses), count);
    out.add("gen.s", prep.gen_s, s);
    out.add("io.read_s", times.read, s);
    out.add("io.write_s", times.write, s);
    out.add("obs.unattributed_frac", ratio(run_s - times.covered(), run_s),
            frac);
}

uint64_t metric_total(const char* name)
{
    return obs::register_metric(name).value();
}

int run_iteration(const workload& w, uint64_t seed, const std::string& out_dir,
                  const std::string& trace_file)
{
    const bool traced = !trace_file.empty();
    {
        json_object start;
        start.string("workload", w.name);
        start.integer("circuits", w.circuits.size());
        std::printf("%s\n", start.str().c_str());
        std::fflush(stdout);
    }
    flow_params params;
    params.num_threads = w.threads;
    const flow f = make_flow(flow_spec, params);
    // A traced run splits the flow at the XOR pass, to keep the network
    // entering that pass for its replay.  The two halves run the same
    // passes in the same order on the same context.
    const flow rewrite_half = make_flow("mc", params);
    const flow xor_half = make_flow("xor", params);

    // ------------------------------------------------------------ set-up
    const auto setup_start = steady::now();
    prepared prep = prepare(w, params);
    const double setup_s = seconds_since(setup_start);

    // --------------------------------------------------------- timed run
    std::vector<circuit_result> results(w.circuits.size());
    std::vector<std::string> paths;
    for (const auto& c : w.circuits) {
        auto file = c.name;
        std::replace(file.begin(), file.end(), ':', '_');
        paths.push_back(out_dir + "/" + w.name + "-" + file + ".bench");
    }
    module_times times;
    pass_context& ctx = *prep.ctx;
    if (traced)
        obs::trace::enable(1u << 18);
    const double cpu_start = process_cpu_seconds();
    const auto run_start = steady::now();
    uint64_t exact_conflicts = 0;
    for (size_t i = 0; i < w.circuits.size(); ++i) {
        auto& r = results[i];
        xag& net = prep.nets[i];
        const uint64_t conflicts_at_flow = metric_total("sat.conflicts");
        std::vector<pass_stats> passes;
        {
            // run_flow opens the "flow" span itself.
            const auto start = steady::now();
            if (traced) {
                passes = run_flow(net, rewrite_half, ctx).passes;
                r.xor_input = net;
                for (auto& ps : run_flow(net, xor_half, ctx).passes)
                    passes.push_back(std::move(ps));
            } else {
                passes = run_flow(net, f, ctx).passes;
            }
            times.flow += seconds_since(start);
        }
        for (auto& ps : passes) {
            const bool is_xor = ps.pass_name == "xor-resynthesis";
            (is_xor ? times.xor_pass : times.rewrite) += ps.seconds;
            (is_xor ? r.xor_pass : r.rewrite) = std::move(ps);
        }
        // SAT runs during the flow only inside database-miss synthesis.
        exact_conflicts += metric_total("sat.conflicts") - conflicts_at_flow;
        xag optimized;
        {
            module_call call{"cleanup", times.cleanup};
            optimized = cleanup(net);
        }
        bool ok = false;
        {
            module_call call{"check", times.check};
            ok = simulation_check(optimized, prep.goldens[i], seed, r.check);
        }
        if (w.circuits[i].prove && ok) {
            module_call call{"prove", times.prove};
            sat::incremental_cec cec{prep.goldens[i]};
            ok = cec.check(optimized).result ==
                 sat::equivalence_result::equivalent;
            r.check = "proof";
            r.proof_records = cec.records();
            r.proof_rebuilds = cec.rebuilds();
            r.proof_session_reuses = cec.session_reuses();
        }
        {
            module_call call{"write", times.write};
            write_bench_file(optimized, paths[i]);
        }
        r.ok = ok;
        r.in_memory = stats_of(optimized);
    }
    const double run_s = seconds_since(run_start);
    const double cpu_s = process_cpu_seconds() - cpu_start;

    // Two library spans locate the flow's own evaluate and miss-synthesis
    // time, which no public call returns.
    double evaluate_s = 0, synthesize_s = 0;
    if (traced) {
        obs::trace::disable();
        auto events = obs::trace::collect();
        for (const auto& e : events) {
            const double s = 1e-9 * static_cast<double>(e.end_ns - e.start_ns);
            if (std::strcmp(e.name, "phase.evaluate") == 0)
                evaluate_s += s;
            else if (std::strcmp(e.name, "db.mc.synthesize") == 0)
                synthesize_s += s;
        }
        if (obs::trace::dropped() != 0)
            std::fprintf(stderr, "flowbench: %llu trace events dropped\n",
                         static_cast<unsigned long long>(obs::trace::dropped()));
        std::ofstream os{trace_file};
        if (!os)
            throw std::runtime_error{"cannot write trace " + trace_file};
        obs::trace::write_chrome_trace(os, std::move(events));
    }

    // ----------------------------------- read back, count, check again
    for (size_t i = 0; i < w.circuits.size(); ++i) {
        auto& r = results[i];
        xag emitted;
        {
            module_call call{"read", times.read};
            emitted = read_bench_file(paths[i]);
        }
        r.emitted = stats_of(emitted);
        std::string method;
        r.ok = r.ok && simulation_check(emitted, prep.goldens[i], seed, method);
    }

    json_object out;
    out.number("setup_s", setup_s);
    out.number("run_s", run_s);
    out.number("cpu_s", cpu_s);
    std::string circuits = "[";
    for (size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        json_object c;
        c.string("name", w.circuits[i].name);
        c.integer("pis", prep.goldens[i].num_pis());
        c.string("check", r.check);
        c.boolean("ok", r.ok);
        c.integer("and_after", r.emitted.num_ands);
        c.integer("xor_after", r.emitted.num_xors);
        c.integer("and_in_memory", r.in_memory.num_ands);
        c.integer("xor_in_memory", r.in_memory.num_xors);
        c.integer("and_reported", r.rewrite.after.num_ands);
        circuits += (i ? ", " : "") + c.str();
    }
    out.raw("circuits", circuits + "]");
    if (traced) {
        layer_metrics layers;
        add_layer_metrics(layers, w, params, prep, results, times, run_s,
                          cpu_s, exact_conflicts, evaluate_s, synthesize_s);
        out.raw("layers", layers.str());
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    out.integer("peak_rss_kb", static_cast<uint64_t>(usage.ru_maxrss));
    std::printf("%s\n", out.str().c_str());
    return 0;
}

void usage()
{
    std::fprintf(stderr,
                 "usage: flowbench --workload <name> --seed <n> --out <dir> "
                 "[--trace-file <path>]\n"
                 "       flowbench --probe | --host\n"
                 "workloads:");
    for (const auto& w : workloads())
        std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
}

} // namespace

int main(int argc, char** argv)
{
    std::string workload_name, out_dir, trace_file;
    uint64_t seed = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--probe") {
            uint64_t sink = 0;
            json_object out;
            out.number("mem_probe_s", memory_probe(sink));
            out.number("alu_probe_s", alu_probe(sink));
            out.integer("sink", sink);
            std::printf("%s\n", out.str().c_str());
            return 0;
        }
        if (arg == "--host") {
            json_object out;
            out.string("compiler", FLOWBENCH_COMPILER);
            out.string("build_type", FLOWBENCH_BUILD_TYPE);
            out.integer("nproc", std::thread::hardware_concurrency());
            std::printf("%s\n", out.str().c_str());
            return 0;
        }
        if (arg == "--workload" && has_value)
            workload_name = argv[++i];
        else if (arg == "--seed" && has_value)
            seed = std::strtoull(argv[++i], nullptr, 10);
        else if (arg == "--out" && has_value)
            out_dir = argv[++i];
        else if (arg == "--trace-file" && has_value)
            trace_file = argv[++i];
        else {
            usage();
            return 2;
        }
    }
    const workload* w = find_workload(workload_name);
    if (w == nullptr || out_dir.empty()) {
        usage();
        return 2;
    }
    try {
        return run_iteration(*w, seed, out_dir, trace_file);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "flowbench: %s\n", e.what());
        return 1;
    }
}
