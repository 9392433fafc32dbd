// mcx — the command-line front end of the optimizer: parse a circuit
// (BENCH, Bristol fashion, or a built-in generator), run a named flow of
// passes over one shared pass_context, verify equivalence against the
// unoptimized network, write the result (BENCH/Bristol/Verilog), and emit
// a per-pass JSON report.
//
//   $ mcx --flow mc+xor circuit.bench -o optimized.bench --report r.json
//   $ mcx --flow mc gen:adder:64
//   $ mcx --flow cleanup+mc --bristol input.txt -o out.txt
//   $ mcx --deadline 30 --flow mc gen:md5 -o best_effort.bench
//   $ mcx --list-gens
//
// Execution is resource-governed (docs/robustness.md): `--deadline` bounds
// the whole flow, `--pass-deadline` each pass, and SIGINT/SIGTERM request
// the same cooperative stop.  On any limit the flow halts at the next
// commit boundary, the network committed so far is equivalence-verified
// and emitted, and the JSON report records the outcome per pass.
//
// Exit codes (the contract ci.sh and scripts rely on):
//   0  success — equivalence verified; includes best-effort results under
//      a limit unless --on-limit=fail
//   1  failure — verification failed, input unreadable/malformed, or an
//      internal fault; with --on-limit=fail also any limit hit
//   2  usage error — bad flags, unknown generator/pass/mode
#include "core/budget.h"
#include "core/fault_inject.h"
#include "core/flow.h"
#include "gen/aes.h"
#include "gen/arithmetic.h"
#include "gen/control.h"
#include "gen/des.h"
#include "gen/hashes.h"
#include "gen/lightweight.h"
#include "io/bench.h"
#include "io/bristol.h"
#include "io/verilog.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sat/equivalence.h"
#include "xag/cleanup.h"
#include "xag/depth.h"
#include "xag/verify.h"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace mcx;

// ------------------------------------------------------------- generators

struct generator_entry {
    const char* name;
    const char* usage; ///< e.g. "adder:<bits>"
    std::function<xag(const std::vector<uint32_t>&)> make;
};

/// The unsigned decimal `text` as a full 64-bit value, or nothing if
/// `text` is not one; callers range-check it before narrowing.
std::optional<uint64_t> parse_number(const std::string& text)
{
    try {
        size_t consumed = 0;
        const auto n = std::stoull(text, &consumed);
        if (consumed == text.size())
            return n;
    } catch (const std::exception&) {
    }
    return std::nullopt;
}

uint32_t arg_at(const std::vector<uint32_t>& args, size_t i, uint32_t dflt)
{
    return i < args.size() ? args[i] : dflt;
}

xag make_aes_sbox()
{
    xag net;
    std::array<signal, 8> in;
    for (auto& s : in)
        s = net.create_pi();
    for (const auto s : aes_sbox_circuit(net, in))
        net.create_po(s);
    return net;
}

const std::vector<generator_entry>& generators()
{
    using A = const std::vector<uint32_t>&;
    static const std::vector<generator_entry> table = {
        // arithmetic
        {"adder", "adder:<bits>", [](A a) { return gen_adder(arg_at(a, 0, 32)); }},
        {"multiplier", "multiplier:<bits>",
         [](A a) { return gen_multiplier(arg_at(a, 0, 8)); }},
        {"square", "square:<bits>", [](A a) { return gen_square(arg_at(a, 0, 8)); }},
        {"divisor", "divisor:<bits>",
         [](A a) { return gen_divisor(arg_at(a, 0, 8)); }},
        {"log2", "log2:<bits>", [](A a) { return gen_log2(arg_at(a, 0, 8)); }},
        {"sqrt", "sqrt:<bits>", [](A a) { return gen_sqrt(arg_at(a, 0, 8)); }},
        {"sine", "sine:<bits>", [](A a) { return gen_sine(arg_at(a, 0, 8)); }},
        {"max", "max:<bits>[:<words>]",
         [](A a) { return gen_max(arg_at(a, 0, 8), arg_at(a, 1, 4)); }},
        {"barrel-shifter", "barrel-shifter:<bits>",
         [](A a) { return gen_barrel_shifter(arg_at(a, 0, 8)); }},
        {"comparator-lt", "comparator-lt:<bits>",
         [](A a) { return gen_comparator_lt_unsigned(arg_at(a, 0, 8)); }},
        {"comparator-leq", "comparator-leq:<bits>",
         [](A a) { return gen_comparator_leq_unsigned(arg_at(a, 0, 8)); }},
        {"int2float", "int2float",
         [](A) { return gen_int2float(); }},
        // control
        {"decoder", "decoder:<address-bits>",
         [](A a) { return gen_decoder(arg_at(a, 0, 4)); }},
        {"priority-encoder", "priority-encoder:<requests>",
         [](A a) { return gen_priority_encoder(arg_at(a, 0, 8)); }},
        {"arbiter", "arbiter:<requests>",
         [](A a) { return gen_round_robin_arbiter(arg_at(a, 0, 8)); }},
        {"voter", "voter:<inputs>", [](A a) { return gen_voter(arg_at(a, 0, 7)); }},
        {"alu-control", "alu-control", [](A) { return gen_alu_control(); }},
        {"router", "router", [](A) { return gen_xy_router(); }},
        // crypto
        {"aes-sbox", "aes-sbox", [](A) { return make_aes_sbox(); }},
        {"aes128", "aes128", [](A) { return gen_aes128(); }},
        {"des", "des:<rounds>", [](A a) { return gen_des(arg_at(a, 0, 16)); }},
        {"des-expanded", "des-expanded:<rounds>",
         [](A a) { return gen_des_expanded(arg_at(a, 0, 16)); }},
        {"md5", "md5", [](A) { return gen_md5(); }},
        {"sha1", "sha1", [](A) { return gen_sha1(); }},
        {"sha256", "sha256", [](A) { return gen_sha256(); }},
        {"simon", "simon:<word-bits>[:<rounds>]",
         [](A a) { return gen_simon(arg_at(a, 0, 16), arg_at(a, 1, 32)); }},
        {"keccak", "keccak:<lane-bits>",
         [](A a) { return gen_keccak_f(arg_at(a, 0, 8)); }},
    };
    return table;
}

/// Nothing for an unknown generator name; throws std::invalid_argument
/// for an argument that is not a number in 0..2^32-1.
std::optional<xag> make_generator_circuit(const std::string& spec)
{
    // spec = gen:<name>[:<uint>...]
    std::vector<std::string> parts;
    size_t begin = 0;
    while (begin <= spec.size()) {
        const auto end = spec.find(':', begin);
        parts.push_back(spec.substr(begin, end == std::string::npos
                                               ? std::string::npos
                                               : end - begin));
        if (end == std::string::npos)
            break;
        begin = end + 1;
    }
    if (parts.size() < 2 || parts[0] != "gen")
        return std::nullopt;
    std::vector<uint32_t> args;
    for (size_t i = 2; i < parts.size(); ++i) {
        const auto n = parse_number(parts[i]);
        if (!n || *n > UINT32_MAX)
            throw std::invalid_argument{"generator argument '" + parts[i] +
                                        "' is not a number in 0.." +
                                        std::to_string(UINT32_MAX)};
        args.push_back(static_cast<uint32_t>(*n));
    }
    for (const auto& g : generators())
        if (parts[1] == g.name)
            return g.make(args);
    return std::nullopt;
}

// ------------------------------------------------------------------- JSON

void json_xag_stats(FILE* f, const char* key, const xag_stats& s)
{
    std::fprintf(f,
                 "\"%s\": {\"pis\": %u, \"pos\": %u, \"ands\": %u, "
                 "\"xors\": %u}",
                 key, s.num_pis, s.num_pos, s.num_ands, s.num_xors);
}

std::string json_escape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

void write_report(const std::string& path, const std::string& input,
                  const flow_result& result, bool verified,
                  const std::string& verify_method, const char* verify_label,
                  const std::vector<sat::verification_record>& verify_checks,
                  const sat::equivalence_report* proof)
{
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "error: cannot write report %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\n  \"tool\": \"mcx\",\n  \"flow\": \"%s\",\n",
                 result.flow_name.c_str());
    std::fprintf(f, "  \"input\": \"%s\",\n", json_escape(input).c_str());
    std::fprintf(f, "  ");
    json_xag_stats(f, "before", result.before);
    std::fprintf(f, ",\n  ");
    json_xag_stats(f, "after", result.after);
    std::fprintf(f, ",\n  \"iterations\": %u,\n  \"total_seconds\": %.4f,\n",
                 result.iterations, result.seconds);
    std::fprintf(f, "  \"outcome\": \"%s\",\n  \"limit_hit\": %s,\n",
                 to_string(result.status),
                 result.limit_hit ? "true" : "false");
    std::fprintf(f, "  \"passes\": [\n");
    for (size_t i = 0; i < result.passes.size(); ++i) {
        const auto& p = result.passes[i];
        std::fprintf(f, "    {\"name\": \"%s\", \"seconds\": %.4f, "
                     "\"threads\": %u, \"outcome\": \"%s\", ",
                     p.pass_name.c_str(), p.seconds, p.num_threads,
                     to_string(p.status));
        json_xag_stats(f, "before", p.before);
        std::fprintf(f, ", ");
        json_xag_stats(f, "after", p.after);
        std::fprintf(f, ", \"converged\": %s", p.converged ? "true" : "false");
        if (p.pass_name == "mc-rewrite")
            std::fprintf(
                f,
                ", \"db\": {\"hits\": %llu, \"misses\": %llu, "
                "\"entries\": %llu, \"exact\": %llu, \"heuristic\": %llu}",
                static_cast<unsigned long long>(p.db_hits),
                static_cast<unsigned long long>(p.db_misses),
                static_cast<unsigned long long>(p.db_entries),
                static_cast<unsigned long long>(p.db_exact),
                static_cast<unsigned long long>(p.db_heuristic));
        if (p.pass_name == "xor-resynthesis")
            std::fprintf(f, ", \"blocks\": %u, \"pairs_extracted\": %u",
                         p.xor_blocks, p.xor_pairs_extracted);
        if (!p.rounds.empty()) {
            std::fprintf(f, ", \"rounds\": [\n");
            for (size_t r = 0; r < p.rounds.size(); ++r) {
                const auto& rs = p.rounds[r];
                std::fprintf(
                    f,
                    "      {\"ands_before\": %u, \"ands_after\": %u, "
                    "\"cuts_evaluated\": %llu, \"candidates_built\": %llu, "
                    "\"replacements\": %llu, \"seconds\": %.4f, "
                    "\"cut_seconds\": %.4f, \"rewrite_seconds\": %.4f, "
                    "\"cut_nodes_reenumerated\": %llu, "
                    "\"cut_nodes_clean\": %llu, "
                    "\"nodes_evaluated\": %llu, \"nodes_clean\": %llu, "
                    "\"canon_cache_hit_rate\": %.4f, \"db_hits\": %llu, "
                    "\"db_misses\": %llu}%s\n",
                    rs.ands_before, rs.ands_after,
                    static_cast<unsigned long long>(rs.cuts_evaluated),
                    static_cast<unsigned long long>(rs.candidates_built),
                    static_cast<unsigned long long>(rs.replacements),
                    rs.seconds, rs.cut_seconds, rs.rewrite_seconds,
                    static_cast<unsigned long long>(
                        rs.cut_stats.reenumerated_nodes),
                    static_cast<unsigned long long>(
                        rs.cut_stats.clean_nodes),
                    static_cast<unsigned long long>(rs.nodes_evaluated),
                    static_cast<unsigned long long>(rs.nodes_clean),
                    rs.canon_cache_hit_rate(),
                    static_cast<unsigned long long>(rs.db_hits),
                    static_cast<unsigned long long>(rs.db_misses),
                    r + 1 < p.rounds.size() ? "," : "");
            }
            std::fprintf(f, "    ]");
        }
        std::fprintf(f, "}%s\n", i + 1 < result.passes.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    // Registry totals and process stats (docs/observability.md): every
    // counter any subsystem registered, merged across threads.
    const auto metrics = obs::metrics_snapshot();
    std::fprintf(f, "  \"metrics\": {");
    for (size_t i = 0; i < metrics.size(); ++i)
        std::fprintf(f, "%s\n    \"%s\": %llu", i != 0 ? "," : "",
                     metrics[i].name.c_str(),
                     static_cast<unsigned long long>(metrics[i].value));
    std::fprintf(f, "\n  },\n");
    const auto process = obs::read_process_stats();
    std::fprintf(f,
                 "  \"process\": {\"peak_rss_bytes\": %llu, "
                 "\"cpu_seconds\": %.4f, \"wall_seconds\": %.4f},\n",
                 static_cast<unsigned long long>(process.peak_rss_bytes),
                 process.cpu_seconds, process.wall_seconds);
    std::fprintf(f,
                 "  \"verified\": %s,\n  \"verify_method\": \"%s\",\n"
                 "  \"verify_label\": \"%s\"",
                 verified ? "true" : "false", verify_method.c_str(),
                 verify_label);
    if (proof != nullptr) {
        // The incremental CEC (--verify sat): how the candidate was
        // merged into the golden encoding, then the per-output solves.
        // The sweep's conflicts plus the checks' add up to
        // solver_conflicts.  Schema in docs/artifacts.md.
        const auto& sw = proof->sweep;
        std::fprintf(
            f,
            ",\n  \"verification\": {\"solver_conflicts\": %llu,\n"
            "    \"sweep\": {\"strash_hits\": %llu, \"pairs_tried\": %llu, "
            "\"merged\": %llu, \"refuted\": %llu, \"sat_conflicts\": %llu},\n"
            "    \"checks\": [\n",
            static_cast<unsigned long long>(proof->stats.conflicts),
            static_cast<unsigned long long>(sw.strash_hits),
            static_cast<unsigned long long>(sw.pairs_tried),
            static_cast<unsigned long long>(sw.merged),
            static_cast<unsigned long long>(sw.refuted),
            static_cast<unsigned long long>(sw.conflicts));
        for (size_t i = 0; i < verify_checks.size(); ++i) {
            const auto& c = verify_checks[i];
            std::fprintf(f,
                         "    {\"index\": %u, \"sat_conflicts\": %llu, "
                         "\"warm_start\": %s}%s\n",
                         c.index,
                         static_cast<unsigned long long>(c.sat_conflicts),
                         c.warm_start ? "true" : "false",
                         i + 1 < verify_checks.size() ? "," : "");
        }
        std::fprintf(f, "  ]}");
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
}

// --------------------------------------------------------------- progress

/// Opt-in --progress heartbeat: a background thread samples the obs
/// registry and progress state every ~500 ms and prints one line to
/// stderr.  It only ever reads (relaxed counters, published pass/round),
/// so it cannot perturb the optimization or the report; stdout stays
/// untouched.
class progress_reporter {
public:
    progress_reporter(bool enabled, double deadline_seconds)
        : deadline_seconds_{deadline_seconds}
    {
        if (enabled)
            thread_ = std::thread{[this] { loop(); }};
    }

    ~progress_reporter()
    {
        {
            std::lock_guard lock{mutex_};
            stop_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable())
            thread_.join();
    }

private:
    void loop()
    {
        const auto start = std::chrono::steady_clock::now();
        const auto evaluated =
            obs::register_metric("rewrite.nodes_evaluated");
        const auto mc_miss = obs::register_metric("db.mc.miss");
        std::unique_lock lock{mutex_};
        while (!cv_.wait_for(lock, std::chrono::milliseconds{500},
                             [this] { return stop_; })) {
            const auto [pass, round] = obs::progress_state();
            const auto elapsed =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            char deadline[32] = "";
            if (deadline_seconds_ > 0.0)
                std::snprintf(deadline, sizeof deadline, "/%.0fs",
                              deadline_seconds_);
            std::fprintf(stderr,
                         "progress: pass=%s round=%u evaluated=%llu "
                         "db_misses=%llu elapsed=%.1fs%s\n",
                         pass != nullptr ? pass : "-", round,
                         static_cast<unsigned long long>(evaluated.value()),
                         static_cast<unsigned long long>(mc_miss.value()),
                         elapsed, deadline);
        }
    }

    double deadline_seconds_;
    bool stop_ = false;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::thread thread_;
};

// -------------------------------------------------------------------- CLI

/// Keep this text in sync with the quickstart table in README.md — ci.sh
/// smoke-asserts that the flags used there appear here.
void usage(FILE* out)
{
    std::fprintf(
        out,
        "usage: mcx [options] <input>\n"
        "\n"
        "input:\n"
        "  <file>.bench            BENCH netlist\n"
        "  <file>.txt|.bristol     Bristol-fashion circuit (implies --bristol)\n"
        "  gen:<name>[:<arg>...]   built-in generator (see --list-gens)\n"
        "\n"
        "flow options:\n"
        "  --flow <spec>           '+'-separated passes: mc, xor, cleanup\n"
        "                          (default: mc)\n"
        "  --rounds <n>            max rounds per rewrite pass (default 100)\n"
        "  --cut-size <k>          cut size 2..6 (default 6)\n"
        "  --cut-limit <l>         cuts kept per node, >= 1 (default 12)\n"
        "  --zero-gain             accept zero-gain replacements\n"
        "  --iterate               repeat the flow until AND convergence\n"
        "  -j, --threads <n>       run the passes on n workers (default 1;\n"
        "                          output is bit-identical for any n — see\n"
        "                          docs/parallel.md)\n"
        "\n"
        "resource limits (docs/robustness.md):\n"
        "  --deadline <sec>        wall-clock budget for the whole flow; on\n"
        "                          expiry the flow stops at the next commit\n"
        "                          boundary and emits the best verified\n"
        "                          network so far.  SIGINT/SIGTERM trigger\n"
        "                          the same cooperative stop.  A --verify\n"
        "                          sat check still running at expiry is\n"
        "                          undecided (exit 1)\n"
        "  --pass-deadline <sec>   wall-clock budget per pass; a pass that\n"
        "                          overruns degrades to best-effort while\n"
        "                          the rest of the flow still runs\n"
        "  --on-limit <mode>       best-effort (default): a limit hit still\n"
        "                          exits 0 with the report flagged | fail:\n"
        "                          exit 1 when any limit was hit\n"
        "\n"
        "output and verification:\n"
        "  -o, --output <file>     write result (.bench/.v/.txt by extension)\n"
        "  --bristol               Bristol-fashion input (and output)\n"
        "  --verify <m>            sim (default) | sat (incremental\n"
        "                          CEC, one solver across outputs) |\n"
        "                          none; the summary line says proved,\n"
        "                          sampled (sim above 16 inputs) or\n"
        "                          unverified.  A sat check that\n"
        "                          --deadline or a signal stops while it\n"
        "                          runs is undecided (exit 1, no output);\n"
        "                          one started after the flow stopped runs\n"
        "                          to a verdict\n"
        "  --report <file>         per-pass JSON report (see docs/artifacts.md)\n"
        "  --seed <n>              random-simulation seed (default 1)\n"
        "\n"
        "observability (docs/observability.md):\n"
        "  --trace <file>          Chrome trace-event JSON of the run — load\n"
        "                          in Perfetto or chrome://tracing; one lane\n"
        "                          per worker.  Tracing never changes the\n"
        "                          optimized output\n"
        "  --progress              periodic progress line on stderr (pass,\n"
        "                          round, nodes evaluated, db misses,\n"
        "                          elapsed/deadline)\n"
        "\n"
        "info:\n"
        "  --list-gens             list built-in generators\n"
        "  --list-flows            list pass names\n"
        "  -h, --help              this text\n"
        "\n"
        "exit codes: 0 success (equivalence verified; includes best-effort\n"
        "            under a limit), 1 failure (verification/input/fault,\n"
        "            or limit hit with --on-limit fail), 2 usage error\n");
}

struct options {
    std::string input;
    std::string output;
    std::string report;
    std::string trace_path;
    std::string flow_spec = "mc";
    std::string verify = "sim";
    bool bristol = false;
    bool iterate = false;
    bool progress = false;
    bool fail_on_limit = false; ///< --on-limit fail
    double deadline_seconds = 0.0;
    double pass_deadline_seconds = 0.0;
    uint64_t seed = 1;
    flow_params params;
};

// Exit codes of the documented contract (header comment + usage()).
constexpr int exit_ok = 0;
constexpr int exit_failure = 1;
constexpr int exit_usage = 2;

bool ends_with(const std::string& s, const char* suffix)
{
    const auto n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// How strong the equivalence check behind `method` was, for the summary
/// line and the report: a proof, a random sample, nothing, or a SAT check
/// that stopped before it decided.
const char* verify_label(const std::string& method, bool undecided)
{
    if (undecided)
        return "undecided";
    if (method == "none")
        return "unverified";
    return method == "random-simulation" ? "sampled" : "proved";
}

} // namespace

int main(int argc, char** argv)
{
    options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
                std::exit(exit_usage);
            }
            return argv[++i];
        };
        // Range-checked on the 64-bit value, so a caller may narrow it.
        const auto next_number = [&](uint64_t lo = 0,
                                     uint64_t hi = UINT64_MAX) -> uint64_t {
            const char* value = next();
            const auto n = parse_number(value);
            if (!n) {
                std::fprintf(stderr, "error: %s needs a number, got '%s'\n",
                             arg.c_str(), value);
                std::exit(exit_usage);
            }
            if (*n < lo || *n > hi) {
                std::fprintf(stderr,
                             "error: %s needs a value in %llu..%llu, got "
                             "'%s'\n",
                             arg.c_str(), static_cast<unsigned long long>(lo),
                             static_cast<unsigned long long>(hi), value);
                std::exit(exit_usage);
            }
            return *n;
        };
        const auto next_seconds = [&]() -> double {
            const char* value = next();
            try {
                size_t consumed = 0;
                const auto s = std::stod(value, &consumed);
                if (consumed != std::strlen(value) || s <= 0.0)
                    throw std::invalid_argument{value};
                return s;
            } catch (const std::exception&) {
                std::fprintf(stderr,
                             "error: %s needs a positive number of seconds, "
                             "got '%s'\n",
                             arg.c_str(), value);
                std::exit(exit_usage);
            }
        };
        const auto parse_on_limit = [&](const std::string& mode) {
            if (mode == "best-effort")
                opt.fail_on_limit = false;
            else if (mode == "fail")
                opt.fail_on_limit = true;
            else {
                std::fprintf(stderr,
                             "error: --on-limit needs best-effort|fail, got "
                             "'%s'\n",
                             mode.c_str());
                std::exit(exit_usage);
            }
        };
        if (arg == "--flow")
            opt.flow_spec = next();
        else if (arg == "--rounds")
            opt.params.max_rounds =
                static_cast<uint32_t>(next_number(0, UINT32_MAX));
        else if (arg == "--cut-size")
            opt.params.rewrite.cut_size =
                static_cast<uint32_t>(next_number(2, 6));
        else if (arg == "--cut-limit")
            opt.params.rewrite.cut_limit =
                static_cast<uint32_t>(next_number(1, UINT32_MAX));
        else if (arg == "--zero-gain")
            opt.params.rewrite.allow_zero_gain = true;
        else if (arg == "--iterate")
            opt.iterate = true;
        else if (arg == "-j" || arg == "--threads")
            opt.params.num_threads =
                static_cast<uint32_t>(next_number(1, UINT32_MAX));
        else if (arg == "--deadline")
            opt.deadline_seconds = next_seconds();
        else if (arg == "--pass-deadline")
            opt.pass_deadline_seconds = next_seconds();
        else if (arg == "--on-limit")
            parse_on_limit(next());
        else if (arg.rfind("--on-limit=", 0) == 0)
            parse_on_limit(arg.substr(std::strlen("--on-limit=")));
        else if (arg == "-o" || arg == "--output")
            opt.output = next();
        else if (arg == "--bristol")
            opt.bristol = true;
        else if (arg == "--verify") {
            opt.verify = next();
            if (opt.verify != "sim" && opt.verify != "sat" &&
                opt.verify != "none") {
                std::fprintf(stderr,
                             "error: --verify needs sim|sat|none, got '%s'\n",
                             opt.verify.c_str());
                return exit_usage;
            }
        } else if (arg == "--report")
            opt.report = next();
        else if (arg == "--trace")
            opt.trace_path = next();
        else if (arg == "--progress")
            opt.progress = true;
        else if (arg == "--seed")
            opt.seed = next_number();
        else if (arg == "--list-gens") {
            for (const auto& g : generators())
                std::printf("gen:%s\n", g.usage);
            return 0;
        } else if (arg == "--list-flows") {
            for (const auto& name : flow_pass_names())
                std::printf("%s\n", name.c_str());
            std::printf("(join with '+', e.g. --flow mc+xor)\n");
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "error: unknown option '%s' (see --help)\n",
                         arg.c_str());
            return exit_usage;
        } else
            opt.input = arg;
    }
    if (opt.input.empty()) {
        std::fprintf(stderr, "error: no input given\n\n");
        usage(stderr);
        return exit_usage;
    }
    opt.params.iterate_until_convergence = opt.iterate;

    // Deterministic fault injection (tests/CI only; inert without the env
    // var).  A malformed schedule is a usage error.
    try {
        fault_injection::configure_from_env();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: bad MCX_FAULT_INJECT schedule: %s\n",
                     e.what());
        return exit_usage;
    }

    // SIGINT/SIGTERM and --deadline share one cooperative stop channel:
    // the signal source's token, narrowed by the flow deadline.
    install_signal_cancellation();
    opt.params.token =
        signal_cancellation().token().with_timeout(opt.deadline_seconds);
    opt.params.pass_deadline_seconds = opt.pass_deadline_seconds;

    // Validate the flow spec before touching the input: a bad spec is a
    // usage error, not an optimization failure.
    flow f;
    try {
        f = make_flow(opt.flow_spec, opt.params);
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "error: %s (see --list-flows)\n", e.what());
        return exit_usage;
    }

    try {
        // ------------------------------------------------------- read input
        xag net;
        if (opt.input.rfind("gen:", 0) == 0) {
            std::optional<xag> made;
            try {
                made = make_generator_circuit(opt.input);
            } catch (const std::invalid_argument& e) {
                std::fprintf(stderr, "error: %s\n", e.what());
                return exit_usage;
            }
            if (!made) {
                std::fprintf(stderr,
                             "error: unknown generator spec '%s' "
                             "(see --list-gens)\n",
                             opt.input.c_str());
                return exit_usage;
            }
            net = std::move(*made);
        } else if (opt.bristol || ends_with(opt.input, ".txt") ||
                   ends_with(opt.input, ".bristol")) {
            net = read_bristol_file(opt.input);
            opt.bristol = true;
        } else {
            net = read_bench_file(opt.input);
        }
        const auto golden = cleanup(net);
        std::printf("read %s: %u PIs, %u POs, %u AND, %u XOR, "
                    "mult. depth %u\n",
                    opt.input.c_str(), net.num_pis(), net.num_pos(),
                    net.num_ands(), net.num_xors(), and_depth(net));

        // --------------------------------------------------------- run flow
        // Tracing covers the flow and the verification below (SAT solves
        // included); it observes only, so the optimized network is
        // byte-identical with or without it (tests/obs_test.cpp).
        if (!opt.trace_path.empty())
            obs::trace::enable();
        pass_context ctx{context_params(opt.params)};
        flow_result result;
        {
            const progress_reporter reporter{opt.progress,
                                             opt.deadline_seconds};
            result = run_flow(net, f, ctx);
        }
        if (result.limit_hit)
            std::fprintf(stderr,
                         "note: limit hit (%s); the emitted network is the "
                         "best-effort state at the last commit boundary\n",
                         result.status == outcome::ok
                             ? "pass deadline"
                             : to_string(result.status));
        for (const auto& p : result.passes)
            std::printf("  pass %-16s %5u -> %5u AND, %6u -> %6u XOR "
                        "(%.2fs%s)\n",
                        p.pass_name.c_str(), p.before.num_ands,
                        p.after.num_ands, p.before.num_xors, p.after.num_xors,
                        p.seconds,
                        p.rounds.empty()
                            ? ""
                            : (", " + std::to_string(p.rounds.size()) +
                               " rounds")
                                  .c_str());

        auto optimized = cleanup(net);

        // ----------------------------------------------------------- verify
        bool verified = true;
        std::string method = "none";
        std::vector<sat::verification_record> verify_checks;
        std::optional<sat::equivalence_report> proof;
        // Why a SAT check stopped short of a verdict (empty: it decided).
        std::string undecided;
        const auto decide = [&](const sat::equivalence_report& report,
                                const cancellation_token& token) {
            verified = report.result == sat::equivalence_result::equivalent;
            if (report.result == sat::equivalence_result::undecided)
                undecided = token.stop_requested()
                                ? to_string(token.stop_reason())
                                : "solver budget exhausted";
        };
        if (opt.verify != "none") {
            if (optimized.num_pis() <= 16) {
                verified = exhaustive_equal(optimized, golden);
                method = "exhaustive";
            } else {
                verified =
                    random_simulation_equal(optimized, golden, 64, opt.seed);
                method = "random-simulation";
            }
            if (verified && opt.verify == "sat") {
                // One solver for the check: the golden CNF, the optimized
                // network merged into it, and every output decided under
                // assumptions (src/sat/equivalence.h).  The check obeys only stops that arrive while it runs, so
                // a flow that its deadline or a signal already stopped
                // still gets its best-effort network verified: after the
                // deadline only a signal stops the check, after a signal
                // nothing does (a second one kills the process).
                const auto signals = signal_cancellation().token();
                const cancellation_token token =
                    !opt.params.token.stop_requested() ? opt.params.token
                    : !signals.stop_requested()        ? signals
                                                       : cancellation_token{};
                sat::incremental_cec cec{golden};
                proof = cec.check(optimized, 0, token);
                decide(*proof, token);
                verify_checks = cec.records();
                method = "sat";
            }
        }

        if (!opt.trace_path.empty()) {
            // All parallel work has joined (the pool is idle between
            // jobs), so the rings are quiescent and safe to drain.
            obs::trace::disable();
            std::ofstream trace_os{opt.trace_path};
            if (!trace_os) {
                std::fprintf(stderr, "error: cannot write trace %s\n",
                             opt.trace_path.c_str());
            } else {
                obs::trace::write_chrome_trace(trace_os,
                                               obs::trace::collect());
                std::printf("wrote trace %s (%llu events dropped)\n",
                            opt.trace_path.c_str(),
                            static_cast<unsigned long long>(
                                obs::trace::dropped()));
            }
        }
        if (!opt.report.empty())
            write_report(opt.report, opt.input, result, verified, method,
                         verify_label(method, !undecided.empty()),
                         verify_checks, proof ? &*proof : nullptr);
        if (!undecided.empty()) {
            std::fprintf(stderr, "verification undecided (%s)\n",
                         undecided.c_str());
            return exit_failure;
        }
        if (!verified) {
            std::fprintf(stderr,
                         "FAIL: optimized network is NOT equivalent (%s)\n",
                         method.c_str());
            return exit_failure;
        }

        // ------------------------------------------------------------ write
        if (!opt.output.empty()) {
            if (opt.bristol || ends_with(opt.output, ".txt") ||
                ends_with(opt.output, ".bristol"))
                write_bristol_file(optimized, opt.output);
            else if (ends_with(opt.output, ".v"))
                write_verilog_file(optimized, opt.output);
            else
                write_bench_file(optimized, opt.output);
            std::printf("wrote %s\n", opt.output.c_str());
        }
        // Both ends count emitted gates: `golden` is the cleaned input,
        // while `result.before` also counts the input's dangling gates.
        std::printf("flow '%s': %u -> %u AND, %u -> %u XOR, mult. depth %u "
                    "(%.2fs, %u iteration%s; %s)\n",
                    result.flow_name.c_str(), golden.num_ands(),
                    optimized.num_ands(), golden.num_xors(),
                    optimized.num_xors(), and_depth(optimized),
                    result.seconds, result.iterations,
                    result.iterations == 1 ? "" : "s",
                    verify_label(method, false));
        if (result.limit_hit && opt.fail_on_limit)
            return exit_failure;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return exit_failure;
    }
    return exit_ok;
}
