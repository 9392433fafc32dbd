// Shared SAT-layer vocabulary: literals, solve results, per-solver stats,
// and the engine-selection contract (`sat_engine` / `sat_params`).
//
// Two CDCL engines live behind the `sat::solver` facade (src/sat/solver.h):
// the modern arena-based core (src/sat/modern_solver.h) and the original
// vector-of-clauses solver retained verbatim as the differential oracle
// (src/sat/legacy_solver.h).  Consumers pick an engine per solver through
// `sat_params::engine`; every production consumer uses the modern default,
// and the differential tests and benches pick legacy explicitly.
#pragma once

#include <cstdint>

namespace mcx::sat {

/// A literal: variable index with sign bit in the LSB.
class literal {
public:
    constexpr literal() = default;
    constexpr literal(uint32_t var, bool negative)
        : code_{(var << 1) | static_cast<uint32_t>(negative)} {}

    static constexpr literal from_code(uint32_t code)
    {
        literal l;
        l.code_ = code;
        return l;
    }

    constexpr uint32_t var() const { return code_ >> 1; }
    constexpr bool negative() const { return (code_ & 1) != 0; }
    constexpr uint32_t code() const { return code_; }
    constexpr literal operator~() const
    {
        literal l;
        l.code_ = code_ ^ 1;
        return l;
    }
    constexpr bool operator==(const literal&) const = default;

private:
    uint32_t code_ = 0;
};

enum class solve_result : uint8_t { satisfiable, unsatisfiable, undecided };

struct solver_stats {
    uint64_t conflicts = 0;
    uint64_t decisions = 0;
    uint64_t propagations = 0;
    uint64_t restarts = 0;
    uint64_t learnt_removed = 0;
};

/// Which CDCL core backs a `sat::solver`.
enum class sat_engine : uint8_t { modern, legacy };

/// Stable name for reports ("modern" / "legacy").
const char* engine_name(sat_engine engine);

/// Restart schedule of the modern core (legacy always uses Luby).
enum class restart_policy : uint8_t { ema, luby };

/// Per-solver configuration, fixed at construction.
///
/// `preprocess` enables the modern core's bounded one-shot preprocessor
/// (subsumption + self-subsumption + bounded variable elimination with
/// model reconstruction).  It is only sound for the build-once/solve
/// pattern — exact-synthesis encodings and cold CEC miters — and must stay
/// off for warm incremental sessions that keep adding clauses and solving
/// under assumptions (`incremental_cec`, `cone_verifier`).  The legacy
/// engine has no preprocessor and ignores the flag.
struct sat_params {
    sat_engine engine = sat_engine::modern;
    bool preprocess = false;
    restart_policy restarts = restart_policy::ema;
};

} // namespace mcx::sat
