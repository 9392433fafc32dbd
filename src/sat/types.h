// Shared SAT-layer vocabulary: literals, solve results, per-solver stats
// and the solver's one construction-time setting (`sat_params`).
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

/// Per-solver configuration, fixed at construction.
///
/// `preprocess` enables the bounded one-shot preprocessor (subsumption +
/// self-subsumption + bounded variable elimination with model
/// reconstruction).  It is only sound for the build-once/solve pattern —
/// exact-synthesis encodings and cold CEC miters — and must stay off for
/// warm incremental sessions that keep adding clauses and solving under
/// assumptions (`incremental_cec`, `cone_verifier`).
struct sat_params {
    bool preprocess = false;
};

} // namespace mcx::sat
