// Database of gate-count-minimal XAGs per NPN-4 representative: the
// pre-computed structures behind the generic size-optimization baseline
// (DESIGN.md substitution X2).
//
// Like mc_database, storage is a sharded_store: thread-safe striped
// lookups with once-per-class miss synthesis (docs/parallel.md).
#pragma once

#include "db/sharded_store.h"
#include "tt/truth_table.h"
#include "xag/xag.h"

#include <cstdint>

namespace mcx {

struct size_database_params {
    uint64_t exact_conflict_budget = 30'000;
};

class size_database {
public:
    struct entry {
        xag circuit; ///< representative circuit: k PIs, 1 PO
        uint32_t num_gates = 0;
        bool optimal = false;
    };

    explicit size_database(size_database_params params = {}) : params_{params}
    {
        entries_.set_metrics(obs::register_metric("db.size.hit"),
                             obs::register_metric("db.size.miss"));
    }

    /// Circuit for an NPN representative (at most 4 variables).
    /// Thread-safe; synthesized once per class, reference valid for the
    /// database's lifetime.  A stopped `token` unwinds with
    /// `cancelled_error` instead of caching a half-searched answer (see
    /// mc_database::lookup_or_build).
    const entry& lookup_or_build(const truth_table& representative,
                                 const cancellation_token& token = {});

    size_t size() const { return entries_.size(); }
    /// Lookups served from the memoized entries vs. synthesis runs (a
    /// lookup waiting on an in-flight synthesis counts as a hit).
    uint64_t hits() const { return entries_.hits(); }
    uint64_t misses() const { return entries_.misses(); }

private:
    /// Largest gate count the exact search tries before the heuristic.
    static constexpr uint32_t exact_max_gates = 10;

    size_database_params params_;
    sharded_store<truth_table, entry, truth_table_hash> entries_;
};

} // namespace mcx
