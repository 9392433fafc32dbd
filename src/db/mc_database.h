// Database of AND-minimal XAGs per affine-class representative (paper §4.1).
//
// The paper ships a pre-computed database (NIST's SLP circuits for 147 998
// of all 150 357 6-input affine classes, 12 MB compressed).  We build the
// same mapping lazily instead (DESIGN.md substitution X1): on a miss the
// representative is synthesized — exactly when the SAT search finishes
// within its conflict budget, heuristically otherwise — and memoized.  The
// database can be serialized and reloaded so that, like the paper's file,
// it is "created once and reused for several rewriting calls".
//
// Storage is a sharded_store (src/db/sharded_store.h): lookups are
// thread-safe behind striped locks, and a missed class is synthesized
// exactly once — concurrent misses of different classes run their
// exact-SAT searches in parallel while lookups of a class being built
// wait for it (the parallel rewrite round's requirement, docs/parallel.md).
#pragma once

#include "db/sharded_store.h"
#include "exact/exact_mc.h"
#include "tt/truth_table.h"
#include "xag/xag.h"

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace mcx {

struct mc_database_params {
    bool use_exact = true;              ///< try SAT-based exact synthesis
    uint32_t exact_max_ands = 6;
    uint64_t exact_conflict_budget = 30'000; ///< per AND-count step
};

class mc_database {
public:
    struct entry {
        xag circuit; ///< representative circuit: k PIs, 1 PO
        uint32_t num_ands = 0;
        bool optimal = false; ///< certified MC-optimal by exact synthesis
    };

    explicit mc_database(mc_database_params params = {}) : params_{params}
    {
        entries_.set_metrics(obs::register_metric("db.mc.hit"),
                             obs::register_metric("db.mc.miss"));
    }

    // Movable (load_file returns by value); the atomic counters need the
    // explicit member-wise move.  Not meant to be moved while other
    // threads are using the source.
    mc_database(mc_database&& other) noexcept
        : params_{other.params_}, entries_{std::move(other.entries_)},
          exact_entries_{other.exact_entries()},
          heuristic_entries_{other.heuristic_entries()}
    {
    }
    mc_database& operator=(mc_database&& other) noexcept
    {
        params_ = other.params_;
        entries_ = std::move(other.entries_);
        exact_entries_.store(other.exact_entries());
        heuristic_entries_.store(other.heuristic_entries());
        return *this;
    }

    /// Circuit for a class representative (at most 6 variables); synthesized
    /// and memoized on first use.  The entry map is itself the memo layer of
    /// the hot loop's final stage: a hit is a hash lookup, a miss runs
    /// exact/heuristic synthesis once per class, ever — also under
    /// concurrent lookups (see the file comment).  The returned reference
    /// stays valid for the database's lifetime.
    ///
    /// A stopped `token` unwinds with `cancelled_error` instead of caching
    /// anything: a build interrupted mid-search must not be memoized as
    /// this class's answer (its slot is marked failed and rebuilt by the
    /// next uncancelled lookup).  Genuine budget exhaustion is different —
    /// the heuristic fallback IS the answer under that budget and is
    /// cached, but never with `optimal` set.
    const entry& lookup_or_build(const truth_table& representative,
                                 const cancellation_token& token = {});

    size_t size() const { return entries_.size(); }
    uint64_t exact_entries() const
    {
        return exact_entries_.load(std::memory_order_relaxed);
    }
    uint64_t heuristic_entries() const
    {
        return heuristic_entries_.load(std::memory_order_relaxed);
    }
    /// Lookups served from the memoized entries vs. synthesis runs.  A
    /// lookup that waits for another thread's in-flight synthesis counts
    /// as a hit, so these totals are thread-count-independent.
    uint64_t hits() const { return entries_.hits(); }
    uint64_t misses() const { return entries_.misses(); }

    /// Text serialization (one entry per line).
    void save(std::ostream& os) const;
    void save_file(const std::string& path) const;
    static mc_database load(std::istream& is, mc_database_params params = {});
    static mc_database load_file(const std::string& path,
                                 mc_database_params params = {});

    /// The paper's XAG_DB representation (§4.1): all entries merged into
    /// one strashed network with 6 inputs and one output per
    /// representative.  Returns the network and the representative served
    /// by each output, in output order.
    struct combined_xag {
        xag network;
        std::vector<truth_table> representatives;
    };
    combined_xag export_combined() const;

private:
    mc_database_params params_;
    sharded_store<truth_table, entry, truth_table_hash> entries_;
    std::atomic<uint64_t> exact_entries_{0};
    std::atomic<uint64_t> heuristic_entries_{0};
};

/// Serialize a single-output XAG as a compact token stream (used by the
/// database file format): "<num_pis> <num_gates> (<kind> <lit> <lit>)* <lit>".
std::string serialize_single_output(const xag& network);
xag deserialize_single_output(const std::string& text);

} // namespace mcx
