// Database of AND-minimal XAGs per affine-class representative (paper §4.1).
//
// The paper ships a pre-computed database (NIST's SLP circuits for 147 998
// of all 150 357 6-input affine classes, 12 MB compressed), which is not in
// the repository.  In its place we ship a table of the small classes and
// synthesize the rest lazily:
//
//  * Shipped: the affine classes with support <= 5 that an enumeration of
//    the classes reaches at the default classification limit, at every
//    width from 2 to 6 inputs (src/db/mc_table.cpp, generated by
//    tools/gen_mc_table.cpp, not from any workload): all 2- and 3-input
//    classes, 7 of the 8 four-input and 40 of the 48 five-input classes,
//    and 37 of those 40 extended to 6 inputs.  A miss on one of these keys
//    deserializes its row; no SAT runs.
//  * Synthesized on a miss: every other key — full-support 6-input
//    classes and the support-<=-5 classes the enumeration did not reach —
//    exactly when the SAT search finishes within its conflict budget,
//    heuristically otherwise — and memoized.
//  * The table holds what `synthesize` builds under default params, so it
//    is consulted only by a database whose params equal the defaults; any
//    other params synthesize every miss.  Either way an entry, the
//    hit/miss counters and the flow's output are the same as if the entry
//    had been synthesized in-process.
//
// The database can be saved and reloaded so that, like the paper's file,
// it is "created once and reused for several rewriting calls".  Every
// entry is kept in its serialized form (what `load` and the table
// produce), so a reloaded database serves byte-identical circuits.
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
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mcx {

struct mc_database_params {
    bool use_exact = true;              ///< try SAT-based exact synthesis
    uint64_t exact_conflict_budget = 30'000; ///< per AND-count step

    bool operator==(const mc_database_params&) const = default;
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

    /// Circuit for a class representative (at most 6 variables); built and
    /// memoized on first use.  The entry map is itself the memo layer of
    /// the hot loop's final stage: a hit is a hash lookup, a miss reads the
    /// shipped table or runs `synthesize` once per class, ever — also under
    /// concurrent lookups (see the file comment).  The returned reference
    /// stays valid for the database's lifetime.
    ///
    /// A stopped `token` unwinds with `cancelled_error` instead of caching
    /// anything: a build interrupted mid-search must not be memoized as
    /// this class's answer (its slot is marked failed and rebuilt by the
    /// next uncancelled lookup).  A miss the table serves has no search to
    /// interrupt and returns its entry.  Genuine budget exhaustion is
    /// different — the heuristic fallback IS the answer under that budget
    /// and is cached, but never with `optimal` set.
    const entry& lookup_or_build(const truth_table& representative,
                                 const cancellation_token& token = {});

    /// The one entry builder: exact search under `params` (heuristic
    /// fallback when it finds no circuit), then the circuit's serialized
    /// form, `deserialize_single_output(serialize_single_output(c))`, with
    /// `num_ands` counted on it.  The miss path, the table generator and
    /// the tests all build through here.  Throws `cancelled_error` when
    /// `token` stopped the search.
    static entry synthesize(const truth_table& representative,
                            const mc_database_params& params = {},
                            const cancellation_token& token = {});

    size_t size() const { return entries_.size(); }
    /// Entries certified MC-optimal vs. the rest (heuristic fallbacks and
    /// budget-limited exact circuits), however they entered the database.
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

    /// Text serialization (one entry per line, `row` format).
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

    /// One line of the file format:
    /// "<num_vars> <hex> <num_ands> <optimal> <serialized circuit>".
    static std::string row(const truth_table& representative,
                           const entry& e);
    static std::pair<truth_table, entry> parse_row(const std::string& line);

private:
    /// Largest AND count the exact search tries before the heuristic.
    static constexpr uint32_t exact_max_ands = 6;

    void count(const entry& e);

    mc_database_params params_;
    sharded_store<truth_table, entry, truth_table_hash> entries_;
    std::atomic<uint64_t> exact_entries_{0};
    std::atomic<uint64_t> heuristic_entries_{0};
};

/// Serialize a single-output XAG as a compact token stream (used by the
/// database file format): "<num_pis> <num_gates> (<kind> <lit> <lit>)* <lit>".
/// Only gates the output reaches are written, in node-id order, so
/// serializing a deserialized text gives the same text back.  Throws
/// std::invalid_argument unless the network has one output and node ids
/// in topological order (true of any network not rewired by `substitute`).
std::string serialize_single_output(const xag& network);
xag deserialize_single_output(const std::string& text);

/// The shipped table (src/db/mc_table.cpp): `mc_database::row` lines of the
/// enumerated support-<=-5 keys, sorted by (num_vars, word), unique.
std::span<const std::string_view> mc_builtin_rows();

} // namespace mcx
