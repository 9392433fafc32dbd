#include "db/size_database.h"

#include "core/fault_inject.h"
#include "exact/exact_size.h"
#include "exact/heuristic_mc.h"
#include "obs/trace.h"

namespace mcx {

const size_database::entry& size_database::lookup_or_build(
    const truth_table& representative, const cancellation_token& token)
{
    return entries_.lookup_or_build(
        representative,
        [&](const truth_table& rep) {
            fault_injection::fire(fault_site::db_build);
            const obs::trace::trace_span span{"db.size.synthesize"};
            static const auto synthesized =
                obs::register_metric("db.size.synthesize");
            synthesized.add();
            entry e;
            const auto exact = exact_size_synthesis(
                rep, {.max_gates = params_.exact_max_gates,
                      .conflict_budget = params_.exact_conflict_budget,
                      .token = token});
            if (exact.success) {
                e.circuit = exact.circuit;
                e.num_gates = exact.num_gates;
                e.optimal = exact.optimal;
            } else {
                // A cancelled search must not be memoized (see
                // mc_database); a budget-exhausted one falls back to the
                // MC heuristic, which still yields a correct (if larger)
                // structure, cached with optimal = false.
                throw_if_stopped(token);
                e.circuit = heuristic_mc_circuit(rep);
                e.num_gates = e.circuit.num_gates();
                e.optimal = false;
            }
            return e;
        },
        token);
}

} // namespace mcx
