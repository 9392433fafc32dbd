// Per-worker scratch state for the parallel rewrite round.
//
// The evaluate phase of the two-phase round (src/core/pass.cpp) runs one
// node per parallel_for index; everything a node evaluation mutates lives
// here, owned exclusively by one worker — so the phase needs no locking
// beyond the internal stripes of the shared stores (src/db/sharded_store.h):
//
//  * the batched cone simulator's epoch-stamped buffers (simulate all of
//    a node's cut functions, verify nothing — verification happens at
//    commit time on the main thread);
//  * the resolved-leaf pools, cut-function buffers and candidate-probe
//    buffers.
//
// The cut arena (pass_context::cuts()) stays shared: it is written once
// by cut enumeration before the phase starts and only read inside it.  The
// classification memo is shared too, one per context like the database
// (pass_context::classification()): each cut function is classified once,
// whichever worker asks first.
#pragma once

#include "xag/cone_batch.h"

#include <cstdint>
#include <vector>

namespace mcx {

struct pass_scratch {
    cone_simulator simulator;

    // Evaluate-phase buffers (capacity reused across nodes and rounds).
    std::vector<cone_simulator::leaf_set> resolved;
    std::vector<uint64_t> words;
    std::vector<uint64_t> chunk_words;
    std::vector<uint8_t> valid;

    // Candidate probe buffers (src/core/pass.cpp, splice_probe): the gates
    // a probed splice would add, the existing nodes they would reference,
    // the existing nodes found to reach the rewrite root, the root's cone
    // over the probed cut, and the existing gates outside that cone the
    // splice built on.
    struct probe_gate {
        signal a, b; ///< canonical fanins (XOR: uncomplemented)
        bool is_and = false;
        bool reaches_root = false;
    };
    std::vector<probe_gate> probe_gates;
    std::vector<uint32_t> probe_pins;
    std::vector<uint32_t> probe_reach;
    std::vector<uint32_t> probe_cone;
    std::vector<uint32_t> probe_outside;
    std::vector<uint32_t> probe_stack;

    // Per-worker partial round counters, summed after the phase joins
    // (each is a function of the node set alone, so the sums are
    // thread-count-independent).
    uint64_t cuts_evaluated = 0;
    uint64_t classify_failures = 0;
    uint64_t candidates_built = 0;
};

} // namespace mcx
