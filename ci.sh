#!/usr/bin/env bash
# CI entry point: tier-1 verify (build + ctest), the shipped MC table
# regeneration check, the micro-benchmark smoke run, a tools/mcx flow
# smoke test, CLI usage checks, and a documentation link check.
#
# bench_micro_core exits non-zero if the word-parallel fast paths regress
# below their speedup gates (cut enumeration >= 2x, classify >= 4x,
# batched cone simulation >= 1x vs. per-cut cone_function on the
# enumerated cuts of adder64 and des4) and emits
# BENCH_micro_core.json with per-stage ns/op, cache hit rates, and the
# A/B numbers (schema: docs/artifacts.md).
#
# The flow smoke test runs `mcx --flow mc+xor` on one generator circuit and
# on one BENCH file (produced by the tool itself, so the BENCH parser is on
# the path); mcx exits non-zero when the post-flow equivalence check fails,
# which gates CI.  The per-pass JSON reports are left in the workspace as
# artifacts (FLOW_smoke_gen.json / FLOW_smoke_bench.json).
set -euo pipefail
cd "$(dirname "$0")"

cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j"$(nproc)"
# The test-only references (tests/oracle/, the mcx_oracle target) must not
# slip back into the production library.
oracle_symbols='legacy_solver|enumerate_cuts_scalar|check_equivalence'
oracle_symbols+='|cone_verifier|encode_cones'
oracle_symbols+='|classify_affine_baseline|npn_canonize_baseline'
oracle_symbols+='|extract_pairs_reference'
if nm -C build/libmcx.a | grep -E "$oracle_symbols"; then
    echo "ci.sh: libmcx.a contains a test-only oracle symbol" >&2
    exit 1
fi
(cd build && ctest --output-on-failure -j"$(nproc)")

# The shipped MC table (src/db/mc_table.cpp) is generated data: the
# generator, run from the class enumeration, must reproduce the committed
# file byte for byte.
./build/tools/gen_mc_table build/mc_table.cpp
cmp build/mc_table.cpp src/db/mc_table.cpp || {
    echo "ci.sh: src/db/mc_table.cpp is stale" \
         "(regenerate it with ./build/tools/gen_mc_table src/db/mc_table.cpp" \
         "and commit)" >&2
    exit 1
}

# The committed BENCH_micro_core.json is reference data; regenerating it
# must not change the schema (a bench that grows or renames keys has to
# commit the regenerated file alongside the code, docs/artifacts.md).
json_keys() { grep -oE '"[a-z_0-9]+":' "$1" | sort -u; }
json_keys BENCH_micro_core.json >build/bench_keys_committed.txt
./build/bench_micro_core
json_keys BENCH_micro_core.json >build/bench_keys_fresh.txt
diff -u build/bench_keys_committed.txt build/bench_keys_fresh.txt || {
    echo "ci.sh: BENCH_micro_core.json is stale" \
         "(regenerate it with ./build/bench_micro_core and commit)" >&2
    exit 1
}

# Flow smoke: generator input, then BENCH round-trip of the same circuit.
./build/tools/mcx --flow mc+xor gen:adder:16 \
    -o build/adder16_opt.bench --report FLOW_smoke_gen.json
./build/tools/mcx --flow cleanup gen:adder:16 -o build/adder16.bench
# The summary line counts emitted gates at both ends: cleanup only drops
# log2's dangling gates, so its AND count must not change.
grep -qE ': ([0-9]+) -> \1 AND,' \
    <(./build/tools/mcx --flow cleanup gen:log2:12) || {
    echo "ci.sh: mcx --flow cleanup changed the AND count of gen:log2:12" >&2
    exit 1
}
./build/tools/mcx --flow mc+xor build/adder16.bench \
    -o build/adder16_bench_opt.bench --report FLOW_smoke_bench.json

# SAT verification of an iterated flow: the report must carry the
# per-output solver records (every report has per-round keys, so only the
# verification block itself shows the proof ran), the sweep's conflicts
# plus the checks' must add up to the solver's total, and the trace must
# show the proof's two phases and their solves.
./build/tools/mcx --flow mc+xor --iterate --verify sat gen:adder:16 \
    -o build/adder16_satwarm.bench --report FLOW_smoke_sat.json \
    --trace build/adder16_sat_trace.json
python3 - FLOW_smoke_sat.json build/adder16_sat_trace.json <<'PY' || {
import json, sys
with open(sys.argv[2]) as f:
    names = {e["name"] for e in json.load(f)["traceEvents"]}
for required in ["sat.sweep", "sat.outputs", "sat.solve"]:
    assert required in names, f"trace lacks a {required!r} span"
with open(sys.argv[1]) as f:
    verification = json.load(f).get("verification", {})
checks = verification.get("checks", [])
assert checks, "no verification.checks records"
for c in checks:
    missing = {"index", "sat_conflicts", "warm_start"} - c.keys()
    assert not missing, f"check record {c} lacks {sorted(missing)}"
sweep = verification["sweep"]
for key in ["strash_hits", "pairs_tried", "merged", "refuted",
            "sat_conflicts"]:
    assert key in sweep, f"verification.sweep lacks {key}"
total = sweep["sat_conflicts"] + sum(c["sat_conflicts"] for c in checks)
assert total == verification["solver_conflicts"], \
    f"sweep + checks = {total} != {verification['solver_conflicts']}"
PY
    echo "ci.sh: --verify sat report or trace lacks consistent solver" \
         "records" >&2
    exit 1
}

# Proof at scale: structural hashing and SAT sweeping prove 16-round DES
# in seconds (a plain output miter did not finish in 300 s).
des16_log=$(timeout 60 ./build/tools/mcx --flow mc+xor --threads 4 \
    --verify sat gen:des:16) && grep -q 'proved' <<<"$des16_log" || {
    echo "ci.sh: --verify sat did not prove des:16 within 60 s" >&2
    exit 1
}

# The SAT proof only verifies: a non-iterated --verify sat run must be
# byte-identical to the default simulation-checked run.
./build/tools/mcx --flow mc+xor --verify sat gen:adder:16 \
    -o build/adder16_sat.bench >/dev/null
cmp build/adder16_opt.bench build/adder16_sat.bench || {
    echo "ci.sh: --verify sat run output differs from the default" >&2
    exit 1
}

# Parallel flow smoke (docs/parallel.md determinism contract): the
# default run (one worker) must be bit-identical to explicit --threads 1
# and --threads 4 runs — on adder16, on aes128, whose XOR pass has a
# binding pairing budget, on des4, the first deep circuit of the set, on
# multiplier16, whose 494 admitted XOR rows are seeded on the team, on
# md5, whose converging rewrite rounds re-score only the gates whose cut
# cones saw a commit, and for the XOR pass alone on md5, whose wide
# accumulator rows lie beyond the pairing budget.
./build/tools/mcx --flow mc+xor --threads 4 gen:adder:16 \
    -o build/adder16_par4.bench --report FLOW_smoke_par.json
./build/tools/mcx --flow mc+xor --threads 1 gen:adder:16 \
    -o build/adder16_par1.bench
./build/tools/mcx --flow mc+xor gen:aes128 -o build/aes128_opt.bench
./build/tools/mcx --flow mc+xor --threads 1 gen:aes128 \
    -o build/aes128_par1.bench
./build/tools/mcx --flow mc+xor --threads 4 gen:aes128 \
    -o build/aes128_par4.bench
./build/tools/mcx --flow mc+xor gen:des:4 -o build/des4_opt.bench
./build/tools/mcx --flow mc+xor --threads 1 gen:des:4 \
    -o build/des4_par1.bench
./build/tools/mcx --flow mc+xor --threads 4 gen:des:4 \
    -o build/des4_par4.bench
./build/tools/mcx --flow mc+xor gen:multiplier:16 \
    -o build/mult16_opt.bench
./build/tools/mcx --flow mc+xor --threads 1 gen:multiplier:16 \
    -o build/mult16_par1.bench
./build/tools/mcx --flow mc+xor --threads 4 gen:multiplier:16 \
    -o build/mult16_par4.bench
./build/tools/mcx --flow mc+xor gen:md5 -o build/md5_opt.bench \
    --report build/md5_report.json
./build/tools/mcx --flow mc+xor --threads 1 gen:md5 \
    -o build/md5_par1.bench
./build/tools/mcx --flow mc+xor --threads 4 gen:md5 \
    -o build/md5_par4.bench
./build/tools/mcx --flow xor gen:md5 -o build/md5_xor.bench
./build/tools/mcx --flow xor --threads 1 gen:md5 -o build/md5_xor_par1.bench
./build/tools/mcx --flow xor --threads 4 gen:md5 -o build/md5_xor_par4.bench
for pair in adder16_opt:adder16_par1 adder16_opt:adder16_par4 \
            aes128_opt:aes128_par1 aes128_opt:aes128_par4 \
            des4_opt:des4_par1 des4_opt:des4_par4 \
            mult16_opt:mult16_par1 mult16_opt:mult16_par4 \
            md5_opt:md5_par1 md5_opt:md5_par4 \
            md5_xor:md5_xor_par1 md5_xor:md5_xor_par4; do
    cmp "build/${pair%%:*}.bench" "build/${pair##*:}.bench" || {
        echo "ci.sh: ${pair##*:} output differs from the default run" >&2
        exit 1
    }
done
# The evaluate dirty set (docs/hot-path.md, "What counts as dirty") holds
# only gates with a change in one of their cut cones: after md5's first
# two rounds each rewrite round re-scores a few hundred of its 38.8k gates
# (37k+ when the set was the whole transitive fanout of every change).
python3 - build/md5_report.json <<'PY' || {
import json, sys
rounds = json.load(open(sys.argv[1]))["passes"][0]["rounds"]
late = [r["nodes_evaluated"] for r in rounds[2:]]
print("md5 rewrite rounds, nodes_evaluated:",
      [r["nodes_evaluated"] for r in rounds])
sys.exit(0 if late and max(late) < 1000 else 1)
PY
    echo "ci.sh: md5 rewrite rounds after the second evaluate >= 1000 nodes" >&2
    exit 1
}
grep -q '"threads": 4' FLOW_smoke_par.json || {
    echo "ci.sh: FLOW_smoke_par.json lacks the per-pass thread count" >&2
    exit 1
}
# Report reproducibility (docs/artifacts.md, "Schedule-dependent keys"):
# a second --threads 4 report of the same run must equal the first once
# timings and exactly the listed schedule-dependent keys are removed.
./build/tools/mcx --flow mc+xor --threads 4 gen:adder:16 \
    --report build/adder16_par4_again.json >/dev/null
python3 - FLOW_smoke_par.json build/adder16_par4_again.json <<'PY' || {
import json, sys
TIMINGS = {"total_seconds", "seconds", "cut_seconds", "rewrite_seconds",
           "process"}
SCHEDULED = {"pool.steals"}
def strip(x):
    if isinstance(x, dict):
        return {k: strip(v) for k, v in x.items()
                if k not in TIMINGS | SCHEDULED}
    if isinstance(x, list):
        return [strip(v) for v in x]
    return x
first, second = (strip(json.load(open(p))) for p in sys.argv[1:])
assert first == second, "reports differ"
PY
    echo "ci.sh: two --threads 4 reports differ beyond timings and the" \
         "schedule-dependent keys" >&2
    exit 1
}

# Observability smoke (docs/observability.md).  --trace must emit a
# Perfetto-loadable Chrome trace-event JSON with the flow/pass/round/phase
# span hierarchy and per-worker lanes, and must not perturb the
# optimization (byte-identical output next to the untraced run above).
./build/tools/mcx --flow mc+xor --threads 4 \
    --trace build/adder16_trace.json gen:adder:16 \
    -o build/adder16_traced.bench >/dev/null
cmp build/adder16_opt.bench build/adder16_traced.bench || {
    echo "ci.sh: --trace changed the optimized output" >&2
    exit 1
}
python3 - build/adder16_trace.json <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
names = {e["name"] for e in events}
for required in ["process_name", "flow", "mc-rewrite", "round",
                 "phase.evaluate", "phase.commit", "pool.task",
                 "xor-resynthesis", "phase.xor-expand", "phase.xor-seed",
                 "phase.xor-pair", "phase.xor-rebuild", "spectral.classify"]:
    assert required in names, f"trace lacks a {required!r} event"
begins = sum(1 for e in events if e["ph"] == "B")
ends = sum(1 for e in events if e["ph"] == "E")
assert begins == ends and begins > 0, f"unbalanced B/E: {begins}/{ends}"
lanes = {e["tid"] for e in events if "tid" in e}
assert len(lanes) >= 2, f"expected >= 2 worker lanes, got {sorted(lanes)}"
PY
# The report carries the merged metrics registry, process stats, and the
# per-pass database traffic block (schemas: docs/artifacts.md) — and must
# still be valid JSON.
grep -q '"metrics"' FLOW_smoke_gen.json || {
    echo "ci.sh: flow report lacks the metrics block" >&2
    exit 1
}
grep -q '"process"' FLOW_smoke_gen.json || {
    echo "ci.sh: flow report lacks the process-stats block" >&2
    exit 1
}
grep -q '"db"' FLOW_smoke_gen.json || {
    echo "ci.sh: flow report lacks the per-pass db block" >&2
    exit 1
}
python3 -c 'import json; json.load(open("FLOW_smoke_gen.json"))'

# --progress writes periodic status to stderr only; the report and the
# emitted network must be untouched by it.
./build/tools/mcx --flow mc+xor --progress gen:adder:16 \
    -o build/adder16_progress.bench --report FLOW_smoke_progress.json \
    >/dev/null 2>build/progress.log
python3 -c 'import json; json.load(open("FLOW_smoke_progress.json"))'
cmp build/adder16_opt.bench build/adder16_progress.bench || {
    echo "ci.sh: --progress changed the optimized output" >&2
    exit 1
}

# Resource-governance smoke (docs/robustness.md).  Deadline: a budgeted
# MD5 flow must stop cooperatively, emit a verified best-effort network,
# and exit 0 — well within the wall-clock bound (deadline plus stop
# latency, verification, and I/O).  `timeout` turns a hung stop into a
# hard CI failure.
timeout 30 ./build/tools/mcx --deadline 3 --flow mc+xor gen:md5 \
    -o build/md5_deadline.bench --report FLOW_smoke_deadline.json
grep -q '"limit_hit": true' FLOW_smoke_deadline.json || {
    echo "ci.sh: deadline run did not record limit_hit" >&2
    exit 1
}
grep -q '"outcome": "deadline_exceeded"' FLOW_smoke_deadline.json || {
    echo "ci.sh: deadline run did not record its outcome" >&2
    exit 1
}
# A --verify sat check that starts after the deadline fired must not
# inherit the spent deadline: it still proves the best-effort network,
# writes it and exits 0.  (des:3's flow takes ~0.4 s unbounded, well past
# the deadline; its proof ~1 s.)
timeout 60 ./build/tools/mcx --deadline 0.05 --verify sat --flow mc+xor \
    gen:des:3 -o build/des3_deadline_sat.bench \
    --report FLOW_smoke_deadline_sat.json >/dev/null
grep -q '"limit_hit": true' FLOW_smoke_deadline_sat.json &&
    grep -q '"verify_label": "proved"' FLOW_smoke_deadline_sat.json &&
    [ -s build/des3_deadline_sat.bench ] || {
    echo "ci.sh: deadline-limited --verify sat run did not prove and emit" >&2
    exit 1
}
# With --on-limit fail the same limit hit must flip the exit code to 1.
if timeout 30 ./build/tools/mcx --deadline 3 --on-limit fail --flow mc \
    gen:md5 >/dev/null 2>&1; then
    echo "ci.sh: --on-limit fail did not fail on a limit hit" >&2
    exit 1
fi

# SIGINT smoke: interrupt mcx mid-flow; the cooperative stop must still
# verify and emit the best-effort network and exit 0, with the report
# recording the cancellation.  `--foreground` makes timeout forward the
# signal to mcx once; without it timeout also signals its process group,
# and a second SIGINT is mcx's documented hard kill.
timeout --foreground 60 ./build/tools/mcx --flow mc+xor gen:md5 \
    -o build/md5_sigint.bench --report FLOW_smoke_sigint.json \
    >build/sigint.log 2>&1 &
mcx_pid=$!
sleep 2
kill -INT "$mcx_pid"
if ! wait "$mcx_pid"; then
    echo "ci.sh: SIGINT-interrupted mcx did not exit 0" >&2
    exit 1
fi
[ -s build/md5_sigint.bench ] || {
    echo "ci.sh: SIGINT run did not emit a network" >&2
    exit 1
}
grep -q '"outcome": "cancelled"' FLOW_smoke_sigint.json || {
    echo "ci.sh: SIGINT run did not record cancellation" >&2
    exit 1
}
# The interrupted run verified the network before writing it (that is
# what exit 0 certifies); re-reading the file proves the emitted BENCH
# itself is well-formed.
./build/tools/mcx --flow cleanup build/md5_sigint.bench >/dev/null

# Fault-injection smoke: an injected database-builder fault degrades the
# flow to a verified best-effort result (exit 0, typed outcome in the
# report); with --on-limit fail it becomes a hard failure.
MCX_FAULT_INJECT="db-build@1" ./build/tools/mcx --flow mc gen:adder:16 \
    --report FLOW_smoke_fault.json >/dev/null
grep -q '"outcome": "resource_exhausted"' FLOW_smoke_fault.json || {
    echo "ci.sh: fault run did not record resource exhaustion" >&2
    exit 1
}
if MCX_FAULT_INJECT="db-build@1" ./build/tools/mcx --flow mc \
    --on-limit fail gen:adder:16 >/dev/null 2>&1; then
    echo "ci.sh: --on-limit fail ignored an injected fault" >&2
    exit 1
fi
if MCX_FAULT_INJECT="not-a-site@1" ./build/tools/mcx --flow mc \
    gen:adder:4 >/dev/null 2>&1; then
    echo "ci.sh: a malformed MCX_FAULT_INJECT schedule was accepted" >&2
    exit 1
fi

# CLI usage smoke: --help exits 0 and documents every flag the README
# quickstart uses; an unknown flag fails with a pointed message, not a
# usage dump.
help_text=$(./build/tools/mcx --help)
for flag in --flow --iterate --rounds --cut-size --cut-limit --zero-gain \
            --verify --report --seed \
            --deadline --pass-deadline --on-limit \
            --trace --progress \
            --threads --bristol --output --list-gens --list-flows; do
    grep -qe "$flag" <<<"$help_text" || {
        echo "ci.sh: mcx --help does not mention $flag" >&2
        exit 1
    }
done
if unknown_msg=$(./build/tools/mcx --definitely-not-a-flag 2>&1); then
    echo "ci.sh: mcx accepted an unknown flag" >&2
    exit 1
fi
grep -q "unknown option" <<<"$unknown_msg" || {
    echo "ci.sh: mcx unknown-flag message regressed" >&2
    exit 1
}
# The removed engine switches are unknown flags now: usage error, exit 2.
for flag in --no-batch --classify-baseline --incremental-cuts \
            --incremental-eval --sat-engine; do
    status=0
    ./build/tools/mcx "$flag" gen:adder:4 >/dev/null 2>&1 || status=$?
    [ "$status" -eq 2 ] || {
        echo "ci.sh: mcx $flag exited $status, expected 2" >&2
        exit 1
    }
done
# Bad option values and out-of-range numbers are usage errors (exit 2)
# found before any pass runs; a generator argument is range-checked
# before it is narrowed to 32 bits (4294967296 must not wrap to 0).  The
# removed gate-count baseline's flow names are unknown passes.
while read -r -a args; do
    status=0
    out=$(./build/tools/mcx "${args[@]}" 2>/dev/null) || status=$?
    if [ "$status" -ne 2 ] || grep -q '^  pass ' <<<"$out"; then
        echo "ci.sh: mcx ${args[*]} exited $status" \
             "(expected 2 and no pass run)" >&2
        exit 1
    fi
done <<'ARGS'
--verify bogus gen:adder:4
--cut-size 9 gen:adder:4
--cut-size 1 gen:adder:4
--cut-limit 0 gen:adder:4
gen:adder:4294967296
--flow size-baseline gen:adder:4
--flow size gen:adder:4
ARGS

# Documentation checks: every file under docs/ is reachable from
# README.md, and no markdown file references a relative path that does
# not exist.
docs_failed=0
for doc in docs/*.md; do
    if ! grep -Fq "($doc)" README.md; then
        echo "ci.sh: $doc is not referenced from README.md" >&2
        docs_failed=1
    fi
done
for file in README.md docs/*.md; do
    dir=$(dirname "$file")
    while IFS= read -r link; do
        case "$link" in
        http://* | https://* | mailto:* | '#'*) continue ;;
        esac
        target="$dir/${link%%#*}"
        if [ ! -e "$target" ]; then
            echo "ci.sh: dead link '$link' in $file" >&2
            docs_failed=1
        fi
    done < <(grep -oE '\]\([^)]+\)' "$file" | sed -E 's/^\]\(//; s/\)$//')
done
[ "$docs_failed" -eq 0 ] || exit 1

# Thread+UB sanitizer job: the parallel subsystem (thread pool, sharded
# databases and the shared classification memo, two-phase round,
# level-parallel cut maintenance, the XOR pass's pair-count seeding), the
# pass framework, and the governance/fault paths under TSan with UBSan
# riding along (-fno-sanitize-recover makes any UB a hard failure).  The par_test
# and cut_incremental_test determinism sweeps are trimmed to one
# representative family each — full generator sweeps under the ~10x
# sanitizer slowdown belong in a nightly, not the per-commit gate.
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread,undefined -fno-sanitize-recover=undefined" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread,undefined"
cmake --build build-tsan -j"$(nproc)" --target par_test pass_test \
    cut_incremental_test incremental_eval_test robustness_test obs_test \
    memo_test xor_resynthesis_test
# Every suite runs even when an earlier one fails, so that one report
# (such as a sanitizer-runtime race) cannot hide the suites after it; the
# job fails at the end if any suite failed.
tsan_failed=()
while read -r suite filter; do
    (cd build-tsan &&
        GTEST_FILTER="$filter" ctest -R "$suite" --output-on-failure \
            </dev/null) ||
        tsan_failed+=("$suite")
done <<'SUITES'
par_test work_deque.*:thread_pool.*:sharded_database.*:two_phase_determinism.aes_family
obs_test metrics.*:tracing.*
memo_test memo_invariance.shared_memo_classifies_each_function_once
cut_incremental_test cut_arena_incremental.*:cut_maintainer.*:incremental_differential.aes_family
incremental_eval_test evaluate_differential.aes_family:evaluate_cache.*
pass_test *
robustness_test robustness.stopped_token_unblocks_waiter_on_stuck_builder:robustness.fault_matrix_verified_network_or_typed_error
xor_resynthesis_test xor_resynthesis_pass.pool_seeding_is_deterministic:xor_resynthesis_pass.pool_splits_single_wide_rows_deterministically
SUITES
if [ "${#tsan_failed[@]}" -ne 0 ]; then
    echo "ci.sh: sanitizer job failed in: ${tsan_failed[*]}" >&2
    exit 1
fi

# Address+UB sanitizer job over the SAT core and the affine classifier:
# the arena with its relocation GC, the binary-watcher encoding, the
# preprocessor's clause surgery, and the classifier's per-level scratch
# and leaf memo (raw-index tables) are exactly the kind of raw-index
# pointer arithmetic ASan exists for.  The full sat_test suite — the
# solver, its differential fuzz against the legacy oracle, preprocessing
# units — and spectral_test's differential suites against the scalar
# classifier (all but the exhaustive sweep) run under ASan+UBSan.
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=undefined" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
cmake --build build-asan -j"$(nproc)" --target sat_test spectral_test
(cd build-asan && ctest -R sat_test --output-on-failure)
(cd build-asan &&
    GTEST_FILTER='classify_affine_vs_baseline.*-classify_affine_vs_baseline.exhaustive_up_to_4_inputs' \
        ctest -R spectral_test --output-on-failure)

echo "ci.sh: all gates passed (JSON artifacts: BENCH_micro_core.json," \
     "FLOW_smoke_gen.json, FLOW_smoke_bench.json, FLOW_smoke_par.json," \
     "FLOW_smoke_sat.json," \
     "FLOW_smoke_deadline.json, FLOW_smoke_deadline_sat.json," \
     "FLOW_smoke_sigint.json," \
     "FLOW_smoke_fault.json, FLOW_smoke_progress.json)"
