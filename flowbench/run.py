#!/usr/bin/env python3
"""Whole-flow benchmark of the mcx optimizer (see README.md here).

    python3 flowbench/run.py --workload des6-t1 --seed 1 --seconds 24 --trace 0

Builds the `flowbench` program from the checkout's sources, then runs the
workload's iteration again and again, one process per iteration, until the
next one would not finish inside `--seconds`.  Each process runs under a
hard budget and is killed with SIGKILL when it overruns; its circuits count
as failed.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones: medians over the
iterations.  With `--trace 1` one untraced and one traced iteration run,
and the metrics are the per-module ones the traced iteration reports.  The
line before the result describes the host and every iteration.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Per-iteration kill budget, and the end of a whole run: the result must be
# printed well inside the 180 s a run may take.
ITERATION_BUDGET_S = 120.0
RUN_LIMIT_S = 165.0

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "and_after": "count",
    "xor_after": "count",
    "ok_frac": "frac",
}


def log(message):
    print(f"flowbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure once and build the benchmark program; returns its path."""
    if not (ROOT / "src" / "core" / "flow.h").is_file():
        log(f"no optimizer sources under {ROOT / 'src'}; nothing to build")
        sys.exit(1)
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "flowbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "flowbench", "--parallel", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "flowbench"


def run_lines(command, timeout):
    """Run `command`; returns (exit code, or None when it was killed, and
    the stdout lines that parse as JSON).  subprocess.run sends SIGKILL on
    timeout and waits for the process to end; what it printed before is
    kept."""
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
        code, out = done.returncode, done.stdout
    except subprocess.TimeoutExpired as e:
        code, out = None, e.stdout or ""
    if isinstance(out, bytes):
        out = out.decode(errors="replace")
    lines = []
    for line in out.splitlines():
        try:
            lines.append(json.loads(line))
        except json.JSONDecodeError:
            pass
    return code, lines


def run_json(command, timeout):
    code, lines = run_lines(command, timeout)
    return code, lines[-1] if lines else None


def host_block(binary):
    _, host = run_json([str(binary), "--host"], 30)
    _, probe = run_json([str(binary), "--probe"], 30)
    try:
        describe = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10)
        host["git_describe"] = (describe.stdout.strip()
                                if describe.returncode == 0 else "unavailable")
    except (OSError, subprocess.TimeoutExpired):
        host["git_describe"] = "unavailable"
    host["mem_probe_s"] = probe["mem_probe_s"]
    host["alu_probe_s"] = probe["alu_probe_s"]
    return host


class Iterations:
    """Runs iterations under the kill budget and keeps what they report."""

    def __init__(self, binary, workload, seed, out_dir, run_start):
        self.command = [str(binary), "--workload", workload, "--seed",
                        str(seed), "--out", str(out_dir)]
        self.run_start = run_start
        self.reports = []  # one per finished iteration
        self.walls = []
        self.attempted = 0  # circuits, killed and crashed iterations included
        self.killed = 0
        self.crashed = 0

    def run(self, trace_file=None):
        command = list(self.command)
        if trace_file is not None:
            command += ["--trace-file", str(trace_file)]
        left = RUN_LIMIT_S - (time.monotonic() - self.run_start)
        start = time.monotonic()
        code, lines = run_lines(command, max(1.0, min(ITERATION_BUDGET_S,
                                                      left)))
        self.walls.append(time.monotonic() - start)
        if code == 2:
            log(f"usage error from {' '.join(command)}")
            sys.exit(2)
        # The first line, printed before any work, names the circuits.
        self.attempted += lines[0]["circuits"] if lines else 1
        report = lines[-1] if code == 0 and len(lines) == 2 else None
        if code is None:
            self.killed += 1
        elif report is None:
            self.crashed += 1
        else:
            self.reports.append(report)
        return report

    def circuits_ok(self):
        return sum(c["ok"] for r in self.reports for c in r["circuits"])


def counts_of(report):
    return [(c["name"], c["and_after"], c["xor_after"])
            for c in report["circuits"]]


def end_to_end(reports):
    """Medians over the finished iterations; counts from the first one
    (`correct` requires every iteration to emit the same counts)."""
    if not reports:
        return {}
    median = lambda key: statistics.median(r[key] for r in reports)
    first = reports[0]["circuits"]
    return {
        "run_s": median("run_s"),
        "setup_s": median("setup_s"),
        "cpu_s": median("cpu_s"),
        "peak_rss_mb": median("peak_rss_kb") / 1024.0,
        "and_after": sum(c["and_after"] for c in first),
        "xor_after": sum(c["xor_after"] for c in first),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    run_start = time.monotonic()
    host = host_block(binary)
    out_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    it = Iterations(binary, args.workload, args.seed, out_dir, run_start)

    traced = None
    if args.trace:
        untraced = it.run()
        traced = it.run(trace_file=out_dir / "trace.json")
    else:
        deadline = run_start + args.seconds
        while True:
            it.run()
            if time.monotonic() + max(it.walls) > deadline:
                break

    attempted = it.attempted
    ok = it.circuits_ok()
    consistent = len({tuple(counts_of(r)) for r in it.reports}) <= 1
    correct = bool(it.reports) and ok == attempted and consistent

    if args.trace:
        metrics = {}
        if traced is not None:
            metrics = dict(traced["layers"])
            overhead = (traced["run_s"] - untraced["run_s"]
                        if untraced is not None else 0.0)
            metrics["obs.trace_overhead"] = {"value": overhead, "unit": "s"}
        else:
            correct = False
        metrics["host.mem_probe_s"] = {"value": host["mem_probe_s"],
                                       "unit": "s"}
        metrics["host.alu_probe_s"] = {"value": host["alu_probe_s"],
                                       "unit": "s"}
    else:
        values = dict.fromkeys(END_TO_END_UNITS, 0.0)  # if none finished
        values.update(end_to_end(it.reports), ok_frac=ok / attempted)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    print(json.dumps({
        "host": host,
        "workload": args.workload,
        "seed": args.seed,
        "killed": it.killed,
        "crashed": it.crashed,
        "iteration_walls_s": it.walls,
        "iterations": [{k: r[k] for k in ("setup_s", "run_s", "cpu_s",
                                          "circuits")}
                       for r in it.reports],
    }))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": attempted - ok, "metrics": metrics}))


if __name__ == "__main__":
    main()
