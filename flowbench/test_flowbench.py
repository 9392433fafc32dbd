#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 flowbench/test_flowbench.py      # about a minute after the build

Checks, on the seconds-long `smoke` workload, that every metric prints with
its name and unit, that every emitted network is checked (and how), and
that two back-to-back runs give identical counts.  Checks, on every
workload, that the counts equal the final line of the mcx CLI for the same
input, flow and worker count.  Checks that an iteration over its budget is
killed and counted as failed.
"""
import json
import os
import re
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True
import run  # noqa: E402

# Worker count and circuits of each workload, as flowbench.cpp defines them.
WORKLOAD_CIRCUITS = {
    "smoke": (2, ["des:2", "adder:16", "sqrt:8"]),
    "des4-t1": (1, ["des:4"]),
    "mult16-t4": (4, ["multiplier:16"]),
    "epfl-arith-t1": (1, ["sqrt:12", "log2:12"]),
    "des3-cec": (1, ["des:3"]),
}


def bench(workload, trace, seed=1, seconds=1):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


# Work-stealing counters: they depend on the schedule, not on the input.
SCHEDULE_DEPENDENT = {"par.steals", "par.idle"}


def counted(metrics):
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] == "count" and k not in SCHEDULE_DEPENDENT}


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.runs = [bench("smoke", 0) for _ in range(2)]
        cls.traced = [bench("smoke", 1) for _ in range(2)]

    def test_result_line_shape(self):
        for _, result in self.runs + self.traced:
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0)
            for name, metric in result["metrics"].items():
                self.assertEqual(set(metric), {"value", "unit"}, name)
                self.assertIsInstance(metric["value"], (int, float), name)
                self.assertRegex(metric["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_metrics_match_the_declaration(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        for key, results in (("end_to_end", self.runs),
                             ("per_layer", self.traced)):
            want = {m["name"]: m["unit"] for m in declared[key]}
            for _, result in results:
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want, key)

    def test_every_output_is_checked(self):
        methods = set()
        for detail, result in self.runs:
            self.assertEqual(result["metrics"]["ok_frac"]["value"], 1.0)
            for iteration in detail["iterations"]:
                for c in iteration["circuits"]:
                    self.assertTrue(c["ok"], c)
                    methods.add(c["check"])
                    if c["check"] != "proof":
                        self.assertEqual(c["check"], "exhaustive"
                                         if c["pis"] <= 16 else "sampled")
        self.assertEqual(methods, {"exhaustive", "sampled", "proof"})

    def test_back_to_back_counts_repeat(self):
        self.assertEqual(counted(self.runs[0][1]["metrics"]),
                         counted(self.runs[1][1]["metrics"]))
        self.assertEqual(counted(self.traced[0][1]["metrics"]),
                         counted(self.traced[1][1]["metrics"]))
        circuits = [[(c["name"], c["and_after"], c["xor_after"])
                     for c in it["circuits"]]
                    for detail, _ in self.runs
                    for it in detail["iterations"]]
        self.assertEqual(len({tuple(c) for c in circuits}), 1)

    def test_counts_equal_the_mcx_final_line(self):
        mcx = mcx_binary(self.binary)
        for workload in WORKLOAD_CIRCUITS:
            detail, _ = (self.runs[0] if workload == "smoke"
                         else bench(workload, 0, seconds=1))
            threads, names = WORKLOAD_CIRCUITS[workload]
            emitted = detail["iterations"][0]["circuits"]
            self.assertEqual([c["name"] for c in emitted], names)
            for c in emitted:
                ands, xors = mcx_final_counts(mcx, c["name"], threads)
                self.assertEqual((c["and_after"], c["xor_after"]),
                                 (ands, xors), (workload, c["name"]))

    def test_overrunning_iteration_is_killed_and_fails(self):
        saved = run.ITERATION_BUDGET_S
        run.ITERATION_BUDGET_S = 0.5
        try:
            out = ROOT / ".bench_out" / "test-kill"
            out.mkdir(parents=True, exist_ok=True)
            it = run.Iterations(self.binary, "des3-cec", 1, out,
                                time.monotonic())
            start = time.monotonic()
            self.assertIsNone(it.run())
            self.assertLess(time.monotonic() - start, 10)
        finally:
            run.ITERATION_BUDGET_S = saved
        self.assertEqual((it.killed, it.attempted, it.circuits_ok()),
                         (1, 1, 0))


def mcx_binary(flowbench):
    build_dir = flowbench.parent
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "flowbench_mcx_cli", "--parallel",
                    str(os.cpu_count() or 1)],
                   check=True, stdout=subprocess.DEVNULL)
    return build_dir / "mcx"


def mcx_final_counts(mcx, circuit, threads):
    done = subprocess.run(
        [str(mcx), "--flow", "mc+xor", "--threads", str(threads),
         "gen:" + circuit], stdout=subprocess.PIPE, text=True, check=True)
    last = done.stdout.strip().splitlines()[-1]
    match = re.search(r"-> (\d+) AND, \d+ -> (\d+) XOR", last)
    return int(match.group(1)), int(match.group(2))


if __name__ == "__main__":
    unittest.main()
