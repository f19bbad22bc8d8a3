"""Self-test of the benchmark harness, on tiny versions of the workloads.

    python3 perfbench/selftest.py

Run from the root of a source checkout; takes well under a minute. Checks:

- every workload in BENCHMARK.json emits, through the command line, each
  end-to-end metric with `--trace 0` and each per-layer metric with
  `--trace 1`, by name and with its unit, and all of its tasks pass;
- two traced runs of the same seed report identical per-layer calls;
- a planted wrong expected count makes fail_frac > 0 and names the task;
- the command exits non-zero, printing no result, in a directory that holds
  only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import workloads

_failures = []


def check(ok: bool, what: str):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        _failures.append(what)


def cli(args, cwd) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    check(set(wanted[0]) == set(run.END_TO_END_UNITS),
          "BENCHMARK.json end_to_end names match run.py")
    check(set(wanted[1]) == set(run.per_layer_units()),
          "BENCHMARK.json per_layer names match run.py")

    for w in (wl["name"] for wl in spec["workloads"]):
        for trace in (0, 1):
            proc = cli(["--workload", w, "--seed", "1", "--seconds", "1", "--trace", str(trace),
                        "--size", "tiny"], run.ROOT)
            label = f"{w} --trace {trace}"
            check(proc.returncode == 0, f"{label}: exit code 0")
            if proc.returncode != 0:
                print(proc.stderr[-2000:])
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label}: every task passes")
            units = {k: m["unit"] for k, m in result["metrics"].items()}
            check(units == wanted[trace], f"{label}: every named metric with its unit")
            if trace:
                again = run.measure(w, 1, 1, True, "tiny")
                calls = {k: v for k, v in result["metrics"].items() if k.endswith(".calls")}
                check(all(again["metrics"][k] == v for k, v in calls.items()),
                      f"{label}: per-layer calls identical in two traced runs")

    planted = workloads.tasks("enum", 1, "tiny")
    victim = next(t for t in planted if isinstance(t.get("expect"), int))
    victim["expect"] += 1
    rec = run.measure("enum", 1, 1, False, "tiny", task_list=planted)
    check(rec["fail_frac"] > 0 and any(f[2] == victim["name"] for f in rec["failures"]),
          f"wrong expected count for {victim['name']}: fail_frac {rec['fail_frac']:.3f} > 0")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = cli(["--workload", "enum", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    check(proc.returncode != 0 and not any(line.startswith("{") for line in proc.stdout.splitlines()),
          f"without stabcat sources: exit code {proc.returncode}, no result printed")
    shutil.rmtree(bare)

    print(f"{len(_failures)} failure(s)" if _failures else "all checks passed")
    return 1 if _failures else 0


if __name__ == "__main__":
    sys.exit(main())
