"""stabcat benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload enum|sheaf|oracle --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
`src/`). Every sample is a fresh interpreter started by this process, one
at a time (jobs=1, no pools): the package keeps process-global caches, so a
cold pass needs a fresh process. With `--trace 0` the run measures
end-to-end metrics; with `--trace 1` it measures per-layer metrics from
spans around each layer's public functions (see tracing.py) and the
tracing overhead. The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it give
each metric with its unit, and the full record (environment, per-sample
figures, failing tasks) is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_SAMPLES = 5     # set-up only samples per untraced run, besides the full sample
TRACED_SAMPLES = 2    # traced cold samples per traced run; their calls must agree
HARD_LIMIT_S = 170.0  # no sample may run past this, counted from the start of the run
SUITE_METRICS = tuple(t["suite"] for t in workloads.tasks("oracle", 0))
TAIL_BEYOND = 10      # the tail percentile leaves at least this many samples above it
# Set-up and task times are reported at a reference machine speed: measured
# time x PROBE_REF_S / (median speed-probe time within PROBE_WINDOW_S of the
# task, or during set-up); see worker.SpeedProbe. The raw pass times are kept
# in the record.
PROBE_REF_S = 0.0003
PROBE_WINDOW_S = 0.05

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "warm_solve_s": "s",
                    "task_p50_ms": "ms", "task_tail_ms": "ms", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {}
    for name in tracing.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["stability.validate.valid_frac"] = "ratio"
    for suite in SUITE_METRICS:
        units[f"checks.{suite}.s"] = "s"
    units["trace_overhead_s"] = "s"
    return units


class SampleError(RuntimeError):
    pass


def child_env() -> dict:
    """The fixed worker environment: hash seed, no budget override, one
    thread for numpy's BLAS, and the checkout's own sources."""
    env = {k: v for k, v in os.environ.items() if k != "STABCAT_BUDGET"}
    env.update(PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def sample(request: dict, hard_deadline: float) -> dict:
    """Start one worker, wait for it, return its report with `setup_s`
    (from process launch to the end of set-up, at the reference speed) and
    `elapsed_s` added."""
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                              input=json.dumps(request), capture_output=True, text=True,
                              env=child_env(), cwd=ROOT,
                              timeout=max(1.0, hard_deadline - start))
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"worker exceeded the {HARD_LIMIT_S:.0f} s run limit") from exc
    if proc.returncode != 0:
        raise SampleError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    report["setup_s"] = ((report["t_setup"] - start - report["setup_probe_s"]) * PROBE_REF_S
                         / statistics.median(report.pop("setup_probes")))
    report["elapsed_s"] = time.monotonic() - start
    for p in report["passes"]:
        scale_pass(p)
    return report


def scale_pass(p: dict):
    """Add the pass's task times and total time at the reference speed.

    Each task is scaled by the probes that ran during it or within
    PROBE_WINDOW_S of it; time outside the tasks by all of the pass's probes."""
    whole = statistics.median(dt for _, dt in p["probes"])
    times = []
    for _, secs, _, t0, t1 in p["tasks"]:
        near = [dt for t, dt in p["probes"] if t0 - PROBE_WINDOW_S <= t <= t1 + PROBE_WINDOW_S]
        times.append(secs * PROBE_REF_S / (statistics.median(near) if near else whole))
    outside = p["wall_s"] - sum(r[1] for r in p["tasks"])
    p["task_s"] = times
    p["solve_s"] = sum(times) + outside * PROBE_REF_S / whole
    p["probe_median_s"] = whole


def tail(values: list):
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples above it; the maximum when there are too few samples for that
    percentile to lie above the median."""
    xs = sorted(values)
    n = len(xs)
    k = n - TAIL_BEYOND - 1
    if k < n // 2:
        return xs[-1], 100.0
    return xs[k], 100.0 * (k + 1) / n


def git_commit():
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "stabcat").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def measure(workload: str, seed: int, seconds: int, trace: bool, size: str = "full",
            task_list=None) -> dict:
    """Run one benchmark run and return its full record.

    `task_list` replaces the workload's own tasks (the self-test uses it to
    plant a wrong expected value)."""
    if task_list is None:
        task_list = workloads.tasks(workload, seed, size)
    start = time.monotonic()
    base = {"tasks": task_list, "ambients": workloads.ambients(task_list), "trace": False,
            "deadline": start + seconds}
    hard = start + HARD_LIMIT_S

    record = {"workload": workload, "seed": seed, "size": size, "seconds": seconds,
              "trace": int(trace)}
    if not trace:
        # One full sample: a cold pass, then warm passes in the same process
        # while the run's deadline allows (at least one). A second cold pass
        # would not fit a run on the reference machine, and a varying number
        # of them would change which percentile task_tail_ms is.
        setups = [sample(dict(base, passes=[]), hard) for _ in range(SETUP_SAMPLES)]
        full = sample(dict(base, passes=["cold", "warm"]), hard)
        samples = [full]
        cold, warm = full["passes"][0], full["passes"][1:]
        cold_ms = [secs * 1000.0 for secs in cold["task_s"]]
        tail_ms, tail_pct = tail(cold_ms)
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setups + samples),
            "solve_s": cold["solve_s"],
            "warm_solve_s": statistics.median(p["solve_s"] for p in warm),
            "task_p50_ms": statistics.median(cold_ms),
            "task_tail_ms": tail_ms,
            "peak_rss_mb": full["maxrss_kb"] / 1024.0,
        }
        units = END_TO_END_UNITS
        record.update(setup_samples=len(setups) + 1, warm_passes=len(warm),
                      task_samples=len(cold_ms), task_tail_percentile=tail_pct,
                      setup_s_all=[s["setup_s"] for s in setups + samples])
    else:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload}-{size}.tsv"
        untraced = sample(dict(base, passes=["cold"]), hard)
        traced_req = dict(base, passes=["cold"], trace=True)
        traced = [sample(dict(traced_req, spans_path=str(spans_path),
                              spans_header={"workload": workload, "seed": seed, "size": size,
                                            "clock": "perf_counter_ns"}), hard)]
        traced += [sample(traced_req, hard) for _ in range(TRACED_SAMPLES - 1)]
        samples = [untraced] + traced
        calls_differ = any(t["trace"]["calls"] != traced[0]["trace"]["calls"] for t in traced)
        metrics = layer_metrics(traced)
        metrics["trace_overhead_s"] = (statistics.median(s["passes"][0]["solve_s"] for s in traced)
                                       - untraced["passes"][0]["solve_s"])
        units = per_layer_units()
        record.update(traced_samples=len(traced), spans_file=str(spans_path.relative_to(ROOT)),
                      spans=traced[0]["trace"]["spans"])

    failures = [[i, p["kind"], r[0], r[2]] for i, s in enumerate(samples)
                for p in s["passes"] for r in p["tasks"] if r[2] is not None]
    attempted = sum(len(p["tasks"]) for s in samples for p in s["passes"])
    if trace:  # the traced samples' identical calls count as one more check
        attempted += 1
        if calls_differ:
            failures.append([None, "trace", "per-layer calls", "differ between traced samples"])
    record.update(
        env={"PYTHONHASHSEED": "0", "STABCAT_BUDGET": "unset", "jobs": 1,
             "workers_per_sample": 1, "python": samples[0]["python"],
             "numpy": samples[0]["numpy"], "nproc": os.cpu_count(),
             "cpus_usable": len(os.sched_getaffinity(0)), "commit": git_commit(),
             "source_sha256": source_digest(), "seed": seed},
        attempted=attempted, failed=len(failures), fail_frac=len(failures) / attempted,
        failures=failures,
        metrics={name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        samples=[{k: v for k, v in s.items() if k not in ("passes", "trace")}
                 | {"passes": [{k: p[k] for k in ("kind", "wall_s", "solve_s", "probe_median_s")}
                               for p in s["passes"]]}
                 for s in samples],
    )
    return record


def layer_metrics(traced: list) -> dict:
    first = traced[0]["trace"]
    metrics = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.calls"] = first["calls"][name]
        metrics[f"{name}.self_s"] = statistics.median(t["trace"]["self_s"][name] for t in traced)
    calls = first["calls"]["stability.validate"]
    metrics["stability.validate.valid_frac"] = first["valid"] / calls if calls else 0.0
    suite_s = []  # per traced sample: task name -> time of its top-level run_suite span
    for t in traced:
        names = ["setup"] + [r[0] for p in t["passes"] for r in p["tasks"]]
        suite_s.append({names[tid]: sec for tid, span, sec in t["trace"]["top_by_task"]
                        if span == "checks.run_suite"})
    for suite in SUITE_METRICS:
        metrics[f"checks.{suite}.s"] = statistics.median(s.get(f"run_suite:{suite}", 0.0)
                                                         for s in suite_s)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full",
                    help="tiny runs a small version of each workload (self-test)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "stabcat" / "__init__.py").is_file():
        print(f"run.py: no stabcat sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except SampleError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"result-{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")
    for i, kind, task, error in record["failures"][:20]:
        print(f"FAILED {task} (sample {i}, {kind} pass): {error}", file=sys.stderr)
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    details = {k: record[k] for k in ("attempted", "failed", "fail_frac", "task_samples",
                                      "task_tail_percentile", "warm_passes",
                                      "setup_samples", "traced_samples", "spans", "spans_file")
               if k in record}
    print("details " + json.dumps(details))
    print("env " + json.dumps(record["env"]))
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
