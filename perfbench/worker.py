"""One benchmark sample in a fresh interpreter.

Reads a JSON request on stdin, sets up (imports, `parse_ambient` and
`subcat.ctx_for` for every ambient of the workload), runs the task list once
cold and then, if asked, warm in the same process, and prints one JSON
object on stdout. Every task checks its own output; a task that raises
or returns a wrong answer is reported with its name and the reason.

Run by run.py, which fixes the environment; not meant to be started by hand.
"""

import json
import random
import resource
import signal
import sys
import time

PROBE_PERIOD_S = 0.02


class SpeedProbe:
    """Times a fixed snippet of dict, set and sort operations on tuples, the
    operations stabcat's loops are made of, every PROBE_PERIOD_S of wall
    time from a SIGALRM handler. The shared machine's speed drifts by tens
    of percent within seconds; run.py scales each task's time by the
    probe's median around that task. The probe does not touch stabcat, so a
    change to the package cannot move it."""

    def __init__(self):
        rng = random.Random(1)
        self.data = [(rng.randrange(1000), rng.randrange(1000), str(rng.randrange(100)))
                     for _ in range(600)]
        self.times = []  # (start, duration) of each probe, perf_counter seconds
        self.total = 0.0
        self.busy = False

    def run(self, *_signal_args):
        if self.busy:  # a signal that arrives while the probe runs is dropped
            return
        self.busy = True
        t0 = time.perf_counter()
        counts = {}
        for x in self.data:
            counts[x] = counts.get(x, 0) + 1
        frozenset(self.data[::2]) & frozenset(self.data[1::2])
        sorted(self.data[:120], key=str)
        dt = time.perf_counter() - t0
        self.times.append((t0, dt))
        self.total += dt
        self.busy = False

    def __enter__(self):
        self.times, self.total = [], 0.0
        self.run()
        signal.signal(signal.SIGALRM, self.run)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.run()


def main():
    request = json.load(sys.stdin)
    probe = SpeedProbe()
    with probe:
        from stabcat import checks, stability, subcat, tables, torsion
        from stabcat.ambients import parse_ambient
        from stabcat.sheaves import kronecker, p1, x2

        tracer = None
        if request["trace"]:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()

        ambients = {}
        for spec in request["ambients"]:
            ambients[spec] = parse_ambient(spec)
            subcat.ctx_for(ambients[spec])
        t_setup = time.monotonic()
        setup_probe_s = probe.total
    setup_probes = [dt for _, dt in probe.times]
    from importlib import metadata  # after set-up, which imports only what stabcat imports

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None

    data_builders = {
        "finest_p1": lambda a, t: p1.finest_p1(a, [a.points[int(i)] for i in t["perm"].split(",")]),
        "slope_data_p1": lambda a, t: p1.slope_data_p1(a),
        "finest_x2": lambda a, t: x2.finest_x2(a, t["family"]),
        "slope_data_x2": lambda a, t: x2.slope_data_x2(a),
        "finest_kron_directing": lambda a, t: kronecker.finest_kron_directing(a),
        "finest_kron_two_phase": lambda a, t: kronecker.finest_kron_two_phase(a),
    }

    def verify_table(task):
        ok, diffs = tables.verify_table(task["table"])
        return None if ok else f"{len(diffs)} differences from the golden, first: {diffs[0]}"

    def counted(fn):
        def op(task):
            got = len(fn(ambients[task["ambient"]]))
            return None if got == task["expect"] else f"count {got}, expected {task['expect']}"
        return op

    def validate(task):
        report = stability.validate(ambients[task["ambient"]], task["sd"])
        return None if report.valid else report.summary()

    def hn_filtration(task):
        sd = task["sd"]
        filt = stability.hn_filtration(ambients[task["ambient"]], sd, task["object"])
        pos = {ph: i for i, ph in enumerate(sd.order.elements())}
        idx = [pos[ph] for _, _, ph in filt.steps]
        if not idx or any(a <= b for a, b in zip(idx, idx[1:])):
            return f"phases not strictly decreasing: {[str(ph) for _, _, ph in filt.steps]}"
        return None

    def run_suite(task):
        res = checks.run_suite(task["suite"], jobs=1)
        if res.mismatches:
            return res.summary()
        return None if res.total == task["expect"] else f"{res.total} cases, expected {task['expect']}"

    ops = {
        "verify_table": verify_table,
        "enumerate_finest": counted(stability.enumerate_finest),
        "enumerate_torsion_pairs": counted(torsion.enumerate_torsion_pairs),
        "enumerate_valid": counted(stability.enumerate_valid),
        "validate": validate,
        "hn_filtration": hn_filtration,
        "run_suite": run_suite,
    }

    def run_pass(tid):
        """Run the task list once; a validate task is followed by one
        hn_filtration task per hn_scope object of the same datum. Task and
        pass times exclude the time spent in the speed probe."""
        records = []
        with probe:
            start, start_probe = time.perf_counter(), probe.total
            for task in request["tasks"]:
                pending = [dict(task)]
                while pending:
                    t = pending.pop(0)
                    if tracer is not None:
                        tracer.task = tid
                    t0, p0 = time.perf_counter(), probe.total
                    try:
                        if t["op"] == "validate":
                            amb = ambients[t["ambient"]]
                            t["sd"] = data_builders[t["datum"]](amb, t)
                            pending = [dict(t, op="hn_filtration", object=x,
                                            name=f"hn_filtration:{t['ambient']}:{t['label']}:{x}")
                                       for x in amb.hn_scope()]
                        error = ops[t["op"]](t)
                    except Exception as exc:  # a failing task is counted, never fatal
                        error = f"{type(exc).__name__}: {exc}"
                        pending = []
                    t1 = time.perf_counter()
                    records.append([t["name"], t1 - t0 - (probe.total - p0), error,
                                    t0 - start, t1 - start])
                    tid += 1
            wall = time.perf_counter() - start - (probe.total - start_probe)
        return {"wall_s": wall, "tasks": records,
                "probes": [[t0 - start, dt] for t0, dt in probe.times]}

    # "warm" repeats the pass in this process while the run's deadline
    # allows, at least once; peak RSS is taken after the first warm pass.
    passes = []
    maxrss_kb = None
    tid = 1
    for kind in request["passes"]:
        while True:
            p = run_pass(tid)
            tid += len(p["tasks"])
            passes.append(dict(p, kind=kind))
            if kind != "warm":
                break
            if maxrss_kb is None:
                maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if time.monotonic() + p["wall_s"] > request["deadline"]:
                break

    out = {
        "t_setup": t_setup,
        "setup_probe_s": setup_probe_s,
        "setup_probes": setup_probes,
        "passes": passes,
        "maxrss_kb": maxrss_kb,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
        if request.get("spans_path"):
            names = ["setup"] + [r[0] for p in passes for r in p["tasks"]]
            tracer.write_spans(request["spans_path"], request.get("spans_header", {}), names)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
