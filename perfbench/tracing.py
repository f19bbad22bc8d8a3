"""Spans around the public functions of each stabcat layer, recorded from
outside the package.

Each wrapped call appends one span (name, task id, parent span, start, end)
to a flat in-memory array; nothing is written until `write_spans`. A
wrapper replaces the function under every name it is bound to in a loaded
stabcat module (for example `stability` binds `closure` from `subcat`),
and ambient methods are wrapped on every Ambient class that defines them.
Hot helpers such as `embed` stay unwrapped, because at hundreds of
thousands of calls the wrapper would dwarf the work.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# module -> public functions wrapped in it
FUNCTIONS = {
    "subcat": ("ctx_for", "enumerate_ext_closed", "closure", "is_closed"),
    "stability": ("validate", "is_finest", "hn_filtration", "enumerate_finest",
                  "enumerate_valid"),
    "torsion": ("enumerate_torsion_pairs", "validate_torsion_pair"),
    "tables": ("compute_table", "verify_table"),
    "gf": ("rref", "nullspace", "solve_many", "subspaces_fixed"),
    "oracle": ("build_indec", "hom_basis", "decompose", "middle_terms_of_sums",
               "closure_fixpoint_bruteforce"),
    "checks": ("run_suite",),
}
# methods wrapped on every Ambient class, reported together as `ambient.<method>`
AMBIENT_METHODS = ("hom_nonzero", "middle_terms", "decompositions")

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns) + \
    tuple(f"ambient.{m}" for m in AMBIENT_METHODS)

_FIELDS = 5  # name id, task id, parent span, start ns, end ns


class Tracer:
    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.spans = array("q")
        self.stack = [-1]
        self.task = 0
        self.valid = 0  # stability.validate calls that returned a valid report

    def wrap(self, name: str, fn, count_valid: bool = False):
        nid = self.names.index(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans) // _FIELDS
            spans.extend((nid, self.task, stack[-1], clock(), 0))
            stack.append(i)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[i * _FIELDS + 4] = clock()
            if count_valid and out.valid:
                self.valid += 1
            return out

        return traced

    def install(self):
        """Wrap every listed function wherever a stabcat module binds it."""
        from stabcat.ambient import Ambient

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "stabcat" or n.startswith("stabcat."))]
        for mod, fns in FUNCTIONS.items():
            home = sys.modules[f"stabcat.{mod}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapped = self.wrap(f"{mod}.{fn_name}", original,
                                    count_valid=(mod, fn_name) == ("stability", "validate"))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapped)
        classes = [Ambient]
        for cls in classes:
            classes.extend(c for c in cls.__subclasses__() if c not in classes)
        for cls in classes:
            for meth in AMBIENT_METHODS:
                if meth in vars(cls):
                    setattr(cls, meth, self.wrap(f"ambient.{meth}", vars(cls)[meth]))

    def summary(self) -> dict:
        """Calls and self time per span name, and the time of the top-level
        spans of each task.

        Self time is a span's duration minus the durations of its direct
        children; the program runs on one thread, so children never overlap.
        """
        s = self.spans
        n = len(s) // _FIELDS
        self_ns = [0] * n
        for i in range(n):
            base = i * _FIELDS
            dur = s[base + 4] - s[base + 3]
            self_ns[i] += dur
            parent = s[base + 2]
            if parent >= 0:
                self_ns[parent] -= dur
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        top_by_task = {}
        for i in range(n):
            base = i * _FIELDS
            name = self.names[s[base]]
            calls[name] += 1
            self_s[name] += self_ns[i] / 1e9
            if s[base + 2] < 0:
                key = (s[base + 1], name)
                top_by_task[key] = top_by_task.get(key, 0.0) + (s[base + 4] - s[base + 3]) / 1e9
        return {"calls": calls, "self_s": self_s, "valid": self.valid, "spans": n,
                "top_by_task": [[t, name, sec] for (t, name), sec in sorted(top_by_task.items())]}

    def write_spans(self, path, header: dict, task_names: list):
        """One span per line: id, parent, task, name, start_ns, end_ns.

        Header lines start with '#': a `key=value` line per header entry and
        one `#task <id> <name>` line per task (task 0 is set-up).
        """
        s = self.spans
        with open(path, "w", encoding="utf-8") as f:
            f.write("# stabcat perfbench spans v1\n")
            for k, v in header.items():
                f.write(f"# {k}={v}\n")
            for tid, tname in enumerate(task_names):
                f.write(f"#task\t{tid}\t{tname}\n")
            f.write("id\tparent\ttask\tname\tstart_ns\tend_ns\n")
            for i in range(len(s) // _FIELDS):
                b = i * _FIELDS
                f.write(f"{i}\t{s[b + 2]}\t{s[b + 1]}\t{self.names[s[b]]}\t{s[b + 3]}\t{s[b + 4]}\n")
