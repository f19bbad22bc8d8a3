"""Command-line front end.

Commands: validate, hn, finest, torsion, refine, compare, verify-table,
oracle-check.  Output is deterministic (canonical sorting everywhere); JSON
files round-trip exactly.  Exit codes: 0 success/match, 1 mismatch or
invalid input data or stdout closed by its reader, 2 parse error or a
`STABCAT_BUDGET` that is not a non-negative integer, 3 window violation,
4 oracle budget, enumeration bound, ambient spec size limit or HN search
cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .ambient import AmbientError, SizeLimitError, TubeAmbient, WindowError
from .ambients import parse_ambient
from .checks import SUITES, run_suite
from .intervals import IntervalError
from .oracle import BudgetExceededError, BudgetSettingError, budget_limit
from .phases import OrderError
from .stability import (FormatError, StabilityData, enumerate_finest, equivalent,
                        hn_filtration, is_coarser, refine_to_finest, tau_orbit_size, validate)
from .subcat import EnumerationBoundError, SubcatError
from .tables import TABLE_AMBIENTS, verify_table
from .torsion import (TorsionPair, classify_tube_torsion_pairs, enumerate_torsion_pairs,
                      pairs_to_markdown, tau_pair_orbit_size, torsion_pairs_from_finest,
                      validate_torsion_pair)
from .tube import TubeError

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_WINDOW = 3
EXIT_BUDGET = 4


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_PARSE)


def _ambient(spec):
    try:
        return parse_ambient(spec)
    except SizeLimitError:
        raise
    except (AmbientError, ValueError) as exc:
        raise CliError(f"bad ambient spec: {exc}", EXIT_PARSE)


def _windowed_note(ambient) -> str:
    return (" [WINDOW-VERIFIED (all objects of the configured window)]"
            if ambient.spec_string().split(":")[0] in ("p1", "x2", "kronecker") else "")


def cmd_validate(args):
    amb = _ambient(args.ambient)
    doc = _load_json(args.data)
    if isinstance(doc, dict) and "T" in doc and "F" in doc:
        pair = TorsionPair.from_json(doc, amb)
        report = validate_torsion_pair(amb, pair.t, pair.f)
    else:
        sd = StabilityData.from_json(doc, amb)
        report = validate(amb, sd)
    print(report.summary() + _windowed_note(amb))
    return EXIT_OK if report.valid else EXIT_MISMATCH


def cmd_hn(args):
    amb = _ambient(args.ambient)
    sd = StabilityData.from_json(_load_json(args.data), amb)
    obj = amb.parse(args.object)
    filt = hn_filtration(amb, sd, obj)
    print(f"HN filtration of {obj}:")
    for _, factors, phase in filt.steps:
        facs = " + ".join(str(f) for f in factors)
        print(f"  phase {phase}: {facs}")
    return EXIT_OK


def cmd_finest(args):
    amb = _ambient(args.ambient)
    data = enumerate_finest(amb, upto_tau=args.upto_tau)
    label = "up to tau-translation" if args.upto_tau else "up to equivalence"
    print(f"{len(data)} finest stability data on {amb.spec_string()} ({label})"
          + _windowed_note(amb))
    out = []
    for sd in data:
        doc = sd.to_json()  # enumerated data have phases 1..k
        if args.upto_tau:
            doc["tau_orbit_size"] = tau_orbit_size(amb, sd)
        out.append(doc)
    print(json.dumps(out, indent=1, sort_keys=True))
    return EXIT_OK


def cmd_torsion(args):
    amb = _ambient(args.ambient)
    if args.method == "brute":
        pairs = enumerate_torsion_pairs(amb, upto_tau=args.upto_tau)
    elif args.method == "ray-coray":
        if not isinstance(amb, TubeAmbient):
            raise CliError("the ray/coray classifier only applies to tube ambients", EXIT_PARSE)
        pairs = classify_tube_torsion_pairs(amb.n, upto_tau=args.upto_tau)
    else:
        pairs = torsion_pairs_from_finest(amb, upto_tau=args.upto_tau)
    if args.json:
        docs = []
        for p in pairs:
            doc = p.to_json()
            if args.upto_tau and amb.tau_order() > 1:
                doc["tau_orbit_size"] = tau_pair_orbit_size(amb, p)
            docs.append(doc)
        print(json.dumps(docs, indent=1, sort_keys=True))
    else:
        title = (f"Non-trivial torsion pairs on {amb.spec_string()} ({args.method})"
                 + _windowed_note(amb))
        print(pairs_to_markdown(pairs, title))
    return EXIT_OK


def cmd_refine(args):
    amb = _ambient(args.ambient)
    sd = StabilityData.from_json(_load_json(args.data), amb)
    report = validate(amb, sd)
    if not report.valid:
        print(f"input datum is invalid: {report.summary()}", file=sys.stderr)
        return EXIT_MISMATCH
    fine = refine_to_finest(amb, sd)
    print(json.dumps(fine.relabeled().to_json(), indent=1, sort_keys=True))
    return EXIT_OK


def cmd_compare(args):
    amb = _ambient(args.ambient)
    sd1 = StabilityData.from_json(_load_json(args.data), amb)
    sd2 = StabilityData.from_json(_load_json(args.data2), amb)
    print(f"equivalent: {equivalent(sd1, sd2)}")
    r12 = is_coarser(amb, sd1, sd2)
    r21 = is_coarser(amb, sd2, sd1)
    print(f"first coarser than second: {r12 is not None}")
    if r12:
        print("  r:", {str(k): str(v) for k, v in sorted(r12.items(), key=lambda kv: str(kv[0]))})
    print(f"second coarser than first: {r21 is not None}")
    if r21:
        print("  r:", {str(k): str(v) for k, v in sorted(r21.items(), key=lambda kv: str(kv[0]))})
    return EXIT_OK


def cmd_verify_table(args):
    ok, diffs = verify_table(args.table)
    if ok:
        print(f"{args.table}: exact match against golden")
        return EXIT_OK
    print(f"{args.table}: MISMATCH")
    for line in diffs[:20]:
        print(" ", line)
    return EXIT_MISMATCH


def cmd_oracle_check(args):
    if args.jobs < 1:
        raise CliError(f"--jobs must be at least 1, got {args.jobs}", EXIT_PARSE)
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    budget_limit()  # a bad STABCAT_BUDGET fails before the first suite, used or not
    worst = EXIT_OK
    for name in names:
        try:
            result = run_suite(name, jobs=args.jobs)
        except KeyError as exc:
            raise CliError(exc.args[0], EXIT_PARSE)
        print(result.summary())
        if not result.ok:
            worst = EXIT_MISMATCH
    return worst


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stabcat",
        description="stability data, HN filtrations and torsion pairs on small abelian categories")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a stability datum or torsion pair")
    p.add_argument("--ambient", required=True)
    p.add_argument("--data", required=True, help="JSON file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("hn", help="HN filtration of one object under a datum")
    p.add_argument("--ambient", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--object", required=True)
    p.set_defaults(func=cmd_hn)

    p = sub.add_parser("finest", help="enumerate finest stability data")
    p.add_argument("--ambient", required=True)
    p.add_argument("--upto-tau", action="store_true", dest="upto_tau")
    p.set_defaults(func=cmd_finest)

    p = sub.add_parser("torsion", help="enumerate or classify torsion pairs")
    p.add_argument("--ambient", required=True)
    p.add_argument("--method", choices=["brute", "ray-coray", "cuts"], default="brute")
    p.add_argument("--upto-tau", action="store_true", dest="upto_tau")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_torsion)

    p = sub.add_parser("refine", help="refine a valid datum to a finest one")
    p.add_argument("--ambient", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("compare", help="equivalence and finer/coarser comparison")
    p.add_argument("--ambient", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--data2", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify-table", help="recompute a paper table and diff the golden")
    p.add_argument("table", choices=sorted(TABLE_AMBIENTS))
    p.set_defaults(func=cmd_verify_table)

    p = sub.add_parser("oracle-check", help="run a linear-algebra cross-check suite")
    p.add_argument("suite", help="suite name or 'all'")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse reads the value of `--opt=--` as an empty list
    for dest, value in vars(args).items():
        if isinstance(value, list):
            print(f"error: --{dest} needs a value other than '--'", file=sys.stderr)
            sys.exit(EXIT_PARSE)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull,
        # so that the interpreter's final flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before all output was written", file=sys.stderr)
        code = EXIT_MISMATCH
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = exc.code
    except BudgetSettingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_PARSE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        code = EXIT_BUDGET
    except EnumerationBoundError as exc:
        print(f"enumeration bound exceeded: {exc}", file=sys.stderr)
        code = EXIT_BUDGET
    except SizeLimitError as exc:
        print(f"size limit exceeded: {exc}", file=sys.stderr)
        code = EXIT_BUDGET
    except WindowError as exc:
        print(f"window violation: {exc}", file=sys.stderr)
        code = EXIT_WINDOW
    except (OrderError, AmbientError, SubcatError, FormatError, IntervalError, TubeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_MISMATCH
    sys.exit(code)


if __name__ == "__main__":
    main()
