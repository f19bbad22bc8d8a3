import contextlib
import io
import json
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from stabcat import cli


def run_module(*args):
    """`python -m stabcat.cli` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "stabcat.cli", *args],
                          capture_output=True, text=True)


def run_cli(*args, env_extra=None):
    """`cli.main` in-process, with `env_extra` set only while it runs: the
    exit code and captured output, shaped like `run_module`'s result."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env_extra or {}), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        cli.main(list(args))
    return subprocess.CompletedProcess(args, exc.value.code, out.getvalue(), err.getvalue())


@pytest.mark.parametrize("args", [("torsion", "--ambient", "an:3"),
                                  ("verify-table", "a2-torsion")])
def test_closed_stdout_exits_one_without_traceback(args):
    """A reader that closes stdout before the command prints: exit 1 and one
    error line on stderr, no traceback from the command or the final flush."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run([sys.executable, "-m", "stabcat.cli", *args], stdout=write_end,
                             stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert out.returncode == 1
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert "Traceback" not in out.stderr and "Exception ignored" not in out.stderr


def test_verify_table_exit_zero():
    out = run_module("verify-table", "a2-torsion")
    assert out.returncode == 0
    assert "exact match" in out.stdout


def test_hn_command(tmp_path):
    data = tmp_path / "a2.json"
    data.write_text(json.dumps({"order": ["1", "2"], "pieces": {"1": ["S1"], "2": ["S2"]}}))
    out = run_cli("hn", "--ambient", "an:2", "--data", str(data), "--object", "M[1,2]")
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[1].strip() == "phase 2: M[2,2]@A2"
    assert lines[2].strip() == "phase 1: M[1,1]@A2"


def test_validate_invalid_exit_one(tmp_path):
    data = tmp_path / "bad.json"
    data.write_text(json.dumps({"order": ["1", "2"],
                                "pieces": {"1": ["S1^(1)@2"], "2": ["S0^(1)@2"]}}))
    out = run_cli("validate", "--ambient", "tube:2", "--data", str(data))
    assert out.returncode == 1
    assert "HN failure" in out.stdout


def test_validate_torsion_pair_file(tmp_path):
    data = tmp_path / "pair.json"
    data.write_text(json.dumps({"T": ["S1"], "F": ["P1", "S2"]}))
    out = run_cli("validate", "--ambient", "an:2", "--data", str(data))
    assert out.returncode == 0 and "valid" in out.stdout


def test_parse_error_exit_two(tmp_path):
    out = run_cli("validate", "--ambient", "nonsense:9", "--data", "/dev/null")
    assert out.returncode == 2


def test_window_violation_exit_three(tmp_path):
    data = tmp_path / "sd.json"
    data.write_text(json.dumps({"order": ["0"], "pieces": {"0": ["O(0)"]}}))
    out = run_cli("hn", "--ambient", "p1:window=-2..2:points=2",
                  "--data", str(data), "--object", "O(99)")
    assert out.returncode == 3
    assert "window" in out.stderr.lower()


def test_budget_violation_exit_four():
    out = run_cli("oracle-check", "tube-middle", env_extra={"STABCAT_BUDGET": "1"})
    assert out.returncode == 4
    assert "budget" in out.stderr.lower()
    # the witness: both end terms, the candidate middle term, the count and the budget
    assert out.stderr.strip() == ("budget exceeded: Hom enumeration needs 2 maps, budget 1 "
                                  "(A = S0^(1)@1, B = S0^(1)@1, E = S0^(2)@1)")


def test_budget_holds_after_a_warm_run():
    """An answer cached by an earlier run in the process does not bypass a
    smaller budget: the second run fails exactly as a fresh process does."""
    assert run_cli("oracle-check", "tube-middle", "--jobs", "1").returncode == 0
    out = run_cli("oracle-check", "tube-middle", "--jobs", "1", env_extra={"STABCAT_BUDGET": "1"})
    assert out.returncode == 4 and out.stdout == ""
    assert out.stderr == ("budget exceeded: Hom enumeration needs 2 maps, budget 1 "
                          "(A = S0^(1)@1, B = S0^(1)@1, E = S0^(2)@1)\n")


@pytest.mark.parametrize("budget", ["abc", "1e6", "-5"])
def test_bad_budget_setting_exit_two(budget):
    """A STABCAT_BUDGET that is not a non-negative integer: exit 2 with one
    error line naming the variable and the value, before the first suite,
    even for a suite that never checks the budget."""
    env = dict(os.environ, STABCAT_BUDGET=budget)
    out = subprocess.run([sys.executable, "-m", "stabcat.cli", "oracle-check", "tube-hom"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr == ("error: STABCAT_BUDGET must be a non-negative integer, "
                          f"got {budget!r}\n")


@pytest.mark.parametrize("spec, size", [
    ("an:99999999999999999999", 4999999999999999999950000000000000000000),
    ("tube:13", 338),
    ("p1:window=-200..200:points=2", 405),
    ("x2:window=-80..80:points=3", 338),
    ("kronecker:window=61:points=3", 305),
])
def test_oversize_spec_exit_four(spec, size):
    """A spec asking for more members than the limit is refused from its
    parameters, before any carrier member is built."""
    refuse = mock.Mock(side_effect=AssertionError("a carrier was built"))
    with mock.patch.multiple("stabcat.ambients", TubeAmbient=refuse, IntervalAmbient=refuse,
                             P1Ambient=refuse, X2Ambient=refuse, KroneckerAmbient=refuse):
        out = run_cli("finest", "--ambient", spec)
    assert out.returncode == 4 and out.stdout == ""
    assert out.stderr == (f"size limit exceeded: {spec} asks for {size} carrier members, "
                          "more than the limit 300\n")


@pytest.mark.parametrize("spec, key", [
    ("p1:window=-2..2:point=2", "point"),
    ("x2:windw=-9..9", "windw"),
    ("kronecker:window=6:pts=3", "pts"),
])
def test_unknown_ambient_option_exit_two(spec, key):
    out = run_cli("finest", "--ambient", spec)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr == (f"error: bad ambient spec: unknown ambient option {key!r} in {spec!r} "
                          "(known: points, window)\n")


@pytest.mark.parametrize("spec, key", [
    ("p1:window=1..1:window=2..2", "window"),
    ("x2:points=1:window=0..0:points=2", "points"),
    ("kronecker:window=3:window=3", "window"),
])
def test_repeated_ambient_option_exit_two(spec, key):
    out = run_cli("finest", "--ambient", spec)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr == f"error: bad ambient spec: ambient option {key!r} given twice in {spec!r}\n"


def test_enumeration_bound_exit_four():
    out = run_module("finest", "--ambient", "tube:7")
    assert out.returncode == 4
    assert out.stderr.strip() == ("enumeration bound exceeded: "
                                  "carrier size 98 exceeds enumeration bound 64")


def test_finest_limit_exit_four():
    out = run_cli("finest", "--ambient", "an:6")
    assert out.returncode == 4 and out.stdout == ""
    assert out.stderr == ("enumeration bound exceeded: an:6 has 340549 finest data, "
                          "more than the enumeration limit 20000\n")


@pytest.mark.parametrize("command", ["finest", "torsion"])
def test_lattice_class_limit_exit_four(monkeypatch, command):
    from stabcat import stability

    monkeypatch.setattr(stability, "FINEST_LIMIT", 100)
    out = run_cli(command, "--ambient", "an:5")
    assert out.returncode == 4 and out.stdout == ""
    assert out.stderr == ("enumeration bound exceeded: an:5 has at least 101 torsion classes, "
                          "more than the enumeration limit 100\n")


def test_enumeration_disabled_exit_two():
    out = run_module("torsion", "--ambient", "kronecker:window=6:points=3")
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert out.stderr.strip().splitlines() == [out.stderr.strip()]
    assert "enumeration is disabled" in out.stderr


@pytest.mark.parametrize("window", [6, 20])
@pytest.mark.parametrize("command", [["finest"], ["torsion", "--method", "brute"],
                                     ["torsion", "--method", "cuts"]],
                         ids=["finest", "torsion-brute", "torsion-cuts"])
def test_kronecker_enumeration_disabled_exit_two(command, window):
    """Every enumeration on a Kronecker window exits 2, whatever its size."""
    spec = f"kronecker:window={window}:points=3"
    out = run_cli(*command, "--ambient", spec)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr == (f"error: {spec} models only part of its extension structure; "
                          "exhaustive enumeration is disabled\n")


def test_finest_deterministic_output():
    a = run_cli("finest", "--ambient", "tube:3", "--upto-tau")
    b = run_cli("finest", "--ambient", "tube:3", "--upto-tau")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert "4 finest stability data" in a.stdout


def test_torsion_methods_agree_via_cli():
    brute = run_cli("torsion", "--ambient", "tube:3", "--method", "brute", "--upto-tau", "--json")
    structural = run_cli("torsion", "--ambient", "tube:3", "--method", "ray-coray",
                         "--upto-tau", "--json")
    assert brute.returncode == structural.returncode == 0
    assert json.loads(brute.stdout) == json.loads(structural.stdout)


def test_refine_and_compare(tmp_path):
    coarse = tmp_path / "coarse.json"
    coarse.write_text(json.dumps(
        {"order": ["1"], "pieces": {"1": ["S1", "S2", "P1"]}}))
    out = run_cli("refine", "--ambient", "an:2", "--data", str(coarse))
    assert out.returncode == 0
    refined = tmp_path / "refined.json"
    refined.write_text(out.stdout)
    cmp_out = run_cli("compare", "--ambient", "an:2", "--data", str(coarse),
                      "--data2", str(refined))
    assert cmp_out.returncode == 0
    assert "first coarser than second: True" in cmp_out.stdout
    assert "equivalent: False" in cmp_out.stdout


def test_emitted_json_reparses(tmp_path):
    out = run_cli("finest", "--ambient", "an:3")
    body = out.stdout.split("\n", 1)[1]
    docs = json.loads(body)
    assert len(docs) == 9
    from stabcat.ambients import parse_ambient
    from stabcat.stability import StabilityData

    amb = parse_ambient("an:3")
    for doc in docs:
        sd = StabilityData.from_json(doc, amb)
        assert sd.to_json() == {k: doc[k] for k in ("order", "pieces")}


def test_oracle_check_unknown_suite():
    from stabcat.checks import SUITES

    out = run_cli("oracle-check", "no-such-suite")
    assert out.returncode == 2
    assert out.stderr == (f"error: unknown oracle-check suite 'no-such-suite'; "
                          f"known: {sorted(SUITES)}\n")


def test_jobs_flag_result_independent():
    one = run_cli("oracle-check", "tube-hom", "--jobs", "1")
    four = run_cli("oracle-check", "tube-hom", "--jobs", "4")
    assert one.returncode == four.returncode == 0
    assert one.stdout.replace("jobs=1", "jobs=N") == four.stdout.replace("jobs=4", "jobs=N")


def test_jobs_defaults_to_one():
    """Without --jobs the suites run serially: pool workers share no oracle memo."""
    assert cli.build_parser().parse_args(["oracle-check", "tube-hom"]).jobs == 1


class _RecordingPool:
    """Stands in for multiprocessing.Pool: records its size, maps in process."""
    sizes = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return [fn(t) for t in tasks]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_rejected(monkeypatch, capsys, jobs):
    import multiprocessing

    from stabcat import cli

    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["oracle-check", "tube-socle", "--jobs", jobs])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --jobs must be at least 1, got {jobs}\n"
    assert _RecordingPool.sizes == []


def test_jobs_pool_capped_at_cpu_count(monkeypatch):
    import multiprocessing

    from stabcat import checks

    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
    monkeypatch.setattr(checks.os, "cpu_count", lambda: 3)
    one = checks.check_tube_hom(n_max=2, jobs=1)
    many = checks.check_tube_hom(n_max=2, jobs=10 ** 6)
    two = checks.check_tube_hom(n_max=2, jobs=2)
    assert _RecordingPool.sizes == [3, 2]
    assert one.ok and many.ok and two.ok
    assert one.total == many.total == two.total
    monkeypatch.setattr(checks.os, "cpu_count", lambda: None)
    checks.check_tube_hom(n_max=1, jobs=4)
    assert _RecordingPool.sizes == [3, 2, 1]


def test_verify_table_mismatch_prints_diff(monkeypatch):
    import stabcat.tables as tables

    real = tables.golden_text("a2-torsion")
    doc = json.loads(real)
    doc["rows"] = doc["rows"][:-1]

    def fake_golden(name):
        return json.dumps(doc)

    monkeypatch.setattr(tables, "golden_text", fake_golden)
    ok, diffs = tables.verify_table("a2-torsion")
    assert not ok and any("not in golden" in d for d in diffs)


@pytest.mark.parametrize("command", ["validate", "hn"])
@pytest.mark.parametrize("doc", [{"order": ["1"]}, {"pieces": {"1": ["S1"]}}, [1, 2],
                                 {"order": ["1"], "pieces": {"1": [5]}}, 7],
                         ids=["no-pieces", "no-order", "list", "non-string", "number"])
def test_malformed_datum_exit_two(tmp_path, command, doc):
    data = tmp_path / "bad.json"
    data.write_text(json.dumps(doc))
    extra = ["--object", "S1"] if command == "hn" else []
    out = run_cli(command, "--ambient", "an:2", "--data", str(data), *extra)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert len(out.stderr.strip().splitlines()) == 1


def test_malformed_torsion_pair_exit_two(tmp_path):
    data = tmp_path / "pair.json"
    data.write_text(json.dumps({"T": ["S1"], "F": "S2"}))
    out = run_cli("validate", "--ambient", "an:2", "--data", str(data))
    assert out.returncode == 2
    assert out.stderr.strip() == 'error: "F" must be a list of strings'


def test_hn_combination_cap_exit_four(tmp_path, monkeypatch, capsys):
    import stabcat.stability as stability
    from stabcat.cli import main
    from stabcat.sheaves.kronecker import KroneckerAmbient, finest_kron_directing

    spec = "kronecker:window=6:points=3"
    data = tmp_path / "kron.json"
    data.write_text(json.dumps(finest_kron_directing(KroneckerAmbient(6, 3)).to_json()))
    monkeypatch.setattr(stability, "_HN_COMBO_CAP", 0)
    for command in (["validate"], ["hn", "--object", "P_3"]):
        with pytest.raises(SystemExit) as exc:
            main([command[0], "--ambient", spec, "--data", str(data), *command[1:]])
        assert exc.value.code == 4
        err = capsys.readouterr().err.strip()
        assert err.splitlines() == [err]
        assert "combinations of subobject chains exceed the cap 0" in err


@pytest.mark.parametrize("command, doc, extra, message", [
    ("validate", {"order": ["1"], "pieces": {"1": ["S_9"]}}, [],
     "error: bad interval [9,9] for A_2"),
    ("hn", {"order": ["1", "2"], "pieces": {"1": ["S1"], "2": ["S2"]}}, ["--object", "S_9"],
     "error: bad interval [9,9] for A_2"),
    ("validate", {"order": ["1"], "pieces": {"2": ["S1"]}}, [],
     "error: phase 2 is not carried by the order"),
], ids=["bad-descriptor-in-datum", "bad-object", "phase-outside-order"])
def test_bad_descriptor_or_phase_exit_two(tmp_path, command, doc, extra, message):
    data = tmp_path / "sd.json"
    data.write_text(json.dumps(doc))
    out = run_cli(command, "--ambient", "an:2", "--data", str(data), *extra)
    assert out.returncode == 2
    assert out.stderr.strip() == message


def test_bad_tube_descriptor_exit_two(tmp_path):
    data = tmp_path / "sd.json"
    data.write_text(json.dumps({"order": ["1"], "pieces": {"1": ["S0^(1)@2"]}}))
    out = run_cli("hn", "--ambient", "tube:2", "--data", str(data), "--object", "S0^(1)@3")
    assert out.returncode == 2
    assert out.stderr.strip() == "error: descriptor 'S0^(1)@3' has rank 3, expected 2"


def run_main(capsys, *argv):
    """`cli.main` in-process: (exit code, stdout, stderr)."""
    from stabcat.cli import main

    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def test_failing_table_family_exit_one(monkeypatch, capsys):
    """A family row that fails its own validation exits 1 with one line."""
    import stabcat.tables as tables
    from stabcat.torsion import TorsionReport

    monkeypatch.setattr(tables, "validate_torsion_pair",
                        lambda amb, t, f: TorsionReport(valid=False))
    code, _, err = run_main(capsys, "verify-table", "p1-torsion")
    assert code == 1
    assert err.strip() == "error: p1 point family ('0',) failed validation"


@pytest.mark.parametrize("spec, limit", [
    ("p1:window=-1..1:points=-1", 6),
    ("x2:window=-1..1:points=-1", 3),
    ("kronecker:window=3:points=-1", 3),
], ids=["p1", "x2", "kronecker"])
def test_negative_point_count_exit_two(tmp_path, capsys, spec, limit):
    data = tmp_path / "sd.json"
    data.write_text(json.dumps({"order": ["1"], "pieces": {"1": []}}))
    code, out, err = run_main(capsys, "validate", "--ambient", spec, "--data", str(data))
    assert code == 2 and out == ""
    assert err.strip() == f"error: bad ambient spec: the point count must lie in 0..{limit}, got -1"


@pytest.mark.parametrize("spec, member, obj", [
    ("p1:window=-1..1:points=1", "O(0)", "S[0]^(0)"),
    ("x2:window=-1..1:points=1", "O(0c+0x1)", "S[0]^(0)"),
    ("x2:window=-1..1:points=1", "O(0c+0x1)", "S[1,0]^(0)"),
    ("kronecker:window=3:points=1", "P_1", "R[0]^(0)"),
    ("kronecker:window=3:points=1", "P_1", "P_0"),
    ("kronecker:window=3:points=1", "P_1", "I_0"),
], ids=["p1-point", "x2-point", "x2-exceptional", "kronecker-regular",
        "kronecker-preprojective", "kronecker-preinjective"])
def test_zero_length_descriptor_exit_two(tmp_path, capsys, spec, member, obj):
    data = tmp_path / "sd.json"
    data.write_text(json.dumps({"order": ["1"], "pieces": {"1": [member]}}))
    code, _, err = run_main(capsys, "hn", "--ambient", spec, "--data", str(data), "--object", obj)
    assert code == 2
    assert err.strip() == f"error: length or index 0 is below 1 in {obj!r}"


@pytest.mark.parametrize("datum", ["finest_kron_two_phase", "finest_kron_directing"])
@pytest.mark.parametrize("obj", ["R[0]^(3000)", "R[inf]^(4)", "P_4", "I_9"])
def test_kronecker_object_outside_window_exit_three(tmp_path, capsys, datum, obj):
    from stabcat.sheaves import kronecker

    amb = kronecker.KroneckerAmbient(3, 3)
    data = tmp_path / "sd.json"
    data.write_text(json.dumps(getattr(kronecker, datum)(amb).to_json()))
    code, out, err = run_main(capsys, "hn", "--ambient", amb.spec_string(), "--data", str(data),
                              "--object", obj)
    assert code == 3 and out == ""
    assert err.strip() == f"window violation: {obj} lies outside the window 1..3"


_INT = st.integers(-2, 7).map(str)
_SPECS = st.one_of(
    st.builds("tube:{}".format, st.integers(1, 3)),
    st.builds("an:{}".format, st.integers(1, 3)),
    st.builds("p1:window={}..{}:points={}".format, st.integers(-2, 0), st.integers(0, 2),
              st.integers(0, 6)),
    st.builds("x2:window={}..{}:points={}".format, st.integers(-1, 0), st.integers(0, 1),
              st.integers(0, 3)),
    st.builds("kronecker:window={}:points={}".format, st.integers(2, 4), st.integers(0, 3)),
    st.builds("{}:window={}..{}:points={}".format, st.sampled_from(["p1", "x2", "kronecker"]),
              _INT, _INT, _INT),
    st.text(alphabet="tubeanpkx12:=.-", max_size=12),
)
_DESCRIPTORS = st.one_of(
    st.builds("S{}^({})@{}".format, _INT, _INT, _INT),
    st.builds("S{}^({})".format, _INT, _INT),
    st.builds("M[{},{}]".format, _INT, _INT),
    st.builds("{}{}".format, st.sampled_from(["S", "P", "I", "S_", "P_", "I_"]), _INT),
    st.builds("O({})".format, _INT),
    st.builds("O({}c+{}x1)".format, _INT, _INT),
    st.builds("S[{}]^({})".format, st.sampled_from(["0", "1", "lam", "inf", "9"]), _INT),
    st.builds("S[1,{}]^({})".format, _INT, _INT),
    st.builds("R[{}]^({})".format, st.sampled_from(["0", "1", "inf", "lam"]), _INT),
    st.text(alphabet="SPIMORc+x1^()[],_@0-\n", max_size=10),
)
_PHASES = st.one_of(_INT, st.sampled_from(["inf", "1/2", "1/0", "(inf|0)", "(0|1)", "(", "a|b"]),
                    st.text(alphabet="ab1/|()-\n ", max_size=5))
_JSON = st.recursive(st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=4),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                     max_leaves=6)


@st.composite
def _documents(draw, members):
    """A datum, a torsion pair or arbitrary JSON.  A clean document draws
    its members from `members` (the ambient's carrier descriptors) and its
    phases from small integers; any other may hold malformed strings."""
    kind = draw(st.sampled_from(["datum", "datum", "datum", "pair", "json"]))
    if kind == "json":
        return draw(_JSON)
    member = st.sampled_from(members) if members else _DESCRIPTORS
    clean = members and draw(st.booleans())
    pick = st.lists(member if clean else member | _DESCRIPTORS, max_size=4)
    if kind == "pair":
        return {"T": draw(pick), "F": draw(pick)}
    order = draw(st.lists(_INT if clean else _PHASES, max_size=4, unique=bool(clean)))
    keys = draw(st.lists(st.sampled_from(order) if clean and order else _PHASES, max_size=4))
    return {"order": order, "pieces": {k: draw(pick) for k in keys}}


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(command=st.sampled_from(["validate", "hn", "refine", "compare"]), spec=_SPECS,
       data=st.data())
def test_fuzz_cli_exit_codes(tmp_path, capsys, command, spec, data):
    """Whatever the ambient spec, datum documents or descriptor, the CLI exits
    with a documented code and at most one line on stderr."""
    from stabcat.ambients import parse_ambient

    try:
        members = [str(x) for x in parse_ambient(spec).carrier()]
    except ValueError:  # AmbientError, or a non-integer field
        members = []
    paths = []
    for name in ("d.json", "d2.json"):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(data.draw(_documents(members))))
    obj = data.draw(st.sampled_from(members) | _DESCRIPTORS if members else _DESCRIPTORS)
    extra = {"hn": [f"--object={obj}"], "compare": [f"--data2={paths[1]}"]}.get(command, [])
    code, _, err = run_main(capsys, command, f"--ambient={spec}", f"--data={paths[0]}", *extra)
    assert code in range(5)
    assert "Traceback" not in err
    assert len(err.splitlines()) <= 1, err


@pytest.mark.parametrize("spec, methods", [("tube:3", ("brute", "cuts", "ray-coray")),
                                           ("an:3", ("brute", "cuts")),
                                           ("tube:5", ("brute", "cuts", "ray-coray"))])
def test_torsion_methods_print_identical_upto_tau_json(spec, methods):
    """Every method ends in the same sort and τ-dedupe, so the documents
    match byte for byte, τ-orbit sizes included."""
    outs = [run_cli("torsion", "--ambient", spec, "--method", m, "--upto-tau", "--json")
            for m in methods]
    assert all(out.returncode == 0 and out.stderr == "" for out in outs)
    assert len({out.stdout for out in outs}) == 1


@pytest.mark.parametrize("command, option", [("validate", "--ambient"), ("validate", "--data"),
                                             ("compare", "--data2"), ("hn", "--object"),
                                             ("finest", "--ambient")])
def test_double_dash_option_value_exit_two(tmp_path, capsys, command, option):
    """argparse reads `--opt=--` as an empty list; the CLI names the option
    on one line and exits 2 instead of failing with a traceback."""
    data = tmp_path / "a2.json"
    data.write_text(json.dumps({"order": ["1"], "pieces": {"1": ["S1"]}}))
    args = {"--ambient": "an:2", "--data": str(data), "--data2": str(data), "--object": "S1"}
    used = {"validate": ("--ambient", "--data"), "hn": ("--ambient", "--data", "--object"),
            "compare": ("--ambient", "--data", "--data2"), "finest": ("--ambient",)}[command]
    argv = [f"{o}={'--' if o == option else args[o]}" for o in used]
    code, out, err = run_main(capsys, command, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {option} needs a value other than '--'\n"
