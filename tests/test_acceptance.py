"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Universal statements about the windowed sheaf models are checked for every
object inside the configured window (WINDOW-VERIFIED); the infinite-category
classifications are represented by the windowed property suites plus the
in-window no-other-finest searches exercised in the model test files.
"""

import random
import time
from collections import Counter

from stabcat import checks
from stabcat.ambient import IntervalAmbient, TubeAmbient
from stabcat.ambients import parse_ambient
from stabcat.stability import (enumerate_finest, enumerate_valid, hn_chains, hn_filtration,
                               is_coarser, is_finest, split_phase, tau_orbit_size, validate)
from stabcat.tables import verify_table
from stabcat.torsion import (classify_tube_torsion_pairs, enumerate_torsion_pairs,
                             torsion_pairs_from_finest, validate_torsion_pair)


def report(num, description, ok, elapsed=None):
    status = "PASS" if ok else "FAIL"
    timing = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"[criterion {num:02d}] {status}: {description}{timing}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_a2_torsion_table():
    t0 = time.time()
    ok, diffs = verify_table("a2-torsion")
    elapsed = time.time() - t0
    rows = len(enumerate_torsion_pairs(IntervalAmbient(2)))
    report(1, f"A_2 torsion table: exact golden match, {rows} non-trivial pairs, "
              f"computed in {elapsed:.2f}s (< 1s)",
           ok and rows == 3 and elapsed < 1.0, elapsed)


def test_criterion_02_a3_torsion_table():
    t0 = time.time()
    ok, _ = verify_table("a3-torsion")
    rows = len(enumerate_torsion_pairs(IntervalAmbient(3)))
    report(2, f"A_3 torsion table: exact golden match, {rows} non-trivial pairs",
           ok and rows == 12, time.time() - t0)


def test_criterion_03_a3_finest():
    t0 = time.time()
    ok, _ = verify_table("a3-finest")
    data = enumerate_finest(IntervalAmbient(3))
    hist = dict(Counter(len(sd.phases()) for sd in data))
    report(3, f"A_3 finest data: {len(data)} classes, histogram {hist}",
           ok and len(data) == 9 and hist == {3: 1, 4: 4, 5: 2, 6: 2}, time.time() - t0)


def test_criterion_04_t3_finest():
    t0 = time.time()
    ok, _ = verify_table("t3-finest")
    t3 = TubeAmbient(3)
    upto = enumerate_finest(t3, upto_tau=True)
    total = enumerate_finest(t3)
    orbits = [tau_orbit_size(t3, sd) for sd in total]
    report(4, f"T_3 finest data: {len(upto)} classes up to tau, {len(total)} total, "
              f"orbit sizes {sorted(set(orbits))}",
           ok and len(upto) == 4 and len(total) == 12 and set(orbits) == {3},
           time.time() - t0)


def test_criterion_05_t3_torsion_three_ways():
    t0 = time.time()
    ok, _ = verify_table("t3-torsion")
    t3 = TubeAmbient(3)
    brute = {p.key() for p in enumerate_torsion_pairs(t3)}
    structural = {p.key() for p in classify_tube_torsion_pairs(3)}
    cuts = {p.key() for p in torsion_pairs_from_finest(t3)}
    upto = enumerate_torsion_pairs(t3, upto_tau=True)
    report(5, f"T_3 torsion pairs: table match, {len(upto)} classes up to tau, "
              f"brute = ray/coray classifier = cuts ({len(brute)} pairs)",
           ok and len(upto) == 6 and brute == structural == cuts, time.time() - t0)


def test_criterion_06_hom_oracle():
    t0 = time.time()
    result = checks.check_tube_hom(n_max=4, jobs=4)
    elapsed = time.time() - t0
    report(6, f"Hom oracle agreement: {result.total} pairs (n <= 4, lengths <= 2n), "
              f"{len(result.mismatches)} mismatches",
           result.ok and elapsed < 300, elapsed)


def test_criterion_07_closure_and_middle_oracle():
    t0 = time.time()
    results = [
        checks.check_tube_closure(2, p=2), checks.check_tube_closure(3, p=2),
        checks.check_tube_closure(2, p=3), checks.check_tube_closure(3, p=3),
        checks.check_tube_middle_terms(p=2), checks.check_tube_middle_terms(p=3),
    ]
    total = sum(r.total for r in results)
    bad = sum(len(r.mismatches) for r in results)
    report(7, f"closure & middle-term oracle agreement: {total} cases over "
              f"GF(2) and GF(3), {bad} mismatches", bad == 0, time.time() - t0)


def test_criterion_08_hn_uniqueness():
    t0 = time.time()
    counted = 0
    for amb in (TubeAmbient(2), TubeAmbient(3), IntervalAmbient(2), IntervalAmbient(3)):
        for sd in enumerate_valid(amb):
            for x in amb.carrier():
                chains = hn_chains(amb, sd, x)
                assert len(chains) == 1, (amb.spec_string(), str(sd), str(x), len(chains))
                counted += 1
    report(8, f"HN uniqueness: exactly one decreasing chain decomposition for "
              f"{counted} (datum, object) pairs over every valid datum on "
              f"T_2, T_3, A_2, A_3", True, time.time() - t0)


def test_criterion_09_finest_criterion_mechanized():
    t0 = time.time()
    checked = splits = 0
    for amb in (TubeAmbient(2), IntervalAmbient(2)):
        for sd in enumerate_valid(amb):
            finest, witness = is_finest(amb, sd)
            mutual = all(
                amb.hom_nonzero(x, y)
                for piece in sd.piece_sequence()
                for x in piece for y in piece if x != y)
            assert finest == mutual
            checked += 1
            if not finest:
                ph, x, _ = witness
                refined = split_phase(amb, sd, ph, x)
                assert validate(amb, refined).valid
                assert is_coarser(amb, sd, refined) is not None
                assert len(refined.phases()) > len(sd.phases())
                splits += 1
    report(9, f"finest-criterion both ways on all {checked} valid data over T_2 and A_2; "
              f"{splits} non-finest data split into strictly finer valid data",
           splits > 0, time.time() - t0)


def test_criterion_10_kronecker():
    from stabcat.sheaves.kronecker import (KronI, KronP, KronR, dim_vector,
                                           finest_kron_directing, finest_kron_two_phase,
                                           kron_torsion_family)

    t0 = time.time()
    amb = parse_ambient("kronecker:window=6:points=3")
    ok = True
    for sd in (finest_kron_directing(amb), finest_kron_two_phase(amb)):
        ok &= validate(amb, sd).valid and is_finest(amb, sd)[0]
    two = finest_kron_two_phase(amb)
    for x in [KronP(2), KronP(4), KronI(3), KronR("0", 2), KronR("inf", 3)]:
        m, n = dim_vector(x)
        steps = hn_filtration(amb, two, x).steps
        ok &= [list(f) for _, f, _ in steps] == [[KronP(1)] * n, [KronI(1)] * m]
    for row, kwargs in [(1, dict(points=())), (1, dict(points=("0",))),
                        (2, dict(n=2)), (3, dict(n=2)), (4, dict())]:
        pair = kron_torsion_family(amb, row, **kwargs)
        ok &= validate_torsion_pair(amb, pair.t, pair.f).valid
    report(10, "Kronecker window K=D=6: both finest classes validate and are finest; "
               "dimension-vector HN rule on 5 samples; all 4 torsion families validate",
           ok, time.time() - t0)


def test_criterion_11_p1():
    from stabcat.sheaves.p1 import (P1Line, P1Tor, finest_p1, slope_data_p1,
                                    torsion_family_degree, torsion_family_points)

    t0 = time.time()
    amb = parse_ambient("p1:window=-5..5:points=3")
    rng = random.Random(2026)
    ok = True
    slope = slope_data_p1(amb)
    ok &= validate(amb, slope).valid
    for _ in range(10):
        order = list(amb.points)
        rng.shuffle(order)
        sd = finest_p1(amb, order)
        ok &= validate(amb, sd).valid and is_finest(amb, sd)[0]
        idx = {ph: i for i, ph in enumerate(sd.phases())}
        piece_of = sd.piece_of_map()
        for n in range(amb.lo, amb.hi):
            ok &= idx[piece_of[P1Line(n)]] < idx[piece_of[P1Line(n + 1)]]
        ok &= all(idx[piece_of[P1Line(amb.hi)]] < idx[piece_of[P1Tor(x, 1)]]
                  for x in amb.points)
        ok &= is_coarser(amb, slope, sd) is not None
    for pts in [("0",), ("0", "1", "lam")]:
        pair = torsion_family_points(amb, pts)
        ok &= validate_torsion_pair(amb, pair.t, pair.f).valid
    for n in (-1, 0, 2):
        pair = torsion_family_degree(amb, n)
        ok &= validate_torsion_pair(amb, pair.t, pair.f).valid
    report(11, "P^1 window -5..5: 10 random-point-order finest data validate, are finest, "
               "satisfy the phase constraints and refine slope data; both torsion "
               "families validate [WINDOW-VERIFIED]", ok, time.time() - t0)


def test_criterion_12_x2():
    from stabcat.sheaves.x2 import X2Exc, X2Line, finest_x2, slope_data_x2, x2_torsion_family

    t0 = time.time()
    amb = parse_ambient("x2:window=-4..4:points=3")
    ok = True
    for family, kwargs in [("full", {}), ("coset", {}), ("lm", dict(m=0))]:
        sd = finest_x2(amb, family, **kwargs)
        ok &= validate(amb, sd).valid and is_finest(amb, sd)[0]
    coset = finest_x2(amb, "coset")

    def factors(x):
        return [(str(ph), [str(f) for f in fac]) for _, fac, ph in
                hn_filtration(amb, coset, x).steps]

    ok &= factors(X2Line(0, 0)) == [("-1", ["O(-1c+1x1)"]), ("(inf|0)", ["S[1,0]^(1)"])]
    ok &= factors(X2Exc(1, 5)) == [("(inf|1)", ["S[1,1]^(1)"]), ("(inf|1/2)", ["S[1,1]^(4)"])]
    ok &= factors(X2Exc(0, 5)) == [("(inf|1/2)", ["S[1,1]^(4)"]), ("(inf|0)", ["S[1,0]^(1)"])]
    ok &= factors(X2Exc(0, 6)) == [("(inf|1)", ["S[1,1]^(1)"]), ("(inf|1/2)", ["S[1,1]^(4)"]),
                                   ("(inf|0)", ["S[1,0]^(1)"])]
    for row, kwargs in [("I", dict(points=("0",))), ("II", dict(points=())),
                        ("III", dict(points=("0",))), ("IV", dict()),
                        ("V", dict()), ("VI", dict())]:
        pair = x2_torsion_family(amb, row, **kwargs)
        ok &= validate_torsion_pair(amb, pair.t, pair.f).valid
    slope = slope_data_x2(amb)
    ok &= validate(amb, slope).valid
    ok &= is_coarser(amb, slope, coset) is None
    ok &= is_coarser(amb, slope, finest_x2(amb, "full")) is not None
    report(12, "X(2) window -4..4: all three finest families validate and are finest; "
               "coset HN filtrations match the classification diagrams; all six torsion "
               "families validate; coset family is NOT a slope refinement "
               "[WINDOW-VERIFIED]", ok, time.time() - t0)
