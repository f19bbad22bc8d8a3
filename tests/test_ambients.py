import itertools

import pytest

from stabcat.ambient import Ambient, AmbientError, TubeAmbient, WindowError, degree_pairs
from stabcat.ambients import parse_ambient
from stabcat.oracle import middle_terms_bruteforce
from stabcat.sheaves import KronR, P1Line, P1Tor, X2Exc, X2Line, X2Ord
from stabcat.tube import TubeIndec

ALL_SPECS = [
    "tube:1", "tube:3", "an:2", "an:3",
    "p1:window=-3..3:points=2",
    "x2:window=-2..2:points=2",
    "kronecker:window=4:points=3",
]


def test_degree_pairs_match_filter():
    """The line-family middle-term degrees against a filter over every c and d."""
    span = range(-20, 21)
    for lo, hi in itertools.product(range(-8, 9), repeat=2):
        expected = [(c, d) for c, d in itertools.product(span, span)
                    if c + d == lo + hi and lo < c <= d < hi]
        assert degree_pairs(lo, hi) == expected, (lo, hi)


def test_phase_quotients_defined_once():
    """Only the base class defines `phase_quotients`: a model gives a line
    bundle's quotients once, through `spread_splits` and `lengthen`, and
    every other object's through `decompositions`."""
    classes = [Ambient]
    for cls in classes:
        classes.extend(c for c in cls.__subclasses__() if c not in classes)
    assert len(classes) > 3
    assert [c.__name__ for c in classes if "phase_quotients" in vars(c)] == ["Ambient"]


def test_weighted_line_rules_defined_once():
    """X(2)'s model is P^1's with weight 2 plus its exceptional tube: the
    line-family rules, the margin column and the validation scope live in
    P1Ambient alone, the two models keep distinct object classes, and no
    second description of a line bundle's quotients is left."""
    import stabcat.ambient
    from stabcat.sheaves import P1Ambient, P1Line, X2Ambient, X2Line

    assert issubclass(X2Ambient, P1Ambient)
    assert not {"families", "middle_ranges", "_in_carrier", "__init__", "reported_members",
                "reported_lines", "internal_lines", "hn_scope", "exc_tube_members",
                "tubes"} & set(vars(X2Ambient))
    assert not hasattr(stabcat.ambient, "one_phase_quotients")
    assert P1Tor is not X2Ord and P1Line is not X2Line
    assert P1Tor("0", 1) != X2Ord("0", 1) and str(P1Tor("0", 1)) == str(X2Ord("0", 1))
    assert P1Line(3).dd == 3 and str(P1Line(3)) == "O(3)" and str(X2Line(1, 1)) == "O(1c+1x1)"


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_identity_morphisms(spec):
    amb = parse_ambient(spec)
    for x in amb.carrier():
        assert amb.hom_nonzero(x, x), str(x)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_parse_round_trip_on_carrier(spec):
    amb = parse_ambient(spec)
    for x in amb.carrier():
        assert amb.parse(str(x)) == x


@pytest.mark.parametrize("n", range(1, 5))
def test_tube_parse_embeds_hn_scope(n):
    amb = TubeAmbient(n)
    for x in amb.hn_scope():
        assert amb.parse(str(x)) == amb.embed(x), str(x)


def test_spec_string_round_trip():
    for spec in ALL_SPECS:
        amb = parse_ambient(spec)
        again = parse_ambient(amb.spec_string())
        assert again.carrier() == amb.carrier()


def test_bad_specs_rejected():
    for bad in ["tube", "an:x", "p1:window=5..-5", "q5:window=1..2", "p1:window=1",
                "p1:window=1..1:window=2..2"]:
        with pytest.raises((AmbientError, ValueError)):
            parse_ambient(bad)


def _degree(amb, d):
    # additive size function used to check middle-term conservation
    from stabcat.sheaves.kronecker import dim_vector
    from stabcat.sheaves.p1 import P1Line, P1Tor
    from stabcat.sheaves.x2 import X2Exc, X2Line, X2Ord

    if isinstance(d, P1Line):
        return d.n
    if isinstance(d, P1Tor):
        return d.t
    if isinstance(d, X2Line):
        return d.dd
    if isinstance(d, X2Exc):
        return d.t
    if isinstance(d, X2Ord):
        return 2 * d.t
    return sum(dim_vector(d))


def test_kronecker_middle_dim_vector_conservation():
    from stabcat.sheaves.kronecker import dim_vector

    amb = parse_ambient("kronecker:window=4:points=3")
    for a in amb.carrier():
        for b in amb.carrier():
            ta = tuple(x + y for x, y in zip(dim_vector(a), dim_vector(b)))
            for ms in amb.middle_terms(a, b):
                got = tuple(map(sum, zip(*(dim_vector(c) for c in ms))))
                assert got == ta, (str(a), str(b), ms)


@pytest.mark.parametrize("spec", [
    "p1:window=-3..3:points=2", "x2:window=-2..2:points=2",
])
def test_sheaf_middle_degree_conservation_on_actual_objects(spec):
    # conservation is exact before family truncation
    amb = parse_ambient(spec)
    for a in amb.carrier():
        for b in amb.carrier():
            for ai in amb._instances(a):
                for bi in amb._instances(b):
                    target = _degree(amb, ai) + _degree(amb, bi)
                    for ms in amb._middles_actual(ai, bi):
                        got = sum(_degree(amb, c) for c in ms)
                        assert got == target, (str(ai), str(bi), ms)



@pytest.mark.parametrize("spec, make", [
    ("p1:window=-1..1:points=1", lambda t: P1Tor("0", t)),
    ("x2:window=-1..1:points=1", lambda t: X2Ord("0", t)),
    ("kronecker:window=6:points=1", lambda t: KronR("0", t)),
], ids=["p1", "x2", "kronecker"])
def test_point_tube_middles_match_oracle(spec, make):
    """Extensions inside a rank-one point tube agree with the GF(2) matrix
    oracle on the cyclic quiver with one vertex, a > b included."""
    amb = parse_ambient(spec)
    for a in range(1, 6):
        for b in range(1, 7 - a):
            got = {tuple(sorted(ms, key=str)) for ms in amb._middles_actual(make(a), make(b))}
            want = {tuple(sorted((make(c.t) for c in ms), key=str))
                    for ms in middle_terms_bruteforce(("cyclic", 1), TubeIndec(1, 0, a),
                                                      TubeIndec(1, 0, b), p=2)}
            assert got == want, (a, b)


PARSE_WINDOWS = ["p1:window=-3..3:points=3", "x2:window=-3..3:points=3",
                 "p1:window=0..0:points=0", "x2:window=0..0:points=1"]
P1_33, X2_33, P1_00, X2_00 = PARSE_WINDOWS


_bad = "cannot parse sheaf descriptor {!r}".format
_below = "length or index 0 is below 1 in {!r}".format
PARSE_CASES = [
    (P1_33, "O(-3)", P1Line(-3)), (P1_33, " O(3) ", P1Line(3)),
    (P1_33, "O(-4)", (WindowError, "O(-4) lies outside the window -3..3")),
    (P1_33, "O(4)", (WindowError, "O(4) lies outside the window -3..3")),
    (P1_33, "O(1c)", (AmbientError, _bad("O(1c)"))),
    (P1_33, "O(1c+2x1)", (AmbientError, _bad("O(1c+2x1)"))),
    (P1_33, "O(1+1x1)", (AmbientError, _bad("O(1+1x1)"))),
    (P1_33, "S[lam]^(7)", P1Tor("lam", 2)), (P1_33, "S[0]^(1)", P1Tor("0", 1)),
    (P1_33, "S[mu]^(1)", (AmbientError, "unknown sample point 'mu'")),
    (P1_33, "S[1,2]^(1)", (AmbientError, "unknown sample point '1,2'")),
    (P1_33, "S[a,b]^(1)", (AmbientError, "unknown sample point 'a,b'")),
    (P1_33, "S[0]^(0)", (AmbientError, _below("S[0]^(0)"))),
    (P1_33, "S[1,0]^(0)", (AmbientError, _below("S[1,0]^(0)"))),
    (P1_33, "S[0]^(-1)", (AmbientError, _bad("S[0]^(-1)"))),
    (P1_00, "O(0)", P1Line(0)),
    (P1_00, "O(1)", (WindowError, "O(1) lies outside the window 0..0")),
    (P1_00, "S[0]^(1)", (AmbientError, "unknown sample point '0'")),
    (X2_33, "O(-4)", X2Line(-4, 0)), (X2_33, "O(-4c+1x1)", X2Line(-4, 1)),
    (X2_33, "O(3c+1x1)", X2Line(3, 1)), (X2_33, " O(2c) ", X2Line(2, 0)),
    (X2_33, "O(-1c+0x1)", X2Line(-1, 0)),
    (X2_33, "O(-5c+1x1)", (WindowError, "O(-5c+1x1) lies outside the window -3..3")),
    (X2_33, "O(4)", (WindowError, "O(4c+0x1) lies outside the window -3..3")),
    (X2_33, "O(1c+2x1)", (AmbientError, "line bundle x1-coefficient must be 0 or 1")),
    (X2_33, "O(1+1x1)", (AmbientError, _bad("O(1+1x1)"))),
    (X2_33, "O(1c+1)", (AmbientError, _bad("O(1c+1)"))),
    (X2_33, "S[1,0]^(7)", X2Exc(0, 3)), (X2_33, "S[1,1]^(4)", X2Exc(1, 4)),
    (X2_33, "S[lam]^(9)", X2Ord("lam", 2)),
    (X2_33, "S[1,2]^(1)", (AmbientError, _bad("S[1,2]^(1)"))),
    (X2_33, "S[a,b]^(1)", (AmbientError, _bad("S[a,b]^(1)"))),
    (X2_33, "S[0]^(0)", (AmbientError, _below("S[0]^(0)"))),
    (X2_33, "S[1,0]^(0)", (AmbientError, _below("S[1,0]^(0)"))),
    (X2_33, "S[mu]^(1)", (AmbientError, "unknown ordinary point 'mu'")),
    (X2_33, "S[inf]^(1)", (AmbientError, "unknown ordinary point 'inf'")),
    (X2_00, "O(-1c+1x1)", X2Line(-1, 1)), (X2_00, "O(0c+1x1)", X2Line(0, 1)),
    (X2_00, "O(1)", (WindowError, "O(1c+0x1) lies outside the window 0..0")),
    (X2_00, "O(-2c+1x1)", (WindowError, "O(-2c+1x1) lies outside the window 0..0")),
    (X2_00, "S[1]^(1)", (AmbientError, "unknown ordinary point '1'")),
    (X2_00, "S[0]^(2)", X2Ord("0", 2)),
    (X2_00, "T[0]^(1)", (AmbientError, _bad("T[0]^(1)"))),
]


def test_sheaf_parse_pins_objects_and_messages():
    """P^1 and X(2) descriptors: the parsed object, or the exact exception
    type and message, on two windows each, margin lines included."""
    ambients = {spec: parse_ambient(spec) for spec in PARSE_WINDOWS}
    for spec, s, want in PARSE_CASES:
        if isinstance(want, tuple):
            kind, message = want
            with pytest.raises(AmbientError) as exc:
                ambients[spec].parse(s)
            assert (type(exc.value), str(exc.value)) == (kind, message), (spec, s)
        else:
            got = ambients[spec].parse(s)
            assert (type(got), got) == (type(want), want), (spec, s)


@pytest.mark.parametrize("spec", PARSE_WINDOWS)
def test_sheaf_parse_embeds_carrier_and_hn_scope(spec):
    amb = parse_ambient(spec)
    for x in amb.carrier() + amb.hn_scope():
        assert amb.parse(str(x)) == amb.embed(x), str(x)
