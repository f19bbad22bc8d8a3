import itertools

import pytest

from stabcat.ambient import Ambient, AmbientError, TubeAmbient, degree_pairs
from stabcat.ambients import parse_ambient
from stabcat.oracle import middle_terms_bruteforce
from stabcat.sheaves import KronR, P1Tor, X2Ord
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
    line-family rules live in P1Ambient alone, and the two models keep
    distinct object classes."""
    from stabcat.sheaves import P1Ambient, P1Line, X2Ambient, X2Line

    assert issubclass(X2Ambient, P1Ambient)
    assert not {"families", "middle_ranges", "_in_carrier"} & set(vars(X2Ambient))
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
