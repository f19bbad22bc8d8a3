import pytest
from hypothesis import given, settings, strategies as st

from stabcat.phases import (EXPLICIT_CARRIER_CAP, DuplicateElementError, ExplicitOrder,
                            OrderError, Phase)


def test_duplicate_label_rejected_with_offender():
    with pytest.raises(DuplicateElementError, match="b"):
        ExplicitOrder([Phase.label("a"), Phase.label("b"), Phase.label("b")])


def test_explicit_carrier_cap():
    at_cap = [Phase.integer(i) for i in range(EXPLICIT_CARRIER_CAP)]
    assert len(ExplicitOrder(at_cap).elements()) == EXPLICIT_CARRIER_CAP
    with pytest.raises(OrderError, match="cap"):
        ExplicitOrder(at_cap + [Phase.integer(EXPLICIT_CARRIER_CAP)])


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.integers(-10**6, 10**6).map(Phase.integer),
    st.tuples(st.integers(-100, 100), st.integers(1, 100)).map(lambda t: Phase.rational(*t)),
    st.just(Phase.infinity()),
    st.text(alphabet="abcxyz_:+-", min_size=1, max_size=6).filter(
        lambda s: Phase.parse(s).kind == "label").map(Phase.label),
))
def test_phase_encode_parse_round_trip(phase):
    assert Phase.parse(phase.encode()) == phase


def test_pair_phase_round_trip():
    p = Phase.pair(Phase.infinity(), Phase.rational(1, 2))
    assert Phase.parse(p.encode()) == p
    nested = Phase.pair(Phase.pair(Phase.integer(1), Phase.label("a")), Phase.integer(2))
    assert Phase.parse(nested.encode()) == nested


def test_rational_phases_reduced():
    assert Phase.rational(2, 4) == Phase.rational(1, 2)
    assert Phase.rational(3, -6).encode() == "-1/2"


@pytest.mark.parametrize("text, message", [
    ("1/0", "denominator 0"),
    ("a\nb", "invalid phase label"),
], ids=["zero-denominator", "unprintable-label"])
def test_malformed_phase_rejected(text, message):
    with pytest.raises(OrderError, match=message):
        Phase.parse(text)
