import pytest

from stabcat.intervals import (IntervalError, IntervalModule, all_intervals,
                               chain_splits_interval, hom_nonzero_interval,
                               middle_terms_interval, parse_interval)


def M(n, a, b):
    return IntervalModule(n, a, b)


def test_hom_examples():
    # frozen from the oracle (interval-hom suite re-derives them)
    assert not hom_nonzero_interval(M(2, 1, 1), M(2, 2, 2))
    assert hom_nonzero_interval(M(2, 1, 2), M(2, 1, 1))
    assert hom_nonzero_interval(M(3, 2, 3), M(3, 2, 3))


def test_middle_examples():
    got = middle_terms_interval(M(2, 2, 2), M(2, 1, 1))
    assert got == frozenset({(M(2, 1, 2),)})
    assert middle_terms_interval(M(3, 2, 2), M(3, 2, 2)) == frozenset()
    got = middle_terms_interval(M(3, 2, 3), M(3, 1, 2))
    assert got == frozenset({tuple(sorted((M(3, 1, 3), M(3, 2, 2)), key=str))})


def test_parse_aliases():
    assert parse_interval("M[1,2]@A3") == M(3, 1, 2)
    assert parse_interval("S2", n=3) == M(3, 2, 2)
    assert parse_interval("P_2", n=3) == M(3, 2, 3)
    assert parse_interval("I2@A3") == M(3, 1, 2)
    with pytest.raises(IntervalError):
        parse_interval("M[2,1]@A3")
    with pytest.raises(IntervalError):
        parse_interval("S1")


def test_chain_splits():
    assert chain_splits_interval(M(3, 1, 3)) == [
        (M(3, 2, 3), M(3, 1, 1)),
        (M(3, 3, 3), M(3, 1, 2)),
    ]
    assert chain_splits_interval(M(3, 2, 2)) == []


def test_all_intervals_count():
    assert len(all_intervals(4)) == 10
