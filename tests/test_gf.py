"""The GF(p) kernel against brute force that uses no row reduction: a span
is enumerated element by element, and a solution searched over all vectors."""

import itertools
import random

import pytest

from reference import column_space_complement
from stabcat import gf, oracle
from stabcat.tube import TubeIndec


def vectors(n, p):
    return [list(v) for v in itertools.product(range(p), repeat=n)]


def span(rows, n, p):
    """Every linear combination of `rows` (vectors of length n)."""
    out = set()
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        out.add(tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % p for j in range(n)))
    return out


def brute_rank(rows, n, p):
    size = len(span(rows, n, p))
    r = 0
    while p ** r < size:
        r += 1
    assert p ** r == size
    return r


def apply(a, x, p):
    return [sum(u * v for u, v in zip(row, x)) % p for row in a]


def columns(a, cols):
    return [[row[j] for row in a] for j in range(cols)]


def all_gf2_matrices():
    """Every GF(2) matrix with at most 3 rows and 1 to 3 columns."""
    for r in range(4):
        for c in range(1, 4):
            for entries in itertools.product(range(2), repeat=r * c):
                yield 2, [list(entries[i * c:(i + 1) * c]) for i in range(r)], c


def random_matrices(p, count, seed):
    """Seeded random GF(p) matrices up to 4 x 5, a third of them of low rank."""
    rng = random.Random(seed)
    for k in range(count):
        r, c = rng.randint(0, 4), rng.randint(1, 5)
        a = [[rng.randrange(p) for _ in range(c)] for _ in range(r)]
        if k % 3 == 0 and r > 1:
            a[-1] = [(2 * x + y) % p for x, y in zip(a[0], a[1 % r])]
        yield p, a, c


def cases():
    yield from all_gf2_matrices()
    yield from random_matrices(3, 150, seed=3)
    yield from random_matrices(5, 80, seed=5)


CASES = list(cases())


def test_case_coverage():
    assert sum(1 for p, _, _ in CASES if p == 2) == sum(2 ** (r * c) for r in range(4)
                                                       for c in range(1, 4))
    assert {len(a) for p, a, _ in CASES if p == 3} == {0, 1, 2, 3, 4}


def test_rank_is_log_of_span_size():
    for p, a, cols in CASES:
        r = brute_rank(a, cols, p)
        assert gf.rank(a, p) == r and len(gf.rref(a, p)[1]) == r, (p, a)


def test_nullspace():
    for p, a, cols in CASES:
        basis = gf.nullspace(a, cols, p)
        assert all(len(x) == cols for x in basis), (p, a)
        assert all(not any(apply(a, x, p)) for x in basis), (p, a)
        assert len(span(basis, cols, p)) == p ** len(basis), (p, a)  # independent
        assert len(basis) == cols - brute_rank(a, cols, p), (p, a)


def test_solve_many():
    for p, a, cols in CASES:
        check_solve_many(p, a, cols)


def check_solve_many(p, a, cols):
    rows = len(a)
    reachable = {tuple(apply(a, x, p)) for x in vectors(cols, p)}
    targets = vectors(rows, p)
    if len(targets) > 40:
        targets = random.Random(rows * 31 + cols).sample(targets, 40)
    for b in targets:
        got = gf.solve_many(a, [b], cols, p)
        if tuple(b) in reachable:
            assert got is not None and len(got) == 1 and apply(a, got[0], p) == b, (p, a, b)
        else:
            assert got is None, (p, a, b)
    solvable = [list(b) for b in sorted(reachable)][:3]
    got = gf.solve_many(a, solvable, cols, p)
    assert got is not None and [apply(a, x, p) for x in got] == solvable
    assert gf.solve_many(a, [], cols, p) == []
    if len(reachable) < p ** rows:
        missing = next(b for b in vectors(rows, p) if tuple(b) not in reachable)
        assert gf.solve_many(a, solvable + [missing], cols, p) is None


def test_column_space_complement():
    for p, a, cols in CASES:
        rows = len(a)
        extra = column_space_complement(a, cols, p)
        assert extra == sorted(set(extra)) and all(0 <= i < rows for i in extra), (p, a)
        units = [[int(i == e) for i in range(rows)] for e in extra]
        assert len(span(columns(a, cols) + units, rows, p)) == p ** rows, (p, a)
        assert len(extra) == rows - brute_rank(a, cols, p), (p, a)


def test_transpose_and_matmul_keep_empty_shapes():
    assert gf.transpose([], 3) == [[], [], []]
    assert gf.transpose([[], []], 0) == []
    assert gf.matmul([[1], [1]], [[1, 0, 1]], 3, 2) == [[1, 0, 1], [1, 0, 1]]
    assert gf.matmul([[], []], [], 2, 3) == [[0, 0], [0, 0]]
    assert gf.matmul([], [[1, 2]], 2, 3) == []


# Every (shape, p, length) whose table criterion 07 inverts (tubes of rank
# 1 to 3 over GF(2) and GF(3), modules of total length 1 to 5), and length 6.
CRITERION_07_TABLES = [(("cyclic", n), p, length)
                       for n in (1, 2, 3) for p in (2, 3) for length in range(1, 7)]


@pytest.mark.parametrize("shape, p, length", CRITERION_07_TABLES)
def test_fingerprint_inverse_inverts_the_table(shape, p, length):
    table = oracle._hom_table(shape, p, length)
    inv, den, hom = table.inv, table.den, table.hom
    n = len(table.descs)
    assert den >= 1 and len(inv) == n
    product = [[sum(inv[i][k] * hom[k][j] for k in range(n)) for j in range(n)]
               for i in range(n)]
    assert product == [[den * int(i == j) for j in range(n)] for i in range(n)]


def test_singular_fingerprint_table_raises():
    with pytest.raises(oracle.OracleError, match="singular"):
        oracle._invert(((1, 1), (1, 1)))
    with pytest.raises(oracle.OracleError, match="singular"):
        oracle._invert(((1, 2, 3), (0, 1, 1), (1, 3, 4)))


def test_fingerprint_rejects_non_integer_and_negative_multiplicities():
    descs = ("x", "y")
    with pytest.raises(oracle.OracleError, match="nonnegative integer at x"):
        oracle._solve_fingerprint(descs, ((1, 0), (0, 1)), 2, [1, 2])
    with pytest.raises(oracle.OracleError, match="nonnegative integer at y"):
        oracle._solve_fingerprint(descs, ((1, 0), (0, -1)), 1, [1, 2])
    assert oracle._solve_fingerprint(descs, ((1, 0), (0, 1)), 2, [0, 4]) == {"y": 2}


@pytest.mark.parametrize("p", [2, 3])
def test_hom_dim_is_hom_basis_size(p):
    for n in range(1, 5):
        objs = [TubeIndec(n, j, t) for j in range(n) for t in range(1, 5)]
        reps = {x: oracle.build_indec(("cyclic", n), x, p) for x in objs}
        for x in objs:
            for y in objs:
                assert oracle.hom_dim(reps[x], reps[y]) == len(oracle.hom_basis(reps[x], reps[y]))
