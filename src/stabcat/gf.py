"""Dense linear algebra over the prime fields GF(2), GF(3), GF(5).

A matrix is a list of row lists with entries in 0..p-1; a vector is one such
row.  A matrix with no rows does not know its column count, so the functions
that can meet one (`transpose`, `matmul`, `nullspace`, `solve_many`) take it
explicitly.  Everything here is exact integer arithmetic; only the test
references solve for coordinates (`solve_many`), the oracle reads them off
`rref` pivots.
"""

from __future__ import annotations

from itertools import combinations, product

PRIMES = (2, 3, 5)


class FieldError(ValueError):
    pass


def check_prime(p: int):
    if p not in PRIMES:
        raise FieldError(f"unsupported prime {p}; pick one of {PRIMES}")


def mat(rows, p: int) -> list:
    return [[int(x) % p for x in row] for row in rows]


def zeros(r: int, c: int) -> list:
    return [[0] * c for _ in range(r)]


def eye(n: int) -> list:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def transpose(a: list, cols: int) -> list:
    """The cols x len(a) transpose of a matrix with `cols` columns."""
    if not a:
        return [[] for _ in range(cols)]
    return [list(col) for col in zip(*a)]


def matvecs(a: list, vectors, p: int) -> list:
    """a @ v for each vector v."""
    return [[sum(x * y for x, y in zip(row, v)) % p for row in a] for v in vectors]


def matmul(a: list, b: list, cols: int, p: int) -> list:
    """a @ b, where b has `cols` columns."""
    return transpose(matvecs(a, transpose(b, cols), p), len(a))


def rref(a: list, p: int):
    """Row-reduce a copy of `a`; returns (reduced matrix, pivot column list)."""
    m = [list(row) for row in a]
    nrows = len(m)
    pivots = []
    if not nrows:
        return m, pivots
    r = 0
    for c in range(len(m[0])):
        pr = r
        while pr < nrows and not m[pr][c]:
            pr += 1
        if pr == nrows:
            continue
        row = m[pr]
        if pr != r:
            m[pr] = m[r]
        if row[c] != 1:
            inv = pow(row[c], p - 2, p)
            row = [x * inv % p for x in row]
        m[r] = row
        for i in range(nrows):
            f = m[i][c]
            if f and i != r:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], row)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(a: list, p: int) -> int:
    """Rank by forward elimination (no back-substitution)."""
    m = [row for row in a if any(row)]
    r = 0
    while m:
        row = m.pop()
        c = next(i for i, x in enumerate(row) if x)
        inv = pow(row[c], p - 2, p)
        rest = []
        for other in m:
            f = other[c]
            if f:
                f = f * inv % p
                other = [(x - f * y) % p for x, y in zip(other, row)]
                if not any(other):
                    continue
            rest.append(other)
        m = rest
        r += 1
    return r


def nullspace(a: list, cols: int, p: int) -> list:
    """Basis of the right kernel of a matrix with `cols` columns, one
    solution per row."""
    if not a:
        return eye(cols)
    r, pivots = rref(a, p)
    pivot_set = set(pivots)
    basis = []
    for fc in range(cols):
        if fc in pivot_set:
            continue
        x = [0] * cols
        x[fc] = 1
        for row, pc in zip(r, pivots):
            x[pc] = -row[fc] % p
        basis.append(x)
    return basis


def solve_many(a: list, bs, cols: int, p: int):
    """One solution x of a @ x = b for each vector b in `bs`, where a has
    `cols` columns; None if any b is unsolvable."""
    bs = list(bs)
    if not bs:
        return []
    aug = [list(row) + [b[i] for b in bs] for i, row in enumerate(a)]
    r, pivots = rref(aug, p)
    if pivots and pivots[-1] >= cols:
        return None
    xs = []
    for j in range(cols, cols + len(bs)):
        x = [0] * cols
        for row, pc in zip(r, pivots):
            x[pc] = row[j]
        xs.append(x)
    return xs


def subspaces_fixed(d: int, k: int, p: int):
    """All k-dimensional subspaces of GF(p)^d as RREF row-basis matrices."""
    if k == 0:
        yield []
        return
    if k > d:
        return
    for pivots in combinations(range(d), k):
        free_cells = []
        for i, pc in enumerate(pivots):
            for c in range(pc + 1, d):
                if c not in pivots:
                    free_cells.append((i, c))
        for values in product(range(p), repeat=len(free_cells)):
            m = zeros(k, d)
            for i, pc in enumerate(pivots):
                m[i][pc] = 1
            for (i, c), v in zip(free_cells, values):
                m[i][c] = v
            yield m
