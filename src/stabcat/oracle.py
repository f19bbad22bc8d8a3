"""Ground truth by explicit quiver representations over small prime fields.

Supported shapes: ("cyclic", n) nilpotent representations of the cyclic
quiver with arrows v -> v-1 (the rank-n tube), ("linear", n) the quiver
1 -> 2 -> ... -> n, and ("kronecker",) with two arrows 1 => 2.  Hom spaces
are intertwiner kernels; extensions are found by enumerating injections and
decomposing cokernels, never by any combinatorial shortcut.  Decomposition
works by Hom-count fingerprinting against the precomputed table of Hom
dimensions between indecomposables (cyclic and linear shapes only); a table
reads, by descriptor, every Hom dimension that an earlier table holds.

A middle-term query reads off that table, before any linear algebra, which
candidate middle terms pass exact Hom-dimension bounds and what each needs
(maps or subspace tuples); a need over the budget raises.  It then sweeps
the maps A -> E, or for decomposable A the submodules of E, in one
resumable sweep per (E, dimension vector) that every query shares.  Both
sweeps take their quotients from one construction on a row basis in
reduced row echelon form.  On the cyclic quiver of rank n > 1 the rotation
v -> v+1 relabels the representation of S_j^(t) as that of S_{j+1}^(t)
(`tube.tau(x, -1)`) and maps short exact sequences to short exact
sequences, Hom dimensions and subspace counts included, so a middle-term
query is answered once per rotation orbit: from an orbit-mate already
asked, or else by computing the least rotation of (A, B), in whose frame
the whole orbit sweeps.  Everything the oracle learns is kept in one memo
per (shape, p) for the life of the process; `clear` forgets it all.  Under
each middle-term query asked the memo holds (result, peak), the middle
terms and the largest need: exactly what computing it directly gives.
"""

from __future__ import annotations

import os
from itertools import islice, product
from math import gcd, prod

from . import gf
from .intervals import IntervalModule, all_intervals
from .tube import TubeIndec, tau

DEFAULT_BUDGET = 10 ** 6


class OracleError(ValueError):
    pass


class BudgetExceededError(OracleError):
    pass


class UnsupportedShapeError(OracleError):
    pass


class BudgetSettingError(OracleError):
    pass


def budget_limit() -> int:
    """The enumeration budget: `STABCAT_BUDGET`, which must be a
    non-negative integer in decimal digits, or DEFAULT_BUDGET when it is
    unset or empty."""
    raw = os.environ.get("STABCAT_BUDGET")
    if not raw:
        return DEFAULT_BUDGET
    if not (raw.isascii() and raw.isdigit()):
        raise BudgetSettingError(f"STABCAT_BUDGET must be a non-negative integer, got {raw!r}")
    return int(raw)


# -- shapes -------------------------------------------------------------

def vertices(shape):
    kind = shape[0]
    if kind == "cyclic":
        return list(range(shape[1]))
    if kind == "linear":
        return list(range(1, shape[1] + 1))
    if kind == "kronecker":
        return [1, 2]
    raise UnsupportedShapeError(f"unknown shape {shape!r}")


def arrows(shape):
    """List of (key, source, target)."""
    kind = shape[0]
    if kind == "cyclic":
        n = shape[1]
        return [(("c", v), v, (v - 1) % n) for v in range(n)]
    if kind == "linear":
        n = shape[1]
        return [(("l", v), v, v + 1) for v in range(1, n)]
    if kind == "kronecker":
        return [("u", 1, 2), ("v", 1, 2)]
    raise UnsupportedShapeError(f"unknown shape {shape!r}")


class QuiverRep:
    """Dimension per vertex and one GF(p) matrix (a list of rows, see `gf`)
    per arrow, of shape dims[target] x dims[source].

    With check=False, for representations built inside this module, the
    map rows are taken as given (already reduced mod p) and nilpotency is
    not tested; the map shapes are checked either way."""

    def __init__(self, shape, p, dims, maps, check: bool = True):
        gf.check_prime(p)
        self.shape = shape
        self.p = p
        self.dims = dict(dims)
        self.maps = {}
        for key, src, tgt in arrows(shape):
            rows, cols = self.dims[tgt], self.dims[src]
            m = maps.get(key)
            if m is None:
                m = gf.zeros(rows, cols)
            elif check:
                m = gf.mat(m, p)
            if len(m) != rows or any(len(row) != cols for row in m):
                got = (len(m), len(m[0]) if m else 0)
                raise OracleError(f"map {key} has shape {got}, expected {(rows, cols)}")
            self.maps[key] = m
        if check and shape[0] == "cyclic":
            self._check_nilpotent()

    def _check_nilpotent(self):
        n, d0 = self.shape[1], self.dims[0]
        comp = gf.eye(d0)
        for v in ([0] + list(range(n - 1, 0, -1))):
            comp = gf.matmul(self.maps[("c", v)], comp, d0, self.p)
        power = comp
        for _ in range(self.total_dim()):
            power = gf.matmul(power, comp, d0, self.p)
        if any(any(row) for row in power):
            raise OracleError("cyclic representation is not nilpotent")

    def total_dim(self) -> int:
        return sum(self.dims.values())


def direct_sum(reps) -> QuiverRep:
    reps = list(reps)
    if not reps:
        raise OracleError("empty direct sum")
    shape, p = reps[0].shape, reps[0].p
    dims = {v: sum(r.dims[v] for r in reps) for v in vertices(shape)}
    maps = {}
    for key, src, tgt in arrows(shape):
        m = []
        co = 0
        for r in reps:
            cs = r.dims[src]
            m.extend([0] * co + row + [0] * (dims[src] - co - cs) for row in r.maps[key])
            co += cs
        maps[key] = m
    return QuiverRep(shape, p, dims, maps, check=False)


# -- the memo -------------------------------------------------------------

class _Memo:
    """What the oracle has learned about one (shape, p): indecomposable
    representations by descriptor, Hom tables by length, decompositions by
    representation, candidate middle terms by dimension vector, submodule
    sweeps by (E, dims) and middle-term (result, peak) by (A, B)."""

    def __init__(self):
        self.indecs, self.tables, self.decomposed = {}, {}, {}
        self.candidates, self.sweeps, self.middle = {}, {}, {}


# (shape, p) -> _Memo: the oracle's only memory, kept for the life of the
# process so that a repeated query is answered from it
_MEMO = {}


def _memo(shape, p: int) -> _Memo:
    return _MEMO.get((shape, p)) or _MEMO.setdefault((shape, p), _Memo())


def clear() -> None:
    """Forget everything the oracle has memoised."""
    _MEMO.clear()


# -- standard indecomposables -------------------------------------------

def build_indec(shape, descriptor, p: int = 2) -> QuiverRep:
    indecs = _memo(shape, p).indecs
    rep = indecs.get(descriptor)
    if rep is None:
        kind = shape[0]
        if kind == "cyclic" and isinstance(descriptor, TubeIndec):
            rep = _build_tube(descriptor, p)
        elif kind == "linear" and isinstance(descriptor, IntervalModule):
            rep = _build_interval(descriptor, p)
        elif kind == "kronecker" and isinstance(descriptor, tuple):
            rep = _build_kronecker(descriptor, p)
        else:
            raise OracleError(f"descriptor {descriptor!r} does not fit shape {shape!r}")
        indecs[descriptor] = rep
    return rep


def _build_tube(x: TubeIndec, p: int) -> QuiverRep:
    # basis e_1 (socle) .. e_t (top); e_k sits at vertex (j - t + k) mod n and
    # the arrow out of that vertex sends it to e_{k-1}
    n = x.n
    shape = ("cyclic", n)
    slots = {v: [] for v in range(n)}
    vertex_of = {}
    for k in range(1, x.t + 1):
        v = (x.j - x.t + k) % n
        vertex_of[k] = v
        slots[v].append(k)
    pos = {k: slots[vertex_of[k]].index(k) for k in vertex_of}
    dims = {v: len(slots[v]) for v in range(n)}
    maps = {}
    for key, src, tgt in arrows(shape):
        m = gf.zeros(dims[tgt], dims[src])
        for k in slots[src]:
            if k > 1 and vertex_of[k - 1] == tgt:
                m[pos[k - 1]][pos[k]] = 1
        maps[key] = m
    return QuiverRep(shape, p, dims, maps)


def _build_interval(x: IntervalModule, p: int) -> QuiverRep:
    shape = ("linear", x.n)
    dims = {v: (1 if x.a <= v <= x.b else 0) for v in range(1, x.n + 1)}
    maps = {}
    for key, src, tgt in arrows(shape):
        if x.a <= src < x.b:
            maps[key] = gf.mat([[1]], p)
    return QuiverRep(shape, p, dims, maps)


def _build_kronecker(descriptor, p: int) -> QuiverRep:
    shape = ("kronecker",)
    kind = descriptor[0]
    if kind in ("P", "I"):
        k = descriptor[1]
        u, v = gf.zeros(k, k - 1), gf.zeros(k, k - 1)
        for i in range(k - 1):
            u[i][i] = v[i + 1][i] = 1
        if kind == "P":
            return QuiverRep(shape, p, {1: k - 1, 2: k}, {"u": u, "v": v})
        # the injective I_k has the transposed maps of the projective P_k
        return QuiverRep(shape, p, {1: k, 2: k - 1},
                         {"u": gf.transpose(u, k - 1), "v": gf.transpose(v, k - 1)})
    if kind == "R":
        x, d = descriptor[1], descriptor[2]
        dims = {1: d, 2: d}
        if x == "inf":
            u = gf.zeros(d, d)
            for i in range(d - 1):
                u[i][i + 1] = 1
            v = gf.eye(d)
        else:
            u = gf.eye(d)
            v = [[int(x) * e % p for e in row] for row in gf.eye(d)]
            for i in range(d - 1):
                v[i][i + 1] = 1
        return QuiverRep(shape, p, dims, {"u": u, "v": v})
    raise OracleError(f"unknown kronecker descriptor {descriptor!r}")


# -- Hom spaces ----------------------------------------------------------

def _hom_system(r1: QuiverRep, r2: QuiverRep):
    """(offsets, total, rows): the linear system whose right kernel is
    Hom(r1, r2).  An unknown f is the concatenation over vertices v of the
    row-major dims2[v] x dims1[v] blocks f_v, block v starting at offsets[v];
    there is one equation (f_tgt m1 - m2 f_src)[i, jj] = 0 per arrow and
    entry."""
    if r1.shape != r2.shape or r1.p != r2.p:
        raise OracleError("shape/field mismatch in Hom computation")
    p = r1.p
    offsets = {}
    total = 0
    for v in vertices(r1.shape):
        offsets[v] = total
        total += r2.dims[v] * r1.dims[v]
    rows = []
    if total == 0:
        return offsets, total, rows
    for key, src, tgt in arrows(r1.shape):
        m1, m2 = r1.maps[key], r2.maps[key]
        d1t, d1s = r1.dims[tgt], r1.dims[src]
        off_t, off_s = offsets[tgt], offsets[src]
        for i in range(r2.dims[tgt]):
            m2_row = m2[i]
            for jj in range(d1s):
                row = [0] * total
                # (f_tgt @ m1)[i, jj]
                base = off_t + i * d1t
                for k in range(d1t):
                    row[base + k] += m1[k][jj]
                # -(m2 @ f_src)[i, jj]
                for k, x in enumerate(m2_row):
                    row[off_s + k * d1s + jj] -= x
                rows.append([x % p for x in row])
    return offsets, total, rows


def hom_basis(r1: QuiverRep, r2: QuiverRep):
    """Basis of intertwiners r1 -> r2, each a dict vertex -> matrix."""
    offsets, total, rows = _hom_system(r1, r2)
    if total == 0:
        return []
    basis = []
    for sol in gf.nullspace(rows, total, r1.p):
        f = {}
        for v, off in offsets.items():
            d1 = r1.dims[v]
            f[v] = [sol[off + i * d1: off + (i + 1) * d1] for i in range(r2.dims[v])]
        basis.append(f)
    return basis


def hom_dim(r1: QuiverRep, r2: QuiverRep) -> int:
    _, total, rows = _hom_system(r1, r2)
    return total - gf.rank(rows, r1.p)


def socle_dims(r: QuiverRep):
    """Multiplicity of each simple in the socle: kernel of all out-arrows."""
    out = {}
    for v in vertices(r.shape):
        stacked = [row for key, src, _ in arrows(r.shape) if src == v for row in r.maps[key]]
        out[v] = r.dims[v] - gf.rank(stacked, r.p)
    return out


# -- fingerprint decomposition --------------------------------------------

def _universe(shape, max_len: int):
    kind = shape[0]
    if kind == "cyclic":
        n = shape[1]
        return [TubeIndec(n, j, t) for t in range(1, max_len + 1) for j in range(n)]
    if kind == "linear":
        return [x for x in all_intervals(shape[1]) if x.length <= max_len]
    raise UnsupportedShapeError(f"decomposition not supported for shape {shape!r}")


class _HomTable:
    """The indecomposables of length <= some bound for one (shape, p), by
    position i: descs[i], pos[descs[i]] = i, reps[i] its representation,
    hom[i][j] = dim Hom(descs[i], descs[j]), cols[j][i] = hom[i][j], and
    (inv, den) = `_invert(hom)` for decomposition by fingerprint.

    The Hom dimension of a pair that the table `known` holds is looked up
    there by descriptor, not computed again."""

    def __init__(self, shape, p: int, length: int, known=None):
        self.descs = tuple(_universe(shape, length))
        self.pos = {d: i for i, d in enumerate(self.descs)}
        self.reps = tuple(build_indec(shape, d, p) for d in self.descs)
        at = known.pos if known else {}
        self.hom = tuple(tuple(known.hom[at[d1]][at[d2]] if d1 in at and d2 in at
                               else hom_dim(r1, r2) for d2, r2 in zip(self.descs, self.reps))
                         for d1, r1 in zip(self.descs, self.reps))
        self.cols = tuple(zip(*self.hom))
        self.inv, self.den = _invert(self.hom)


def _hom_table(shape, p: int, length: int) -> _HomTable:
    tables = _memo(shape, p).tables
    if length not in tables:
        # the universes grow with the length, so the largest table holds
        # every pair that any table holds
        tables[length] = _HomTable(shape, p, length, tables[max(tables)] if tables else None)
    return tables[length]


def _invert(matrix):
    """(inv, den) with inv / den the inverse of the square integer matrix A:
    inv is an integer matrix and den a positive integer.  For a Hom table A,
    a module with multiplicities m has the fingerprint b = A m, so
    m = inv b / den.  Raises OracleError if A is singular.

    Fraction-free Gauss-Jordan elimination of [A | I] over the integers:
    after step k the array is d_k times what ordinary Gauss-Jordan gives,
    d_k the k-th pivot (the determinant of the first k pivot rows and
    columns), so its entries are minors of [A | I] up to sign and each
    division by the previous pivot is exact; at the end [A | I] has become
    [d I | d A^-1] with d the last pivot."""
    n = len(matrix)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    d = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise OracleError("fingerprint system is singular; raise the length bound")
        a[col], a[piv] = a[piv], a[col]
        top, pivot = a[col], a[col][col]
        for r in range(n):
            if r != col:
                f = a[r][col]
                a[r] = [(pivot * x - f * y) // d for x, y in zip(a[r], top)]
        d = pivot
    g = gcd(d, *(x for row in a for x in row[n:]))
    sign = 1 if d > 0 else -1
    return tuple(tuple(sign * x // g for x in row[n:]) for row in a), abs(d) // g


def _solve_fingerprint(descs, inv, den, b):
    """Multiplicities m = inv b / den of the fingerprint b (by position),
    checked to be non-negative integers, as a dict descriptor -> m."""
    mults = {}
    for d, row in zip(descs, inv):
        num = sum(x * y for x, y in zip(row, b))
        if num % den or num < 0:
            raise OracleError(f"fingerprint solution not a nonnegative integer at {d}")
        if num:
            mults[d] = num // den
    return mults


def decompose(r: QuiverRep):
    """Krull-Schmidt decomposition as a sorted descriptor tuple."""
    if r.total_dim() == 0:
        return ()
    decomposed = _memo(r.shape, r.p).decomposed
    key = (tuple(sorted(r.dims.items())),
           tuple(sorted((k, tuple(map(tuple, m))) for k, m in r.maps.items())))
    if key not in decomposed:
        table = _hom_table(r.shape, r.p, r.total_dim())
        mults = _solve_fingerprint(table.descs, table.inv, table.den,
                                   [hom_dim(x, r) for x in table.reps])
        out = tuple(sorted((d for d, m in mults.items() for _ in range(m)), key=str))
        if {v: sum(table.reps[table.pos[d]].dims[v] for d in out) for v in r.dims} != r.dims:
            raise OracleError("decomposition does not reproduce the dimension vector")
        decomposed[key] = out
    return decomposed[key]


# -- brute-force extensions ----------------------------------------------

def _hom_profile(table: _HomTable, idx):
    """(into, out) with into[i] = [X_i, M] and out[i] = [M, X_i], where M is
    the direct sum of the table entries at positions idx (with repeats) and
    X_i is the entry at i (Hom dimensions)."""
    into = tuple(map(sum, zip(*(table.cols[j] for j in idx))))
    out = tuple(map(sum, zip(*(table.hom[j] for j in idx))))
    return into, out


def _multisets(weights, capacity):
    """(acc, left) for every nonempty multiset acc of positions into
    `weights`, as a non-decreasing tuple, whose weight vectors sum to at most
    the `capacity` vector, with left the capacity that remains.

    Depth-first in position order; a child never takes an earlier position,
    so each multiset comes out once."""
    stack = [(0, capacity, ())]
    while stack:
        start, left, acc = stack.pop()
        if acc:
            yield acc, left
        children = []
        for i in range(start, len(weights)):
            if all(x <= r for x, r in zip(weights[i], left)):
                children.append((i, tuple(r - x for r, x in zip(left, weights[i])), acc + (i,)))
        stack.extend(reversed(children))


def _candidates(shape, p, target):
    """Every descriptor multiset E whose dimension vectors sum to `target`
    (a sorted (vertex, dim) tuple), each as (E, into, out) with the Hom
    profile of E over the table of length sum(target)."""
    candidates = _memo(shape, p).candidates
    if target not in candidates:
        table = _hom_table(shape, p, sum(t for _, t in target))
        weights = [tuple(rep.dims[v] for v, _ in target) for rep in table.reps]
        candidates[target] = tuple(
            (tuple(sorted((table.descs[i] for i in acc), key=str)),) + _hom_profile(table, acc)
            for acc, left in _multisets(weights, tuple(t for _, t in target)) if not any(left))
    return candidates[target]


def _hom_bounds_admit(e, a, b, a_idx, b_idx) -> bool:
    """Whether E can be the middle term of a non-split 0 -> A -> E -> B -> 0.

    e, a, b are the `_hom_profile`s of E, A and B; a_idx and b_idx are the
    table positions of the summands of A and B, with multiplicity.  Writing
    [M, N] for dim Hom(M, N), left exactness of Hom(X, -) and Hom(-, X) gives,
    for every X in the table,
        [X, A] <= [X, E] <= [X, A] + [X, B],  [B, X] <= [E, X] <= [A, X] + [B, X],
    and non-splitness gives [B, E] <= [B, A] + [B, B] - 1 (id_B does not
    lift) and [E, A] <= [B, A] + [A, A] - 1 (id_A does not extend)."""
    (e_into, e_out), (a_into, a_out), (b_into, b_out) = e, a, b
    if any(xe < xa or xe > xa + xb for xe, xa, xb in zip(e_into, a_into, b_into)):
        return False
    if any(ye < yb or ye > ya + yb for ye, ya, yb in zip(e_out, a_out, b_out)):
        return False
    b_to_a = sum(a_into[i] for i in b_idx)
    if sum(e_into[i] for i in b_idx) > b_to_a + sum(b_into[i] for i in b_idx) - 1:
        return False
    return sum(e_out[i] for i in a_idx) <= b_to_a + sum(a_into[i] for i in a_idx) - 1


def _projective_coeff_vectors(r, p):
    """One representative per scalar class of nonzero coefficient vectors."""
    for lead in range(r):
        tail = r - lead - 1
        for code in range(p ** tail):
            v = [0] * lead + [1]
            x = code
            for _ in range(tail):
                v.append(x % p)
                x //= p
            yield v


def _assemble(basis, coeffs, p):
    """The map sum(c * h) of a nonzero coefficient vector, one matrix per
    vertex."""
    cs, hs = zip(*[(c, h) for c, h in zip(coeffs, basis) if c])
    return {v: [[sum(c * x for c, x in zip(cs, col)) % p for col in zip(*rows)]
                for rows in zip(*(h[v] for h in hs))] for v in hs[0]}


def _gauss_count(d: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of GF(p)^d, for k >= 0 (0 for k > d:
    the factor p^0 - 1 comes up)."""
    num = den = 1
    for i in range(k):
        num *= p ** (d - i) - 1
        den *= p ** (k - i) - 1
    return num // den


def _pivots(basis):
    """Pivot columns of an RREF row basis: each row's leading entry is 1."""
    return [row.index(1) for row in basis]


def _reduce(v, basis, pivots, p: int):
    """v minus its combination of the RREF rows `basis` read off at their
    pivots: zero exactly when v lies in their span, and otherwise zero at
    every pivot (each row is 0 at the other rows' pivots)."""
    for c, row in zip(pivots, basis):
        f = v[c]
        if f:
            v = [(x - f * y) % p for x, y in zip(v, row)]
    return v


def _submodules_with_dims(e_rep: QuiverRep, dims_query, start: int = 0):
    """(index, bases) for each arrow-stable subspace tuple of e_rep with the
    given dimension vector, bases a per-vertex row-basis matrix in RREF.
    The index counts every subspace combo in `product` order, stable or not;
    the enumeration begins at combo `start`.

    An arrow keeps the tuple when each image row of the source basis reduces
    to zero against the target's RREF rows at their pivots.  The image of a
    source subspace is computed once and shared by every combo holding it."""
    p = e_rep.p
    verts = vertices(e_rep.shape)
    per_vertex = [list(gf.subspaces_fixed(e_rep.dims[v], dims_query[v], p)) for v in verts]
    pivots = [[_pivots(basis) for basis in subs] for subs in per_vertex]
    slot = {v: k for k, v in enumerate(verts)}
    # (source slot, target slot, map, images of the source subspaces by index)
    tests = [(slot[src], slot[tgt], e_rep.maps[key], {})
             for key, src, tgt in arrows(e_rep.shape) if dims_query[src]]
    combos = islice(product(*(range(len(subs)) for subs in per_vertex)), start, None)
    for index, combo in enumerate(combos, start):
        for s, t, m, images in tests:
            i, j = combo[s], combo[t]
            if i not in images:
                images[i] = gf.matvecs(m, per_vertex[s][i], p)
            if any(any(_reduce(v, per_vertex[t][j], pivots[t][j], p)) for v in images[i]):
                break
        else:
            yield index, {v: subs[i] for v, subs, i in zip(verts, per_vertex, combo)}


def _quotient(e_rep: QuiverRep, bases) -> QuiverRep:
    """E / S for the arrow-stable subspace tuple S whose row bases are in
    RREF: the standard vectors off the pivots are the quotient's basis, and
    an arrow sends e_i to column i of E's map reduced modulo the target
    subspace, read off at the target's non-pivot entries."""
    p = e_rep.p
    verts = vertices(e_rep.shape)
    pivots = {v: _pivots(bases[v]) for v in verts}
    rest = {v: [i for i in range(e_rep.dims[v]) if i not in pivots[v]] for v in verts}
    maps = {}
    for key, src, tgt in arrows(e_rep.shape):
        m, basis = e_rep.maps[key], bases[tgt]
        at_pivots = [m[c] for c in pivots[tgt]]
        maps[key] = [[(m[j][i] - sum(r[i] * row[j] for r, row in zip(at_pivots, basis))) % p
                      for i in rest[src]] for j in rest[tgt]]
    return QuiverRep(e_rep.shape, p, {v: len(rest[v]) for v in verts}, maps, check=False)


def _sub_and_quotient(e_rep: QuiverRep, bases):
    """(submodule rep, `_quotient`) for a stable subspace tuple whose bases
    are in RREF.  The sub has the basis rows as its basis, and the
    coordinates of an image row are its entries at the target's pivots."""
    p = e_rep.p
    verts = vertices(e_rep.shape)
    maps = {}
    for key, src, tgt in arrows(e_rep.shape):
        at_pivots = [e_rep.maps[key][c] for c in _pivots(bases[tgt])]
        maps[key] = [[sum(x * y for x, y in zip(r, b)) % p for b in bases[src]]
                     for r in at_pivots]
    sub_rep = QuiverRep(e_rep.shape, p, {v: len(bases[v]) for v in verts}, maps, check=False)
    return sub_rep, _quotient(e_rep, bases)


def _injection_quotient(f, a_rep: QuiverRep, e_rep: QuiverRep):
    """E / im f for a map f: A -> E, one matrix per vertex, or None when f
    is not injective.  The rows of f_v's transpose span im f_v; their RREF
    has a pivot per dimension of A exactly when f_v is injective, and is
    then the image basis that `_quotient` reads."""
    image = {}
    for v, m in f.items():
        rows, pivots = gf.rref(gf.transpose(m, a_rep.dims[v]), e_rep.p)
        if len(pivots) < a_rep.dims[v]:
            return None
        image[v] = rows
    return _quotient(e_rep, image)


def _has_sub_quotient(shape, p: int, e_multiset, dims_query, pair) -> bool:
    """Whether some submodule S of ⊕E with the given dimension vector has
    (decompose(S), decompose(E/S)) == pair.

    One sweep over the submodules of ⊕E serves every query with the same
    (shape, p, E, dims).  Between queries the memo's `sweeps` keeps only the
    class pairs seen so far and the index of the next subspace combo (None
    once the sweep has ended).  A query looks among the pairs first, and
    only on a miss rebuilds ⊕E and resumes the sweep, recording each pair
    it passes, until it meets `pair` or the sweep ends."""
    sweeps = _memo(shape, p).sweeps
    key = (e_multiset, dims_query)
    seen, start = sweeps.get(key) or (set(), 0)
    if pair in seen or start is None:
        return pair in seen
    e_rep = direct_sum([build_indec(shape, d, p) for d in e_multiset])
    for index, bases in _submodules_with_dims(e_rep, dict(dims_query), start):
        sub_rep, coker_rep = _sub_and_quotient(e_rep, bases)
        classes = (decompose(sub_rep), decompose(coker_rep))
        seen.add(classes)
        if classes == pair:
            sweeps[key] = seen, index + 1
            return True
    sweeps[key] = seen, None
    return False


_NEEDS = {"maps": "Hom enumeration", "tuples": "submodule enumeration"}


def _check_budget(needs, a_multiset, b_multiset) -> None:
    """Raise for the first need above the budget, naming the end terms, the
    candidate middle term, the count and the budget."""
    budget = budget_limit()
    for count, unit, cand in needs:
        if count > budget:
            a, b, e = ("+".join(map(str, ms)) for ms in (a_multiset, b_multiset, cand))
            raise BudgetExceededError(f"{_NEEDS[unit]} needs {count} {unit}, budget {budget} "
                                      f"(A = {a}, B = {b}, E = {e})")


def middle_terms_of_sums(shape, a_multiset, b_multiset, p: int = 2):
    """Middle-term multisets of non-split 0 -> ⊕A -> E -> ⊕B -> 0.

    Exhaustive over all candidate multisets E of the right dimension vector
    but A + B, in two passes.  The first, `_needs`, holds each candidate to
    the exact Hom bounds of `_hom_bounds_admit` and reads each survivor's
    need off the Hom table; a need over the budget (`STABCAT_BUDGET`) raises
    before any linear algebra.  The second sweeps the survivors: for
    indecomposable A the maps A -> E (injectivity and cokernel), else the
    arrow-stable submodules of E (the image of an injection is a submodule
    isomorphic to ⊕A and conversely) by the resumable `_has_sub_quotient`.
    Both take their quotients from `_quotient`.  The memo's `middle` maps
    (A, B) to (result, peak), the largest need or 0, computed or shared with
    its rotation orbit (`_orbit_answer`); an answer whose peak is over the
    budget raises for (A, B)'s own first need over it, as computing (A, B)
    directly does.
    """
    a_multiset = tuple(sorted(a_multiset, key=str))
    b_multiset = tuple(sorted(b_multiset, key=str))
    middle = _memo(shape, p).middle
    answer = middle.get((a_multiset, b_multiset))
    cached = answer is not None
    if not cached:
        if not (a_multiset and b_multiset):
            raise OracleError("empty direct sum")
        answer = _orbit_answer(shape, a_multiset, b_multiset, p)
    result, peak = answer
    if peak and peak > budget_limit():
        _check_budget(_needs(shape, a_multiset, b_multiset, p)[1], a_multiset, b_multiset)
    if not cached:
        middle[a_multiset, b_multiset] = answer
    return result


def _rotated(multiset, r: int):
    """`multiset` moved r vertices on the cyclic quiver: S_j^(t) -> S_{j+r}^(t)."""
    return tuple(sorted((tau(d, -r) for d in multiset), key=str))


def _orbit_answer(shape, a_multiset, b_multiset, p: int):
    """(result, peak) of (A, B).  On a cyclic shape of rank n > 1 it is an
    orbit-mate's answer in the memo, or else the least rotation's, computed
    afresh, with the result turned back.  Rotation carries the needs of
    (A, B) onto the mate's, so the peak is the same; a least rotation over
    the budget raises for (A, B)'s own first need over it."""
    n = shape[1] if shape[0] == "cyclic" else 1
    if n == 1:
        return _middle_terms(shape, a_multiset, b_multiset, p)
    keys = [(a_multiset, b_multiset)]
    keys += [(_rotated(a_multiset, r), _rotated(b_multiset, r)) for r in range(1, n)]
    middle = _memo(shape, p).middle
    r = next((r for r in range(1, n) if keys[r] in middle), None)
    if r is not None:
        result, peak = middle[keys[r]]
    else:
        r = min(range(n), key=keys.__getitem__)
        if r == 0:
            return _middle_terms(shape, a_multiset, b_multiset, p)
        try:
            result, peak = _middle_terms(shape, *keys[r], p)
        except BudgetExceededError:
            _check_budget(_needs(shape, a_multiset, b_multiset, p)[1], a_multiset, b_multiset)
            raise
    reps = [build_indec(shape, d, p) for d in a_multiset + b_multiset]
    target = tuple((v, sum(rep.dims[v] for rep in reps)) for v in vertices(shape))
    # each E turned back is held as the very tuple `_candidates` keeps for (A, B)
    canon = {cand: cand for cand, _, _ in _candidates(shape, p, target)}
    return frozenset(canon[_rotated(ms, -r)] for ms in result), peak


def _needs(shape, a_multiset, b_multiset, p: int):
    """(dims_query, needs) of the nonempty sorted (A, B): A's dimension
    vector as sorted (vertex, dim) pairs, and the need (count, unit, E) of
    each candidate E past `_hom_bounds_admit`, in candidate order.  For
    indecomposable A at table position a, E needs p^[A, E] maps, [A, E]
    being entry a of E's profile `into`; an E with [A, E] = 0 is dropped.
    For decomposable A every E needs the same count of subspace tuples."""
    verts = vertices(shape)
    reps = {d: build_indec(shape, d, p) for d in a_multiset + b_multiset}
    a_dims, b_dims = ({v: sum(reps[d].dims[v] for d in ms) for v in verts}
                      for ms in (a_multiset, b_multiset))
    target = tuple((v, a_dims[v] + b_dims[v]) for v in verts)
    split = tuple(sorted(a_multiset + b_multiset, key=str))
    table = _hom_table(shape, p, sum(t for _, t in target))
    a_idx, b_idx = ([table.pos[d] for d in ms] for ms in (a_multiset, b_multiset))
    a_prof, b_prof = _hom_profile(table, a_idx), _hom_profile(table, b_idx)
    admitted = [(cand, into) for cand, into, out in _candidates(shape, p, target)
                if cand != split and _hom_bounds_admit((into, out), a_prof, b_prof, a_idx, b_idx)]
    if len(a_idx) == 1:
        needs = [(p ** into[a_idx[0]], "maps", cand) for cand, into in admitted if into[a_idx[0]]]
    else:
        n_tuples = prod(_gauss_count(a_dims[v] + b_dims[v], k, p) for v, k in a_dims.items())
        needs = [(n_tuples, "tuples", cand) for cand, _ in admitted]
    return tuple(sorted(a_dims.items())), needs


def _middle_terms(shape, a_multiset, b_multiset, p: int):
    """(result, peak) of the nonempty sorted (A, B), computed by the two
    passes of `middle_terms_of_sums`, which stores it."""
    dims_query, needs = _needs(shape, a_multiset, b_multiset, p)
    _check_budget(needs, a_multiset, b_multiset)
    found = set()
    if len(a_multiset) == 1:
        # an indecomposable A is swept map by map, and needs no direct sum
        a_rep = build_indec(shape, a_multiset[0], p)
        for _, _, cand in needs:
            e_rep = direct_sum([build_indec(shape, d, p) for d in cand])
            basis = hom_basis(a_rep, e_rep)
            for coeffs in _projective_coeff_vectors(len(basis), p):
                quotient = _injection_quotient(_assemble(basis, coeffs, p), a_rep, e_rep)
                if quotient is not None and decompose(quotient) == b_multiset:
                    found.add(cand)
                    break
    else:
        for _, _, cand in needs:
            if _has_sub_quotient(shape, p, cand, dims_query, (a_multiset, b_multiset)):
                found.add(cand)
    return frozenset(found), max((n for n, _, _ in needs), default=0)


def middle_terms_bruteforce(shape, a, b, p: int = 2):
    """Middle terms of non-split extensions of the indecomposable b by a."""
    return middle_terms_of_sums(shape, (a,), (b,), p=p)


def closure_fixpoint_bruteforce(shape, gens, length_bound: int = 6, p: int = 2):
    """Fixpoint of adding all summands of middle terms of short exact
    sequences with possibly decomposable end terms from the current set,
    restricted to total length <= length_bound.

    A round asks only the pairs of end terms that involve a member added in
    the round before: every other pair was asked in an earlier round, and
    its answer cannot change.  So each pair is asked once, and the queries
    come in the order in which asking every pair every round would first
    make them."""
    current = set(gens)
    added = set(current)
    while added:
        members = sorted(current, key=str)
        lengths = [(build_indec(shape, d, p).total_dim(),) for d in members]
        rows = []  # (end terms of total length < length_bound, length, new?)
        for acc, (left,) in _multisets(lengths, (length_bound - 1,)):
            ms = tuple(members[i] for i in acc)
            rows.append((ms, length_bound - 1 - left, not added.isdisjoint(ms)))
        added = set()
        for a_ms, a_len, a_new in rows:
            for b_ms, b_len, b_new in rows:
                if a_len + b_len > length_bound or not (a_new or b_new):
                    continue
                for middle in middle_terms_of_sums(shape, a_ms, b_ms, p=p):
                    added.update(comp for comp in middle if comp not in current)
                    current.update(middle)
    return frozenset(current)
