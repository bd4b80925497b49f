"""Exact integer linear algebra; no floating point is used anywhere.

Matrices are rows (lists or tuples) of Python ints, checked where they enter
the package: ``lattice.make_lattice``, ``lattice.radical_quotient`` and
``RootGraph``; rational vectors, one pair ``(rows, den)``, in ``integer_rows``.
The kernels convert no entry and copy with ``list(row)`` only the rows they
mutate.  A lattice is compared or tested for membership by its canonical HNF
(``hnf_rows``), which also gives ``int_kernel``.  One fraction-free Bareiss
elimination, ``_eliminate``, gives ``det``, ``inverse`` and, by Jacobi's rule
on its pivots, ``rank_signature``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm, prod
from operator import index, mul

from .record import Record


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(m: list[list]) -> list[list]:
    return [list(col) for col in zip(*m)] if m else []


def matmul(a: list[list], b: list[list]) -> list[list]:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matmul shape mismatch")
    bt = transpose(b)
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def product_is(factors: list[list[list[int]]], rhs: list[list[int]]) -> bool:
    """Is factors[0] @ ... @ factors[-1] == rhs?  Both sides are evaluated at
    x = (1, B, ..., B^(c-1)) right to left, as matrix-vector products.  E =
    (product of inner dimensions) * prod max|A_i| + max|rhs| bounds each entry
    of the difference and B = 2E + 1, so a difference row zero at x is zero."""
    top = [max(map(abs, chain.from_iterable(a)), default=0) for a in (*factors, rhs)]
    base = 2 * (prod(map(len, factors[1:])) * prod(top[:-1]) + top[-1]) + 1
    x = v = [base**j for j in range(next((len(a[0]) for a in (rhs, factors[-1]) if a), 0))]
    for a in reversed(factors):
        if any(len(row) != len(v) for row in a):
            raise ValueError("product_is shape mismatch")
        v = [sum(map(mul, row, v)) for row in a]
    return v == [sum(map(mul, row, x)) for row in rhs]


def is_symmetric(m: list[list]) -> bool:
    n = len(m)
    if any(len(row) != n for row in m):
        return False
    return all(map(tuple.__eq__, map(tuple, m), zip(*m)))


def dims(m: list[list]) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _eliminate(a: list[list[int]]) -> list[tuple[int, int, bool]]:
    """Bareiss elimination in place below the diagonal of the square left
    block of ``a``, across the full row width.  a[k][k] ends as the pivot of
    step k, 0 where the step was skipped.  Returns the column moves (k, i,
    fold) in the order they were made.

    A zero pivot at step k is replaced first by the first later row i whose
    diagonal entry is nonzero: rows k and i, and columns k and i of the left
    block, change places, the move (k, i, False).  Without one, the first
    later row i with a nonzero in column k is folded in: rows k and i are
    brought up to date, row i is added to row k, and then column i to column
    k of the left block, the move (k, i, True), unless that would make a[k][k]
    0 again.  A symmetric input never refuses the column step: its pivot
    becomes 2 a[i][k].  Every move has determinant 1, so the elimination runs
    on R M Q, with R and Q the row and column moves and det R M Q = det M; on
    a symmetric M, R = Q^T and each move is a congruence.  While no step is
    skipped, the pivots are the leading principal minors D_1..D_n of R M Q and
    the last is det M.  An empty pivot column, 0 from row k down, skips the
    step and leaves ``prev`` as it was: M is singular.  On a symmetric input
    row k is then empty too, so the later pivots are those of M with row and
    column k deleted.

    A row with a 0 in the pivot column is not touched at that step, where
    eager Bareiss multiplies it by p_k / p_(k-1).  ``scale[i]`` is the pivot
    row i was last updated with (1 at the start); the skipped factors
    telescope to prev / scale[i].  So a stale row is eliminated as
    (p * row - c * rk) // scale[i], which is eager Bareiss's
    (p * row' - c' * rk) // prev on row' = row * prev / scale[i], and the pivot
    row, the last row included, is brought up to date once, as row * prev //
    scale[i].  Each result is a Bareiss entry, a minor of the input
    (Sylvester's identity; Bareiss, Math. Comp. 22, 1968), so every division
    is exact and ``a`` ends as eager Bareiss leaves it.  A zero test needs no
    rescale: the factor is nonzero."""
    n = len(a)
    prev = 1
    scale = [1] * n
    moves = []
    for k in range(n):  # the last row's step only brings it up to date
        if not a[k][k]:
            piv = next((i for i in range(k + 1, n) if a[i][i]), None)
            if piv is not None:
                for row in a:
                    row[k], row[piv] = row[piv], row[k]
                a[k], a[piv] = a[piv], a[k]
                scale[k], scale[piv] = scale[piv], scale[k]
                moves.append((k, piv, False))
            elif (piv := next((i for i in range(k + 1, n) if a[i][k]), None)) is None:
                continue  # an empty pivot column
            else:
                for i in (k, piv):
                    a[i][k:], scale[i] = [x * prev // scale[i] for x in a[i][k:]], prev
                rk, ri = a[k], a[piv]
                rk[k:] = [x + y for x, y in zip(rk[k:], ri[k:])]
                if rk[k] + rk[piv]:
                    for row in a:
                        row[k] += row[piv]
                    moves.append((k, piv, True))
        rk = a[k]
        cols = range(k, len(rk))  # column k ends 0 in the rows below
        s = scale[k]
        if s != prev:
            for j in cols:
                rk[j] = rk[j] * prev // s
        p = rk[k]
        for i in range(k + 1, n):
            row = a[i]
            c = row[k]
            if c:
                s = scale[i]
                for j in cols:
                    row[j] = (p * row[j] - c * rk[j]) // s
                scale[i] = p
        prev = p
    return moves


def det(m: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("det requires a square matrix")
    a = [list(row) for row in m]
    _eliminate(a)
    if not all(row[k] for k, row in enumerate(a)):
        return 0  # a skipped step
    return a[-1][-1] if a else 1


class SnfResult(Record):
    """Smith normal form through its column transform: m @ right == W @ D for
    D = diag(factors) and some unimodular W, ``right`` unimodular.  ``snf``
    does not check this; its caller does (``lattice._discriminant_group``)."""

    __match_args__ = ("factors", "right")


def _min_pivot(a, t, rows, cols):
    # Smallest |entry| in the trailing submatrix; row-major scan breaks ties.
    # A unit ends the scan: nothing is smaller, and later ties lose anyway.
    best, least = None, 0
    for i in range(t, rows):
        row = a[i]
        for j in range(t, cols):
            v = abs(row[j])
            if v and (best is None or v < least):
                if v == 1:
                    return (i, j)
                best, least = (i, j), v
    return best


def snf(m: list[list[int]]) -> SnfResult:
    """Smith normal form, with the column transform only.

    Kummer-Smith elimination; the pivot is always the entry of minimal nonzero
    absolute value (row-major scan on ties), which keeps coefficient growth
    tame on the matrices of rank at most 18 this package feeds it.  A unit
    pivot stops the scan for the minimum at the first unit and is not tested
    for dividing the rest of the submatrix, which it always does; the factors
    and transform are those of the full scans.  Row operations act on the
    working copy alone, so m @ right is W @ D with W the inverse of the row
    operations; no product is checked here.
    """
    rows, cols = dims(m)
    a = [list(row) for row in m]
    right = identity(cols)
    t = 0
    while t < min(rows, cols):
        pos = _min_pivot(a, t, rows, cols)
        if pos is None:
            break
        pi, pj = pos
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            for row in right:
                row[t], row[pj] = row[pj], row[t]
        pivot = a[t][t]
        dirty = False
        for i in range(t + 1, rows):
            q = a[i][t] // pivot
            if q:
                for j in range(t, cols):
                    a[i][j] -= q * a[t][j]
            if a[i][t] != 0:
                dirty = True
        for j in range(t + 1, cols):
            q = a[t][j] // pivot
            if q:
                for i in range(t, rows):
                    a[i][j] -= q * a[i][t]
                for i in range(cols):
                    right[i][j] -= q * right[i][t]
            if a[t][j] != 0:
                dirty = True
        if dirty:
            continue
        # Pivot must divide the rest of the submatrix before moving on;
        # a unit always does.
        fix = None
        if pivot not in (1, -1):
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % pivot != 0:
                        fix = i
                        break
                if fix is not None:
                    break
        if fix is not None:
            for j in range(cols):
                a[t][j] += a[fix][j]
            continue
        t += 1
    factors = tuple(abs(a[i][i]) for i in range(min(rows, cols)))
    return SnfResult(factors, tuple(tuple(r) for r in right))


def integer_rows(vectors) -> tuple[list[list[int]], int]:
    """(rows, den), rows of Python ints with rows[i][j] / den == vectors[i][j]
    and den the least common denominator (1 for integer input).  An entry is a
    Fraction or an integer, read by ``operator.index``; a float or str is refused."""
    try:
        vecs = [[c if type(c) is int or isinstance(c, Fraction) else index(c) for c in v]
                for v in vectors]
    except TypeError:
        raise ValueError("vector entries must be integers or Fractions") from None
    # a set, not a generator: star-expanding n*n entries churns tuple sizes
    den = lcm(*{c.denominator for v in vecs for c in v})
    return [[c.numerator * (den // c.denominator) for c in v] for v in vecs], den


def rank_signature(m: list[list]) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia of a symmetric integer matrix,
    exactly: ``jacobi_inertia`` of the pivots of ``_eliminate``."""
    if not is_symmetric(m):
        raise ValueError("rank_signature requires a symmetric matrix")
    a = [list(row) for row in m]
    _eliminate(a)
    return jacobi_inertia([row[k] for k, row in enumerate(a)])


def jacobi_inertia(pivots) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia of a symmetric M from the pivots
    ``_eliminate`` leaves on its diagonal (Jacobi's rule).  M is congruent
    over Q to the diagonal of the ratios p_j / p_(j-1) of consecutive nonzero
    pivots, p_0 = 1, plus one 0 for each 0 pivot, a skipped step."""
    nonzero = [p for p in pivots if p]
    neg = sum((a < 0) != (b < 0) for a, b in zip((1, *nonzero), nonzero))
    return len(nonzero) - neg, neg, len(pivots) - len(nonzero)


class Inverse(tuple):
    """What ``inverse`` returns: the pair (d*M^-1, d), as it unpacks, with
    the pivots of its elimination as ``minors``, the leading principal minors
    D_1..D_n of R M Q (R = Q^T when M is symmetric; see ``_eliminate``), and
    det M = D_n as ``det``."""

    def __new__(cls, x, den, minors):
        pair = super().__new__(cls, (x, den))
        pair.minors = minors
        return pair

    @property
    def det(self) -> int:
        return self.minors[-1] if self.minors else 1


def inverse(m: list[list[int]]) -> Inverse:
    """(d*M^-1, d) for a nonsingular square integer M, d the least common
    denominator of M^-1, with the minors of ``Inverse``.  ``_eliminate``
    takes [M | I] to [U | V], U = V M Q upper triangular with U[n-1][n-1] =
    D = det M, Q the product Q_1 ... Q_t of its column moves.
    Back-substitution solves U X = D V; X = D Q^-1 M^-1 = Q^-1 adj M is
    integral, so every division is exact.  Replaying the moves in reverse on
    X gives Q X = adj M: a swap (k, i) swaps rows k and i, a fold (k, i) adds
    row k to row i.  Dividing by the content of D and X gives d."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("inverse requires a square matrix")
    a = [[*row, *e] for row, e in zip(m, identity(n))]
    moves = _eliminate(a)
    minors = tuple(a[k][k] for k in range(n))
    if not all(minors):
        raise ValueError("inverse of a singular matrix")
    d = a[-1][n - 1] if n else 1
    x: list = [None] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        acc = [d * v for v in row[n:]]
        for j in range(i + 1, n):
            u, xj = row[j], x[j]
            if u:
                for t in range(n):
                    acc[t] -= u * xj[t]
        x[i] = [s // row[i] for s in acc]
    for k, i, fold in reversed(moves):
        if fold:
            x[i] = [u + v for u, v in zip(x[i], x[k])]
        else:
            x[k], x[i] = x[i], x[k]
    c = gcd(d, *(v for r in x for v in r)) * (1 if d > 0 else -1)
    return Inverse([[v // c for v in r] for r in x], d // c, minors)


def int_kernel(m: list[list[int]]) -> list[tuple[int, ...]]:
    """Basis of the saturated integer kernel {x in Z^cols : m @ x = 0}: the
    rows (M e_j | e_j) span {(Mx, x)}, and the tails of its HNF rows that
    vanish on M's part span its vectors with Mx = 0."""
    rows, cols = dims(m)
    hnf = hnf_rows([[*col, *e] for col, e in zip(zip(*m), identity(cols))])
    kernel = [tuple(row[rows:]) for row in hnf if not any(row[:rows])]
    if len(hnf) != cols or any(map(any, matmul(m, transpose(kernel)))):
        raise AssertionError("integer kernel: HNF of (Mx, x) is not of rank cols, or M K != 0")
    return kernel


def hnf_rows(rows_in: list[list[int]]) -> list[list[int]]:
    """Canonical row Hermite normal form basis of the lattice the rows span.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot); zero rows are dropped.  A row reduced at column c and the
    basis row with pivot c both vanish before c, so the reduction and the
    xgcd combination work in place on columns c onward only, and the row
    vanishes up to c + 1 afterwards.  The top-down pass reduces by row k
    from its pivot column onward, for the same reason.

    The rows are reduced last to first.  The basis does not depend on the
    order, but the work and the size of the entries met on the way do
    (Kannan–Bachem, *SIAM J. Comput.* 8, 1979), and every caller lists last
    the rows that make short-tailed pivots: in a Gram the rows of later
    vertices lead late, and ``lattice._adjoin`` puts den I before the glue
    rows, so those become the pivots and each unit row reduces by exact
    division.
    """
    by_pivot: dict[int, list[int]] = {}
    for row_in in reversed(rows_in):
        v = list(row_in)
        c, n = 0, len(v)
        while True:
            while c < n and not v[c]:
                c += 1
            if c == n:
                break
            row = by_pivot.get(c)
            if row is None:
                by_pivot[c] = v
                break
            rc, vc = row[c], v[c]
            if vc % rc == 0:
                q = vc // rc
                for j in range(c, n):
                    v[j] -= q * row[j]
            else:
                # 2x2 unimodular combination on the tails
                g, x, y = xgcd(rc, vc)
                rc, vc = rc // g, vc // g
                for j in range(c, n):
                    a, b = row[j], v[j]
                    row[j], v[j] = x * a + y * b, rc * b - vc * a
            c += 1
    pivots = sorted(by_pivot)
    basis = [by_pivot[c] for c in pivots]
    for c, row in zip(pivots, basis):
        if row[c] < 0:
            row[c:] = [-x for x in row[c:]]
    # top-down: reducing by row k leaves the pivot columns of rows above k alone
    for k, c in enumerate(pivots):
        rk = basis[k]
        p = rk[c]
        for row in basis[:k]:
            q = row[c] // p
            if q:
                for j in range(c, len(rk)):
                    row[j] -= q * rk[j]
    return basis
