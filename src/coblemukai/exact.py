"""Exact integer linear algebra; no floating point is used anywhere.

Matrices are plain lists of lists of int.  Rational vectors are one integer
matrix plus a common denominator, the pair ``(rows, den)``: ``integer_rows``
makes it from tuples of int or Fraction where a public function receives
vectors, and ``fraction_rows`` gives tuples of Fraction back where one
returns them.  Inertia is computed fraction-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(m: list[list]) -> list[list]:
    return [list(col) for col in zip(*m)] if m else []


def matmul(a: list[list], b: list[list]) -> list[list]:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matmul shape mismatch")
    bt = transpose(b)
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def is_symmetric(m: list[list]) -> bool:
    n = len(m)
    if any(len(row) != n for row in m):
        return False
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n))


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


def det(m: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    n = len(m)
    if n == 0:
        return 1
    if any(len(row) != n for row in m):
        raise ValueError("det requires a square matrix")
    a = [[int(x) for x in row] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form: left @ m @ right == diag(factors), transforms unimodular."""

    factors: tuple[int, ...]
    left: tuple[tuple[int, ...], ...]
    right: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.factors if d != 0)


def _min_pivot(a, t, rows, cols):
    # Smallest |entry| in the trailing submatrix; row-major scan breaks ties.
    best = None
    for i in range(t, rows):
        for j in range(t, cols):
            v = a[i][j]
            if v != 0 and (best is None or abs(v) < abs(a[best[0]][best[1]])):
                best = (i, j)
    return best


def snf(m: list[list[int]]) -> SnfResult:
    """Smith normal form with unimodular transforms.

    Kummer-Smith elimination; the pivot is always the entry of minimal
    nonzero absolute value (row-major scan on ties), which keeps coefficient
    growth tame on the matrices of rank at most 18 this package feeds it.
    """
    rows, cols = dims(m)
    a = [[int(x) for x in row] for row in m]
    left = identity(rows)
    right = identity(cols)
    t = 0
    while t < min(rows, cols):
        pos = _min_pivot(a, t, rows, cols)
        if pos is None:
            break
        pi, pj = pos
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            left[t], left[pi] = left[pi], left[t]
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
                for j in range(rows):
                    left[i][j] -= q * left[t][j]
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
        # Pivot must divide the rest of the submatrix before moving on.
        fix = None
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
            for j in range(rows):
                left[t][j] += left[fix][j]
            continue
        t += 1
    for i in range(min(rows, cols)):
        if a[i][i] < 0:
            for j in range(cols):
                a[i][j] = -a[i][j]
            for j in range(rows):
                left[i][j] = -left[i][j]
    factors = tuple(a[i][i] for i in range(min(rows, cols)))
    check = matmul(matmul(left, [list(r) for r in m]), right)
    if not all(
        check[i][j] == (factors[i] if i == j and i < len(factors) else 0)
        for i in range(rows)
        for j in range(cols)
    ):
        raise AssertionError("SNF internal inconsistency")
    return SnfResult(
        factors=factors,
        left=tuple(tuple(r) for r in left),
        right=tuple(tuple(r) for r in right),
    )


def integer_rows(vectors) -> tuple[list[list[int]], int]:
    """(rows, den) with rows integral and rows[i][j] / den == vectors[i][j].

    ``den`` is the least common denominator of every entry (1 for integer
    input); entries may be ints or Fractions.
    """
    vecs = [tuple(v) for v in vectors]
    # a set, not a generator: star-expanding n*n entries churns tuple sizes
    den = lcm(*{c.denominator for v in vecs for c in v})
    return [[c.numerator * (den // c.denominator) for c in v] for v in vecs], den


def fraction_rows(rows, den: int) -> list[tuple[Fraction, ...]]:
    """The vectors row/den as tuples of Fraction; the inverse of ``integer_rows``."""
    return [tuple(Fraction(x, den) for x in row) for row in rows]


def rank_signature(m: list[list]) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia of a symmetric matrix, exactly.

    Fraction-free symmetric elimination.  Pivots prefer the first nonzero
    diagonal entry; if the diagonal is exhausted, the first nonzero
    off-diagonal entry is folded onto the diagonal (standard completion), so
    no square roots are ever needed.  Eliminating a pivot p with row b
    replaces the trailing block A by |p|*A - sign(p)*b*b^T, which is |p| times
    the Schur complement, and then divides by the block's content; both are
    positive rescalings, so every step is a congruence up to a positive factor.
    """
    n = len(m)
    if n == 0:
        return (0, 0, 0)
    if not is_symmetric(m):
        raise ValueError("rank_signature requires a symmetric matrix")
    a, _ = integer_rows(m)
    pos = neg = 0
    while a:
        size = len(a)
        piv = next((i for i in range(size) if a[i][i]), None)
        if piv is None:
            off = next(
                ((i, j) for i in range(size) for j in range(i + 1, size) if a[i][j]), None
            )
            if off is None:
                break
            i, j = off
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for row in a:
                row[i] += row[j]
            piv = i
        if piv:
            a[0], a[piv] = a[piv], a[0]
            for row in a:
                row[0], row[piv] = row[piv], row[0]
        p = a[0][0]
        if p > 0:
            pos += 1
        else:
            neg += 1
        scale, sign = abs(p), (1 if p > 0 else -1)
        b = a[0][1:]
        block = []
        for bi, row in zip(b, a[1:]):
            rest = row[1:]
            if bi:
                sb = sign * bi
                block.append([scale * x - sb * y for x, y in zip(rest, b)])
            else:
                block.append([scale * x for x in rest])
        content = 0
        for row in block:
            content = gcd(content, *row)
        if content > 1:
            block = [[x // content for x in row] for row in block]
        a = block
    return (pos, neg, n - pos - neg)


def int_kernel(m: list[list[int]]) -> list[tuple[int, ...]]:
    """Basis of the saturated integer kernel {x in Z^cols : m @ x = 0}."""
    rows, cols = dims(m)
    if rows == 0:
        return [tuple(row) for row in identity(cols)]
    res = snf(m)
    r = res.rank
    right = res.right  # columns r..cols-1 span the kernel
    return [tuple(right[i][j] for i in range(cols)) for j in range(r, cols)]


def hnf_rows(rows_in: list[list[int]]) -> list[list[int]]:
    """Canonical row Hermite normal form basis of the lattice the rows span.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot); zero rows are dropped.
    """
    by_pivot: dict[int, list[int]] = {}
    for row_in in rows_in:
        v = list(map(int, row_in))
        while True:
            c = next((i for i, x in enumerate(v) if x != 0), None)
            if c is None:
                break
            row = by_pivot.get(c)
            if row is None:
                by_pivot[c] = v
                break
            if v[c] % row[c] == 0:
                q = v[c] // row[c]
                v = [b - q * a for a, b in zip(row, v)]
            else:
                # 2x2 unimodular combination; both vectors vanish before c.
                g, x, y = xgcd(row[c], v[c])
                rc, vc = row[c], v[c]
                by_pivot[c] = [x * a + y * b for a, b in zip(row, v)]
                v = [(-(vc // g)) * a + (rc // g) * b for a, b in zip(row, v)]
    basis = [by_pivot[c] for c in sorted(by_pivot)]
    for row in basis:
        c = next(i for i, x in enumerate(row) if x != 0)
        if row[c] < 0:
            row[:] = [-x for x in row]
    # top-down: reducing by row k leaves the pivot columns of rows above k alone
    for k in range(len(basis)):
        c = next(i for i, x in enumerate(basis[k]) if x != 0)
        for i in range(k):
            q = basis[i][c] // basis[k][c]
            if q:
                basis[i] = [a - q * b for a, b in zip(basis[i], basis[k])]
    return basis


def hnf_remainder(basis: list[list[int]], v) -> list[int]:
    """Remainder of the integer vector v modulo the lattice of ``basis``.

    ``basis`` is a row echelon basis as returned by ``hnf_rows``; the
    remainder is zero exactly when v lies in the lattice.
    """
    r = list(v)
    for row in basis:
        c = next(i for i, x in enumerate(row) if x)
        q = r[c] // row[c]
        if q:
            r = [a - q * b for a, b in zip(r, row)]
    return r
