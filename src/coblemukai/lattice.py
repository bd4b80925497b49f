"""Integral lattices and their discriminant / mod-2 invariants.

A lattice is a free Z-module with an integer Gram matrix.  The operations
here cover named ADE/U constructions, determinants, discriminant groups and
the discriminant quadratic form, Nikulin overlattice gluing and saturation,
the kernel and isotropic subgroups of the mod-2 quadratic form on L/2L with
their half-integer overlattices, and quotients of a degenerate Gram by its
radical.  A public function converts the rational vectors it receives once,
by ``_rows``, and works on integers; ``Fraction`` appears only in what it
returns (``gram_matrix``, ``generator_lifts``, ``disc_q``) and in errors.
"""

from __future__ import annotations

import operator
import re
import sys
from fractions import Fraction
from functools import cached_property, reduce
from itertools import compress, count, islice, product
from math import isqrt, lcm, prod
from operator import mul, xor

from . import exact
from .record import Record

NAMED_MAX_RANK = 256
SATURATE_MAX_ORDER = 1 << 16


class Lattice(Record):
    """An integral lattice, just its symmetric Gram matrix: a lattice carries no name."""

    __match_args__ = ("gram",)

    def __init__(self, gram: tuple[tuple[int, ...], ...]):
        if not exact.is_symmetric(gram):
            raise ValueError("Gram matrix must be symmetric")
        super().__init__(gram)

    @property
    def rank(self) -> int:
        return len(self.gram)


def make_lattice(gram: list[list[int]]) -> Lattice:
    """Entries are read by ``operator.index``: a float, Fraction or str is refused."""
    try:
        gram = tuple(tuple(map(operator.index, row)) for row in gram)
    except TypeError:
        raise ValueError("Gram entries must be integers") from None
    return Lattice(gram=gram)


def _rows(lat: Lattice, vectors) -> tuple[list[list[int]], int]:
    """Rational vectors of length rank as integer rows over one denominator."""
    rows, den = exact.integer_rows(vectors)
    if any(len(v) != lat.rank for v in rows):
        raise ValueError("vector length does not match lattice rank")
    return rows, den


def _times_gram(lat: Lattice, rows) -> list[list[int]]:
    """V*G for integer rows V, the one place that forms it: row v of V*G is
    the sum of v_k times row k of G (G is symmetric) over the nonzero v_k."""
    out = []
    for v in rows:
        acc = None
        for a, g in zip(v, lat.gram):
            if a:
                acc = [a * y for y in g] if acc is None else [x + a * y for x, y in zip(acc, g)]
        out.append(acc or [0] * lat.rank)
    return out


def _pairings(lat: Lattice, rows, cols=None) -> list[list[int]]:
    """V*G*W^T for integer rows V and W, each pairing summed over the nonzero
    entries of w.  Without ``cols`` this is the Gram V*G*V^T of ``rows``: one
    triangle is computed and mirrored."""
    vg = _times_gram(lat, rows)
    support = [[(k, x) for k, x in enumerate(w) if x] for w in (rows if cols is None else cols)]
    if cols is not None:
        return [[sum([u[k] * x for k, x in s]) for s in support] for u in vg]
    out = [[0] * len(rows) for _ in rows]
    for j, s in enumerate(support):
        for i in range(j, len(rows)):
            u = vg[i]
            out[i][j] = out[j][i] = sum([u[k] * x for k, x in s])
    return out


def gram_matrix(lat: Lattice, vectors, others=None) -> list[list]:
    """Pairings <v_i, w_j> of rational vectors as one integer matrix product.

    Each list is scaled once to integer rows over its common denominator,
    V*G*W^T is formed over the integers and divided by the two denominators.
    An entry is an int when it is integral and a Fraction otherwise; when
    both denominators are 1 the integer pairings are returned as they are.
    Without ``others`` this is the Gram matrix of ``vectors``.
    """
    rows, den = _rows(lat, vectors)
    cols, col_den = (None, den) if others is None else _rows(lat, others)
    scale = den * col_den
    if scale == 1:
        return _pairings(lat, rows, cols)
    return [
        [x // scale if x % scale == 0 else Fraction(x, scale) for x in row]
        for row in _pairings(lat, rows, cols)
    ]


def det(lat: Lattice) -> int:
    return exact.det(lat.gram)


def signature(lat: Lattice) -> tuple[int, int, int]:
    return exact.rank_signature(lat.gram)


def is_even(lat: Lattice) -> bool:
    return all(lat.gram[i][i] % 2 == 0 for i in range(lat.rank))


def direct_sum(*lats: Lattice) -> Lattice:
    n, off, g = sum(l.rank for l in lats), 0, []
    for l in lats:
        g += [[0] * off + list(row) + [0] * (n - off - l.rank) for row in l.gram]
        off += l.rank
    return make_lattice(g)


def rescale(lat: Lattice, m: int) -> Lattice:
    if m == 0:
        raise ValueError("rescale factor must be nonzero")
    return make_lattice([[m * x for x in row] for row in lat.gram])


# --- named constructions -------------------------------------------------

def _cartan_edges(family: str, n: int) -> list[tuple[int, int]]:
    if family == "A":
        return [(i, i + 1) for i in range(n - 1)]
    if family == "D":
        return [(i, i + 1) for i in range(n - 3)] + [(n - 3, n - 2), (n - 3, n - 1)]
    # E6/E7/E8: path of n-1 nodes, branch node hung off the third one
    return [(i, i + 1) for i in range(n - 2)] + [(2, n - 1)]


def _ade_gram(family: str, n: int) -> list[list[int]]:
    g = [[-2 if i == j else 0 for j in range(n)] for i in range(n)]
    for a, b in _cartan_edges(family, n):
        g[a][b] = g[b][a] = 1
    return g


_TERM_RE = re.compile(r"^([A-Z])([0-9]*)(?:\(([+-]?[0-9]+)\))?$")


def make_named(spec: str) -> Lattice:
    """Build a lattice from a name expression, e.g. "A5+A5+A1+A1" or "U(2)".

    Terms are A<m> (m>=1), D<n> (n>=4), E<k> (k in 6,7,8), U and E10, each
    optionally rescaled by an integer in parentheses; "+" outside them is
    orthogonal sum.  A spec of total rank above NAMED_MAX_RANK is refused
    before any Gram matrix is built.
    """
    # split at each "+" outside parentheses (inside, it is a scale's sign),
    # in one pass so that a long sum stays linear
    cuts, depth = [-1], 0
    for i, c in enumerate(spec):
        depth += (c == "(") - (c == ")")
        if c == "+" and depth <= 0:
            cuts.append(i)
    parts = [spec[a + 1 : b].strip() for a, b in zip(cuts, cuts[1:] + [len(spec)])]
    if not parts or any(not p for p in parts):
        raise ValueError(f"malformed lattice spec: {spec!r}")
    terms = []
    for part in parts:
        m = _TERM_RE.match(part)
        if not m:
            raise ValueError(f"malformed lattice term: {part!r}")
        family, digits, scale = m.groups()
        try:
            n = ascii_int(digits) if digits else None
            scale = ascii_int(scale) if scale else None
        except ValueError:
            raise ValueError(f"malformed lattice term: {part!r}") from None
        if family + digits in ("U", "E10"):
            family, n = family + digits, 2 if family == "U" else 10
        elif family not in "ADE" or n is None:
            raise ValueError(f"unknown lattice name: {part!r}")
        elif family == "A" and n < 1:
            raise ValueError("A_m requires m >= 1")
        elif family == "D" and n < 4:
            raise ValueError("D_n requires n >= 4")
        elif family == "E" and n not in (6, 7, 8):
            raise ValueError("E_k requires k in {6, 7, 8}")
        terms.append((family, n, scale))
    rank = sum(n for _, n, _ in terms)
    if rank > NAMED_MAX_RANK:
        raise ValueError(f"lattice spec of rank {rank} is above the bound {NAMED_MAX_RANK}")
    summands = []
    for family, n, scale in terms:
        if family == "U":
            lat = make_lattice([[0, 1], [1, 0]])
        elif family == "E10":
            lat = direct_sum(make_lattice([[0, 1], [1, 0]]), make_lattice(_ade_gram("E", 8)))
        else:
            lat = make_lattice(_ade_gram(family, n))
        if scale is not None:
            lat = rescale(lat, scale)
        summands.append(lat)
    return summands[0] if len(summands) == 1 else direct_sum(*summands)


# --- discriminant group and forms ----------------------------------------

class DiscriminantGroup(Record):
    """L*/L: cyclic invariant factors d_i > 1, generator i lifting to rows[i]/den,
    with den the lcm of the factors (1 for the trivial group).  ``generator_lifts``
    gives the same lifts as reduced Fraction tuples, built on first read."""

    __match_args__ = ("invariant_factors", "rows", "den")

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @cached_property
    def generator_lifts(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.rows)


def _in_dual(lat: Lattice, rows, den: int) -> bool:
    """Do the vectors row/den all pair integrally with L?"""
    return not any(x % den for row in _times_gram(lat, rows) for x in row)


def discriminant_group(lat: Lattice) -> DiscriminantGroup:
    """L*/L from the Smith form of the Gram matrix, its order checked
    against |det L|; a unimodular L has the trivial group, confirmed by the
    Hermite form of its Gram matrix instead."""
    return _discriminant_group(lat, det(lat))


def _discriminant_group(lat: Lattice, d: int) -> DiscriminantGroup:
    """``discriminant_group`` given d = det L.

    The SNF gives factors d_i and a column transform; lift i is column i of
    the transform mod d_i, over d_i, so d_i times it is integral.  Three
    checks make the lifts a basis of L*/L = (+) Z/d_i: they lie in L*, the
    d_i multiply to |d|, and an HNF of L and the lifts, which uses neither
    the SNF nor Bareiss, has index |d| over L.  Then e_i -> lift i maps
    (+) Z/d_i, of order |d|, onto L*/L, of order |d|: an isomorphism.  When
    |d| = 1, a row HNF of the Gram matrix with rank rows and every pivot 1
    confirms the trivial group instead.
    """
    if d == 0:
        raise ValueError("degenerate Gram matrix has no discriminant group")
    if d in (1, -1):
        hnf = exact.hnf_rows(lat.gram)
        if len(hnf) != lat.rank or any(row[i] != 1 for i, row in enumerate(hnf)):
            raise AssertionError("discriminant group order does not match |det|")
        return DiscriminantGroup((), (), 1)
    res = exact.snf(lat.gram)
    picked = [(i, di) for i, di in enumerate(res.factors) if di > 1]
    den = lcm(*(di for _, di in picked))
    rows = [[col[i] % di * (den // di) for col in res.right] for i, di in picked]
    if not _in_dual(lat, rows, den):
        raise AssertionError("discriminant generator lift is not in the dual lattice")
    if prod(res.factors) != abs(d):  # a zero factor, a singular Gram, fails too
        raise AssertionError("discriminant group order does not match |det|")
    if _adjoin(lat, rows, den)[1] != abs(d):
        raise AssertionError("discriminant lifts do not generate L*/L")
    return DiscriminantGroup(tuple(di for _, di in picked), tuple(map(tuple, rows)), den)


def disc_q(lat: Lattice, x) -> Fraction:
    """q_L(x mod L) = x^2 mod 2Z, reduced into [0, 2). Defined for even L only."""
    if not is_even(lat):
        raise ValueError("discriminant quadratic form is defined only for even lattices")
    rows, den = _rows(lat, [x])
    if not _in_dual(lat, rows, den):
        raise ValueError("lift is not in the dual lattice")
    return Fraction(_pairings(lat, rows)[0][0], den * den) % 2


def _adjoin(lat: Lattice, rows, den: int) -> tuple[list[list[int]], int]:
    """HNF basis of L + sum Z*v for v = row/den, as rows over den, and its index over L.

    The rows den*I and den*v span den*(L + sum Z*v) inside Z^n; its HNF has
    its pivots on the diagonal, and the index is den^n over their product.
    """
    n = lat.rank
    hnf = exact.hnf_rows([[den if i == j else 0 for j in range(n)] for i in range(n)] + rows)
    if len(hnf) != n:
        raise AssertionError("overlattice basis does not have full rank")
    index = den**n
    for i, row in enumerate(hnf):
        index //= row[i]
    return hnf, index


def overlattice(lat: Lattice, glue) -> Lattice:
    """Even overlattice obtained by adjoining an isotropic glue subgroup.

    ``glue`` is a sequence of rational dual-coset lifts g_i generating H in
    L*/L.  H is isotropic exactly when every q(g_i) lies in 2Z and every
    b(g_i, g_j) in Z, so one Gram matrix of the generators decides it and H
    is never listed.  The result L' satisfies det(L') * |H|^2 = det(L), and
    its discriminant form is checked to be q_L on H-perp/H.
    """
    return overlattice_index(lat, glue)[0]


def overlattice_index(lat: Lattice, glue) -> tuple[Lattice, int, int]:
    """(``overlattice(lat, glue)``, its index |H| over L, its det)."""
    if not is_even(lat):
        raise ValueError("overlattice gluing requires an even lattice")
    out, _, d_out = _overlattice(lat, *_rows(lat, glue), d := det(lat))
    return out, isqrt(d // d_out), d_out


def _overlattice(lat: Lattice, glue, den: int, d: int):
    """``overlattice`` on glue rows over den, given d = det L: (L', L'*/L', det L').

    det L' = d / index^2 holds since the glued basis is triangular with the
    index read off its pivots; ``_discriminant_group`` checks L'*/L' against it.
    L'*/L' = H-perp/H is checked on generators without listing either group.
    For L in L' in L'* in L*, H-perp is L'*/L (Nikulin 1979, Prop. 1.4.1).
    The discriminant lifts of L', written in L coordinates, must lie in L*
    and pair integrally with the glue; with the glue they must generate a
    subgroup of L*/L of order |det L| / |H|, which is then all of H-perp.
    For a unimodular L' (no lifts, den 1) that HNF would repeat the glued
    basis's, a deterministic result, so its index is reused.
    """
    if not _in_dual(lat, glue, den):
        raise ValueError("glue generator is not in the dual lattice")
    for i, row in enumerate(_pairings(lat, glue)):
        for j in range(i, len(row)):
            if row[j] % ((2 if i == j else 1) * den * den):
                raise ValueError(f"glue subgroup is not isotropic: <g{i + 1}, g{j + 1}> = "
                                 f"{Fraction(row[j], den * den)}")
    basis, index = _adjoin(lat, glue, den)
    out = make_lattice(_basis_gram(lat, basis, den))
    if not is_even(out):
        raise AssertionError("overlattice of an even lattice along isotropic glue must be even")
    if d % (index * index):
        raise AssertionError("overlattice index does not match glue subgroup order")
    d_out = d // (index * index)
    group = _discriminant_group(out, d_out)
    lifts = exact.matmul(group.rows, basis)
    glue = [[group.den * x for x in g] for g in glue]
    scale = group.den * den
    if not _in_dual(lat, lifts, scale):
        raise AssertionError("overlattice discriminant lift is not in the dual lattice")
    if any(b % (scale * scale) for row in _pairings(lat, lifts, glue) for b in row):
        raise AssertionError("overlattice discriminant lift is not orthogonal to the glue")
    order = _adjoin(lat, lifts + glue, scale)[1] if lifts else index
    if order * index != abs(d):
        raise AssertionError("discriminant form of overlattice does not match H-perp/H")
    return out, group, d_out


def _basis_gram(lat: Lattice, basis, den: int) -> list[list[int]]:
    """Gram matrix of the basis row/den of ``_adjoin``, which must be integral.

    A row equal to den*e_i as a whole, not only at its pivot, pairs as row i
    of G, so G is copied; only the other (moved) rows are paired and checked.
    """
    n, dd = lat.rank, den * den
    out = [list(row) for row in lat.gram]
    moved = [i for i, row in enumerate(basis) if row[i] != den or row.count(0) != n - 1]
    for i, u in zip(moved, _times_gram(lat, [basis[i] for i in moved])):
        row = [den * x for x in u]  # <u, den*e_j>; the moved j are overwritten
        for j in moved:
            row[j] = sum(map(mul, u, basis[j]))
        if any(x % dd for x in row):
            raise ValueError("non-integral pairing in constructed basis")
        out[i] = [x // dd for x in row]
        for j, x in enumerate(out[i]):
            out[j][i] = x
    return out


def _isotropic_classes(group: DiscriminantGroup, table):
    """The nonzero classes with q = 0, as coordinates in lexicographic order.
    ``table`` is T = R G R^T for the lift rows R, so q(x) = x^T T x / den^2 mod 2.
    A scan lists at most SATURATE_MAX_ORDER classes: one that would go on
    past them is refused."""
    mod = 2 * group.den * group.den
    classes = product(*map(range, group.invariant_factors))
    for x in islice(classes, SATURATE_MAX_ORDER):
        if any(x) and sum(a * sum(map(mul, row, x)) for a, row in zip(x, table)) % mod == 0:
            yield x
    if next(classes, None) is not None:
        raise ValueError(f"the saturation scan of a discriminant group of order {group.order} "
                         f"would list more than SATURATE_MAX_ORDER = {SATURATE_MAX_ORDER} classes")


def saturate(lat: Lattice) -> Lattice:
    """Even overlattice L' of L along a maximal isotropic subgroup H of q_L.

    L' is glued one isotropic class at a time.  A class x of L*/L with
    q(x) = 0 spans an isotropic <x>, and L+<x> has discriminant group
    <x>-perp/<x> (Nikulin 1979, Prop. 1.4.1), where the next class is
    sought.  So L'*/L' = H-perp/H for the H glued so far, and when it has
    no isotropic class H is maximal: an isotropic class of H-perp/H would
    extend H.  Every maximal H has the same order, because the anisotropic
    form H-perp/H is unique up to isometry (Nikulin 1979, section 1), so
    det L' = det L / |H|^2 does not depend on the classes picked; the Gram
    of L' may.  No scan for an isotropic class lists more than
    SATURATE_MAX_ORDER classes, and det L is the one determinant taken.
    """
    return _saturate(lat, det(lat))[0]


def _saturate(lat: Lattice, d: int) -> tuple[Lattice, int]:
    """(``saturate(lat)``, its det) given d = det L.  Each step glues the
    first isotropic class of the current group through ``_overlattice``,
    which checks the glued form and returns L'*/L' and det L' = d / index^2.
    The loop ends when the scan finds no isotropic class, which is the
    anisotropy check; an even unimodular or anisotropic L is its own
    saturation.  A step whose det does not shrink glued nothing, so its
    class is still isotropic and the loop would not end: refused."""
    if not is_even(lat):
        raise ValueError("saturation requires an even lattice")
    group = _discriminant_group(lat, d)
    while (x := next(_isotropic_classes(group, _pairings(lat, group.rows)), None)) is not None:
        lat, group, d_next = _overlattice(lat, exact.matmul([x], group.rows), group.den, d)
        if abs(d_next) >= abs(d):
            raise AssertionError("H-perp/H has a nonzero isotropic class after saturation")
        d = d_next
    return lat, d


# --- mod-2 quadratic form on K/2K ----------------------------------------

def _q2(gram: list[list[int]], mask: int, n: int) -> int:
    """q(x) = <x,x>/2 mod 2 for the class x whose set bits select basis vectors."""
    total = 0
    bits = [i for i in range(n) if mask >> i & 1]
    for a, i in enumerate(bits):
        total += gram[i][i]
        for j in bits[a + 1 :]:
            total += 2 * gram[i][j]
    return (total // 2) % 2


def _gf2_kernel(rows: list[int]) -> list[int]:
    """Kernel basis of a symmetric GF(2) matrix given as row bitmasks, so row i
    is also column i.  Columns are eliminated while tracking which unit-vector
    combination produced them; combinations that reduce to zero span the kernel."""
    basis: list[int] = []
    reduced: list[tuple[int, int]] = []  # (column bitmask, combination), pivot-sorted
    for i, col in enumerate(rows):
        comb = 1 << i
        for rc, rcomb in reduced:
            if col & (rc & -rc):
                col ^= rc
                comb ^= rcomb
        if col:
            reduced.append((col, comb))
            reduced.sort(key=lambda t: t[0] & -t[0])
        else:
            basis.append(comb)
    return basis


def _f_rows(lat: Lattice) -> list[int]:
    """f(x, y) = <x, y> mod 2 on K/2K as row bitmasks: bit j of row i is G[i][j] mod 2."""
    return [sum((lat.gram[i][j] % 2) << j for j in range(lat.rank)) for i in range(lat.rank)]


def mod2_nullity(lat: Lattice) -> tuple[int, int, list[tuple[int, ...]]]:
    """(nullity, rank, kernel basis) of q on K/2K.

    The kernel is {x in ker f : q(x) = 0}; on ker f the form q is linear, so
    only mod-2 linear algebra is needed and any rank is fine.
    """
    if not is_even(lat):
        raise ValueError("mod-2 quadratic form is defined only for even lattices")
    n = lat.rank
    ker_f = _gf2_kernel(_f_rows(lat))
    qvals = [_q2(lat.gram, v, n) for v in ker_f]
    if any(qvals):
        # q is linear on ker f; intersect with the hyperplane q = 0
        p = qvals.index(1)
        kernel = [
            v ^ ker_f[p] if qv else v
            for i, (v, qv) in enumerate(zip(ker_f, qvals))
            if i != p
        ]
    else:
        kernel = list(ker_f)
    kernel = sorted(kernel)
    nullity = len(kernel)
    basis = [tuple(v >> i & 1 for i in range(n)) for v in kernel]
    return (nullity, n - nullity, basis)


def mod2_subgroup(lat: Lattice, h_gens) -> tuple[list[int], list[int]]:
    """Span H of 0/1 generators in K/2K, and the classes of H with q != 0.

    Both are sorted bitmasks whose set bits select basis vectors; H is
    isotropic exactly when the second list is empty.  ``_q2`` runs once per
    generator h; each class x keeps q(x) and the mask of f(x, .), and x + h
    takes q(x) + q(h) + f(x, h), f(x, h) being the parity of f(x, .) & h.
    """
    if not is_even(lat):
        raise ValueError("mod-2 quadratic form is defined only for even lattices")
    n = lat.rank
    f_rows = _f_rows(lat)
    classes = {0: (0, 0)}  # x -> (q(x), f(x, .))
    for h in h_gens:
        if len(h) != n or any(c not in (0, 1) for c in h):
            raise ValueError("H generators must be 0/1 vectors of full rank length")
        mask = sum(c << i for i, c in enumerate(h))
        qh, fh = _q2(lat.gram, mask, n), reduce(xor, compress(f_rows, h), 0)
        for x, (qx, fx) in list(classes.items()):
            if x ^ mask not in classes:
                classes[x ^ mask] = (qx ^ qh ^ ((fx & mask).bit_count() & 1), fx ^ fh)
    span = sorted(classes)
    return span, [v for v in span if classes[v][0]]


def half_overlattice(lat: Lattice, h_gens) -> Lattice:
    """K_H = {x in K (x) Q : 2x in H} for an isotropic H in K/2K.

    ``h_gens`` are 0/1 coefficient vectors.  For h in the kernel of f the
    pairings <h/2, K> are integral, and q(h) = 0 makes <h/2, h/2> integral;
    but a cross pairing <h/2, h'/2> = <h, h'>/4 is integral only when
    <h, h'> is 0 mod 4, which isotropy does not force.  So a full q-kernel
    can be refused with "non-integral pairing in constructed basis": D4,
    A1+A1+A1 and A1+A1+A1+A1 are, while E8+A1+A1 is accepted.  The result
    need not be even: norm -1 vectors are allowed.  Its index over K must be
    |H|, read off the glued basis: det K_H |H|^2 = det K says nothing at det 0.
    """
    if not is_even(lat):
        raise ValueError("half-integer overlattice requires an even lattice")
    span, anisotropic = mod2_subgroup(lat, h_gens)
    if anisotropic:
        raise ValueError("H is not isotropic for the mod-2 quadratic form")
    basis, index = _adjoin(lat, list(h_gens), 2)
    out = make_lattice(_basis_gram(lat, basis, 2))  # raises on non-integral pairing
    if index != len(span) or det(out) * index * index != det(lat):
        raise AssertionError("half-overlattice index does not match |H|")
    return out


# --- radical quotients ---------------------------------------------------

class RadicalSplit:
    """Z^n modulo the radical of a symmetric integer Gram G, its rows taken
    as given: the one owner of its rank, inertia, Gram and saturated det,
    each built on first read.  Both split checks run on construction.

    The pivot columns S of the HNF of G index r rows spanning its row space,
    so M = G[S,S] is nonsingular and e_S is a basis of Q^n/rad, where e_j has
    coordinates C_j = G[j,S] M^-1, rows over the least common denominator d
    of M^-1.  C M C^T = d^2 G is checked only where it does not follow:
    (d M^-1) M = d I is checked, so C_S = d I and the blocks on rows or
    columns in S hold; on the rows T outside S, C_T M C_T^T = d C_T G[S,T],
    and G[T,S] (d M^-1) G[S,T] = d G[T,T] is checked, both by
    ``exact.product_is``.  The HNF rows restricted to S are a basis B of
    L M (L spanned by the C_j), upper triangular with the HNF pivots p_i on
    its diagonal.  The one elimination of M, in ``exact.inverse``, also gives
    ``minor_det`` = det M and ``minors``, the leading principal minors of
    E M E^T, E the determinant-1 moves it made.  G = 0 gives rank 0.
    """

    def __init__(self, g: list[list[int]]):
        # hnf_rows takes the rows last to first, so the late-leading rows of
        # later vertices become the pivots first: no entry exceeds 1,210 on
        # the seed-1 and seed-1000 graph-search pools and the catalog graphs
        self.hnf = exact.hnf_rows(g)
        self.pivots = pivots = [next(compress(count(), row)) for row in self.hnf]
        self.minor = m = [[g[i][j] for j in pivots] for i in pivots]
        self.even = not any(row[i] % 2 for i, row in enumerate(g))
        solved = exact.inverse(m)
        self.inverse, self.den = inv, d = solved
        self.minor_det, self.minors = solved.det, solved.minors
        if not exact.product_is([inv, m], [[d * (i == j) for j in pivots] for i in pivots]):
            raise AssertionError("radical split failed: d M^-1 times M is not d I")
        rest = sorted(set(range(len(g))).difference(pivots))
        g_ts = [[g[i][j] for j in pivots] for i in rest]
        g_st = [[g[i][j] for j in rest] for i in pivots]
        if not exact.product_is([g_ts, inv, g_st], [[d * g[i][j] for j in rest] for i in rest]):
            raise AssertionError("radical split failed: C M C^T is not d^2 G off the pivots")

    @cached_property
    def inertia(self) -> tuple[int, int]:
        """(positive, negative) of M, and so of G and of ``quotient``: the
        checked G = C M C^T and B M^-1 B^T are congruent over Q to M plus
        zeros (Sylvester).  Jacobi's rule reads it off ``minors``."""
        return exact.jacobi_inertia(self.minors)[:2]

    @cached_property
    def det(self) -> int:
        """det of the quotient, (prod p_i)^2 / det M, checked exact."""
        square = prod(row[j] for row, j in zip(self.hnf, self.pivots)) ** 2
        q, r = divmod(square, self.minor_det)
        if r:
            raise AssertionError("radical split failed: det M does not divide (prod p_i)^2")
        return q

    @cached_property
    def quotient(self) -> Lattice:
        """The quotient lattice: Gram B M^-1 B^T from the HNF rows held,
        checked integral.  B is upper triangular, so row i of B (d M^-1) sums
        the rows k >= i of d M^-1, and its pairing with row j >= i of B runs
        over the columns k >= j.  The product is symmetric, as M is, so one
        triangle is formed and mirrored."""
        b = [[row[j] for j in self.pivots] for row in self.hnf]
        r, inv = len(b), self.inverse
        bm = []
        for i, row in enumerate(b):
            acc = [0] * r
            for k in range(i, r):
                if c := row[k]:
                    acc = [x + c * y for x, y in zip(acc, inv[k])]
            bm.append(acc)
        span = [[0] * r for _ in range(r)]
        for j, row in enumerate(b):
            tail = row[j:]
            for i in range(j + 1):
                span[i][j] = span[j][i] = sum(map(mul, bm[i][j:], tail))
        if any(x % self.den for row in span for x in row):
            raise AssertionError("span Gram B M^-1 B^T is not integral")
        return make_lattice([[x // self.den for x in row] for row in span])

    @cached_property
    def saturated_det(self) -> int:
        """det of ``saturate(quotient)``, taking no determinant: ``det`` is
        handed to the saturation (a root graph's span can sit at finite index
        in its ambient, where multiple fibers halve isotropic classes).  An
        even quotient (G's diagonal even, as a root graph's) is its own
        saturation at det +-1, and no Gram is built; an odd one is refused."""
        d = self.det
        return d if abs(d) == 1 and self.even else _saturate(self.quotient, d)[1]


def radical_quotient(gram) -> Lattice:
    """Z^n modulo the radical of a symmetric integer Gram G, with its form:
    the ``quotient`` of its ``RadicalSplit``."""
    try:  # lists, not make_lattice's tuples, which would fill the interpreter's tuple free list
        g = [list(map(operator.index, row)) for row in gram]
    except TypeError:
        raise ValueError("Gram entries must be integers") from None
    if not exact.is_symmetric(g):
        raise ValueError("Gram matrix must be symmetric")
    return RadicalSplit(g).quotient


# --- text format -----------------------------------------------------------

def ascii_int(token: str) -> int:
    """The one reader of integer text: an optional sign and ASCII digits.
    Underscores (``0_1``), non-ASCII digits and whitespace, which int() reads,
    are refused; more digits than int() converts raise this function's text."""
    if not (token.isdigit() or token[:1] in ("+", "-") and token[1:].isdigit()) or not token.isascii():
        raise ValueError(f"not an integer: {token!r}")
    try:
        return int(token)
    except ValueError:  # the text is a sign and digits, so only the digit limit is left
        raise ValueError(f"integer has more than {sys.get_int_max_str_digits()} digits") from None


def ascii_fraction(token: str) -> Fraction:
    """``p`` or ``p/q``: p is read by ascii_int, q is unsigned ASCII digits.
    No decimal point or exponent; q = 0 raises ZeroDivisionError."""
    p, slash, q = token.partition("/")
    if slash and not q.isdigit():
        raise ValueError(f"not a fraction: {token!r}")
    return Fraction(ascii_int(p), ascii_int(q) if slash else 1)


def parse_gram_text(text: str) -> Lattice:
    """Gram matrix file: first line "rank N", then N*N whitespace-split integers."""
    tokens = text.split()
    if len(tokens) < 2 or tokens[0] != "rank":
        raise ValueError('gram file must start with "rank N"')
    try:
        n = ascii_int(tokens[1])
    except ValueError as e:
        raise ValueError("gram file rank is not an integer") from e
    if n < 0:
        raise ValueError("gram file rank must be >= 0")
    entries = tokens[2:]
    if len(entries) != n * n:
        raise ValueError(f"expected {n * n} matrix entries, found {len(entries)}")
    try:
        vals = [ascii_int(t) for t in entries]
    except ValueError as e:
        raise ValueError("gram file entries must be integers") from e
    g = [vals[i * n : (i + 1) * n] for i in range(n)]
    if not exact.is_symmetric(g):
        raise ValueError("gram matrix in file is not symmetric")
    return make_lattice(g)


def load_gram_file(path: str) -> Lattice:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_gram_text(fh.read())
