"""Integral lattices and their discriminant / mod-2 invariants.

A lattice is a free Z-module with an integer Gram matrix.  The operations
here cover named ADE/U constructions, determinants, discriminant groups and
forms, Nikulin overlattice gluing, the mod-2 quadratic form on L/2L with its
half-integer overlattices, quotients of a degenerate Gram by its radical,
orthogonal complements and root reflections.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, prod
from operator import mul

from . import exact

MOD2_TABLE_MAX_RANK = 16
SATURATE_MAX_ORDER = 1 << 16


@dataclass(frozen=True)
class Lattice:
    gram: tuple[tuple[int, ...], ...]
    name: str | None = None

    def __post_init__(self):
        if not exact.is_symmetric(self.gram):
            raise ValueError("Gram matrix must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.gram)

    def gram_rows(self) -> list[list[int]]:
        return [list(row) for row in self.gram]


def make_lattice(gram: list[list[int]], name: str | None = None) -> Lattice:
    return Lattice(gram=tuple(tuple(int(x) for x in row) for row in gram), name=name)


def _rows(lat: Lattice, vectors) -> tuple[list[list[int]], int]:
    """Rational vectors of length rank as integer rows over one denominator."""
    rows, den = exact.integer_rows(vectors)
    if any(len(v) != lat.rank for v in rows):
        raise ValueError("vector length does not match lattice rank")
    return rows, den


def _pairings(lat: Lattice, rows, cols) -> list[list[int]]:
    """V*G*W^T for integer rows V and W."""
    out = []
    for v in rows:
        vg = [sum(map(mul, v, col)) for col in lat.gram]  # G is symmetric
        out.append([sum(map(mul, vg, w)) for w in cols])
    return out


def gram_matrix(lat: Lattice, vectors, others=None) -> list[list]:
    """Pairings <v_i, w_j> of rational vectors as one integer matrix product.

    Each list is scaled once to integer rows over its common denominator,
    V*G*W^T is formed over the integers and divided by the two denominators.
    An entry is an int when it is integral and a Fraction otherwise.  Without
    ``others`` this is the Gram matrix of ``vectors``.
    """
    rows, den = _rows(lat, vectors)
    cols, col_den = (rows, den) if others is None else _rows(lat, others)
    scale = den * col_den
    return [
        [x // scale if x % scale == 0 else Fraction(x, scale) for x in row]
        for row in _pairings(lat, rows, cols)
    ]


def pairing(lat: Lattice, x, y):
    return gram_matrix(lat, [x], [y])[0][0]


def det(lat: Lattice) -> int:
    return exact.det(lat.gram_rows())


def signature(lat: Lattice) -> tuple[int, int, int]:
    return exact.rank_signature(lat.gram_rows())


def is_even(lat: Lattice) -> bool:
    return all(lat.gram[i][i] % 2 == 0 for i in range(lat.rank))


def direct_sum(*lats: Lattice) -> Lattice:
    n = sum(l.rank for l in lats)
    g = [[0] * n for _ in range(n)]
    off = 0
    for l in lats:
        for i in range(l.rank):
            for j in range(l.rank):
                g[off + i][off + j] = l.gram[i][j]
        off += l.rank
    name = "+".join(l.name for l in lats) if all(l.name for l in lats) else None
    return make_lattice(g, name)


def rescale(lat: Lattice, m: int) -> Lattice:
    if m == 0:
        raise ValueError("rescale factor must be nonzero")
    g = [[m * x for x in row] for row in lat.gram]
    name = f"{lat.name}({m})" if lat.name else None
    return make_lattice(g, name)


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


_TERM_RE = re.compile(r"^([A-Z][0-9]*)(?:\((-?[0-9]+)\))?$")


def make_named(spec: str) -> Lattice:
    """Build a lattice from a name expression, e.g. "A5+A5+A1+A1" or "U(2)".

    Terms are A<m> (m>=1), D<n> (n>=4), E<k> (k in 6,7,8), U and E10, each
    optionally rescaled by an integer in parentheses; "+" is orthogonal sum.
    """
    parts = [p.strip() for p in spec.split("+")]
    if not parts or any(not p for p in parts):
        raise ValueError(f"malformed lattice spec: {spec!r}")
    summands = []
    for part in parts:
        m = _TERM_RE.match(part)
        if not m:
            raise ValueError(f"malformed lattice term: {part!r}")
        base, scale = m.group(1), m.group(2)
        if base == "U":
            lat = make_lattice([[0, 1], [1, 0]], "U")
        elif base == "E10":
            lat = direct_sum(make_lattice([[0, 1], [1, 0]], "U"),
                             make_lattice(_ade_gram("E", 8), "E8"))
            lat = make_lattice(lat.gram_rows(), "E10")
        else:
            family, idx = base[0], base[1:]
            if family not in "ADE" or not idx:
                raise ValueError(f"unknown lattice name: {part!r}")
            n = int(idx)
            if family == "A" and n < 1:
                raise ValueError("A_m requires m >= 1")
            if family == "D" and n < 4:
                raise ValueError("D_n requires n >= 4")
            if family == "E" and n not in (6, 7, 8):
                raise ValueError("E_k requires k in {6, 7, 8}")
            lat = make_lattice(_ade_gram(family, n), base)
        if scale is not None:
            lat = rescale(lat, int(scale))
        summands.append(lat)
    return summands[0] if len(summands) == 1 else direct_sum(*summands)


# --- discriminant group and forms ----------------------------------------

@dataclass(frozen=True)
class DiscriminantGroup:
    """L*/L: cyclic invariant factors (>1) with coset-generator lifts as Fraction tuples."""

    invariant_factors: tuple[int, ...]
    generator_lifts: tuple[tuple[Fraction, ...], ...]

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)


def _in_dual(lat: Lattice, rows, den: int) -> bool:
    """Do the vectors row/den all pair integrally with L?"""
    return all(sum(map(mul, col, row)) % den == 0 for row in rows for col in lat.gram)


def discriminant_group(lat: Lattice) -> DiscriminantGroup:
    d = det(lat)
    if d == 0:
        raise ValueError("degenerate Gram matrix has no discriminant group")
    res = exact.snf(lat.gram_rows())
    n = lat.rank
    factors = []
    lifts = []
    for i, di in enumerate(res.factors):
        if di > 1:
            lift = [res.right[r][i] % di for r in range(n)]
            if not _in_dual(lat, [lift], di):
                raise AssertionError("discriminant generator lift is not in the dual lattice")
            factors.append(di)
            lifts.append(tuple(Fraction(x, di) for x in lift))
    group = DiscriminantGroup(tuple(factors), tuple(lifts))
    if group.order != abs(d):
        raise AssertionError("discriminant group order does not match |det|")
    return group


def disc_q(lat: Lattice, x) -> Fraction:
    """q_L(x mod L) = x^2 mod 2Z, reduced into [0, 2). Defined for even L only."""
    if not is_even(lat):
        raise ValueError("discriminant quadratic form is defined only for even lattices")
    rows, den = _rows(lat, [x])
    if not _in_dual(lat, rows, den):
        raise ValueError("lift is not in the dual lattice")
    return Fraction(_pairings(lat, rows, rows)[0][0], den * den) % 2


def disc_b(lat: Lattice, x, y) -> Fraction:
    """b_L(x, y) = <x, y> mod Z, reduced into [0, 1)."""
    rows, den = _rows(lat, [x, y])
    if not _in_dual(lat, rows, den):
        raise ValueError("lift is not in the dual lattice")
    return Fraction(_pairings(lat, rows[:1], rows[1:])[0][0], den * den) % 1


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
    if not is_even(lat):
        raise ValueError("overlattice gluing requires an even lattice")
    glue, den = _rows(lat, glue)
    if not _in_dual(lat, glue, den):
        raise ValueError("glue generator is not in the dual lattice")
    for i, row in enumerate(_pairings(lat, glue, glue)):
        for j in range(i, len(row)):
            if row[j] % ((2 if i == j else 1) * den * den):
                raise ValueError(f"glue subgroup is not isotropic: <g{i + 1}, g{j + 1}> = "
                                 f"{Fraction(row[j], den * den)}")
    basis, index = _adjoin(lat, glue, den)
    out = make_lattice(_basis_gram(lat, basis, den))
    if not is_even(out):
        raise AssertionError("overlattice of an even lattice along isotropic glue must be even")
    d = det(lat)
    if det(out) * index * index != d:
        raise AssertionError("overlattice index does not match glue subgroup order")
    _check_overlattice_disc_form(lat, out, basis, glue, den, index, d)
    return out


def _basis_gram(lat: Lattice, basis, den: int) -> list[list[int]]:
    """Gram matrix of the basis row/den, which must be integral."""
    g = _pairings(lat, basis, basis)
    if any(x % (den * den) for row in g for x in row):
        raise ValueError("non-integral pairing in constructed basis")
    return [[x // (den * den) for x in row] for row in g]


def _check_overlattice_disc_form(lat: Lattice, over: Lattice, basis, glue, den, index, d) -> None:
    """L'*/L' = H-perp/H, checked on generators without listing either group.

    For L in L' in L'* in L*, H-perp is L'*/L (Nikulin 1979, Prop. 1.4.1).
    The discriminant lifts of L', written in L coordinates, must lie in L*
    and pair integrally with the glue; with the glue they must generate a
    subgroup of L*/L of order |det L| / |H|, which is then all of H-perp.
    Basis and glue are rows over den, the lifts over lift_den*den; d = det L.
    """
    lift_rows, lift_den = exact.integer_rows(discriminant_group(over).generator_lifts)
    lifts = exact.matmul(lift_rows, basis)
    glue = [[lift_den * x for x in g] for g in glue]
    scale = lift_den * den
    if not _in_dual(lat, lifts, scale):
        raise AssertionError("overlattice discriminant lift is not in the dual lattice")
    if any(b % (scale * scale) for row in _pairings(lat, lifts, glue) for b in row):
        raise AssertionError("overlattice discriminant lift is not orthogonal to the glue")
    _, order = _adjoin(lat, lifts + glue, scale)
    if order * index != abs(d):
        raise AssertionError("discriminant form of overlattice does not match H-perp/H")


def _disc_table(lat: Lattice):
    """L*/L, its generator lifts as integer rows over den, and their pairings.

    For coordinates x, y mod the invariant factors, b(x, y) = x^T T y / den^2
    mod 1 and q(x) = x^T T x / den^2 mod 2.
    """
    group = discriminant_group(lat)
    rows, den = exact.integer_rows(group.generator_lifts)
    return group, rows, _pairings(lat, rows, rows), den


def _isotropic_classes(group: DiscriminantGroup, table, den: int):
    """The nonzero classes with q = 0, as coordinates in lexicographic order."""
    mod = 2 * den * den
    for x in product(*map(range, group.invariant_factors)):
        if any(x) and sum(a * sum(map(mul, row, x)) for a, row in zip(x, table)) % mod == 0:
            yield x


def saturate(lat: Lattice) -> Lattice:
    """Even overlattice of L along a maximal isotropic subgroup H of q_L.

    One greedy pass over L*/L finds H: a class that is isotropic, orthogonal
    to H and not in H extends H, and a class passed over stays so as H
    grows.  Every maximal H has the same order, because the anisotropic form
    H-perp/H is unique up to isometry (Nikulin 1979, section 1), so det of
    the result does not depend on the walk.  The group walked is capped at
    SATURATE_MAX_ORDER elements.
    """
    if not is_even(lat):
        raise ValueError("saturation requires an even lattice")
    group, lifts, table, den = _disc_table(lat)
    if group.order > SATURATE_MAX_ORDER:
        raise ValueError(
            f"discriminant group of order {group.order} is above the saturation bound "
            f"{SATURATE_MAX_ORDER}"
        )
    factors = group.invariant_factors
    zero = (0,) * len(factors)
    members = {zero}
    h_gens: list[list[int]] = []
    h_pairs: list[list[int]] = []  # T*h for each generator h of H
    for x in _isotropic_classes(group, table, den):
        if x in members or any(sum(map(mul, x, th)) % (den * den) for th in h_pairs):
            continue
        multiples = []
        y = x
        while y != zero:
            multiples.append(y)
            y = tuple((a + b) % d for a, b, d in zip(y, x, factors))
        members |= {tuple((a + b) % d for a, b, d in zip(m, k, factors))
                    for m in members for k in multiples}
        h_gens.append(list(x))
        h_pairs.append([sum(map(mul, row, x)) for row in table])
    # overlattice is public and takes rational vectors: the one conversion back
    out = overlattice(lat, exact.fraction_rows(exact.matmul(h_gens, lifts), den))
    over_group, _, over_table, over_den = _disc_table(out)
    if next(_isotropic_classes(over_group, over_table, over_den), None) is not None:
        raise AssertionError("H-perp/H has a nonzero isotropic class after saturation")
    return out


# --- mod-2 quadratic form on K/2K ----------------------------------------

@dataclass(frozen=True)
class Mod2Form:
    """q(x) = <x,x>/2 and f(x,y) = <x,y> on K/2K, both mod 2.

    ``q_values[mask]`` is q of the class whose set bits select basis vectors;
    the law q(x+y) = q(x) + q(y) + f(x,y) holds throughout.
    """

    dimension: int
    q_values: tuple[int, ...]
    f_matrix: tuple[tuple[int, ...], ...]


def _q2(gram: list[list[int]], mask: int, n: int) -> int:
    total = 0
    bits = [i for i in range(n) if mask >> i & 1]
    for a, i in enumerate(bits):
        total += gram[i][i]
        for j in bits[a + 1 :]:
            total += 2 * gram[i][j]
    return (total // 2) % 2


def mod2_form(lat: Lattice) -> Mod2Form:
    if not is_even(lat):
        raise ValueError("mod-2 quadratic form is defined only for even lattices")
    n = lat.rank
    if n > MOD2_TABLE_MAX_RANK:
        raise ValueError(
            f"exhaustive mod-2 table capped at rank {MOD2_TABLE_MAX_RANK}; use mod2_nullity"
        )
    g = lat.gram_rows()
    q = tuple(_q2(g, mask, n) for mask in range(1 << n))
    f = tuple(tuple(g[i][j] % 2 for j in range(n)) for i in range(n))
    return Mod2Form(dimension=n, q_values=q, f_matrix=f)


def _gf2_kernel(rows: list[int], n: int) -> list[int]:
    """Kernel basis of an n-column GF(2) matrix given as row bitmasks.

    Columns are eliminated while tracking which unit-vector combination
    produced them; combinations that reduce to zero span the kernel.
    """
    basis: list[int] = []
    reduced: list[tuple[int, int]] = []  # (column bitmask, combination), pivot-sorted
    for i in range(n):
        col = 0
        for r, row in enumerate(rows):
            if row >> i & 1:
                col |= 1 << r
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


def mod2_nullity(lat: Lattice) -> tuple[int, int, list[tuple[int, ...]]]:
    """(nullity, rank, kernel basis) of q on K/2K.

    The kernel is {x in ker f : q(x) = 0}; on ker f the form q is linear, so
    only mod-2 linear algebra is needed and any rank is fine.
    """
    if not is_even(lat):
        raise ValueError("mod-2 quadratic form is defined only for even lattices")
    n = lat.rank
    g = lat.gram_rows()
    f_rows = [sum((g[i][j] % 2) << j for j in range(n)) for i in range(n)]
    ker_f = _gf2_kernel(f_rows, n)
    qvals = [_q2(g, v, n) for v in ker_f]
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
    isotropic exactly when the second list is empty.
    """
    n = lat.rank
    span = {0}
    for h in h_gens:
        if len(h) != n or any(c not in (0, 1) for c in h):
            raise ValueError("H generators must be 0/1 vectors of full rank length")
        mask = sum(c << i for i, c in enumerate(h))
        span |= {x ^ mask for x in span}
    span = sorted(span)
    g = lat.gram_rows()
    return span, [v for v in span if _q2(g, v, n)]


def half_overlattice(lat: Lattice, h_gens) -> Lattice:
    """K_H = {x in K (x) Q : 2x in H} for an isotropic H in K/2K.

    ``h_gens`` are 0/1 coefficient vectors.  For h in the kernel of f the
    pairings <h/2, K> are integral, and q(h) = 0 makes <h/2, h/2> integral;
    but a cross pairing <h/2, h'/2> = <h, h'>/4 is integral only when
    <h, h'> is 0 mod 4, which isotropy does not force.  So a full q-kernel
    can be refused with "non-integral pairing in constructed basis": D4,
    A1+A1+A1 and A1+A1+A1+A1 are, while E8+A1+A1 is accepted.  The result
    need not be even: norm -1 vectors are allowed.
    """
    if not is_even(lat):
        raise ValueError("half-integer overlattice requires an even lattice")
    span, anisotropic = mod2_subgroup(lat, h_gens)
    if anisotropic:
        raise ValueError("H is not isotropic for the mod-2 quadratic form")
    basis, _ = _adjoin(lat, list(h_gens), 2)
    out = make_lattice(_basis_gram(lat, basis, 2))  # raises on non-integral pairing
    index = len(span)
    if det(out) * index * index != det(lat):
        raise AssertionError("half-overlattice index does not match |H|")
    return out


# --- radical quotients, complements and reflections -------------------------

def radical_quotient(gram) -> Lattice:
    """Z^n modulo the radical of a symmetric integer Gram G, with its form.

    The pivot columns S of the HNF of G index r rows spanning its row space,
    so M = G[S,S] is nonsingular and e_S is a basis of Q^n/rad, where e_j has
    coordinates C_j = G[j,S] M^-1: rows over the largest invariant factor d
    of one r x r SNF.  C M C^T = G is checked; one HNF of the C_j gives the
    basis.  G = 0 gives rank 0.
    """
    g = [list(map(int, row)) for row in gram]
    if not exact.is_symmetric(g):
        raise ValueError("Gram matrix must be symmetric")
    pivots = [next(i for i, x in enumerate(row) if x) for row in exact.hnf_rows(g)]
    if not pivots:
        return make_lattice([])
    m = [[g[i][j] for j in pivots] for i in pivots]
    minor = make_lattice(m)
    res = exact.snf(m)
    d = res.factors[-1]
    # U M V = diag(f) gives d M^-1 = V diag(d/f) U
    inv = exact.matmul([[x * (d // f) for x, f in zip(row, res.factors)] for row in res.right],
                       res.left)
    coords = exact.matmul([[row[j] for j in pivots] for row in g], inv)
    cm = exact.matmul(coords, m)
    n = len(g)  # C M C^T is symmetric, so its upper triangle decides
    if any(sum(map(mul, cm[i], coords[j])) != d * d * g[i][j]
           for i in range(n) for j in range(i, n)):
        raise AssertionError("radical split failed")
    basis, _ = _adjoin(minor, coords, d)
    return make_lattice(_basis_gram(minor, basis, d))


def orth_complement(lat: Lattice, vectors) -> Lattice:
    """Saturated orthogonal complement of the given rational vectors."""
    ints, den = _rows(lat, vectors)
    if not ints:
        return lat
    rows = []
    for v in ints:
        # G*v = w/den, and w/gcd(den, w) is G*v times its least common denominator
        w = [sum(map(mul, col, v)) for col in lat.gram]
        c = gcd(den, *w)
        rows.append([x // c for x in w])
    return make_lattice(_basis_gram(lat, exact.int_kernel(rows), 1))


def reflect(lat: Lattice, delta, x) -> tuple:
    """s_delta(x) = x + <x, delta> delta for a (-2)-vector delta."""
    if pairing(lat, delta, delta) != -2:
        raise ValueError("reflection vector must have self-pairing -2")
    c = pairing(lat, x, delta)
    return tuple(xi + c * di for xi, di in zip(x, delta))


# --- text format -----------------------------------------------------------

def parse_gram_text(text: str, name: str | None = None) -> Lattice:
    """Gram matrix file: first line "rank N", then N*N whitespace-split integers."""
    tokens = text.split()
    if len(tokens) < 2 or tokens[0] != "rank":
        raise ValueError('gram file must start with "rank N"')
    try:
        n = int(tokens[1])
    except ValueError as e:
        raise ValueError("gram file rank is not an integer") from e
    entries = tokens[2:]
    if len(entries) != n * n:
        raise ValueError(f"expected {n * n} matrix entries, found {len(entries)}")
    try:
        vals = [int(t) for t in entries]
    except ValueError as e:
        raise ValueError("gram file entries must be integers") from e
    g = [vals[i * n : (i + 1) * n] for i in range(n)]
    if not exact.is_symmetric(g):
        raise ValueError("gram matrix in file is not symmetric")
    return make_lattice(g, name)


def load_gram_file(path: str) -> Lattice:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_gram_text(fh.read())
