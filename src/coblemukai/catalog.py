"""Built-in dual graphs, blow-up intersection models and the summary table.

The graphs I, II, VI, MI, MII are constructed combinatorially; MI and MII
additionally carry intersection models on a blown-up quadric whose exact
rational bilinear form grounds every edge of the graph.  Types V and VII are
not constructible from the data this package carries (their cross-incidences
live in external references), so they are supported through the generic
graph file loader only.
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from itertools import combinations, permutations
from operator import add, sub

from . import exact, lattice, rootgraph
from .lattice import Lattice
from .record import Record
from .rootgraph import KIND_CURVE, KIND_ROOT, RootGraph

BUILTIN_GRAPHS = ("I", "II", "VI", "MI", "MII")
MODEL_NAMES = ("MI", "MII")


# --- combinatorial index sets ------------------------------------------------

def _duads(letters):
    return [frozenset(p) for p in combinations(letters, 2)]


def _synthemes():
    """The 15 partitions of {1..6} into three duads."""
    out = []

    def rec(rest, acc):
        if not rest:
            out.append(tuple(sorted(tuple(sorted(d)) for d in acc)))
            return
        a = min(rest)
        for b in sorted(rest - {a}):
            rec(rest - {a, b}, acc + [(a, b)])

    rec(set(range(1, 7)), [])
    return sorted(out)


def _triads():
    """3-subsets of {1..6} up to complement; the representative contains 1."""
    return [frozenset(t) for t in combinations(range(1, 7), 3) if 1 in t]


def _duad_label(d):
    return "d:" + "".join(str(x) for x in sorted(d))


def _syntheme_label(s):
    return "s:" + ".".join("".join(str(x) for x in d) for d in s)


def _triad_label(t):
    return "t:" + "".join(str(x) for x in sorted(t))


def _is_transversal(triad, syntheme) -> bool:
    return all(len(triad & set(d)) == 1 for d in syntheme)


def build_graph_mi() -> RootGraph:
    duad = {d: _duad_label(d) for d in sorted(_duads(range(1, 7)), key=_duad_label)}
    syn = {s: _syntheme_label(s) for s in _synthemes()}
    triad = {t: _triad_label(t) for t in sorted(_triads(), key=_triad_label)}
    labels = [(lab, KIND_CURVE) for lab in (*duad.values(), *syn.values())]
    labels += [(lab, KIND_ROOT) for lab in triad.values()]
    edges = [(duad[a], duad[b], 1) for a, b in combinations(duad, 2) if len(a & b) == 1]
    edges += [(syn[a], syn[b], 1) for a, b in combinations(syn, 2) if not set(a) & set(b)]
    edges += [(duad[d], syn[s], 2) for d in duad for s in syn if tuple(sorted(d)) in s]
    edges += [(a, b, 2) for a, b in combinations(triad.values(), 2)]
    # a duad meets a triad when it lies in the triad or in its complement
    edges += [(duad[d], triad[t], 2) for d in duad for t in triad if d <= t or not d & t]
    edges += [(syn[s], triad[t], 2) for s in syn for t in triad if _is_transversal(t, s)]
    return rootgraph.from_edges("MI", labels, edges)


def _perm_label(sigma) -> str:
    seen = set()
    cycles = []
    for start in range(1, 5):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        x = sigma[start - 1]
        while x != start:
            cyc.append(x)
            seen.add(x)
            x = sigma[x - 1]
        if len(cyc) > 1:
            cycles.append(cyc)
    if not cycles:
        return "p:id"
    return "p:" + "".join("(" + "".join(str(x) for x in c) + ")" for c in cycles)


def _perm_graph_points(sigma):
    return frozenset((i, sigma[i - 1]) for i in range(1, 5))


def build_graph_mii() -> RootGraph:
    grid = [(i, j) for i in range(1, 5) for j in range(1, 5)]
    name = {s: _perm_label(s) for s in permutations(range(1, 5))}
    perms = sorted(name, key=name.__getitem__)
    labels = [(f"g:{i}{j}", KIND_ROOT) for i, j in grid]
    labels += [(name[s], KIND_CURVE) for s in perms]
    edges = []
    for (i, j), (k, l) in combinations(grid, 2):
        if i == k or j == l:
            edges.append((f"g:{i}{j}", f"g:{k}{l}", 1))
    for a, b in combinations(perms, 2):
        common = sum(1 for i in range(4) if a[i] == b[i])
        if common < 2:
            edges.append((name[a], name[b], 2 - common))
    for i, j in grid:
        for s in perms:
            if s[i - 1] == j:
                edges.append((f"g:{i}{j}", name[s], 2))
    return rootgraph.from_edges("MII", labels, edges)


def build_graph_i() -> RootGraph:
    # chain c0 - c1 = c2 = c3 = c4 - c5 with two length-3 single-edge arcs
    # from c0 to c5; the two middle chain vertices are (-1)-roots.
    vertices = [
        ("c0", KIND_CURVE),
        ("c1", KIND_CURVE),
        ("c2", KIND_ROOT),
        ("c3", KIND_ROOT),
        ("c4", KIND_CURVE),
        ("c5", KIND_CURVE),
        ("t1", KIND_CURVE),
        ("t2", KIND_CURVE),
        ("t3", KIND_CURVE),
        ("b1", KIND_CURVE),
        ("b2", KIND_CURVE),
        ("b3", KIND_CURVE),
    ]
    edges = [
        ("c0", "c1", 1),
        ("c1", "c2", 2),
        ("c2", "c3", 2),
        ("c3", "c4", 2),
        ("c4", "c5", 1),
        ("c0", "t1", 1),
        ("t1", "t2", 1),
        ("t2", "t3", 1),
        ("t3", "c5", 1),
        ("c0", "b1", 1),
        ("b1", "b2", 1),
        ("b2", "b3", 1),
        ("b3", "c5", 1),
    ]
    return rootgraph.from_edges("I", vertices, edges)


def build_graph_ii() -> RootGraph:
    # three 4-cycles ("diamonds") linked by three bridges
    vertices = [f"v{i}" for i in range(1, 13)]
    edges = [
        # left diamond v1-v5-v3-v7
        ("v1", "v5", 1),
        ("v5", "v3", 1),
        ("v3", "v7", 1),
        ("v7", "v1", 1),
        # right diamond v2-v6-v4-v8
        ("v2", "v6", 1),
        ("v6", "v4", 1),
        ("v4", "v8", 1),
        ("v8", "v2", 1),
        # top diamond v9-v10-v11-v12
        ("v9", "v10", 1),
        ("v10", "v11", 1),
        ("v11", "v12", 1),
        ("v12", "v9", 1),
        # bridges
        ("v1", "v9", 1),
        ("v2", "v11", 1),
        ("v3", "v4", 1),
    ]
    return rootgraph.from_edges("II", vertices, edges)


def build_graph_vi() -> RootGraph:
    duads = sorted(_duads(range(1, 6)), key=lambda d: tuple(sorted(d)))

    def lab(prefix, d):
        return prefix + ":" + "".join(str(x) for x in sorted(d))

    vertices = [(lab("e", d), KIND_CURVE) for d in duads]
    vertices += [(lab("f", d), KIND_ROOT) for d in duads]
    edges = []
    for a, b in combinations(duads, 2):
        if not a & b:
            edges.append((lab("e", a), lab("e", b), 1))  # Petersen
        if len(a & b) == 1:
            edges.append((lab("f", a), lab("f", b), 1))  # shared boundary
    for d in duads:
        edges.append((lab("e", d), lab("f", d), 2))
    return rootgraph.from_edges("VI", vertices, edges)


def build_graph(name: str) -> RootGraph:
    builders = {
        "I": build_graph_i,
        "II": build_graph_ii,
        "VI": build_graph_vi,
        "MI": build_graph_mi,
        "MII": build_graph_mii,
    }
    if name not in builders:
        raise ValueError(f"unknown built-in graph: {name!r} (have {', '.join(BUILTIN_GRAPHS)})")
    return builders[name]()


# --- blow-up intersection models ---------------------------------------------

class BlowupModel(Record):
    """Picard-type lattice of a blown-up quadric with boundary and root classes.

    The ambient basis is two ruling classes (square 0, pairing 1) followed by
    exceptional classes (square -1, mutually orthogonal).  Bidegree (a, b)
    means a*hu + b*hv, so (a, b).(a', b') = ab' + a'b.  Every class is an
    integer row over the common denominator ``den``.  Boundaries are
    integral classes; root classes may be half-integral.
    """

    __match_args__ = ("ambient", "basis_labels", "exceptional", "boundaries", "roots", "den")

    def __init__(
        self,
        ambient: Lattice,
        basis_labels: tuple[str, ...],
        exceptional: tuple[str, ...],
        boundaries: tuple[tuple[str, tuple[int, ...]], ...],
        roots: tuple[tuple[str, tuple[int, ...]], ...],
        den: int,
    ):
        super().__init__(ambient, basis_labels, exceptional, boundaries, roots, den)
        for name, v in boundaries:
            if any(x % den for x in v):
                raise ValueError(f"boundary {name} is not an integral class")
        gram = self._gram
        scale = den * den
        for k, (name, _) in enumerate(boundaries):
            if gram[k][k] != -4 * scale:
                raise ValueError(f"boundary {name} does not have self-pairing -4")
        for k, (name, _) in enumerate(roots, start=len(boundaries)):
            if gram[k][k] != -2 * scale:
                raise ValueError(f"root class {name} does not have self-pairing -2")
            for m, (bname, _) in enumerate(boundaries):
                if gram[k][m] != 0:
                    raise ValueError(f"root class {name} meets boundary {bname}")

    def boundary_vectors(self):
        return [v for _, v in self.boundaries]

    def root_map(self):
        return dict(self.roots)

    @cached_property
    def _pair_sums(self):
        """(off, index): ``off`` lists the coordinates of the basis classes
        that are not exceptional, and ``index`` maps each tuple of entries
        there to the sums b + b' of pairs of boundary rows that have them, in
        pair order; built once per model."""
        off = [k for k, label in enumerate(self.basis_labels) if label not in self.exceptional]
        index = {}
        for a, b in combinations(self.boundary_vectors(), 2):
            s = list(map(add, a, b))
            index.setdefault(tuple([s[k] for k in off]), []).append(s)
        return off, index

    @cached_property
    def _gram(self):
        """Pairings of the boundary rows, then the root rows, times den**2."""
        rows = self.boundary_vectors() + [v for _, v in self.roots]
        return lattice.gram_matrix(self.ambient, rows)


def _quadric_ambient(exc_labels) -> tuple[Lattice, tuple[str, ...]]:
    labels = ("hu", "hv") + tuple(exc_labels)
    n = len(labels)
    g = [[0] * n for _ in range(n)]
    g[0][1] = g[1][0] = 1
    for i in range(2, n):
        g[i][i] = -1
    return lattice.make_lattice(g), labels


# points where the two boundary curves of the MI model meet, per printed list:
# each (1,1)-curve, indexed by its duad or syntheme, passes through four of them
MI_CURVE_POINTS = {
    "d:12": (4, 8, 9, 10),
    "d:13": (2, 3, 4, 7),
    "d:14": (1, 2, 5, 8),
    "d:15": (3, 5, 6, 9),
    "d:16": (1, 6, 7, 10),
    "d:23": (1, 4, 5, 6),
    "d:24": (3, 6, 7, 8),
    "d:25": (1, 2, 7, 9),
    "d:26": (2, 3, 5, 10),
    "d:34": (2, 6, 9, 10),
    "d:35": (1, 3, 8, 10),
    "d:36": (5, 7, 8, 9),
    "d:45": (4, 5, 7, 10),
    "d:46": (1, 3, 4, 9),
    "d:56": (2, 4, 6, 8),
    "s:12.34.56": (1, 3, 5, 7),
    "s:12.35.46": (2, 5, 6, 7),
    "s:12.36.45": (1, 2, 3, 6),
    "s:13.24.56": (1, 5, 9, 10),
    "s:13.25.46": (5, 6, 8, 10),
    "s:13.26.45": (1, 6, 8, 9),
    "s:14.23.56": (3, 7, 9, 10),
    "s:14.25.36": (3, 4, 6, 10),
    "s:14.26.35": (4, 6, 7, 9),
    "s:15.23.46": (2, 7, 8, 10),
    "s:15.24.36": (1, 2, 4, 10),
    "s:15.26.34": (1, 4, 7, 8),
    "s:16.23.45": (2, 3, 8, 9),
    "s:16.24.35": (2, 4, 5, 9),
    "s:16.25.34": (3, 4, 5, 8),
}

# triad <-> exceptional curve identification for the ten (-1)-roots
MI_TRIAD_EXC = {
    "t:123": 4,
    "t:124": 8,
    "t:125": 9,
    "t:126": 10,
    "t:134": 2,
    "t:135": 3,
    "t:136": 7,
    "t:145": 5,
    "t:146": 1,
    "t:156": 6,
}


def build_model_mi() -> BlowupModel:
    amb, labels = _quadric_ambient([f"e{i}" for i in range(1, 11)])
    n = amb.rank

    def vec(hu, hv, exc):  # twice the class
        v = [0] * n
        v[0], v[1] = 2 * hu, 2 * hv
        for idx, c in exc:
            v[1 + idx] = 2 * c
        return tuple(v)

    b = vec(1, 3, [(i, -1) for i in range(1, 11)])
    bp = vec(3, 1, [(i, -1) for i in range(1, 11)])
    roots = []
    for label, pts in MI_CURVE_POINTS.items():
        roots.append((label, vec(1, 1, [(p, -1) for p in pts])))
    for label, e in MI_TRIAD_EXC.items():
        v = [(x + y) // 2 for x, y in zip(b, bp)]
        v[1 + e] += 4
        roots.append((label, tuple(v)))
    roots.sort()
    return BlowupModel(
        ambient=amb,
        basis_labels=labels,
        exceptional=labels[2:],
        boundaries=(("B", b), ("B'", bp)),
        roots=tuple(roots),
        den=2,
    )


# the 24 bidegree-(1,1) curves of the MII model: coefficients over F3 of
# c00*u0v0 + c01*u0v1 + c10*u1v0 + c11*u1v1, keyed by permutation label
MII_EQUATIONS = {
    "p:id": (0, 1, -1, 0),
    "p:(12)(34)": (1, 0, 0, 1),
    "p:(13)(24)": (1, -1, -1, -1),
    "p:(14)(23)": (1, 1, 1, -1),
    "p:(142)": (1, 1, 0, 1),
    "p:(123)": (1, 0, -1, 1),
    "p:(134)": (1, -1, 1, 0),
    "p:(243)": (0, 1, -1, -1),
    "p:(132)": (1, -1, 0, 1),
    "p:(143)": (1, 1, -1, 0),
    "p:(124)": (1, 0, 1, 1),
    "p:(234)": (0, 1, -1, 1),
    "p:(12)": (1, 0, 0, -1),
    "p:(34)": (0, 1, 1, 0),
    "p:(1423)": (1, 1, -1, 1),
    "p:(1324)": (1, -1, 1, 1),
    "p:(13)": (1, -1, -1, 0),
    "p:(24)": (0, 1, 1, 1),
    "p:(1432)": (1, 1, 0, -1),
    "p:(1234)": (1, 0, 1, -1),
    "p:(14)": (1, 1, 1, 0),
    "p:(23)": (0, 1, 1, -1),
    "p:(1342)": (1, -1, 0, -1),
    "p:(1243)": (1, 0, -1, -1),
}

# F3-rational points of the projective line, in the fixed order p1..p4
MII_F3_POINTS = {1: (1, 0), 2: (0, 1), 3: (1, 1), 4: (1, 2)}


def mii_curve_points(label: str) -> tuple[tuple[int, int], ...]:
    """Grid points on a listed (1,1)-curve, by evaluating its equation over F3."""
    c00, c01, c10, c11 = MII_EQUATIONS[label]
    pts = []
    for i, (u0, u1) in MII_F3_POINTS.items():
        for j, (v0, v1) in MII_F3_POINTS.items():
            if (c00 * u0 * v0 + c01 * u0 * v1 + c10 * u1 * v0 + c11 * u1 * v1) % 3 == 0:
                pts.append((i, j))
    return tuple(pts)


def build_model_mii() -> BlowupModel:
    grid = [(i, j) for i in range(1, 5) for j in range(1, 5)]
    exc = [f"e{i}{j}" for i, j in grid]
    amb, labels = _quadric_ambient(exc)
    n = amb.rank
    pos = {g: 2 + k for k, g in enumerate(grid)}

    def vec(hu, hv, points, coef):  # twice the class
        v = [0] * n
        v[0], v[1] = 2 * hu, 2 * hv
        for p in points:
            v[pos[p]] += 2 * coef
        return v

    bs = {i: vec(1, 0, [(i, j) for j in range(1, 5)], -1) for i in range(1, 5)}
    bps = {j: vec(0, 1, [(i, j) for i in range(1, 5)], -1) for j in range(1, 5)}
    boundaries = [(f"B{i}", tuple(bs[i])) for i in range(1, 5)]
    boundaries += [(f"B'{j}", tuple(bps[j])) for j in range(1, 5)]
    roots = []
    for i, j in grid:
        v = [(a + b) // 2 for a, b in zip(bs[i], bps[j])]
        v[pos[(i, j)]] += 4
        roots.append((f"g:{i}{j}", tuple(v)))
    for sigma in permutations(range(1, 5)):
        label = _perm_label(sigma)
        pts = mii_curve_points(label)
        if frozenset(pts) != _perm_graph_points(sigma):
            raise AssertionError(
                f"curve {label}: F3 evaluation gives {sorted(pts)}, "
                f"not the permutation graph"
            )
        roots.append((label, tuple(vec(1, 1, pts, -1))))
    roots.sort()
    return BlowupModel(
        ambient=amb,
        basis_labels=labels,
        exceptional=tuple(exc),
        boundaries=tuple(boundaries),
        roots=tuple(roots),
        den=2,
    )


def build_model(name: str) -> BlowupModel:
    if name == "MI":
        return build_model_mi()
    if name == "MII":
        return build_model_mii()
    raise ValueError(f"no blow-up model for {name!r} (have {', '.join(MODEL_NAMES)})")


# --- Coble-Mukai lattice ------------------------------------------------------

class CobleMukaiLattice(Record):
    """Orthogonal complement of the boundaries in the half-boundary extension.

    ``twice`` is the canonical integer HNF of twice the basis, in ambient
    coordinates, and ``lattice`` is the Gram matrix of that basis.
    """

    __match_args__ = ("lattice", "twice")

    def contains(self, rows, den: int) -> bool:
        """Is every row/den an integer combination of the basis?  Exactly
        then twice the rows leave the HNF of twice the basis unchanged."""
        if any(2 * x % den for row in rows for x in row):
            return False
        doubled = [[2 * x // den for x in row] for row in rows]
        return exact.hnf_rows(self.twice + doubled) == self.twice


def coble_mukai(model: BlowupModel) -> CobleMukaiLattice:
    """beta-perp in L + sum Z beta_j/2, for the ambient L and the boundaries
    beta_j, which must be pairwise orthogonal.

    Its Gram is integral with no test: y = x + sum c_j beta_j/2 with x in L
    is in beta-perp when <x, beta_j> = 2 c_j, as ``BlowupModel`` forces
    beta_j^2 = -4, and then <y, y'> = <x, x'> + sum c_j c'_j.
    """
    amb = model.ambient
    n = amb.rank
    # integral, see BlowupModel
    betas = [[x // model.den for x in v] for v in model.boundary_vectors()]
    for a, b in combinations(range(len(betas)), 2):
        if model._gram[a][b]:  # the pairing times den**2
            raise ValueError("boundary classes must be pairwise orthogonal")
    two = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    if not betas:
        return CobleMukaiLattice(amb, two)
    # beta = 2 * (beta/2), scaled like 2*I
    ext2 = exact.hnf_rows(two + betas)  # twice the basis of the half-boundary extension
    if len(ext2) != n:
        raise AssertionError("half-boundary extension does not have full rank")
    # <2 * ext_j, beta> = 2 * <ext_j, beta>: integral constraints for beta-perp
    kernel = exact.int_kernel(lattice.gram_matrix(amb, betas, ext2))
    twice = exact.hnf_rows(exact.matmul(kernel, ext2))
    gram4 = lattice.gram_matrix(amb, twice)  # four times the Gram of the basis
    return CobleMukaiLattice(lattice.make_lattice([[x // 4 for x in row] for row in gram4]), twice)


# --- realization verifier ------------------------------------------------------

class RealizationReport(Record):
    __match_args__ = ("ok", "failures")


def _is_minus_one_root(model: BlowupModel, v) -> bool:
    """Is v/den of the shape 2e + (beta + beta')/2 for an exceptional e?

    2v and beta + beta' then differ only at e, so they agree off the
    exceptional classes: only the pair sums that the model's index files
    under 2v's entries there are compared in full."""
    twice = [2 * x for x in v]
    off, index = model._pair_sums
    for s in index.get(tuple([twice[k] for k in off]), ()):
        rest = list(map(sub, twice, s))
        if rest.count(0) == len(rest) - 1:
            k = next(k for k, x in enumerate(rest) if x)
            if rest[k] == 4 * model.den and model.basis_labels[k] in model.exceptional:
                return True
    return False


def verify_realization(graph: RootGraph, model: BlowupModel) -> RealizationReport:
    """Check that the model's bilinear form realizes the graph exactly.

    Every vertex must have a class (the model already holds each class to
    self-pairing -2 and orthogonal to all boundaries), the pairing matrix
    must reproduce the edge multiplicities entry for entry, kinds must match
    the 2e + half-boundaries shape, and curve/root pairings must be even.
    """
    rm = model.root_map()
    failures = [f"missing class for vertex {label}" for label in graph.labels if label not in rm]
    if failures:
        return RealizationReport(ok=False, failures=tuple(failures))
    n = graph.n
    # the row of each vertex's class in the model's pairing matrix
    at = {name: k for k, (name, _) in enumerate(model.roots, start=len(model.boundaries))}
    pos = [at[label] for label in graph.labels]
    scale = model.den * model.den
    for i in range(n):
        pairs = model._gram[pos[i]]  # the pairings times scale
        for j in range(i + 1, n):
            a, b = graph.labels[i], graph.labels[j]
            got, want = pairs[pos[j]], graph.mult[i][j]
            if got != want * scale:
                failures.append(f"pair ({a}, {b}): model {Fraction(got, scale)} != graph {want}")
            if graph.kinds[i] != graph.kinds[j] and got % (2 * scale) != 0:
                failures.append(f"pair ({a}, {b}): odd curve/root pairing {Fraction(got, scale)}")
    for label, kind in zip(graph.labels, graph.kinds):
        if _is_minus_one_root(model, rm[label]) != (kind == KIND_ROOT):
            failures.append(f"{label}: kind tag does not match realization")
    return RealizationReport(ok=not failures, failures=tuple(failures))


# --- R-invariants ---------------------------------------------------------------

class RInvariant(Record):
    """Root lattice K with an isotropic subgroup H of K/2K (0/1 generators)."""

    __match_args__ = ("k", "h_gens")


class RInvariantReport(Record):
    __match_args__ = ("ok", "h_rank", "nullity", "det_k", "p_valuation", "failures")


def _valuation(n: int, p: int) -> int:
    """The exponent of p in n = |det K|, refused where it is not finite."""
    if p < 2:
        raise ValueError(f"p-adic valuation needs p >= 2, got p = {p}")
    if n == 0:
        raise ValueError("det K = 0: a degenerate K has no p-adic valuation")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def r_invariant_check(
    rinv: RInvariant, p: int | None = None, expect_nullity: int | None = None
) -> RInvariantReport:
    k = rinv.k
    span, anisotropic = lattice.mod2_subgroup(k, rinv.h_gens)
    failures = [f"H not isotropic at mask {v:b}" for v in anisotropic]
    h_rank = len(span).bit_length() - 1
    nullity, _, _ = lattice.mod2_nullity(k)
    if nullity < h_rank:
        failures.append(f"nullity {nullity} smaller than dim H = {h_rank}")
    if expect_nullity is not None and nullity != expect_nullity:
        failures.append(f"nullity {nullity} != expected {expect_nullity}")
    det_k = lattice.det(k)
    val = _valuation(abs(det_k), p) if p is not None else None
    return RInvariantReport(
        ok=not failures,
        h_rank=h_rank,
        nullity=nullity,
        det_k=det_k,
        p_valuation=val,
        failures=tuple(failures),
    )


def q_kernel_invariant(k_spec: str) -> RInvariant:
    """RInvariant with H = the full kernel of q on K/2K (the canonical glue)."""
    k = lattice.make_named(k_spec)
    _, _, basis = lattice.mod2_nullity(k)
    return RInvariant(k=k, h_gens=tuple(tuple(v) for v in basis))


# --- summary table ---------------------------------------------------------------------

class Table1Row(Record):
    __match_args__ = ("key", "type", "p", "n", "k", "aut", "aut_order", "k_spec", "h_rank")

    @property
    def r_invariant(self) -> str:
        if self.h_rank == 0:
            return f"({self.k_spec}, {{0}})"
        return f"({self.k_spec}, (Z/2)^{self.h_rank})"


_TABLE1 = (
    Table1Row("I-1", "I", "any", 1, 12, "D8", 8, "E8+A1", 0),
    Table1Row("I-2", "I", "any", 2, 12, "D8", 8, "E8+A1+A1", 1),
    Table1Row("II", "II", "any", 1, 12, "S4", 24, "D9", 0),
    Table1Row("V", "V", "3", 2, 20, "S4 x Z/2", 48, "E7+A2+A1+A1", 2),
    Table1Row("VI-5", "VI", "5", 1, 20, "S5", 120, "E6+A4", 0),
    Table1Row("VI-3", "VI", "3", 5, 20, "S5", 120, "E6+D5", 1),
    Table1Row("VII", "VII", "5", 1, 20, "S5", 120, "A9+A1", 1),
    Table1Row("MI", "MI", "3", 2, 40, "Aut(S6)", 1440, "A5+A5+A1+A1", 3),
    Table1Row("MII", "MII", "3", 8, 40, "(S4 x S4).Z/2", 1152, "D8+A2+A2", 2),
)

TABLE1_KEYS = tuple(row.key for row in _TABLE1)


def table1(key: str) -> Table1Row:
    for row in _TABLE1:
        if row.key == key:
            return row
    raise ValueError(f"unknown table row: {key!r} (have {', '.join(TABLE1_KEYS)})")


# built-in graph name -> the table row its kind decoration realizes
GRAPH_TABLE_ROW = {"I": "I-2", "II": "II", "VI": "VI-3", "MI": "MI", "MII": "MII"}

# graph automorphism orders equal to Aut(S) where the source states the match
CLAIMED_GRAPH_AUT = {"MI": 1440, "MII": 1152}

# induced sub-blocks with independently known automorphism orders
CLAIMED_BLOCK_AUT = {"VI": ("e:", 120)}  # the Petersen part


class CatalogEntry(Record):
    __match_args__ = ("name", "graph", "model", "row")


def get_entry(name: str) -> CatalogEntry:
    graph = build_graph(name)
    model = build_model(name) if name in MODEL_NAMES else None
    return CatalogEntry(name=name, graph=graph, model=model, row=table1(GRAPH_TABLE_ROW[name]))


# --- model text export ------------------------------------------------------------

def format_model(model: BlowupModel) -> str:
    def text(v):
        return " ".join(str(Fraction(x, model.den)) for x in v)

    lines = ["basis " + " ".join(model.basis_labels)]
    for name, v in model.boundaries:
        lines.append(f"boundary {name} " + text(v))
    for name, v in model.roots:
        lines.append(f"root {name} " + text(v))
    return "\n".join(lines) + "\n"
