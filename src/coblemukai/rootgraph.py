"""Root graphs of (-2)-roots and their subdiagram combinatorics.

Vertices are roots of self-pairing -2; an m-tuple edge means the two roots
pair to m.  The Gram matrix of a graph therefore has -2 on the diagonal and
the edge multiplicities off it.  On top of that sit the induced-subdiagram
classifier (ADE / affine ADE), the enumeration of connected and maximal
parabolic subdiagrams, Vinberg's finite-index criterion, exact graph
automorphism groups, and a small text format plus DOT export.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from functools import cache, cached_property
from itertools import accumulate, combinations
from math import lcm, prod
from operator import itemgetter
from types import MappingProxyType

from . import lattice
from .record import OrderedRecord, Record

KIND_CURVE = -2
KIND_ROOT = -1
# far above the 724 components of MI's 247 packings, the most in the catalog
PACKING_MAX_COMPONENTS = 1 << 20


class GraphFormatError(ValueError):
    pass


class RootGraph:
    """Immutable labeled graph with non-negative integer edge multiplicities.

    The graph keeps its edges once, as the read-only map ``edges`` from vertex
    pairs (i, j), i < j, to multiplicities m >= 1.  The dense ``mult`` and the
    neighbor masks of the searches are derived from it once per graph, on
    first use.
    """

    def __init__(self, labels, mult, kinds=None, name: str = "G"):
        labels = tuple(labels)
        n = len(labels)
        try:
            rows = [tuple(map(operator.index, row)) for row in mult]
        except TypeError:
            raise ValueError("edge multiplicities must be integers") from None
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError("multiplicity matrix shape does not match vertex count")
        edges = {}
        # one pass over the rows, naming the fault a row-major scan meets first
        for i, (row, col) in enumerate(zip(rows, zip(*rows))):
            if row[i]:
                raise ValueError("multiplicity matrix must have zero diagonal")
            if row != col or min(row) < 0:
                x, y = next((x, y) for x, y in zip(row, col) if x != y or x < 0)
                raise ValueError("multiplicity matrix must be symmetric" if x != y
                                 else "edge multiplicities must be non-negative")
            edges.update(((i, j), m) for j, m in enumerate(row[i + 1:], i + 1) if m)
        self._adopt(labels, edges, kinds, name)

    @classmethod
    def _of_edges(cls, labels, edges: dict, kinds, name: str) -> "RootGraph":
        """The graph of an edge map whose pairs and multiplicities are checked."""
        g = cls.__new__(cls)
        g._adopt(tuple(labels), edges, kinds, name)
        return g

    def _adopt(self, labels: tuple, edges: dict, kinds, name: str) -> None:
        if len(set(labels)) != len(labels):
            raise ValueError("vertex labels must be unique")
        if kinds is None:
            kinds = (KIND_CURVE,) * len(labels)
        else:
            try:
                kinds = tuple(map(operator.index, kinds))
                if len(kinds) != len(labels) or not {*kinds} <= {KIND_CURVE, KIND_ROOT}:
                    raise TypeError
            except TypeError:
                raise ValueError("vertex kinds must be -2 (curve) or -1 (root)") from None
        self.labels = labels
        self.kinds = kinds
        self.edges = MappingProxyType(edges)
        self.name = name
        self._index = {lab: i for i, lab in enumerate(labels)}

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown vertex label: {label!r}") from None

    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def mult(self) -> tuple[tuple[int, ...], ...]:
        """The n x n multiplicity matrix, zero off the edges."""
        rows = [[0] * self.n for _ in range(self.n)]
        for (i, j), m in self.edges.items():
            rows[i][j] = rows[j][i] = m
        return tuple(map(tuple, rows))

    @cached_property
    def _masks(self) -> tuple[list[int], list[int], list[int]]:
        """Neighbor bitmasks along edges of multiplicity 1, 2 and either, in
        O(edges) when a search first asks; there an edge of multiplicity
        >= 3, outside the hypothesis of Vinberg's criterion, is refused."""
        single, double = [0] * self.n, [0] * self.n
        for (i, j), m in self.edges.items():
            if m > 2:
                raise ValueError("edge multiplicity >= 3: Vinberg's criterion hypothesis fails")
            masks = single if m == 1 else double
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        return single, double, [s | d for s, d in zip(single, double)]

    def gram_rows(self) -> list[list[int]]:
        rows = [[0] * i + [-2] + [0] * (self.n - 1 - i) for i in range(self.n)]
        for (i, j), m in self.edges.items():
            rows[i][j] = rows[j][i] = m
        return rows

    @cached_property
    def _span(self):
        """The radical split of the Gram matrix, made once per graph."""
        return lattice.RadicalSplit(self.gram_rows())

    @cached_property
    def _parabolics(self):
        """The connected parabolic search, run once per graph."""
        return _parabolic_search(self)

    def induced(self, labels) -> "RootGraph":
        idx = [self.index(l) for l in labels]
        keep = set(idx)
        return from_edges(self.name, [(self.labels[i], self.kinds[i]) for i in idx],
                          [(self.labels[i], self.labels[j], m)
                           for (i, j), m in self.edges.items() if i in keep and j in keep])

    def __eq__(self, other):
        return (
            isinstance(other, RootGraph)
            and self.name == other.name
            and self.labels == other.labels
            and self.kinds == other.kinds
            and self.edges == other.edges
        )

    def __repr__(self):
        return f"RootGraph({self.name!r}, {self.n} vertices, {self.edge_count()} edges)"


def from_edges(name, vertices, edges) -> RootGraph:
    """Build a graph from (label, kind) pairs or bare labels plus (a, b, mult)
    edges, mult an integer >= 1 as in the text format."""
    labels = []
    kinds = []
    for v in vertices:
        if isinstance(v, str):
            labels.append(v)
            kinds.append(KIND_CURVE)
        else:
            labels.append(v[0])
            kinds.append(v[1])
    index = {lab: i for i, lab in enumerate(labels)}
    found: dict[tuple[int, int], int] = {}
    for a, b, m in edges:
        if a not in index or b not in index:
            raise ValueError(f"unknown vertex label: {(b if a in index else a)!r}")
        i, j = index[a], index[b]
        if i == j:
            raise ValueError(f"self-loop at {a!r}")
        try:
            m = operator.index(m)
        except TypeError:
            raise ValueError(f"edge {a!r} -- {b!r}: multiplicity must be an integer") from None
        if m < 1:
            raise ValueError(f"edge {a!r} -- {b!r}: multiplicity must be >= 1")
        pair = (i, j) if i < j else (j, i)
        if pair in found:
            raise ValueError(f"duplicate edge {a!r} -- {b!r}")
        found[pair] = m
    return RootGraph._of_edges(labels, found, kinds, name)


# --- diagram types ---------------------------------------------------------

class DiagramType(OrderedRecord):
    """A connected ADE diagram: ``family`` "A", "D" or "E", its ``index``,
    and whether it is the ``affine`` (extended) diagram."""

    __match_args__ = ("family", "index", "affine")

    def __str__(self):
        return f"{self.family}~{self.index}" if self.affine else f"{self.family}{self.index}"

    @property
    def rank(self) -> int:
        return self.index


# one shared instance per type: the parabolic search names tens of thousands
# of subsets, and a cache lookup costs less than building each
_diagram = cache(DiagramType)


def parse_diagram(token: str) -> DiagramType:
    t = token.strip()
    affine = t[1:2] == "~"  # the one place a tilde may stand
    if affine:
        t = t[0] + t[2:]
    family, digits = t[:1], t[1:]
    if family not in ("A", "D", "E") or not digits.isdigit():
        raise ValueError(f"bad diagram token: {token!r}")
    try:
        index = lattice.ascii_int(digits)
    except ValueError:
        raise ValueError(f"bad diagram token: {token!r}") from None
    # the same bounds as the root lattices of lattice.make_named
    if not {"A": index >= 1, "D": index >= 4, "E": index in (6, 7, 8)}[family]:
        raise ValueError(f"no diagram {token.strip()!r}: A needs index >= 1, D >= 4, E 6, 7 or 8")
    return DiagramType(family, index, affine)


def _type_sort_key(t: DiagramType):
    return (-t.index, t.family, t.affine)


def multiset_str(types) -> str:
    return "+".join(str(t) for t in sorted(types, key=_type_sort_key))


# --- connected parabolic enumeration ----------------------------------------

# trees with one branch vertex other than D_n, by their sorted leg lengths
_STAR_TYPES = {
    (1, 2, 2): DiagramType("E", 6, False),
    (1, 2, 3): DiagramType("E", 7, False),
    (1, 2, 4): DiagramType("E", 8, False),
    (2, 2, 2): DiagramType("E", 6, True),
    (1, 3, 3): DiagramType("E", 7, True),
    (1, 2, 5): DiagramType("E", 8, True),
    (1, 1, 1, 1): DiagramType("D", 4, True),
}


def _parabolic_search(g: RootGraph):
    """All connected affine subdiagrams as (sorted labels, DiagramType, vertex
    indices, closed neighbourhood) in label order; the indices are in the
    order the search found them, and the last is the bitmask of the vertices
    in the component or next to it.

    Grows connected induced subsets (each visited at most once) and prunes as
    soon as a subset stops being a definite ADE diagram: proper connected
    induced subsets of affine diagrams are definite, so nothing is missed.
    A definite set is not pushed when every candidate left to it has a
    double edge into it, as it could then neither close nor grow.  Each
    component is certified (``_affine_certificate``) before the label sort,
    keyed on its matrix in the order the search lists its vertices.  A set
    grown carries ``mask | one | dbl``, its own closed neighbourhood, so the
    component closed by v records that with ``both[v]`` (v is in ``one``).
    """
    single, double, both = g._masks
    found: list[tuple[list[int], DiagramType, int]] = []
    a1 = _diagram("A", 1, True)
    for root in range(g.n):
        above = -2 << root  # the vertices > root
        pairs = double[root] & above
        while pairs:
            v = pairs.bit_length() - 1
            pairs ^= 1 << v
            found.append(([root, v], a1, both[root] | both[v]))  # each holds the other
        # Each entry grows the definite set ``members`` (bitmask ``mask``) by
        # each vertex of the bitmask ``ext``; ``above`` masks those > root.
        # With the A~1 pairs taken at the root, this is the one place that
        # decides ADE/affine shape.
        #
        # ``dbl`` masks the vertices with a double edge into the set, ``one``
        # and ``two`` those with at least one and at least two single edges
        # into it.  A definite set has no double edge, so a candidate in
        # ``dbl`` gives nothing; two or more single edges close a cycle, which
        # is A~k only from the two ends of a path.  So every candidate in
        # ``dbl | two`` is dropped in one step, bar the path closers, which
        # come from the ends' masks.  The rest meet the set in one single edge
        # at ``into``, decided by the shape carried: the ``ends`` of a path A_k
        # (its one vertex for k = 1), or a D/E ``tree`` (branch vertex, mask of
        # leg ends, (length, end) per leg, shortest first).
        stack = [([root], 1 << root, 1 << root, None, single[root] & above,
                  double[root], single[root], 0)]
        while stack:
            members, mask, ends, tree, ext, dbl, one, two = stack.pop()
            k = len(members)
            if ends & (ends - 1):
                # ext meets the parent's set in at most one single edge and no
                # double one, so a closer's two single edges go to the two ends
                low = ends & -ends
                closers = ext & two & ~dbl & single[low.bit_length() - 1] & single[(ends ^ low).bit_length() - 1]
                while closers:
                    v = closers.bit_length() - 1
                    closers ^= 1 << v
                    found.append((members + [v], _diagram("A", k, True), mask | one | dbl | both[v]))
            ext &= ~(dbl | two)
            while ext:
                v = ext.bit_length() - 1
                bit = 1 << v
                ext ^= bit
                into = single[v] & mask
                if into & ends:
                    # a one-vertex path keeps its vertex as an end
                    new_ends, new_tree = (ends ^ into or into) | bit, None
                else:
                    if ends:  # legs 1, d, k - 1 - d; d > 3 leaves both >= 4
                        a, b, seen = ends & -ends, ends & (ends - 1), ends
                        for d in (1, 2, 3):
                            a = single[a.bit_length() - 1] & mask & ~seen
                            b = single[b.bit_length() - 1] & mask & ~seen
                            if into & (a | b):
                                break
                            seen |= a | b
                        else:
                            continue
                        near = ends & -ends if into == a else ends & (ends - 1)
                        branch, legs = into, ((1, bit), (d, near), (k - 1 - d, ends ^ near))
                    else:
                        branch, tips, legs = tree
                        if into & tips:
                            legs = tuple(sorted((n + 1, bit) if e == into else (n, e) for n, e in legs))
                        elif into == branch:
                            legs = ((1, bit),) + legs
                        else:  # a second branch: D~k only from D_k beside its long leg's end
                            if legs[1][0] == 1 and single[legs[2][1].bit_length() - 1] & mask == into:
                                found.append((members + [v], _diagram("D", k, True), mask | one | dbl | both[v]))
                            continue
                    lengths = tuple(n for n, _ in legs)
                    typ = (_diagram("D", k + 1, False) if len(lengths) == 3 and lengths[1] == 1
                           else _STAR_TYPES.get(lengths))
                    if typ is None:
                        continue
                    if typ.affine:
                        found.append((members + [v], typ, mask | one | dbl | both[v]))
                        continue
                    new_ends, new_tree = 0, (branch, legs[0][1] | legs[1][1] | legs[2][1], legs)
                # a pop closes and grows only inside ext & ~dbl, so a set
                # with none of that left is not pushed
                new_ext, new_dbl = ext | both[v] & ~(one | dbl | mask) & above, dbl | double[v]
                if new_ext & ~new_dbl:
                    stack.append((members + [v], mask | bit, new_ends, new_tree, new_ext,
                                  new_dbl, one | single[v], two | one & single[v]))

    # sanity: every recorded component really is corank-1 negative semidefinite;
    # components with the same multiplicity matrix, in the order the search
    # lists their vertices, share one certificate, keyed on its upper
    # triangle (zero diagonal; its length gives the size).  Both read the
    # true multiplicities, rows[a][b], from the edge map: one defaultdict per
    # vertex, so no dense matrix is built
    rows = [defaultdict(int) for _ in range(g.n)]
    for (a, b), m in g.edges.items():
        rows[a][b] = rows[b][a] = m
    certified: dict[bytes, bool] = {}
    labels, out = g.labels, []
    for idx, typ, closed in found:
        key = bytes([rows[a][b] for a, b in combinations(idx, 2)])
        ok = certified.get(key)
        if ok is None:
            ok = certified[key] = _affine_certificate(rows, idx, both)
        comp = tuple(sorted(map(labels.__getitem__, idx)))
        if not ok:
            raise AssertionError(f"component {comp} misclassified as {typ}")
        out.append((comp, typ, idx, closed))
    out.sort(key=itemgetter(0))  # the label tuples all differ
    return out


def _affine_certificate(mult, idx, both) -> bool:
    """Is -G on the vertices ``idx`` corank-1 positive semidefinite?

    A = 2I - mult is a symmetric generalized Cartan matrix, and a connected
    one with an integer delta > 0 and A delta = 0 is affine: positive
    semidefinite of corank 1 (Kac, Infinite-dimensional Lie algebras,
    Thm 4.3), as x^T A x = 1/2 sum over edges uv of m_uv delta_u delta_v
    (x_u/delta_u - x_v/delta_v)^2.  delta is proposed from the shape alone:
    1 everywhere without a branch vertex (A~k); with two, 1 at the leaves and
    2 elsewhere (D~k); with one, b there and b(L+1-t)/(L+1) at distance t
    along a leg of length L, b = lcm(L_i + 1) (D~4, E~6, E~7, E~8).  Each
    delta is positive: L + 1 divides b, so b(L+1-t)/(L+1) with t <= L is at
    least 1.  Then connectivity and 2 delta_a = sum_b m_ab delta_b are
    checked, so nothing is taken from the classifier; nor from the masks
    ``both``, which must match ``mult`` on idx.
    """
    mask = sum(1 << v for v in idx)
    deg, adj = {}, {}
    for a in idx:
        row, bits, adj[a] = mult[a], 0, []
        for v in idx:
            if row[v]:
                bits |= 1 << v
                adj[a].append((v, row[v]))
        if both[a] & mask != bits:
            return False
        deg[a] = bits.bit_count()
    seen = reach = 1 << idx[0]
    while reach:
        v = reach.bit_length() - 1
        new = both[v] & mask & ~seen
        seen, reach = seen | new, (reach ^ 1 << v) | new
    branch = [v for v in idx if deg[v] >= 3]
    if seen != mask or len(branch) > 2:
        return False
    delta = {v: 2 if branch and deg[v] > 1 else 1 for v in idx}
    if len(branch) == 1:
        b, legs, nbrs = branch[0], [], both[branch[0]] & mask
        while nbrs:
            prev, cur = b, nbrs.bit_length() - 1
            nbrs ^= 1 << cur
            legs.append([cur])
            while deg[cur] == 2:
                prev, cur = cur, (both[cur] & mask & ~(1 << prev)).bit_length() - 1
                legs[-1].append(cur)
        delta[b] = top = lcm(*(len(leg) + 1 for leg in legs))
        for leg in legs:
            delta.update((v, top * (len(leg) + 1 - t) // (len(leg) + 1))
                         for t, v in enumerate(leg, 1))
    for a in idx:
        total = 0
        for v, m in adj[a]:
            total += m * delta[v]
        if total != 2 * delta[a]:
            return False
    return True


def connected_parabolics(g: RootGraph, max_rank: int | None = None):
    """All connected affine subdiagrams of rank at most ``max_rank``, as
    (sorted labels, DiagramType) pairs in label order, from the graph's one
    search."""
    if max_rank is not None and max_rank < 0:
        raise ValueError(f"target rank must be >= 0, got {max_rank}")
    return [(comp, typ) for comp, typ, _, _ in g._parabolics
            if max_rank is None or typ.rank <= max_rank]


# --- parabolic subdiagrams and Vinberg ---------------------------------------

class ParabolicSubdiagram(Record):
    """Disjoint orthogonal union of connected affine diagrams."""

    __match_args__ = ("components", "rank")

    def type_multiset(self) -> str:
        return multiset_str([t for _, t in self.components])


def maximal_parabolics(g: RootGraph, target_rank: int):
    """All parabolic subdiagrams of rank exactly target_rank.

    Exact backtracking packing of the connected parabolics of rank at most
    target_rank, pairwise disjoint and orthogonal: each packing once, its
    components chosen in increasing order, so sorted by their label lists.
    Over PACKING_MAX_COMPONENTS components in all packings raise ValueError.

    A candidate of rank r < target_rank is dropped when its closed
    neighbourhood C leaves too few free vertices: |C| - r > n - 1 - target_rank.
    The bound is exact.  An affine component of rank k has k + 1 vertices, and
    the other components of a packing lie outside C, with ranks summing to
    target_rank - r > 0, so on at least target_rank - r + 1 of the n - |C|
    vertices there.  So no dropped candidate is in any packing, and the
    packings and their order are those of the full list.
    """
    if target_rank < 0:
        raise ValueError(f"target rank must be >= 0, got {target_rank}")
    spare = g.n - 1 - target_rank
    cps = [c for c in g._parabolics if (r := c[1].index) == target_rank
           or r < target_rank and c[3].bit_count() - r <= spare]
    holding = [0] * g.n  # holding[v]: the candidates that contain v
    for j, (_, _, idx, _) in enumerate(cps):
        bit = 1 << j
        for v in idx:
            holding[v] |= bit
    # touching[v]: the candidates that contain v or a neighbor of v
    touching = []
    for m, rest in zip(holding, g._masks[2]):
        while rest:
            low = rest & -rest
            m |= holding[low.bit_length() - 1]
            rest ^= low
        touching.append(m)
    # compat[i]: the candidates disjoint from and orthogonal to candidate i
    full = (1 << len(cps)) - 1
    compat = []
    for _, _, idx, _ in cps:
        clash = 0
        for v in idx:
            clash |= touching[v]
        compat.append(full & ~clash)
    ranks = [t.index for _, t, _, _ in cps]
    tail = list(accumulate(reversed(ranks)))[::-1]  # tail[i]: the ranks of i and later
    named = [c[:2] for c in cps]
    results, listed = [], 0
    # per depth: the later candidates left to try, the rank so far, the last choice
    stack, chosen = [[full, 0]], [-1]
    while stack:
        rest, total = frame = stack[-1]
        if total == target_rank:
            listed += len(chosen) - 1
            if listed > PACKING_MAX_COMPONENTS:
                raise ValueError(f"the packings of rank {target_rank} list more than "
                                 f"PACKING_MAX_COMPONENTS = {PACKING_MAX_COMPONENTS} components")
            comps = tuple(map(named.__getitem__, chosen[1:]))  # cps is sorted
            results.append(ParabolicSubdiagram(comps, target_rank))
            rest = 0
        # no later candidate helps once even all of them fall short
        while rest and total + tail[i := (rest & -rest).bit_length() - 1] >= target_rank:
            rest &= rest - 1
            if total + ranks[i] <= target_rank:
                frame[0] = rest
                stack.append([rest & compat[i], total + ranks[i]])
                chosen.append(i)
                break
        else:
            stack.pop()
            chosen.pop()
    return results


class VinbergReport(Record):
    """``witnesses``: the connected parabolics that extend to no maximal one;
    ``maximal``: the rank-target parabolic subdiagrams."""

    __match_args__ = ("passed", "target_rank", "witnesses", "maximal")

    def type_multisets(self) -> tuple[str, ...]:
        return type_multisets(self.maximal)


def type_multisets(packs) -> tuple[str, ...]:
    """The distinct type multisets of the parabolic subdiagrams ``packs``,
    sorted.  Packings repeat few tuples of component types (MI's 247 carry
    8, MII's 202 carry 5), so the first packing of each distinct tuple, in
    the order its packing lists its components, names it once."""
    first = {}
    for p in packs:
        first.setdefault(tuple([t for _, t in p.components]), p)
    return tuple(sorted({p.type_multiset() for p in first.values()}))


def vinberg_check(g: RootGraph, target_rank: int | None = None) -> VinbergReport:
    """Finite-index criterion: every connected parabolic subdiagram must be a
    component of some parabolic subdiagram of the maximal rank."""
    if target_rank is None:
        rank, _ = span_check(g)
        target_rank = rank - 2
    cps = connected_parabolics(g)
    packs = maximal_parabolics(g, target_rank)
    # a component's labels fix it, so no DiagramType is hashed
    used = {labels for p in packs for labels, _ in p.components}
    witnesses = tuple(c for c in cps if c[0] not in used)
    return VinbergReport(not witnesses, target_rank, witnesses, tuple(packs))


def span_check(g: RootGraph) -> tuple[int, tuple[int, int]]:
    """Rank and signature of the span of the roots under the graph Gram: the
    inertia of the graph's ``lattice.RadicalSplit``."""
    pos, neg = g._span.inertia
    return (pos + neg, (pos, neg))


def span_lattice(g: RootGraph):
    """The lattice generated by the roots modulo its radical."""
    if not g._span.pivots:
        raise ValueError("graph Gram has zero rank")
    return g._span.quotient


def span_det(g: RootGraph) -> int:
    """Determinant of the saturated lattice generated by the roots: the
    largest even lattice they can generate in any ambient."""
    if not g._span.pivots:
        raise ValueError("graph Gram has zero rank")
    return g._span.saturated_det


# --- automorphisms ----------------------------------------------------------

def _refine_colors(g: RootGraph):
    """Color refinement by edge multiplicity, from one color until a round
    adds no class or every vertex has its own, as a discrete partition
    cannot split further.  Only the partition matters, as ``automorphisms``
    reads colors through equality and class sizes alone.  A vertex's
    signature is its color and the sorted codes m*n + c of its neighbors
    (multiplicity m, color c < n), so equal signatures mean equal colors and
    neighbor multisets; the neighbor lists come from the edge map.
    """
    n = g.n
    nbrs = [[] for _ in range(n)]
    for (u, v), m in g.edges.items():
        nbrs[u].append((m * n, v))
        nbrs[v].append((m * n, u))
    colors, count = [0] * n, 1
    while count < n:
        sigs = [(colors[v], *sorted([mn + colors[u] for mn, u in nb])) for v, nb in enumerate(nbrs)]
        palette = {s: c for c, s in enumerate(set(sigs))}
        if len(palette) == count:
            break
        colors, count = [palette[s] for s in sigs], len(palette)
    return colors


def _compose(a, b):
    """The permutation a∘b: i -> a[b[i]]."""
    return tuple(map(a.__getitem__, b))


def _inverse(a):
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x] = i
    return tuple(inv)


def _close_orbit(orbit: set, gens) -> set:
    """Close the point set ``orbit`` under the permutations ``gens``, in place."""
    stack = list(orbit)
    while stack:
        x = stack.pop()
        for s in gens:
            y = s[x]
            if y not in orbit:
                orbit.add(y)
                stack.append(y)
    return orbit


class _StabilizerChain:
    """Schreier–Sims chain of the group that ``gens`` generate on 0..n-1,
    with base 0..n-1, built once.

    Level k holds the orbit of k under the strong generators that fix
    0..k-1, with a transversal: ``trans[k][p]`` sends k to p and
    ``inverse[k][p]`` is its inverse.  Each generator is sifted and adjoined
    if it is no member yet.  Then the levels are completed from the deepest
    up: level k is complete when each of its Schreier generators sifts
    through the complete levels below it.  A residue that does not is
    adjoined where it stopped, which changes that level and those above it
    only, so the pass starts again there.  The order is then the product of
    the orbit lengths (Seress, Permutation Group Algorithms, 2003).
    """

    def __init__(self, n: int, gens):
        self.n = n
        identity = tuple(range(n))
        self.trans = [{k: identity} for k in range(n)]
        self.inverse = [{k: identity} for k in range(n)]
        self.points = [[k] for k in range(n)]
        self.gens: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
        for g in gens:
            g, k = self.sift(g)
            if k < n:
                self._adjoin(g, k)
        k = n - 1
        while k >= 0:
            j = self._sift_schreier_generators(k)
            k = k - 1 if j is None else j

    def order(self) -> int:
        return prod(map(len, self.points))

    def sift(self, g, level: int = 0):
        """(residue, k): k is the level where sifting g stops, n for a member."""
        for k in range(level, self.n):
            p = g[k]
            if p != k:
                inv = self.inverse[k].get(p)
                if inv is None:
                    return g, k
                g = _compose(inv, g)
        return g, self.n

    def _adjoin(self, g, j: int):
        """Make g, which fixes 0..j-1 and moves j, a strong generator."""
        for k in range(j + 1):
            gens, trans, inverse, points = self.gens[k], self.trans[k], self.inverse[k], self.points[k]
            gens.append(g)
            # the old points need only the new generator, the new ones all
            i, new_from = 0, len(points)
            while i < len(points):
                p = points[i]
                for s in gens if i >= new_from else (g,):
                    q = s[p]
                    if q not in trans:
                        u = _compose(s, trans[p])
                        trans[q] = u
                        inverse[q] = _inverse(u)
                        points.append(q)
                i += 1

    def _sift_schreier_generators(self, k: int):
        """Sift the Schreier generators of level k but those that are 1; on
        the first that is no member, adjoin its residue and return its level."""
        gens, trans, inverse = self.gens[k], self.trans[k], self.inverse[k]
        for p in self.points[k]:
            u = trans[p]
            for s in gens:
                su = _compose(s, u)
                if su == trans[s[p]]:  # t_{s(p)}^-1 s t_p is 1
                    continue
                h, j = self.sift(_compose(inverse[s[p]], su), k + 1)
                if j < self.n:
                    self._adjoin(h, j)
                    return j
        return None


def _lex_greedy(chain: _StabilizerChain):
    """The lex-greedy generators of the group of ``chain``: each is the
    lex-least element, as a tuple of images, outside the subgroup H that the
    earlier ones generate.

    Elements fixing more leading points are lex-smaller, so the levels m run
    from the deepest up, and H holds G_{m+1} on reaching level m.  A coset
    t_p·G_{m+1} then lies in H exactly when p is in the H-orbit of m.  For
    each p outside it, in ascending order, the coset's lex-least element
    joins: t_p completed at each later level by the point of least image.
    The H-orbit of m must end as the chain's orbit, else AssertionError.
    """
    gens: list[tuple[int, ...]] = []
    for m in range(chain.n - 1, -1, -1):
        points = chain.points[m]
        orbit = _close_orbit({m}, gens)
        for p in sorted(points):
            if p in orbit:
                continue
            g = chain.trans[m][p]
            for j in range(m + 1, chain.n):
                q = min(chain.points[j], key=g.__getitem__)
                if q != j:
                    g = _compose(g, chain.trans[j][q])
            gens.append(g)
            _close_orbit(orbit, gens)
        if orbit != set(points):
            raise AssertionError(f"lex-greedy orbit of {m} has size {len(orbit)}, the chain's {len(points)}")
    return gens


def _find_automorphism(mult, base, want, cands, k: int, u: int):
    """An automorphism fixing base[:k] and sending base[k] to u, or None.

    u must lie in base[k]'s cell.  Iterative backtracking over base[k+1:]:
    the vertex at depth d takes a same-color candidate w whose multiplicities
    to the images of base[:d] equal ``want[d]``, the multiplicities of
    base[d] to base[:d].
    """
    n = len(base)
    image = [-1] * n
    used = [False] * n
    for v in base[:k]:
        image[v] = v
        used[v] = True
    image[base[k]] = u
    used[u] = True
    # tried[d] counts the candidates of depth d tried under the current prefix
    tried = [0] * n
    getters = [None] * n
    d = k + 1
    while d > k:
        if d == n:
            return tuple(image)
        v = base[d]
        if tried[d]:
            used[image[v]] = False
        else:
            getters[d] = itemgetter(*[image[p] for p in base[:d]])
        get, target, cs = getters[d], want[d], cands[v]
        i = tried[d]
        while i < len(cs):
            w = cs[i]
            i += 1
            if not used[w] and get(mult[w]) == target:
                break
        else:
            tried[d] = 0
            d -= 1
            continue
        tried[d] = i
        image[v] = w
        used[w] = True
        d += 1
    return None


def _assignment_order(g: RootGraph, cells):
    """(base, cells): each next base vertex b_k is the least vertex of a
    smallest cell, and cells[k] is that cell, sorted.  The cells start as the
    given color classes, sorted lists, and split by multiplicity to each
    placed vertex, so a cell is the unplaced vertices sharing a color and the
    multiplicities to every placed one: McKay and Piperno's target cell in
    its plainest form.  A one-vertex cell cannot split, so it passes through
    as it is, in its place, unless it is the placed vertex's own."""
    base, placed = [], []
    while cells:
        cell = min(cells, key=lambda c: (len(c), c[0]))
        v = cell[0]
        base.append(v)
        placed.append(cell)
        row, split = g.mult[v], []
        for c in cells:
            if len(c) == 1:
                if c is not cell:
                    split.append(c)
                continue
            parts = {}
            for w in c:
                if w != v:
                    parts.setdefault(row[w], []).append(w)
            split += parts.values()
        cells = split
    return base, placed


def automorphisms(g: RootGraph):
    """(order, generators) of the multiplicity-preserving automorphism group.

    Kind tags are ignored.  The group is never listed.  Along the search
    base b_0, b_1, ... of ``_assignment_order``, a stabilizer chain is
    searched from the deepest level up: at level k the orbit of b_k under
    the automorphisms found so far (all of which fix b_0..b_{k-1}) is
    closed, and one backtracking search per vertex of b_k's cell outside it
    (the cell holds every image b_k can have) either finds an automorphism
    fixing b_0..b_{k-1} that sends b_k there, which joins the strong
    generators and grows the orbit, or shows there is none.  The order is
    the product of the orbit lengths.

    A Schreier–Sims chain with base 0..n-1, built from the strong
    generators, must have that order.  The generators returned are the
    lex-greedy ones, read off that chain by ``_lex_greedy``: each is the
    lex-least element of the group, as a tuple of images, outside the
    subgroup the earlier ones generate, and together they must give the
    chain's orbit at every level.  Either check raises AssertionError.

    Every automorphism keeps each class of the refined coloring, so when the
    refinement is discrete (as for the empty graph) the group is trivial and
    ``(1, [])`` is returned without a search (McKay and Piperno, J. Symb.
    Comp. 60, 2014).
    """
    n = g.n
    colors = _refine_colors(g)
    if len(set(colors)) == n:
        return (1, [])
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    base, cells = _assignment_order(g, list(by_color.values()))
    mult = g.mult
    cands = [by_color[c] for c in colors]
    want = [None] + [itemgetter(*base[:d])(mult[base[d]]) for d in range(1, n)]
    strong: list[tuple[int, ...]] = []
    order = 1
    for k in range(n - 1, -1, -1):
        orbit = {base[k]}
        for u in cells[k]:
            if u in orbit:
                continue
            p = _find_automorphism(mult, base, want, cands, k, u)
            if p is not None:
                strong.append(p)
                _close_orbit(orbit, strong)
        order *= len(orbit)
    chain = _StabilizerChain(n, strong)
    if chain.order() != order:
        raise AssertionError(
            f"automorphism generators give chain order {chain.order()}, the search {order}"
        )
    return (order, _lex_greedy(chain))


# --- text format and DOT -----------------------------------------------------

def parse_graph_text(text: str) -> RootGraph:
    """Parse the line-based graph format.

    UTF-8 lines; "#" starts a comment; ``graph <name>`` then ``vertex <label>
    [kind=-1|-2]`` and ``edge <a> <b> <mult>`` with mult >= 1.  Declaration
    order fixes the canonical vertex order; duplicate edges are errors.
    """
    name = None
    index: dict[str, int] = {}  # label -> vertex, in declaration order
    kinds: list[int] = []
    edges: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.partition("#")[0].split()
        if not parts:
            continue
        if parts[0] == "edge":  # most lines; the directives exclude each other
            if len(parts) != 4:
                raise GraphFormatError(f"line {lineno}: expected 'edge <a> <b> <mult>'")
            _, a, b, m = parts
            i, j = index.get(a), index.get(b)
            if i is None or j is None:
                raise GraphFormatError(f"line {lineno}: edge uses undeclared vertex")
            if i == j:
                raise GraphFormatError(f"line {lineno}: self-loop at {a!r}")
            try:
                mval = lattice.ascii_int(m)
            except ValueError:
                raise GraphFormatError(f"line {lineno}: multiplicity must be an integer") from None
            if mval < 1:
                raise GraphFormatError(f"line {lineno}: multiplicity must be >= 1")
            pair = (i, j) if i < j else (j, i)
            if pair in edges:
                raise GraphFormatError(f"line {lineno}: duplicate edge {a!r} -- {b!r}")
            edges[pair] = mval
        elif parts[0] == "vertex":
            if name is None:
                raise GraphFormatError(f"line {lineno}: vertex before graph declaration")
            if len(parts) not in (2, 3):
                raise GraphFormatError(f"line {lineno}: expected 'vertex <label> [kind=-1|-2]'")
            label = parts[1]
            if label in index:
                raise GraphFormatError(f"line {lineno}: duplicate vertex {label!r}")
            kind = KIND_CURVE
            if len(parts) == 3:
                if parts[2] == "kind=-1":
                    kind = KIND_ROOT
                elif parts[2] != "kind=-2":
                    raise GraphFormatError(f"line {lineno}: bad kind {parts[2]!r}")
            index[label] = len(kinds)
            kinds.append(kind)
        elif parts[0] == "graph":
            if name is not None:
                raise GraphFormatError(f"line {lineno}: duplicate graph declaration")
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: expected 'graph <name>'")
            name = parts[1]
        else:
            raise GraphFormatError(f"line {lineno}: unknown directive {parts[0]!r}")
    if name is None:
        raise GraphFormatError("missing graph declaration")
    return RootGraph._of_edges(index, edges, kinds, name)


def format_graph(g: RootGraph) -> str:
    for what, word in [("graph name", g.name), *(("vertex label", l) for l in g.labels)]:
        if "#" in word or word.split() != [word]:  # it would not read back as itself
            raise ValueError(f"{what} {word!r} is empty or holds whitespace or '#'")
    lines = [f"graph {g.name}"]
    for label, kind in zip(g.labels, g.kinds):
        lines.append(f"vertex {label} kind=-1" if kind == KIND_ROOT else f"vertex {label}")
    for (i, j), m in sorted(g.edges.items()):
        lines.append(f"edge {g.labels[i]} {g.labels[j]} {m}")
    return "\n".join(lines) + "\n"


def load_graph_file(path: str) -> RootGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def _dot_id(text: str) -> str:
    """A DOT quoted string; backslash and double quote are escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(g: RootGraph) -> str:
    """DOT text; multiplicity-m edges become m parallel edge statements and
    the vertex kind picks the node shape (curve: circle, root: doublecircle)."""
    ids = [_dot_id(label) for label in g.labels]
    out = [f"graph {_dot_id(g.name)} {{"]
    for ident, kind in zip(ids, g.kinds):
        shape = "doublecircle" if kind == KIND_ROOT else "circle"
        out.append(f"  {ident} [shape={shape}];")
    for (i, j), m in sorted(g.edges.items()):
        out.extend([f"  {ids[i]} -- {ids[j]};"] * m)
    out.append("}")
    return "\n".join(out) + "\n"
