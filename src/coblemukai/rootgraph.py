"""Root graphs of (-2)-roots and their subdiagram combinatorics.

Vertices are roots of self-pairing -2; an m-tuple edge means the two roots
pair to m.  The Gram matrix of a graph therefore has -2 on the diagonal and
the edge multiplicities off it.  On top of that sit the induced-subdiagram
classifier (ADE / affine ADE), the enumeration of connected and maximal
parabolic subdiagrams, Vinberg's finite-index criterion, exact graph
automorphism groups, and a small text format plus DOT export.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from . import exact, lattice

KIND_CURVE = -2
KIND_ROOT = -1


class GraphFormatError(ValueError):
    pass


class RootGraph:
    """Immutable labeled graph with non-negative integer edge multiplicities."""

    def __init__(self, labels, mult, kinds=None, name: str = "G"):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("vertex labels must be unique")
        n = len(labels)
        mult = tuple(tuple(int(x) for x in row) for row in mult)
        if len(mult) != n or any(len(row) != n for row in mult):
            raise ValueError("multiplicity matrix shape does not match vertex count")
        for i in range(n):
            if mult[i][i] != 0:
                raise ValueError("multiplicity matrix must have zero diagonal")
            for j in range(n):
                if mult[i][j] != mult[j][i]:
                    raise ValueError("multiplicity matrix must be symmetric")
                if mult[i][j] < 0:
                    raise ValueError("edge multiplicities must be non-negative")
        if kinds is None:
            kinds = (KIND_CURVE,) * n
        else:
            kinds = tuple(int(k) for k in kinds)
            if len(kinds) != n or any(k not in (KIND_CURVE, KIND_ROOT) for k in kinds):
                raise ValueError("vertex kinds must be -2 (curve) or -1 (root)")
        self.labels = labels
        self.kinds = kinds
        self.mult = mult
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
        return sum(
            1 for i in range(self.n) for j in range(i + 1, self.n) if self.mult[i][j]
        )

    def gram_rows(self) -> list[list[int]]:
        return [
            [-2 if i == j else self.mult[i][j] for j in range(self.n)]
            for i in range(self.n)
        ]

    def induced(self, labels) -> "RootGraph":
        idx = [self.index(l) for l in labels]
        return RootGraph(
            labels=[self.labels[i] for i in idx],
            mult=[[self.mult[i][j] for j in idx] for i in idx],
            kinds=[self.kinds[i] for i in idx],
            name=self.name,
        )

    def __eq__(self, other):
        return (
            isinstance(other, RootGraph)
            and self.name == other.name
            and self.labels == other.labels
            and self.kinds == other.kinds
            and self.mult == other.mult
        )

    def __repr__(self):
        return f"RootGraph({self.name!r}, {self.n} vertices, {self.edge_count()} edges)"


def from_edges(name, vertices, edges) -> RootGraph:
    """Build a graph from (label, kind) pairs or bare labels plus (a, b, mult) edges."""
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
    n = len(labels)
    mult = [[0] * n for _ in range(n)]
    for a, b, m in edges:
        i, j = index[a], index[b]
        if i == j:
            raise ValueError(f"self-loop at {a!r}")
        if mult[i][j]:
            raise ValueError(f"duplicate edge {a!r} -- {b!r}")
        mult[i][j] = mult[j][i] = int(m)
    return RootGraph(labels, mult, kinds, name)


# --- diagram types ---------------------------------------------------------

@dataclass(frozen=True, order=True)
class DiagramType:
    family: str  # "A", "D" or "E"
    index: int
    affine: bool

    def __str__(self):
        return f"{self.family}~{self.index}" if self.affine else f"{self.family}{self.index}"

    @property
    def rank(self) -> int:
        return self.index

    @property
    def vertex_count(self) -> int:
        return self.index + 1 if self.affine else self.index


def parse_diagram(token: str) -> DiagramType:
    t = token.strip()
    affine = t[1:2] == "~"  # the one place a tilde may stand
    if affine:
        t = t[0] + t[2:]
    if len(t) < 2 or t[0] not in "ADE" or not t[1:].isdigit():
        raise ValueError(f"bad diagram token: {token!r}")
    family, index = t[0], int(t[1:])
    # the same bounds as the root lattices of lattice.make_named
    if not {"A": index >= 1, "D": index >= 4, "E": index in (6, 7, 8)}[family]:
        raise ValueError(f"no diagram {token.strip()!r}: A needs index >= 1, D >= 4, E 6, 7 or 8")
    return DiagramType(family=family, index=index, affine=affine)


def _type_sort_key(t: DiagramType):
    return (-t.index, t.family, t.affine)


def multiset_str(types) -> str:
    return "+".join(str(t) for t in sorted(types, key=_type_sort_key))


# --- shape classification ---------------------------------------------------

def _classify_tree(members, adj):
    """Classify a single-edged tree that is not a path; returns
    (is_affine, DiagramType) or None.

    ``adj[v]`` lists the neighbors of v inside the subset.  The shape rules
    are the standard ADE/affine-ADE tree catalogue; anything else is
    indefinite.
    """
    n = len(members)
    deg = {v: len(adj[v]) for v in members}
    branch = [v for v in members if deg[v] >= 3]
    if len(branch) == 1:
        b = branch[0]
        legs = []
        for start in adj[b]:
            length = 1
            prev, cur = b, start
            while deg[cur] == 2:
                nxt = next(u for u in adj[cur] if u != prev)
                prev, cur = cur, nxt
                length += 1
            legs.append(length)
        legs.sort()
        if deg[b] == 3:
            a, c, d = legs
            if a == 1 and c == 1:
                return (False, DiagramType("D", n, False))
            if legs == [1, 2, 2]:
                return (False, DiagramType("E", 6, False))
            if legs == [1, 2, 3]:
                return (False, DiagramType("E", 7, False))
            if legs == [1, 2, 4]:
                return (False, DiagramType("E", 8, False))
            if legs == [2, 2, 2]:
                return (True, DiagramType("E", 6, True))
            if legs == [1, 3, 3]:
                return (True, DiagramType("E", 7, True))
            if legs == [1, 2, 5]:
                return (True, DiagramType("E", 8, True))
            return None
        if deg[b] == 4 and legs == [1, 1, 1, 1]:
            return (True, DiagramType("D", 4, True))
        return None
    if len(branch) == 2:
        b1, b2 = branch
        if deg[b1] != 3 or deg[b2] != 3:
            return None
        leaves = [v for v in members if deg[v] == 1]
        if len(leaves) != 4:
            return None
        for leaf in leaves:
            if adj[leaf][0] not in branch:
                return None
        return (True, DiagramType("D", n - 1, True))
    return None


def _classify_shape(idx, mask, single, doubled):
    """(is_affine, DiagramType) for a connected vertex list, or None.

    ``mask`` is the bitmask of ``idx`` and ``single[v]`` that of the
    neighbors of v along edges of multiplicity 1; ``doubled & mask`` is
    nonzero exactly when the list has an edge of multiplicity 2.  Edges of
    higher multiplicity must already have been ruled out.  This is the one
    place that decides ADE/affine shape.
    """
    k = len(idx)
    if doubled & mask:
        return (True, DiagramType("A", 1, True)) if k == 2 else None
    degrees = [(single[v] & mask).bit_count() for v in idx]
    edges = sum(degrees) // 2
    if edges == k:
        return (True, DiagramType("A", k - 1, True)) if max(degrees) == 2 else None
    if edges != k - 1:
        return None
    if max(degrees) <= 2:  # a path
        return (False, DiagramType("A", k, False))
    return _classify_tree(idx, {v: [u for u in idx if single[v] >> u & 1] for v in idx})


def _classify_indices(g: RootGraph, idx: list[int]):
    """(is_affine, DiagramType) for a connected induced subset, or None."""
    # connectivity under any positive multiplicity
    near = {a: [b for b in idx if g.mult[a][b]] for a in idx}
    seen = {idx[0]}
    stack = [idx[0]]
    while stack:
        for u in near[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    if len(seen) != len(idx):
        raise ValueError("subset does not induce a connected subgraph")
    if any(g.mult[a][b] >= 3 for a in idx for b in idx):
        return None
    single = {a: sum(1 << b for b in idx if g.mult[a][b] == 1) for a in idx}
    doubled = sum(1 << a for a in idx if any(g.mult[a][b] == 2 for b in idx))
    return _classify_shape(idx, sum(1 << a for a in idx), single, doubled)


def classify(g: RootGraph, subset) -> DiagramType | None:
    """Classify a connected induced subdiagram as definite ADE, affine, or none.

    The shape rules are cross-checked against the exact inertia of the
    induced Gram matrix; a mismatch would mean a corrupt classifier and
    raises AssertionError rather than being returned.
    """
    idx = sorted({g.index(l) for l in subset})
    if not idx:
        raise ValueError("empty subset")
    got = _classify_indices(g, idx)
    gram = [[-2 if i == j else g.mult[i][j] for j in idx] for i in idx]
    pos, neg, zero = exact.rank_signature(gram)
    if got is None:
        if not (pos > 0 or zero >= 2):
            raise AssertionError("unrecognized negative semidefinite diagram")
        return None
    affine, typ = got
    if affine:
        if (pos, neg, zero) != (0, len(idx) - 1, 1):
            raise AssertionError(f"bad affine shape {typ}")
    elif (pos, neg, zero) != (0, len(idx), 0):
        raise AssertionError(f"bad definite shape {typ}")
    return typ


# --- connected parabolic enumeration ----------------------------------------

def _adjacency_masks(g: RootGraph):
    """Neighbor bitmasks along edges of multiplicity 1, 2 and either."""
    single = [0] * g.n
    double = [0] * g.n
    for i in range(g.n):
        for j in range(g.n):
            m = g.mult[i][j]
            if m == 1:
                single[i] |= 1 << j
            elif m == 2:
                double[i] |= 1 << j
            elif m >= 3:
                raise ValueError(
                    "edge multiplicity >= 3: Vinberg's criterion hypothesis fails"
                )
    both = [s | d for s, d in zip(single, double)]
    return single, double, both


def connected_parabolics(g: RootGraph, max_rank: int | None = None):
    """All connected affine subdiagrams, as (sorted labels, DiagramType) pairs.

    Grows connected induced subsets (each visited exactly once) and prunes as
    soon as a subset stops being a definite ADE diagram: proper connected
    induced subsets of affine diagrams are definite, so nothing is missed.
    """
    if max_rank is not None and max_rank < 0:
        raise ValueError(f"target rank must be >= 0, got {max_rank}")
    n = g.n
    single, double, both = _adjacency_masks(g)
    max_size = n if max_rank is None else min(n, max_rank + 1)
    found: list[tuple[list[int], DiagramType]] = []

    def extend(members, mask, ext, nbhd, above):
        """Grow the definite set ``members`` by each vertex of the bitmask
        ``ext`` in turn; ``above`` masks the vertices beyond the root."""
        size = len(members) + 1
        if size > max_size:
            return
        while ext:
            # highest vertex first: on MII that tries 9450 candidates,
            # lowest first 48652 (the visited sets are the same)
            v = ext.bit_length() - 1
            bit = 1 << v
            ext ^= bit
            new = members + [v]
            # a definite set has no double edge, so only v can be on one
            got = _classify_shape(new, mask | bit, single, double[v])
            if got is None:
                continue
            if got[0]:
                found.append((new, got[1]))
            elif size < max_size:
                fresh = both[v] & ~nbhd & ~mask & above
                extend(new, mask | bit, ext | fresh, nbhd | both[v], above)

    for root in range(n):
        above = -2 << root  # the vertices > root
        extend([root], 1 << root, both[root] & above, both[root], above)
    # A recursive closure references itself through its cell; deleting it
    # frees what it captured now instead of at the next cyclic GC pass.
    del extend

    labels = g.labels
    out = [(tuple(sorted(map(labels.__getitem__, idx))), typ) for idx, typ in found]
    out.sort()
    # sanity: every recorded component really is corank-1 negative semidefinite;
    # components with the same multiplicity matrix share one inertia check
    affine_inertia: dict[bytes, bool] = {}
    for comp, typ in out:
        idx = [g.index(l) for l in comp]
        key = bytes([g.mult[a][b] for a in idx for b in idx])
        ok = affine_inertia.get(key)
        if ok is None:
            gram = [[-2 if a == b else g.mult[a][b] for b in idx] for a in idx]
            ok = affine_inertia[key] = exact.rank_signature(gram) == (0, len(idx) - 1, 1)
        if not ok:
            raise AssertionError(f"component {comp} misclassified as {typ}")
    return out


# --- parabolic subdiagrams and Vinberg ---------------------------------------

@dataclass(frozen=True)
class ParabolicSubdiagram:
    """Disjoint orthogonal union of connected affine diagrams."""

    components: tuple[tuple[tuple[str, ...], DiagramType], ...]
    rank: int

    def type_multiset(self) -> str:
        return multiset_str([t for _, t in self.components])


def maximal_parabolics(g: RootGraph, target_rank: int, cps=None):
    """All parabolic subdiagrams of rank exactly target_rank.

    Exact backtracking packing of the connected parabolics; components must
    be pairwise disjoint and orthogonal.  The search visits each packing
    once, choosing its components in increasing order, so the output comes
    sorted by component label lists.  ``cps`` is the full output of
    ``connected_parabolics(g)`` when the caller already has it; only its
    components of rank at most target_rank are used.
    """
    if target_rank < 0:
        raise ValueError(f"target rank must be >= 0, got {target_rank}")
    _, _, both = _adjacency_masks(g)
    if cps is None:
        cps = connected_parabolics(g, max_rank=target_rank)
    else:
        cps = [c for c in cps if c[1].rank <= target_rank]
    members = [[g.index(l) for l in labels] for labels, _ in cps]
    holding = [0] * g.n  # holding[v]: the candidates that contain v
    for j, idx in enumerate(members):
        for v in idx:
            holding[v] |= 1 << j
    # touching[v]: the candidates that contain v or a neighbor of v
    touching = []
    for v in range(g.n):
        m = holding[v]
        for u in range(g.n):
            if both[v] >> u & 1:
                m |= holding[u]
        touching.append(m)
    # compat[i]: the candidates disjoint from and orthogonal to candidate i
    full = (1 << len(cps)) - 1
    compat = []
    for idx in members:
        clash = 0
        for v in idx:
            clash |= touching[v]
        compat.append(full & ~clash)
    ranks = [t.rank for _, t in cps]
    chosen: list[int] = []
    results: list[ParabolicSubdiagram] = []

    def dfs(start: int, allowed: int, total: int):
        if total == target_rank:
            comps = tuple(map(cps.__getitem__, chosen))  # cps is sorted
            results.append(ParabolicSubdiagram(components=comps, rank=target_rank))
            return
        rest = allowed >> start << start
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            rest ^= low
            if total + ranks[i] <= target_rank:
                chosen.append(i)
                dfs(i + 1, allowed & compat[i], total + ranks[i])
                chosen.pop()

    dfs(0, full, 0)
    del dfs  # see connected_parabolics
    return results


@dataclass(frozen=True)
class VinbergReport:
    passed: bool
    target_rank: int
    witnesses: tuple  # connected parabolics that extend to no maximal one
    maximal: tuple  # the rank-target parabolic subdiagrams

    def type_multisets(self) -> tuple[str, ...]:
        return tuple(sorted({p.type_multiset() for p in self.maximal}))


def vinberg_check(g: RootGraph, target_rank: int | None = None) -> VinbergReport:
    """Finite-index criterion: every connected parabolic subdiagram must be a
    component of some parabolic subdiagram of the maximal rank."""
    if target_rank is None:
        rank, _ = span_check(g)
        target_rank = rank - 2
    cps = connected_parabolics(g)
    packs = maximal_parabolics(g, target_rank, cps)
    used = {comp for p in packs for comp in p.components}
    witnesses = tuple(c for c in cps if c not in used)
    return VinbergReport(
        passed=not witnesses,
        target_rank=target_rank,
        witnesses=witnesses,
        maximal=tuple(packs),
    )


def span_check(g: RootGraph) -> tuple[int, tuple[int, int]]:
    """Rank and signature of the span of the roots under the graph Gram."""
    pos, neg, _ = exact.rank_signature(g.gram_rows())
    return (pos + neg, (pos, neg))


def span_lattice(g: RootGraph):
    """The lattice generated by the roots modulo its radical, built at the
    span's rank from independent roots by ``lattice.radical_quotient``."""
    span = lattice.radical_quotient(g.gram_rows())
    if span.rank == 0:
        raise ValueError("graph Gram has zero rank")
    return span


def span_det(g: RootGraph) -> int:
    """Determinant of the saturated lattice generated by the roots.

    The raw span can sit at finite index inside the ambient lattice (multiple
    fibers halve some isotropic classes there), so the span is saturated by
    gluing a maximal isotropic subgroup of its discriminant form
    (``lattice.saturate``); that is the largest even lattice the roots can
    generate in any ambient, and every maximal subgroup gives the same det.
    """
    span = span_lattice(g)
    d = lattice.det(span)
    if abs(d) == 1:
        return d
    return lattice.det(lattice.saturate(span))


# --- automorphisms ----------------------------------------------------------

def _refine_colors(g: RootGraph):
    n = g.n
    colors = [0] * n
    while True:
        sigs = []
        for v in range(n):
            nb = sorted((g.mult[v][u], colors[u]) for u in range(n) if g.mult[v][u])
            sigs.append((colors[v], tuple(nb)))
        palette = {s: c for c, s in enumerate(sorted(set(sigs)))}
        new = [palette[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _compose(a, b):
    """The permutation a∘b: i -> a[b[i]]."""
    return tuple(map(a.__getitem__, b))


def _inverse(a):
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x] = i
    return tuple(inv)


class _StabilizerChain:
    """Schreier–Sims chain of a permutation group on 0..n-1 with base 0..n-1.

    Level k holds the orbit of k under the strong generators that fix
    0..k-1, with a transversal: ``trans[k][p]`` sends k to p and
    ``inverse[k][p]`` is its inverse.  ``checked[k][i]`` counts the strong
    generators s of level k whose Schreier generator at the i-th orbit point
    has been sifted into the levels below.  When all of them have, sifting
    decides membership and the order is the product of the orbit lengths.
    """

    def __init__(self, n: int, gens=()):
        self.n = n
        identity = tuple(range(n))
        self.trans = [{k: identity} for k in range(n)]
        self.inverse = [{k: identity} for k in range(n)]
        self.points = [[k] for k in range(n)]
        self.gens: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
        self.checked = [[0] for _ in range(n)]
        for g in gens:
            self.add(g)

    def suffix_orders(self) -> list[int]:
        """Orders of the level-k stabilizers, k = 0..n (the last is 1)."""
        out = [1] * (self.n + 1)
        for k in range(self.n - 1, -1, -1):
            out[k] = out[k + 1] * len(self.points[k])
        return out

    def order(self) -> int:
        return self.suffix_orders()[0]

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

    def contains(self, g) -> bool:
        return self.sift(g)[1] == self.n

    def add(self, g):
        """Enlarge the group by g and complete the chain again."""
        g, k = self.sift(g)
        if k == self.n:
            return
        self._adjoin(g, k)
        # deepest level first, so every sift runs through complete levels
        while k >= 0:
            j = self._sift_schreier_generators(k)
            k = k - 1 if j is None else j

    def _adjoin(self, g, j: int):
        """Make g, which fixes 0..j-1 and moves j, a strong generator."""
        for k in range(j + 1):
            gens, trans, inverse = self.gens[k], self.trans[k], self.inverse[k]
            points, checked = self.points[k], self.checked[k]
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
                        checked.append(0)
                i += 1

    def _sift_schreier_generators(self, k: int):
        """Sift the unchecked Schreier generators of level k; on the first
        that is no member, adjoin its residue and return its level."""
        gens, trans, inverse = self.gens[k], self.trans[k], self.inverse[k]
        points, checked = self.points[k], self.checked[k]
        for i, p in enumerate(points):
            u = trans[p]
            while checked[i] < len(gens):
                s = gens[checked[i]]
                checked[i] += 1
                h, j = self.sift(_compose(inverse[s[p]], _compose(s, u)), k + 1)
                if j < self.n:
                    self._adjoin(h, j)
                    return j
        return None


def _lex_least_outside(chain: _StabilizerChain, sub: _StabilizerChain):
    """The lex-least element of the group of ``chain`` outside the proper
    subgroup of ``sub``.

    Elements with the same images of 0..k-1 form a coset g·G_k of the level-k
    stabilizer, and its children g·u·G_{k+1} (u in the level-k transversal)
    are in lex order of g[u[k]].  A coset lies inside the subgroup exactly
    when g does and the subgroup's level-k stabilizer has the same order as
    G_k; the walk takes the first child that does not.
    """
    orders = chain.suffix_orders()
    full = [a == b for a, b in zip(orders, sub.suffix_orders())]
    g = tuple(range(chain.n))
    k = 0
    while orders[k] > 1:
        trans = chain.trans[k]
        for p in sorted(chain.points[k], key=g.__getitem__):
            child = _compose(g, trans[p])
            if not (full[k + 1] and sub.contains(child)):
                g = child
                break
        else:
            raise AssertionError("every coset lies in the subgroup")
        k += 1
    return g


def _find_automorphism(mult, base, want, cands, k: int, u: int):
    """An automorphism fixing base[:k] and sending base[k] to u, or None.

    Iterative backtracking over base[k+1:]: the vertex at depth d takes a
    same-color candidate w whose multiplicities to the images of base[:d]
    equal ``want[d]``, the multiplicities of base[d] to base[:d].
    """
    n = len(base)
    image = [-1] * n
    used = [False] * n
    for v in base[:k]:
        image[v] = v
        used[v] = True
    if used[u] or (k and itemgetter(*base[:k])(mult[u]) != want[k]):
        return None
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


def _assignment_order(g: RootGraph, colors, by_color):
    """The search base: each next vertex is as constrained as possible by the
    ones already placed.  Every edge into the placed prefix constrains its
    candidates, and so does a non-edge to a placed vertex of the same color,
    so both count toward the greedy score; ties go to more single edges, a
    smaller color class, then the smaller index."""
    n = g.n
    mult = g.mult
    single_deg = [row.count(1) for row in mult]
    score = [0] * n
    left = list(range(n))
    order: list[int] = []
    while left:
        v = max(left, key=lambda v: (score[v], single_deg[v], -len(by_color[colors[v]]), -v))
        left.remove(v)
        order.append(v)
        for w in left:
            if mult[w][v] or colors[w] == colors[v]:
                score[w] += 1
    return order


def automorphisms(g: RootGraph):
    """(order, generators) of the multiplicity-preserving automorphism group.

    Kind tags are ignored.  The group is never listed.  A stabilizer chain
    along the color-refined greedy base b_0, b_1, ... is searched from the
    deepest level up: at level k the orbit of b_k under the automorphisms
    found so far (all of which fix b_0..b_{k-1}) is closed, and one
    backtracking search per same-color vertex outside it either finds an
    automorphism fixing b_0..b_{k-1} that sends b_k there, which joins the
    strong generators and grows the orbit, or shows there is none.  The order
    is the product of the orbit lengths.

    The generators returned are the lex-greedy ones: each is the lex-least
    element of the group, as a tuple of images, outside the subgroup the
    earlier ones generate.  A Schreier–Sims chain with base 0..n-1 finds
    them by walking its cosets in lex order.  The chain order of the
    returned generators must equal the product of the orbit lengths, else
    AssertionError is raised.
    """
    n = g.n
    if n == 0:
        return (1, [])
    colors = _refine_colors(g)
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    base = _assignment_order(g, colors, by_color)
    mult = g.mult
    cands = [by_color[c] for c in colors]
    want = [None] + [itemgetter(*base[:d])(mult[base[d]]) for d in range(1, n)]
    strong: list[tuple[int, ...]] = []
    order = 1
    for k in range(n - 1, -1, -1):
        b = base[k]
        orbit = {b}
        for u in cands[b]:
            if u in orbit:
                continue
            p = _find_automorphism(mult, base, want, cands, k, u)
            if p is None:
                continue
            strong.append(p)
            stack = list(orbit)
            while stack:
                x = stack.pop()
                for s in strong:
                    if s[x] not in orbit:
                        orbit.add(s[x])
                        stack.append(s[x])
        order *= len(orbit)
    chain = _StabilizerChain(n, strong)
    span = _StabilizerChain(n)
    gens: list[tuple[int, ...]] = []
    while span.order() < chain.order():
        p = _lex_least_outside(chain, span)
        gens.append(p)
        span.add(p)
    if span.order() != order:
        raise AssertionError(
            f"automorphism generators give chain order {span.order()}, the search {order}"
        )
    return (order, gens)


# --- text format and DOT -----------------------------------------------------

def parse_graph_text(text: str) -> RootGraph:
    """Parse the line-based graph format.

    UTF-8 lines; "#" starts a comment; ``graph <name>`` then ``vertex <label>
    [kind=-1|-2]`` and ``edge <a> <b> <mult>`` with mult >= 1.  Declaration
    order fixes the canonical vertex order; duplicate edges are errors.
    """
    name = None
    labels: list[str] = []
    kinds: list[int] = []
    edges: list[tuple[str, str, int]] = []
    seen_pairs = set()
    declared = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "graph":
            if name is not None:
                raise GraphFormatError(f"line {lineno}: duplicate graph declaration")
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: expected 'graph <name>'")
            name = parts[1]
        elif parts[0] == "vertex":
            if name is None:
                raise GraphFormatError(f"line {lineno}: vertex before graph declaration")
            if len(parts) not in (2, 3):
                raise GraphFormatError(f"line {lineno}: expected 'vertex <label> [kind=-1|-2]'")
            label = parts[1]
            if label in declared:
                raise GraphFormatError(f"line {lineno}: duplicate vertex {label!r}")
            kind = KIND_CURVE
            if len(parts) == 3:
                if parts[2] == "kind=-1":
                    kind = KIND_ROOT
                elif parts[2] == "kind=-2":
                    kind = KIND_CURVE
                else:
                    raise GraphFormatError(f"line {lineno}: bad kind {parts[2]!r}")
            declared.add(label)
            labels.append(label)
            kinds.append(kind)
        elif parts[0] == "edge":
            if len(parts) != 4:
                raise GraphFormatError(f"line {lineno}: expected 'edge <a> <b> <mult>'")
            a, b, m = parts[1], parts[2], parts[3]
            if a not in declared or b not in declared:
                raise GraphFormatError(f"line {lineno}: edge uses undeclared vertex")
            if a == b:
                raise GraphFormatError(f"line {lineno}: self-loop at {a!r}")
            try:
                mval = int(m)
            except ValueError:
                raise GraphFormatError(f"line {lineno}: multiplicity must be an integer") from None
            if mval < 1:
                raise GraphFormatError(f"line {lineno}: multiplicity must be >= 1")
            key = frozenset((a, b))
            if key in seen_pairs:
                raise GraphFormatError(f"line {lineno}: duplicate edge {a!r} -- {b!r}")
            seen_pairs.add(key)
            edges.append((a, b, mval))
        else:
            raise GraphFormatError(f"line {lineno}: unknown directive {parts[0]!r}")
    if name is None:
        raise GraphFormatError("missing graph declaration")
    return from_edges(name, list(zip(labels, kinds)), edges)


def format_graph(g: RootGraph) -> str:
    lines = [f"graph {g.name}"]
    for label, kind in zip(g.labels, g.kinds):
        lines.append(f"vertex {label} kind=-1" if kind == KIND_ROOT else f"vertex {label}")
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if g.mult[i][j]:
                lines.append(f"edge {g.labels[i]} {g.labels[j]} {g.mult[i][j]}")
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
    for i in range(g.n):
        for j in range(i + 1, g.n):
            for _ in range(g.mult[i][j]):
                out.append(f"  {ids[i]} -- {ids[j]};")
    out.append("}")
    return "\n".join(out) + "\n"
