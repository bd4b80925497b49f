"""Brute-force oracles for the shape-directed enumerations.

Small random graphs are checked against powerset enumeration (connected
parabolics and maximal packings) and against all-permutations search
(automorphisms), so the fast paths are validated by definitions.  Group
orders on larger graphs are also counted by networkx's VF2 matcher.
Exact inverses are checked against sympy, and the affine certificate of
parabolic components against the exact inertia.  Discriminant forms are
checked by listing L*/L: span_det against a DFS over
every chain of isotropic subgroups, saturations of two or more steps for
evenness, index and anisotropy by a listing from sympy's inverse, and the
form of an overlattice against q on H-perp/H.  The span lattice built at the span's rank is checked against
sympy's rank, Smith form and inertia and against the n x n SNF congruence it
replaced, and span_check's inertia, read off the span, against that of the
whole Gram matrix.  mod2_subgroup's q is checked against <x, x>/2 on every
class it lists, and the Gram of every basis _adjoin builds for gluing, half
overlattices and saturation against B G B^T.
"""

import importlib.util
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from collections import Counter
from itertools import combinations, permutations
from math import factorial, isqrt, lcm, prod
from pathlib import Path

import pytest

from coblemukai import catalog, exact, lattice, rootgraph


def random_graph(rng, n, p_edge=0.45, p_double=0.35):
    labels = [f"v{i}" for i in range(n)]
    mult = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p_edge:
                m = 2 if rng.random() < p_double else 1
                mult[i][j] = mult[j][i] = m
    return rootgraph.RootGraph(labels, mult)


def is_connected(g, idx):
    seen = {idx[0]}
    stack = [idx[0]]
    members = set(idx)
    while stack:
        v = stack.pop()
        for u in members:
            if u not in seen and g.mult[v][u]:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(idx)


def affine_type_by_invariants(k, disc):
    """The affine diagram with k vertices whose Gram matrix has nonzero SNF
    factors of product disc: the order of the discriminant group of the
    finite root lattice it extends.  The (k, disc) pairs are unique."""
    if disc == k:
        return rootgraph.DiagramType("A", k - 1, True)
    if disc == 4 and k >= 5:
        return rootgraph.DiagramType("D", k - 1, True)
    index = {3: 6, 2: 7, 1: 8}.get(disc)
    assert index is not None and k == index + 1, (k, disc)
    return rootgraph.DiagramType("E", index, True)


def definite_type_by_invariants(k, disc):
    """The ADE diagram with k vertices whose Gram matrix has determinant of
    absolute value disc; the (k, disc) pairs are unique."""
    if disc == k + 1:
        return rootgraph.DiagramType("A", k, False)
    if disc == 4 and k >= 4:
        return rootgraph.DiagramType("D", k, False)
    assert {6: 3, 7: 2, 8: 1}.get(k) == disc, (k, disc)
    return rootgraph.DiagramType("E", k, False)


def brute_shape(g, idx):
    """The type of a connected induced subset, from the inertia and the
    Smith factors of its Gram matrix alone, not by the shape classifier: a
    connected negative definite diagram is ADE and a connected negative
    semidefinite one of corank 1 is affine; anything else is None."""
    k = len(idx)
    gram = [[-2 if a == b else g.mult[a][b] for b in idx] for a in idx]
    inertia = exact.rank_signature(gram)
    if inertia not in ((0, k, 0), (0, k - 1, 1)):
        return None
    disc = prod(abs(d) or 1 for d in exact.snf(gram).factors)
    if inertia == (0, k, 0):
        return definite_type_by_invariants(k, disc)
    return affine_type_by_invariants(k, disc)


def connected_subsets(g):
    for size in range(1, g.n + 1):
        for idx in combinations(range(g.n), size):
            if is_connected(g, idx):
                yield idx


def typed_connected_subsets(g):
    """Each connected induced subset with its ``brute_shape``."""
    return [(idx, brute_shape(g, idx)) for idx in connected_subsets(g)]


def brute_connected_parabolics(g, typed=None):
    """Connected induced subsets whose Gram matrix is negative semidefinite of
    corank 1, labeled by invariants alone, not by the shape classifier;
    ``typed`` is ``typed_connected_subsets(g)`` when the caller has it."""
    if typed is None:
        typed = typed_connected_subsets(g)
    return sorted((tuple(sorted(g.labels[i] for i in idx)), typ)
                  for idx, typ in typed if typ is not None and typ.affine)


def test_affine_type_by_invariants_on_named_diagrams():
    # every affine type that fits in 9 vertices, built from its Dynkin shape
    def check(name, n, edges):
        g = rootgraph.from_edges(name, [f"v{i}" for i in range(n)],
                                 [(f"v{a}", f"v{b}", m) for a, b, m in edges])
        (labels, typ), = brute_connected_parabolics(g)
        assert str(typ) == name and len(labels) == n

    check("A~1", 2, [(0, 1, 2)])
    for n in range(3, 10):
        check(f"A~{n - 1}", n, [(i, (i + 1) % n, 1) for i in range(n)])
    for n in range(5, 10):  # two forks joined by a path (a star for n = 5)
        centre = [(i, i + 1, 1) for i in range(2, n - 3)]
        check(f"D~{n - 1}", n, [(0, 2, 1), (1, 2, 1), (n - 3, n - 2, 1), (n - 3, n - 1, 1)] + centre)
    check("E~6", 7, [(0, 1, 1), (1, 2, 1), (0, 3, 1), (3, 4, 1), (0, 5, 1), (5, 6, 1)])
    check("E~7", 8, [(i, i + 1, 1) for i in range(6)] + [(3, 7, 1)])
    check("E~8", 9, [(i, i + 1, 1) for i in range(7)] + [(5, 8, 1)])


def test_connected_parabolics_matches_powerset_oracle():
    # the search grows connected subsets through the one shape step, and the
    # random graphs make it meet paths, D/E trees, cycles, double edges and
    # indefinite sets
    rng = random.Random(101)
    shapes = set()
    for trial in range(60):
        n = rng.randint(2, 9)
        g = random_graph(rng, n)
        if any(g.mult[i][j] >= 3 for i in range(n) for j in range(n)):
            continue
        typed = typed_connected_subsets(g)
        brute = brute_connected_parabolics(g, typed)
        assert rootgraph.connected_parabolics(g) == brute, trial
        for max_rank in range(n + 1):
            want = [c for c in brute if c[1].rank <= max_rank]
            assert rootgraph.connected_parabolics(g, max_rank) == want, (trial, max_rank)
        shapes |= {None if typ is None else (typ.family, typ.affine) for _, typ in typed}
    assert shapes >= {None, ("A", False), ("D", False), ("E", False), ("A", True), ("D", True)}


def test_connected_parabolics_on_every_small_tree():
    # every tree of 5-9 vertices, numbered at random, so that each kind of
    # attachment to a path or a D/E tree meets the growth step; together they
    # hold every affine tree type of at most 9 vertices
    import networkx as nx

    rng = random.Random(23)
    types = set()
    for n in range(5, 10):
        for tree in nx.nonisomorphic_trees(n):
            g = shuffled_graph(rng, n, [(a, b, 1) for a, b in tree.edges])
            brute = brute_connected_parabolics(g)
            assert rootgraph.connected_parabolics(g) == brute, sorted(tree.edges)
            types |= {str(typ) for _, typ in brute}
    assert types == {"D~4", "D~5", "D~6", "D~7", "D~8", "E~6", "E~7", "E~8"}


def test_connected_parabolics_on_random_regular_graphs():
    # 3- and 4-regular graphs, every other one with one edge doubled
    import networkx as nx

    rng = random.Random(61)
    for trial, (d, n) in enumerate([(3, 10), (3, 12), (4, 10), (4, 11)] * 2):
        h = nx.random_regular_graph(d, n, seed=rng.randrange(1 << 30))
        edges = [(a, b, 1) for a, b in h.edges]
        if trial % 2:
            a, b, _ = edges.pop(rng.randrange(len(edges)))
            edges.append((a, b, 2))
        g = shuffled_graph(rng, n, edges)
        assert rootgraph.connected_parabolics(g) == brute_connected_parabolics(g), trial


def test_affine_a_count_matches_chordless_cycles():
    # on a graph of single edges every chordless cycle of k + 1 >= 3
    # vertices is an A~k component, and every A~k with k >= 2 is one
    import networkx as nx

    for n, seed in [(16, 5), (20, 6), (24, 7)]:
        h = nx.random_regular_graph(3, n, seed=seed)
        g = rootgraph.from_edges("C", [f"v{i}" for i in range(n)],
                                 [(f"v{a}", f"v{b}", 1) for a, b in h.edges])
        cycles = sum(1 for _ in nx.chordless_cycles(h))
        a_tilde = sum(1 for _, typ in rootgraph.connected_parabolics(g)
                      if typ.family == "A" and typ.affine and typ.index >= 2)
        assert a_tilde == cycles, n


def packings_by_recursion(g, cps, target):
    """(packings, overshoots): the sets of pairwise disjoint and orthogonal
    members of ``cps`` whose ranks sum to ``target``, sorted, and how often
    a member was passed over because it would overshoot the target."""
    results = set()
    overshoots = 0
    # a member's labels with their neighbours: b is compatible with a
    # exactly when b's labels miss a's closed neighbourhood
    closed = [{g.labels[j] for i in map(g.index, labels) for j in range(g.n) if j == i or g.mult[i][j]}
              for labels, _ in cps]

    def rec(candidates, chosen, total):
        """Extend ``chosen`` by members of ``candidates``, the later members
        compatible with every chosen one."""
        nonlocal overshoots
        if total == target:
            results.add(tuple(sorted(cps[k] for k in chosen)))
            return
        for pos, i in enumerate(candidates):
            labels, typ = cps[i]
            if total + typ.rank > target:
                overshoots += 1
                continue
            rec([j for j in candidates[pos + 1:] if closed[i].isdisjoint(cps[j][0])], chosen + [i],
                total + typ.rank)

    rec(range(len(cps)), [], 0)
    return sorted(results), overshoots


def brute_maximal_parabolics(g, target):
    return packings_by_recursion(g, brute_connected_parabolics(g), target)[0]


def test_maximal_parabolics_matches_packing_oracle():
    rng = random.Random(33)
    for trial in range(40):
        n = rng.randint(3, 8)
        g = random_graph(rng, n, p_edge=0.55)
        if any(g.mult[i][j] >= 3 for i in range(n) for j in range(n)):
            continue
        target = rng.randint(1, 4)
        brute = brute_maximal_parabolics(g, target)
        fast = sorted(p.components for p in rootgraph.maximal_parabolics(g, target))
        assert fast == brute, (trial, target)


def test_maximal_parabolics_below_span_rank_match_recursion():
    # below span rank - 2 a component can overshoot the target rank, and the
    # packing must pass it over: II, VI and seeded induced subgraphs of VI,
    # MI and MII at every target below 8, against a recursion fed from
    # connected_parabolics
    rng = random.Random(71)
    graphs = [catalog.build_graph("II"), catalog.build_graph("VI")]
    for trial in range(6):
        source = catalog.build_graph(("VI", "MI", "MII")[trial % 3])
        graphs.append(source.induced(rng.sample(source.labels, rng.randint(12, 20))))
    overshoots = 0
    for g in graphs:
        for target in range(8):
            want, skipped = packings_by_recursion(g, rootgraph.connected_parabolics(g, target), target)
            got = sorted(p.components for p in rootgraph.maximal_parabolics(g, target))
            assert got == want, (g.name, g.labels, target)
            overshoots += skipped
    assert overshoots > 0


def single_edge_graph(edges):
    """A networkx graph on ``edges``, each of multiplicity 1."""
    import networkx as nx

    h = nx.Graph(edges)
    nx.set_edge_attributes(h, 1, "mult")
    return h


def affine_tree(family, index):
    """The tree of D~index or E~index, index + 1 vertices with single edges."""
    if family == "D":  # a path 0..index-2, a leaf at 1 and one at index-3
        path = [(i, i + 1) for i in range(index - 2)]
        return single_edge_graph([*path, (1, index - 1), (index - 3, index)])
    edges, n = [], 1  # E: arms of (2, 2, 2), (1, 3, 3) or (1, 2, 5) vertices at a centre 0
    for arm in {6: (2, 2, 2), 7: (1, 3, 3), 8: (1, 2, 5)}[index]:
        edges += [(0 if k == 0 else n + k - 1, n + k) for k in range(arm)]
        n += arm
    return single_edge_graph(edges)


def networkx_connected_parabolics(g):
    """``connected_parabolics(g)`` of a graph whose edges have multiplicity 1
    or 2, found by networkx alone: an A~1 is a double edge, an A~k (k >= 2)
    a chordless cycle of k + 1 single edges, and a D~ or E~ an induced copy
    of its tree with single edges.  Each D~ and E~ tree holds an induced
    claw, so the trees are searched only where a claw is found.  Trees stop
    at rank 8, the most an affine diagram can have in a span of signature
    (1, 9)."""
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    h = nx.Graph()
    h.add_nodes_from(g.labels)
    h.add_edges_from((a, b, {"mult": g.mult[i][j]}) for i, a in enumerate(g.labels)
                     for j, b in enumerate(g.labels) if i < j and g.mult[i][j])
    assert {m for _, _, m in h.edges(data="mult")} <= {1, 2}
    found = [((a, b), rootgraph.DiagramType("A", 1, True))
             for a, b, m in h.edges(data="mult") if m == 2]
    for cycle in nx.chordless_cycles(h):
        if len(cycle) >= 3 and all(h[a][b]["mult"] == 1 for a, b in zip(cycle, cycle[1:] + cycle[:1])):
            found.append((cycle, rootgraph.DiagramType("A", len(cycle) - 1, True)))

    def induced_copies(tree):
        matcher = GraphMatcher(h, tree, edge_match=lambda x, y: x["mult"] == y["mult"])
        return {frozenset(m) for m in matcher.subgraph_isomorphisms_iter()}

    claws = sum(1 for c in h for trio in combinations([v for v, m in h[c].items() if m["mult"] == 1], 3)
                if not any(h.has_edge(a, b) for a, b in combinations(trio, 2)))
    if claws:
        for family, index in [*(("D", k) for k in range(4, 9)), ("E", 6), ("E", 7), ("E", 8)]:
            typ = rootgraph.DiagramType(family, index, True)
            found += [(labels, typ) for labels in induced_copies(affine_tree(family, index))]
    return sorted((tuple(sorted(labels)), typ) for labels, typ in found), claws


@pytest.mark.parametrize("name, packings, claws", [("VI", 57, 10), ("MI", 247, 0), ("MII", 202, 0)])
def test_parabolics_of_vi_mi_and_mii_match_networkx(name, packings, claws):
    # the paper's Vinberg data, component by component and packing by
    # packing, against networkx and a recursion fed from networkx's list
    g = catalog.build_graph(name)
    cps, claw_count = networkx_connected_parabolics(g)
    assert claw_count == claws
    assert rootgraph.connected_parabolics(g) == cps
    want = packings_by_recursion(g, cps, 8)[0]
    assert len(want) == packings
    assert sorted(p.components for p in rootgraph.maximal_parabolics(g, 8)) == want


def test_vinberg_check_below_span_rank_matches_definition():
    # with the target below span rank - 2, components of larger rank exist
    # and must all come back as witnesses
    rng = random.Random(58)
    high = 0
    for trial in range(40):
        g = random_graph(rng, rng.randint(5, 9), p_edge=0.4, p_double=0.15)
        rank, _ = rootgraph.span_check(g)
        if rank < 5:
            continue
        target = rng.randint(1, min(3, rank - 3))
        rep = rootgraph.vinberg_check(g, target)
        cps = brute_connected_parabolics(g)
        packs = brute_maximal_parabolics(g, target)
        used = {c for p in packs for c in p}
        assert sorted(p.components for p in rep.maximal) == packs, trial
        assert rep.witnesses == tuple(c for c in cps if c not in used), trial
        assert rep.passed == (not rep.witnesses)
        above = [c for c in cps if c[1].rank > target]
        assert all(c in rep.witnesses for c in above), trial
        high += bool(above)
    assert high >= 10


def test_automorphisms_match_permutation_oracle():
    rng = random.Random(7)
    for trial in range(25):
        n = rng.randint(1, 6)
        g = random_graph(rng, n, p_edge=0.5)
        brute = 0
        for p in permutations(range(n)):
            if all(
                g.mult[i][j] == g.mult[p[i]][p[j]] for i in range(n) for j in range(i + 1, n)
            ):
                brute += 1
        assert rootgraph.automorphisms(g)[0] == brute, trial


def networkx_aut_order(g):
    """Order of the multiplicity-preserving automorphism group, counted by
    networkx's VF2 matcher of g against itself."""
    return len(networkx_automorphisms(g))


def networkx_automorphisms(g):
    """The multiplicity-preserving automorphisms of g as tuples of images,
    listed by networkx's VF2 matcher of g against itself."""
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(
        (i, j, {"mult": g.mult[i][j]})
        for i in range(g.n)
        for j in range(i + 1, g.n)
        if g.mult[i][j]
    )
    gm = GraphMatcher(h, h, edge_match=lambda a, b: a["mult"] == b["mult"])
    return [tuple(m[i] for i in range(g.n)) for m in gm.isomorphisms_iter()]


def union_graph(rng, max_n, max_order=3000):
    """A shuffled disjoint union of cycles and complete graphs, each with one
    random edge multiplicity.  Its group order, the product of the component
    groups times the permutations of equal components, is kept at most
    max_order so that listing it through networkx stays quick."""
    while True:
        parts = []
        n = 0
        while max_n - n >= 3 and (not parts or rng.random() < 0.8):
            kind = rng.choice(["cycle", "complete"])
            size = rng.randint(3, min(6 if kind == "cycle" else 4, max_n - n))
            if size == 3:  # the triangle is both
                kind = "complete"
            parts.append((kind, size, rng.choice([1, 1, 2, 3])))
            n += size
        order = 1
        for kind, size, _ in parts:
            order *= 2 * size if kind == "cycle" else factorial(size)
        for part in set(parts):
            order *= factorial(parts.count(part))
        if order <= max_order:
            break
    perm = list(range(n))
    rng.shuffle(perm)
    mult = [[0] * n for _ in range(n)]
    start = 0
    for kind, size, m in parts:
        vs = [perm[start + i] for i in range(size)]
        if kind == "cycle":
            pairs = [(vs[i], vs[(i + 1) % size]) for i in range(size)]
        else:
            pairs = list(combinations(vs, 2))
        for a, b in pairs:
            mult[a][b] = mult[b][a] = m
        start += size
    return rootgraph.RootGraph([f"v{i}" for i in range(n)], mult), order


def test_automorphisms_match_networkx_matcher():
    rng = random.Random(11)
    # automorphisms returns (1, []) without a search when color refinement
    # is discrete; the draws must exercise that exit and the search
    discrete = set()
    for trial in range(60):
        if trial % 2:
            g, order = union_graph(rng, 12)
        else:
            n = rng.randint(2, 12)
            p_edge = rng.uniform(0.3, 0.7)
            mult = [[0] * n for _ in range(n)]
            for i, j in combinations(range(n), 2):
                if rng.random() < p_edge:
                    mult[i][j] = mult[j][i] = rng.choice([1, 1, 2, 3])
            g = rootgraph.RootGraph([f"v{i}" for i in range(n)], mult)
            order = None
        discrete.add(len(set(rootgraph._refine_colors(g))) == g.n)
        got, gens = rootgraph.automorphisms(g)
        want = networkx_aut_order(g)
        assert got == want, trial
        if order is not None:
            assert got == order, trial
        for p in gens:
            assert all(
                g.mult[i][j] == g.mult[p[i]][p[j]] for i in range(g.n) for j in range(g.n)
            ), trial
    assert discrete == {True, False}


def compose(p, q):
    """The permutation i -> p[q[i]], permutations as image tuples."""
    return tuple(map(p.__getitem__, q))


def invert(p):
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def close_group(gens, degree):
    """Every product of the generators, by a breadth-first walk from 1."""
    identity = tuple(range(degree))
    group, frontier = {identity}, [identity]
    while frontier:
        images = {tuple(map(p.__getitem__, s)) for p in frontier for s in gens}
        frontier = [q for q in images if q not in group]
        group.update(frontier)
    return group


def element_order(p):
    """The lcm of the cycle lengths."""
    order, seen = 1, [False] * len(p)
    for start in range(len(p)):
        length, i = 0, start
        while not seen[i]:
            seen[i] = True
            i, length = p[i], length + 1
        if length:
            order = lcm(order, length)
    return order


def group_fingerprint(gens, degree):
    """(order, centre order, derived-subgroup order, element-order histogram)
    of the group the permutations generate.  The derived subgroup is the
    normal closure of the commutators of the generators: its generating set
    grows by the conjugates that fall outside its span until none do."""
    group = close_group(gens, degree)
    centre = sum(all(compose(z, s) == compose(s, z) for s in gens) for z in group)
    sub = list({compose(compose(invert(a), invert(b)), compose(a, b)) for a in gens for b in gens})
    while True:
        derived = close_group(sub, degree)
        outside = {compose(compose(invert(g), h), g) for g in gens for h in sub} - derived
        if not outside:
            break
        sub += outside
    return len(group), centre, len(derived), dict(Counter(map(element_order, group)))


def pgammal_2_9():
    """PGammaL(2, 9) on the 10 points of P^1(F_9), F_9 = F_3[i] with i^2 = -1
    and None for infinity: z + 1, (1 + i) z (1 + i has order 8), -1/z and
    the Frobenius z^3."""
    field = [(a, b) for a in range(3) for b in range(3)]  # a + b i
    points = [*field, None]

    def mul(x, y):
        return ((x[0] * y[0] - x[1] * y[1]) % 3, (x[0] * y[1] + x[1] * y[0]) % 3)

    def minus_inverse(z):
        if z is None:
            return (0, 0)
        return next((y for y in field if mul(z, y) == (2, 0)), None)

    maps = [
        lambda z: z and ((z[0] + 1) % 3, z[1]),
        lambda z: z and mul((1, 1), z),
        minus_inverse,
        lambda z: z and mul(mul(z, z), z),
    ]
    return [tuple(points.index(f(z)) for z in points) for f in maps]


def test_graph_groups_fingerprint_the_papers_group_names():
    # Table 1 names the groups of MI, MII and VI's Petersen block Aut(S6),
    # (S4 x S4).Z/2 and S5; VI's whole group is S5 as well.  Each closed
    # group is compared with one built here, PGammaL(2, 9) = Aut(S6) from F_9
    # arithmetic, S4 wr Z/2 on 8 points and S5 on 5, by order, centre,
    # derived-subgroup order and element-order histogram.  These invariants
    # are a fingerprint, not a proof of isomorphism: groups that share all
    # four need not be isomorphic.
    s5 = [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]
    wreath = [(1, 0, 2, 3, 4, 5, 6, 7), (1, 2, 3, 0, 4, 5, 6, 7), (4, 5, 6, 7, 0, 1, 2, 3)]
    want = {
        "MI": group_fingerprint(pgammal_2_9(), 10),
        "MII": group_fingerprint(wreath, 8),
        "S5": group_fingerprint(s5, 5),
    }
    assert want == {
        "MI": (1440, 1, 360, {1: 1, 2: 111, 3: 80, 4: 360, 5: 144, 6: 240, 8: 360, 10: 144}),
        "MII": (1152, 1, 288, {1: 1, 2: 123, 3: 80, 4: 372, 6: 336, 8: 144, 12: 96}),
        "S5": (120, 1, 60, {1: 1, 2: 25, 3: 20, 4: 30, 5: 24, 6: 20}),
    }
    vi = catalog.build_graph("VI")
    prefix, _ = catalog.CLAIMED_BLOCK_AUT["VI"]
    graphs = {"MI": catalog.build_graph("MI"), "MII": catalog.build_graph("MII"), "VI": vi,
              "VI block": vi.induced([l for l in vi.labels if l.startswith(prefix)])}
    for name, g in graphs.items():
        order, gens = rootgraph.automorphisms(g)
        got = group_fingerprint(gens, g.n)
        assert got[0] == order and got == want.get(name, want["S5"]), name


RELABELLED_FAMILIES_SCRIPT = """
import json
import random
import networkx as nx
from coblemukai import rootgraph

families = [(f"C{n}", nx.cycle_graph(n)) for n in (20, 24, 32, 40)]
families += [("Q5", nx.hypercube_graph(5)), ("dodecahedron", nx.dodecahedral_graph()),
             ("cubic30", nx.random_regular_graph(3, 30, seed=1)),
             ("8C5", nx.disjoint_union_all([nx.cycle_graph(5)] * 8))]
out = []
for name, h in families:
    h = nx.convert_node_labels_to_integers(h)
    for seed in (1, 2):
        order = list(h.nodes)
        random.Random(seed).shuffle(order)
        g = rootgraph.from_edges(name, [f"v{v}" for v in order],
                                 [(f"v{a}", f"v{b}", 1) for a, b in h.edges])
        aut_order, gens = rootgraph.automorphisms(g)
        out.append([name, g.mult, aut_order, gens])
print(json.dumps(out))
"""


def test_automorphisms_on_relabelled_vertex_transitive_families():
    # cycles, the 5-cube, the dodecahedron, a random cubic graph and eight
    # disjoint 5-cycles, each declared in two shuffled vertex orders; a base
    # that follows the declaration order takes minutes on these, so a fresh
    # process with a timeout fails the test instead of hanging the run
    src = str(Path(rootgraph.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", RELABELLED_FAMILIES_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    want = {f"C{n}": 2 * n for n in (20, 24, 32, 40)}
    want.update({"Q5": 3840, "dodecahedron": 120, "8C5": 10 ** 8 * factorial(8)})
    results = json.loads(proc.stdout)
    assert len(results) == 16
    for name, mult, order, gens in results:
        g = rootgraph.RootGraph([f"v{i}" for i in range(len(mult))], mult)
        if name == "cubic30":
            want[name] = networkx_aut_order(g)
        assert order == want[name], name
        for p in gens:
            assert sorted(p) == list(range(g.n)), name
            assert all(
                g.mult[i][j] == g.mult[p[i]][p[j]] for i in range(g.n) for j in range(g.n)
            ), name


def brute_lex_greedy(g):
    """(order, generators) by definition: the whole group in lex order, each
    element taken when the group the earlier picks generate misses it."""
    elements = sorted(networkx_automorphisms(g))
    group = {elements[0]}  # the identity
    gens = []
    for p in elements:
        if p in group:
            continue
        gens.append(p)
        stack = list(group)
        while stack:
            x = stack.pop()
            for s in gens:
                y = tuple(s[i] for i in x)
                if y not in group:
                    group.add(y)
                    stack.append(y)
    assert len(group) == len(elements)
    return len(elements), gens


def test_automorphism_generators_match_lex_greedy_oracle():
    rng = random.Random(22)
    graphs = []
    for _ in range(80):
        n = rng.randint(3, 10)
        p_edge = rng.uniform(0.2, 0.8)
        edges = [(a, b, rng.choice([1, 1, 2, 3]))
                 for a, b in combinations(range(n), 2) if rng.random() < p_edge]
        graphs.append(shuffled_graph(rng, n, edges))

    def cycle(k, at=0):
        return [(at + i, at + (i + 1) % k, 1) for i in range(k)]

    named = [
        (10, cycle(5) + [(i, 5 + i, 1) for i in range(5)]
         + [(5 + i, 5 + (i + 2) % 5, 1) for i in range(5)]),  # Petersen
        (8, cycle(8)),
        (5, [(a, b, 1) for a, b in combinations(range(5), 2)]),
        (8, [(a, b, 1) for a, b in combinations(range(8), 2) if bin(a ^ b).count("1") == 1]),  # Q3
        (6, [(a, b, 1) for a in range(3) for b in range(3, 6)]),
        (9, cycle(3) + cycle(3, 3) + cycle(3, 6)),
    ]
    graphs += [shuffled_graph(rng, n, edges) for n, edges in named]
    vi = catalog.build_graph("VI")
    graphs.append(vi.induced([l for l in vi.labels if l.startswith("e:")]))
    nontrivial = 0
    for i, g in enumerate(graphs):
        want = brute_lex_greedy(g)
        assert rootgraph.automorphisms(g) == want, i
        nontrivial += want[0] > 1
    assert nontrivial >= 30


def sympy_inertia(m):
    """(positive, negative, zero) eigenvalue counts from the characteristic
    polynomial: it is real-rooted for a symmetric matrix, so Descartes' rule
    of signs counts its positive and negative roots exactly."""
    import sympy

    # the domain-matrix charpoly that Matrix.charpoly rests on, about 5x
    # faster on 40 x 40; leading coefficient first
    coeffs = sympy.Matrix(m).to_DM().charpoly()
    zero = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        zero += 1

    def sign_changes(cs):
        signs = [c > 0 for c in cs if c != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    degree = len(coeffs) - 1
    flipped = [c * (-1) ** (degree - k) for k, c in enumerate(coeffs)]  # p(-x)
    return (sign_changes(coeffs), sign_changes(flipped), zero)


def random_symmetric(rng, n, lo=-4, hi=4, zero_diagonal=False):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i == j and zero_diagonal:
                continue
            m[i][j] = m[j][i] = rng.randint(lo, hi)
    return m


def test_rank_signature_matches_sympy_inertia():
    rng = random.Random(2024)
    for trial in range(150):
        n = rng.randint(1, 7)
        m = random_symmetric(rng, n, zero_diagonal=trial % 3 == 0)
        assert exact.rank_signature(m) == sympy_inertia(m), m


def test_rank_signature_matches_sympy_inertia_on_singular_congruences():
    # B^T D B with fewer rows than columns is singular, and a zero-diagonal D
    # sends the elimination through the off-diagonal fold
    rng = random.Random(5)
    for trial in range(60):
        n = rng.randint(2, 7)
        k = rng.randint(1, n - 1)
        d = random_symmetric(rng, k, zero_diagonal=trial % 2 == 0)
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        m = exact.matmul(exact.matmul(exact.transpose(b), d), b)
        assert exact.rank_signature(m) == sympy_inertia(m), m


def test_rank_signature_fold_path_examples():
    # hyperbolic planes and their sums have an all-zero diagonal
    h = [[0, 1], [1, 0]]
    assert exact.rank_signature(h) == sympy_inertia(h) == (1, 1, 0)
    hh = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 3], [0, 0, 3, 0]]
    assert exact.rank_signature(hh) == sympy_inertia(hh) == (2, 2, 0)
    z = [[0, 2, 0], [2, 0, 0], [0, 0, 0]]
    assert exact.rank_signature(z) == sympy_inertia(z) == (1, 1, 1)


def random_integer_matrix(rng, rows, cols):
    """Entries in -6..6, or a product through an inner dimension below both
    sides, so that singular and highly divisible matrices come up often."""
    if rng.random() < 0.4:
        inner = rng.randint(1, max(1, min(rows, cols) - 1))
        a = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(rows)]
        b = [[2 * rng.randint(-2, 2) for _ in range(cols)] for _ in range(inner)]
        return exact.matmul(a, b)
    return [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]


def test_snf_invariant_factors_match_sympy():
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(31)
    matrices = [random_integer_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
                for _ in range(150)]
    for _ in range(60):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        # entries in {-1, 0, 1}, and a single unit last in row-major order
        matrices.append([[rng.randint(-1, 1) for _ in range(cols)] for _ in range(rows)])
        late = [[2 * rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        late[-1][-1] = rng.choice((1, -1))
        matrices.append(late)
    matrices += [[[0, 2, 4], [6, 8, -1]], [[2], [4], [-1]], [[4, 6, 2, 1]]]
    for m in matrices:
        s = smith_normal_form(Matrix(m), domain=ZZ)
        want = tuple(abs(int(s[i, i])) for i in range(min(len(m), len(m[0]))))
        assert exact.snf(m).factors == want, m


def test_det_matches_sympy():
    from sympy import Matrix

    rng = random.Random(37)
    for _ in range(150):
        n = rng.randint(1, 7)
        m = random_integer_matrix(rng, n, n)
        if rng.random() < 0.3:
            m[0][0] = 0  # send Bareiss through a swap, nearly always of a row with its column
        assert exact.det(m) == int(Matrix(m).det()), m
    assert exact.det([]) == 1 == int(Matrix([]).det())


def test_det_matches_sympy_on_sparse_and_block_matrices():
    # a 0 in the pivot column only rescales a row, or leaves it when the
    # pivot repeats: glue's K + K(-1) up to rank 18, sparse random matrices
    # and block-diagonal ones with their rows shuffled
    from sympy import Matrix

    rng = random.Random(47)
    mats = []
    for name in ("A1+A1+A1", "A3+A3", "A4", "A8", "D4", "D9", "E6", "E7", "E8"):
        g = [list(row) for row in lattice.make_named(name).gram]
        n = len(g)
        mats.append([row + [0] * n for row in g] + [[0] * n + [-x for x in row] for row in g])
    for trial in range(150):
        n = rng.randint(2, 18)
        zeros = rng.uniform(0.7, 0.95)
        m = [[rng.randint(-4, 4) if rng.random() > zeros else 0 for _ in range(n)]
             for _ in range(n)]
        if trial % 3:
            # a nonzero on a shuffled diagonal, so most are nonsingular
            for i, j in enumerate(rng.sample(range(n), n)):
                m[i][j] = rng.choice((-3, -2, -1, 1, 2, 3))
        if trial % 2:
            cut = sorted(rng.sample(range(1, n), min(n - 1, 2)))
            blocks = list(zip([0, *cut], [*cut, n]))
            m = [[x if any(a <= i < b and a <= j < b for a, b in blocks) else 0
                  for j, x in enumerate(row)] for i, row in enumerate(m)]
            rng.shuffle(m)
        mats.append(m)
    dets = [exact.det(m) for m in mats]
    assert dets == [int(Matrix(m).to_DM().det()) for m in mats]
    assert max(map(len, mats)) == 18
    assert sum(d == 0 for d in dets) >= 20 and sum(d != 0 for d in dets) >= 60
    assert sum(x == 0 for m in mats for row in m for x in row) >= 0.6 * sum(len(m) ** 2 for m in mats)


def block_sum(*blocks):
    n = sum(map(len, blocks))
    out, at = [], 0
    for b in blocks:
        out += [[0] * at + row + [0] * (n - at - len(b)) for row in b]
        at += len(b)
    return out


def replay_moves(m, moves):
    """C M C^T for the column moves of ``_eliminate``, replayed on the rows
    and the columns of M: a swap (k, i) swaps both, a fold (k, i) adds row i
    to row k and then column i to column k."""
    c = [list(row) for row in m]
    for k, i, fold in moves:
        if fold:
            c[k] = [x + y for x, y in zip(c[k], c[i])]
            for row in c:
                row[k] += row[i]
        else:
            c[k], c[i] = c[i], c[k]
            for row in c:
                row[k], row[i] = row[i], row[k]
    return c


def check_pivot_path(m, moves, refused=False):
    """det, d*M^-1 and d against sympy, and ``moves`` against
    ``_eliminate``: the minors ``inverse`` returns are the leading principal
    minors of C M C^T, rebuilt by replaying the moves, and the last is det M.
    ``refused`` says that a fold's column step was refused, which leaves a
    row added to another with no move to replay; then only D_n = det M is
    compared."""
    from sympy import Matrix

    a = [list(row) for row in m]
    assert exact._eliminate(a) == moves, m
    solved = exact.inverse(m)
    assert solved.det == solved.minors[-1] == exact.det(m) == int(Matrix(m).det()) != 0, m
    check_inverse(m)
    p = Matrix(replay_moves(m, moves))
    want = tuple(int(p[:k, :k].det()) for k in range(1, len(m) + 1))
    assert (solved.minors != want) == refused, m


def test_lazy_rescale_matches_sympy_on_stale_rows():
    # _eliminate leaves a row with a 0 in the pivot column as it is and
    # brings it up to date only when it is eliminated, becomes the pivot, is
    # folded or is the last row; a zero pivot takes a later nonzero diagonal
    # entry with its row and column (a symmetric swap) and only without one
    # folds a later row into it
    from sympy import Matrix

    e8 = [list(r) for r in lattice.make_named("E8").gram]
    e8_sum = block_sum(e8, [[-x for x in r] for r in e8])
    paths = [
        # rows 2 and 3 sit out steps 0 and 1; row 3, stale, is swapped in
        # with its column as pivot 2, and row 2, swapped down, is a stale
        # row eliminated at step 2
        ([[2, 1, 0, 0], [1, 3, 0, 1], [0, 0, 0, 5], [0, 0, 7, 1]], [(2, 3, False)]),
        # rows 1 and 3, both eliminated at step 0, change places at step 1;
        # at step 2 the stale row 2 and row 1 change places, and so do their
        # scales, and row 2 is eliminated with its own
        ([[2, 0, 3, 1], [2, 0, 3, 0], [0, 3, 0, 0], [3, 3, 0, 0]], [(1, 3, False), (2, 3, False)]),
        # the last row sits out every step but the first
        ([[3, 1, 0, 2], [1, 2, 0, 0], [0, 1, 4, 0], [6, 2, 0, 1]], []),
        # rows 1 and 4, both stale, change places at step 1; row 1 is then
        # eliminated at step 2, by a pivot it never saw
        ([[2, 0, 1, 0, 0], [0, 0, 3, 1, 0], [0, 4, 0, 0, 1], [1, 1, 0, 0, 3], [0, 0, 0, 2, 1]],
         [(1, 4, False), (2, 3, False)]),
        # block-diagonal: the second block's rows, and in inverse their
        # identity part, sit out the first block's steps
        (block_sum(*[[list(r) for r in lattice.make_named(s).gram] for s in ("A2", "A2(-1)")]), []),
        (block_sum(*[[list(r) for r in lattice.make_named(s).gram] for s in ("D4", "A1", "E6(-1)")]),
         []),
        # both kinds: the stale row 4 is swapped in with its column at step
        # 2, and then the [[0, 5], [7, 0]] block has no nonzero diagonal
        # entry left, so the stale row 4 is brought up to date and folded in
        # at step 3, its column step made: the pivot is 7 + 5
        (block_sum([[2, 1], [1, 3]], [[0, 5], [7, 0]], [[-4]]), [(2, 4, False), (3, 4, True)]),
        # a fold: no diagonal entry is nonzero; the pivot is 2 * 1, 7 + 5
        ([[0, 1], [1, 0]], [(0, 1, True)]),
        ([[0, 5], [7, 0]], [(0, 1, True)]),
        (e8_sum, []),
    ]
    for m, moves in paths:
        check_pivot_path(m, moves)
    # the column step would empty the pivot again: row 1 is added to row 0
    # and no column moves.  E8 + E8(-1) with its rows rotated by 8: such a
    # fold at each even step up to 14, a symmetric swap with a stale row at
    # each odd one
    check_pivot_path([[0, 1], [-1, 0]], [], refused=True)
    check_pivot_path(e8_sum[8:] + e8_sum[:8], [(1, 8, False), (3, 9, False), (5, 11, False),
                     (7, 13, False), (9, 10, False), (11, 12, False), (13, 14, False)], refused=True)
    singular = [
        # rows 1 and 2 are stale until they become pivots, and the last row,
        # 0 after step 0, is stale to the end
        [[2, 0, 0, 1], [0, 3, 0, 0], [0, 0, 5, 0], [4, 0, 0, 2]],
        # the stale row 2 is swapped in with its column at step 1, and the
        # row it displaces is all that is left below an empty pivot column
        [[2, 1, 0], [4, 2, 0], [0, 0, 3]],
        # stale rows with a zero diagonal are all that is left below an
        # empty pivot column
        [[2, 1, 0, 0], [4, 2, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        block_sum([[2, 1], [1, 3]], [[1, 2], [2, 4]], [[5]]),
    ]
    for m in singular:
        assert exact.det(m) == 0 == Matrix(m).det(), m
        with pytest.raises(ValueError, match="singular"):
            exact.inverse(m)
    assert exact._eliminate([]) == []
    assert exact.det([]) == 1
    assert exact.inverse([]) == ([], 1)


def test_lazy_rescale_matches_sympy_on_sparse_block_inverses():
    # [M | I] for sparse block-diagonal M with shuffled rows: the stale rows'
    # identity part is brought up to date with the rest of the row
    rng = random.Random(59)
    inverted = 0
    for trial in range(60):
        blocks = []
        for _ in range(rng.randint(2, 4)):
            b = rng.randint(1, 4)
            block = [[rng.randint(-3, 3) if rng.random() < 0.4 else 0 for _ in range(b)]
                     for _ in range(b)]
            for i, j in enumerate(rng.sample(range(b), b)):
                block[i][j] = rng.choice((-2, -1, 1, 2, 3))  # mostly nonsingular
            blocks.append(block)
        m = block_sum(*blocks)
        rng.shuffle(m)
        if exact.det(m):
            check_inverse(m)
            inverted += 1
        else:
            with pytest.raises(ValueError, match="singular"):
                exact.inverse(m)
    assert 30 <= inverted < 60, inverted


def hnf_reduce(basis, v):
    """v less the integer combination of the HNF rows that clears each pivot
    in turn; 0 exactly when v lies in their span."""
    v = list(v)
    for row in basis:
        c = next(i for i, x in enumerate(row) if x)
        q = v[c] // row[c]
        v = [a - q * b for a, b in zip(v, row)]
    return v


def test_hnf_rows_on_rows_with_long_zero_heads(monkeypatch):
    # rows that vanish on long heads meet at late pivots, and leading entries
    # that do not divide each other take the xgcd combination on the tails
    rng = random.Random(61)
    combined = []
    truthful = exact.xgcd
    monkeypatch.setattr(exact, "xgcd", lambda a, b: combined.append((a, b)) or truthful(a, b))
    for trial in range(60):
        width = rng.randint(4, 16)
        rows = []
        for _ in range(rng.randint(1, 12)):
            head = rng.randint(width // 2, width) if rng.random() < 0.8 else rng.randint(0, width)
            rows.append([0] * head + [rng.randint(-30, 30) if rng.random() < 0.6 else 0
                                      for _ in range(width - head)])
        basis = exact.hnf_rows(rows)
        pivots = [next(i for i, x in enumerate(row) if x) for row in basis]
        assert pivots == sorted(set(pivots)), basis
        for k, c in enumerate(pivots):
            assert basis[k][c] > 0 and all(0 <= basis[i][c] < basis[k][c] for i in range(k))
        assert not any(x for row in rows for x in hnf_reduce(basis, row)), rows
        # the rows lie in the span of the basis, and both have the same rank
        # and the same index in their saturation, so the spans are equal
        want = [f for f in exact.snf(rows).factors if f]
        assert [f for f in exact.snf(basis).factors if f] == want and len(basis) == len(want)
        for _ in range(3):
            assert exact.hnf_rows(rng.sample(rows, len(rows))) == basis, rows
    assert len(combined) >= 100, len(combined)


def check_inverse(m):
    from math import lcm

    from sympy import Matrix

    inv, d = exact.inverse(m)
    want = Matrix(m).inv()
    assert d == lcm(*(int(x.q) for x in want)), m
    assert Matrix(inv) == d * want, m


def pivot_minor(gram):
    """M = G[S,S] on the pivot columns S of the HNF of G, as radical_quotient takes it."""
    pivots = [next(i for i, x in enumerate(row) if x) for row in exact.hnf_rows(gram)]
    return [[gram[i][j] for j in pivots] for i in pivots]


def test_inverse_matches_sympy():
    from sympy import Matrix

    rng = random.Random(41)
    sizes = set()
    for trial in range(60):
        n = rng.randint(1, 18)
        m = random_symmetric(rng, n, zero_diagonal=trial % 4 == 0)
        if Matrix(m).to_DM().rank() < n:
            continue
        sizes.add(n)
        check_inverse(m)
    assert max(sizes) >= 16, sorted(sizes)
    for name in ("I", "II", "VI", "MI", "MII"):
        check_inverse(pivot_minor(catalog.build_graph(name).gram_rows()))
    for trial in range(30):
        source = catalog.build_graph(("VI", "MI", "MII")[trial % 3])
        g = source.induced(rng.sample(source.labels, rng.randint(2, source.n)))
        check_inverse(pivot_minor(g.gram_rows()))


def test_inverse_with_row_swaps_matches_sympy():
    # non-symmetric matrices whose elimination must swap: a zero corner, or a
    # zero b x b leading block; nearly every one swaps a row with its column,
    # so the rows of the solution have to be put back in order
    from sympy import Matrix

    rng = random.Random(43)
    swapped = singular = 0
    for trial in range(120):
        n = rng.randint(2, 10)
        m = random_integer_matrix(rng, n, n)
        if trial % 2:
            m[0][0] = 0
        else:
            b = rng.randint(1, n - 1)
            for i in range(b):
                m[i][:b] = [0] * b
        if any(m[i][0] for i in range(n)):
            swapped += 1
        if Matrix(m).to_DM().rank() < n:
            singular += 1
            with pytest.raises(ValueError, match="singular"):
                exact.inverse(m)
        else:
            check_inverse(m)
    assert swapped >= 100 and 10 <= singular <= 110, (swapped, singular)
    # singular only after a swap: column 0 needs row 1, column 2 is dependent
    for m in ([[0, 1, 1], [1, 0, 0], [1, 0, 0]], [[0, 2, 4], [3, 1, 2], [0, 1, 2]]):
        with pytest.raises(ValueError, match="singular"):
            exact.inverse(m)


def test_det_and_inverse_match_sympy_after_a_fold():
    # m[i][i] = 0 and m[i][0] * m[0][i] = 0 below the first pivot, so step 0
    # leaves the diagonal below it all zero: step 1 finds no diagonal entry
    # to swap in with its column and folds a later row into row 1, whose
    # moves have determinant 1 and leave det's sign as it is
    from sympy import Matrix

    rng = random.Random(39)
    folded = singular = 0
    for trial in range(60):
        n = rng.randint(3, 8)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        m[0][0] = rng.choice((-3, -2, -1, 1, 2, 3))
        for i in range(1, n):
            m[i][i] = 0
            if rng.random() < 0.5:
                m[0][i] = 0
            else:
                m[i][0] = 0
        folded += any(fold for *_, fold in exact._eliminate([list(row) for row in m]))
        want = int(Matrix(m).det())
        assert exact.det(m) == want, m
        if want:
            check_inverse(m)
        else:
            singular += 1
            with pytest.raises(ValueError, match="singular"):
                exact.inverse(m)
    assert folded >= 30 and singular < 30, (folded, singular)


def test_inverse_refuses_singular_and_non_square_matrices():
    for m in ([[0]], [[1, 2], [2, 4]], [[2, 1, 3], [1, 0, 1], [3, 1, 4]]):
        with pytest.raises(ValueError, match="singular"):
            exact.inverse(m)
    with pytest.raises(ValueError, match="square"):
        exact.inverse([[1, 2]])
    assert exact.inverse([]) == ([], 1)


# --- the affine certificate of parabolic components ---------------------------------

def shuffled_graph(rng, n, edges):
    """A root graph on n vertices with the edges (a, b, mult), its vertices
    numbered in a random order."""
    perm = list(range(n))
    rng.shuffle(perm)
    mult = [[0] * n for _ in range(n)]
    for a, b, m in edges:
        mult[perm[a]][perm[b]] = mult[perm[b]][perm[a]] = m
    return rootgraph.RootGraph([f"v{i}" for i in range(n)], mult)


def star_edges(legs):
    """A tree with one vertex 0 and legs of the given lengths hung off it."""
    edges, nxt = [], 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt, 1))
            prev, nxt = nxt, nxt + 1
    return 1 + sum(legs), edges


def certified(g):
    return rootgraph._affine_certificate(g.mult, list(range(g.n)), g._masks[2])


def test_affine_certificate_matches_inertia():
    rng = random.Random(73)
    affine, other = [(2, [(0, 1, 2)])], []
    for k in range(2, 18):  # A~k: a (k+1)-cycle
        affine.append((k + 1, [(i, (i + 1) % (k + 1), 1) for i in range(k + 1)]))
    for k in range(4, 18):  # D~k: a path of k-3 vertices with two leaves at each end
        path = [(i, i + 1, 1) for i in range(k - 4)]
        forks = [(0, k - 3, 1), (0, k - 2, 1), (k - 4, k - 1, 1), (k - 4, k, 1)]
        affine.append((k + 1, path + forks))
    for legs in [(2, 2, 2), (1, 3, 3), (1, 2, 5)]:  # E~6, E~7, E~8
        affine.append(star_edges(legs))
    for n in range(1, 10):  # A_n
        other.append((n, [(i, i + 1, 1) for i in range(n - 1)]))
    for k in range(1, 8):  # D_n
        other.append(star_edges((1, 1, k)))
    # E6, E7, E8; T_{2,3,7}, which is E~8 with its long leg one longer; E~8
    # with a leaf hung off the branch vertex, off a leg or doubling a leg's end
    for legs in [(1, 2, 2), (1, 2, 3), (1, 2, 4), (1, 2, 6), (1, 1, 2, 5)]:
        other.append(star_edges(legs))
    n, e8 = star_edges((1, 2, 5))
    other += [(n + 1, e8 + [(v, n, 1)]) for v in (1, 2, 4, 8)]
    other.append((n, [(a, b, 2 if b == n - 1 else m) for a, b, m in e8]))
    for (n, edges), want in [(x, True) for x in affine] + [(x, False) for x in other]:
        g = shuffled_graph(rng, n, edges)
        is_affine = exact.rank_signature(g.gram_rows()) == (0, n - 1, 1)
        assert is_affine == want, (n, edges)
        assert certified(g) == want, (n, edges)
    assert not certified(rootgraph.RootGraph(["a", "b", "c"], [[0, 2, 0], [2, 0, 0], [0, 0, 0]]))


# --- discriminant forms -----------------------------------------------------------

def coset_span(lat, gens):
    """Subgroup of L*/L generated by dual lifts, listed as lifts reduced mod 1."""
    zero = (Fraction(0),) * lat.rank
    gens = [tuple(Fraction(x) % 1 for x in g) for g in gens]
    seen = {zero}
    frontier = [zero]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((a + b) % 1 for a, b in zip(cur, g))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def brute_span_det(g, max_isotropic=16):
    """det of the span over the largest isotropic subgroup of its
    discriminant form, found by a DFS over every chain of isotropic
    subgroups; None when L*/L has more than max_isotropic such classes."""
    span = rootgraph.span_lattice(g)
    d = lattice.det(span)
    disc = lattice.discriminant_group(span)
    elems = sorted(coset_span(span, disc.generator_lifts))
    iso = [x for x in elems if any(x) and lattice.disc_q(span, x) == 0]
    if len(iso) > max_isotropic:
        return None
    best = 1

    def dfs(start, gens, order):
        nonlocal best
        best = max(best, order)
        for i in range(start, len(iso)):
            cand = gens + [iso[i]]
            sub = coset_span(span, cand)
            if len(sub) > order and all(lattice.disc_q(span, h) == 0 for h in sub):
                dfs(i + 1, cand, len(sub))

    dfs(0, [], 1)
    return d // (best * best)


def test_span_det_matches_isotropic_chain_oracle():
    rng = random.Random(606)
    compared = saturated = 0
    for name in ("VI", "MI", "MII"):
        source = catalog.build_graph(name)
        for trial in range(12):
            size = rng.randint(10, min(30, source.n))
            g = source.induced(rng.sample(source.labels, size))
            brute = brute_span_det(g)
            if brute is None:
                continue
            d = lattice.det(rootgraph.span_lattice(g))
            assert rootgraph.span_det(g) == brute, (name, trial)
            compared += 1
            saturated += brute != d
    assert compared >= 30 and saturated >= 10, (compared, saturated)



def inverse_columns(gram):
    """The columns of G^-1 by sympy, as Fractions: in basis coordinates they
    generate L*, so ``coset_span`` of them lists L*/L with no code of ``lattice``."""
    from sympy import Matrix

    inv = Matrix([list(row) for row in gram]).to_DM().to_field().inv().to_Matrix()
    return [tuple(Fraction(int(x.p), int(x.q)) for x in inv.col(j)) for j in range(len(gram))]


def multi_step_saturations():
    """(name, graph, saturated span det) for graphs whose saturation glues
    two or more isotropic classes.  For A1^k, -2 times the identity, q(x) is
    wt(x)/2 mod 2 on F_2^k, so a maximal H is a largest doubly-even code, of
    dimension 4, 5 and 8 at k = 8, 12 and 16.  The K_{m,m} dets are pinned.
    D4+D4, which lies in E8 at index 4, and two graphs of the graph-search
    workload are small enough for brute_span_det, which gives their det
    (None here)."""
    def complete_bipartite(m):
        a, b = [f"a{i}" for i in range(m)], [f"b{i}" for i in range(m)]
        return rootgraph.from_edges(f"K{m},{m}", a + b, [(x, y, 1) for x in a for y in b])

    out = [(f"A1^{k}", rootgraph.from_edges("A1^k", [f"v{i}" for i in range(k)], []), want)
           for k, want in ((8, 1), (12, 4), (16, 1))]
    out += [(f"K{m},{m}", complete_bipartite(m), want) for m, want in ((4, -3), (5, -21), (6, -8))]
    stars = [(f"{c}0", f"{c}{i}", 1) for c in "xy" for i in (1, 2, 3)]
    out.append(("D4+D4", rootgraph.from_edges("D4+D4", [f"{c}{i}" for c in "xy" for i in range(4)],
                                              stars), None))
    pool = graph_workload_inputs(1)
    out += [(f"seed-1 pool graph {i}", pool[i], None) for i in (60, 69)]
    return out


def test_multi_step_saturations_are_even_anisotropic_and_of_index_h_squared():
    from sympy import Matrix

    for name, g, want in multi_step_saturations():
        span = rootgraph.span_lattice(g)
        sat = lattice.saturate(span)
        out = sat.gram
        assert all(row[i] % 2 == 0 for i, row in enumerate(out)), name
        d, d_out = (int(Matrix([list(row) for row in m]).to_DM().det()) for m in (span.gram, out))
        assert d % d_out == 0, name
        h = isqrt(d // d_out)  # |H|, so d / d_out must be a square above 1
        assert d == d_out * h * h and h > 1, name
        classes = coset_span(sat, inverse_columns(out))
        assert len(classes) == abs(d_out), name
        values = [sum(v[i] * x * v[j] for i, row in enumerate(out) for j, x in enumerate(row))
                  for v in classes if any(v)]
        assert all(q % 2 for q in values), name
        if want is None:
            want = brute_span_det(g)
        assert rootgraph.span_det(g) == d_out == want, name



# --- span lattices at the span's rank ------------------------------------------------

def snf_congruence_span(g):
    """The span as it was built from the n x n SNF of the graph Gram: the
    congruence by the right transform splits off the radical, and the
    leading r x r block is the Gram matrix of the span."""
    gram = g.gram_rows()
    res = exact.snf(gram)
    r = sum(1 for d in res.factors if d)
    m = exact.matmul(exact.matmul(exact.transpose(res.right), gram), res.right)
    assert all(m[i][j] == 0 for i in range(g.n) for j in range(g.n) if i >= r or j >= r)
    return lattice.make_lattice([row[:r] for row in m[:r]])


def saturated_det(span):
    """span_det's answer for a given span lattice, or its refusal."""
    d = lattice.det(span)
    if abs(d) == 1:
        return d
    try:
        return lattice.det(lattice.saturate(span))
    except ValueError as exc:
        return str(exc)


def check_radical_quotient(gram):
    """Rank, |det| and inertia of Z^n/rad against sympy; rank_signature(G)
    against sympy_inertia(G)."""
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form

    quotient = lattice.radical_quotient(gram)
    m = Matrix(gram)
    rank = m.to_DM().rank()  # Matrix.rank's answer, exactly and faster
    assert quotient.rank == rank, gram
    snf = smith_normal_form(m, domain=ZZ)
    want = prod(abs(int(snf[i, i])) for i in range(min(m.shape)) if snf[i, i])
    # the torsion of coker G is the discriminant group of Z^n/rad
    assert abs(lattice.det(quotient)) == want, gram
    pos, neg, zero = exact.rank_signature(gram)
    assert (pos, neg, zero) == sympy_inertia(gram), gram
    # the quotient is built through the elimination that rank_signature runs
    assert sympy_inertia(quotient.gram) == (pos, neg, 0), gram
    return quotient


def check_span(g):
    old = snf_congruence_span(g)
    assert lattice.det(check_radical_quotient(g.gram_rows())) == lattice.det(old), g
    # span_check reads the inertia off the span; it must be that of G, whose
    # rank_signature check_radical_quotient has just compared with sympy_inertia
    pos, neg, _ = exact.rank_signature(g.gram_rows())
    assert rootgraph.span_check(g) == (pos + neg, (pos, neg)), g
    try:
        got = rootgraph.span_det(g)
    except ValueError as exc:
        got = str(exc)
    assert got == saturated_det(old), g


def test_radical_quotient_on_catalog_graphs():
    for name in ("I", "II", "VI", "MI", "MII"):
        check_span(catalog.build_graph(name))


def test_radical_quotient_on_random_induced_subgraphs():
    rng = random.Random(88)
    sizes = set()
    for trial in range(150):
        source = catalog.build_graph(("VI", "MI", "MII")[trial % 3])
        size = rng.randint(2, source.n)
        sizes.add(size)
        check_span(source.induced(rng.sample(source.labels, size)))
    assert min(sizes) <= 4 and max(sizes) >= 36, sorted(sizes)


def test_radical_quotient_skips_dependent_leading_vertices():
    # an A~1 double edge listed first: the second row is minus the first,
    # so the pivot columns skip vertex 1; then an A~1 pair before E7
    a1_tilde = rootgraph.RootGraph(["a", "b"], [[0, 2], [2, 0]])
    check_span(a1_tilde)
    assert rootgraph.span_lattice(a1_tilde).gram == ((-2,),)
    e7 = [("e", i, i + 1) for i in range(5)] + [("e", 2, 6)]
    g = rootgraph.from_edges(
        "A~1+E7", ["a", "b"] + [f"e{i}" for i in range(7)],
        [("a", "b", 2)] + [(f"e{i}", f"e{j}", 1) for _, i, j in e7],
    )
    check_span(g)
    assert rootgraph.span_check(g)[0] == 8 and abs(lattice.det(rootgraph.span_lattice(g))) == 4
    # two vertices with the same row, first and second, and a zero row
    same = [[2, 2, 1, 0], [2, 2, 1, 0], [1, 1, -2, 0], [0, 0, 0, 0]]
    q = check_radical_quotient(same)
    assert q.rank == 2 and lattice.det(q) == -5
    # a hyperbolic plane (zero diagonal) whose first row is repeated, then tripled
    check_radical_quotient([[0, 0, 1, 0], [0, 0, 1, 0], [1, 1, 0, 3], [0, 0, 3, 0]])


def test_radical_quotient_on_random_degenerate_grams():
    # B^T D B with fewer rows than columns has a radical; a zero diagonal in D
    # leaves the first rows without a diagonal pivot
    rng = random.Random(17)
    for trial in range(60):
        n = rng.randint(1, 8)
        k = rng.randint(1, n)
        d = random_symmetric(rng, k, zero_diagonal=trial % 2 == 0)
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        m = exact.matmul(exact.matmul(exact.transpose(b), d), b)
        check_radical_quotient(m)


def check_split_identities(g):
    """What the readers of a graph's radical split rely on, against sympy: the
    span Gram B M^-1 B^T has det (prod p_i)^2 / det M for the HNF pivots p_i,
    and the inertia of M (Sylvester), which the split reads off its minors
    by Jacobi's rule; span_det, which builds that Gram only to saturate,
    agrees with det(saturate(.)) of the built span."""
    from sympy import Matrix

    fresh = g.induced(g.labels)  # a graph of its own, whose split nothing has read
    split, span = g._span, rootgraph.span_lattice(g)
    pivots = prod(row[j] for row, j in zip(split.hnf, split.pivots))
    det_m = int(Matrix(split.minor).to_DM().det())
    det_span = int(Matrix(span.gram).to_DM().det())
    assert det_span * det_m == pivots**2 and split.det == det_span, g
    assert sympy_inertia(split.minor) == sympy_inertia(span.gram), g
    assert len(split.minors) == len(split.minor) and split.minors[-1] == split.minor_det == det_m, g
    assert (*split.inertia, 0) == sympy_inertia(split.minor), g
    assert rootgraph.span_det(fresh) == lattice.det(lattice.saturate(span)), g
    return det_span


def test_radical_split_identities_match_sympy():
    dets = [check_split_identities(catalog.build_graph(name))
            for name in ("I", "II", "VI", "MI", "MII")]
    assert dets == [-4, -4, -1, -4, -1]
    rng = random.Random(36)
    for trial in range(40):
        source = catalog.build_graph(("VI", "MI", "MII")[trial % 3])
        size = rng.randint(16, min(32, source.n))
        dets.append(check_split_identities(source.induced(rng.sample(source.labels, size))))
    # both readers of the det: spans that are their own saturation, and others
    assert sum(abs(d) == 1 for d in dets) >= 10 and sum(abs(d) > 1 for d in dets) >= 10, dets


def test_radical_split_identities_after_a_fold():
    # the double-edge star with k >= 2 leaves: after the centre's pivot every
    # leaf's diagonal entry is 0, so the elimination of M folds the second
    # leaf's row and column into the first at step 1
    dets = []
    for k in range(2, 9):
        leaves = [f"l{i}" for i in range(1, k + 1)]
        g = rootgraph.from_edges(f"star{k}", ["c", *leaves], [("c", leaf, 2) for leaf in leaves])
        assert (1, 2, True) in exact._eliminate([list(row) for row in g._span.minor]), g
        dets.append(check_split_identities(g))
        assert rootgraph.span_check(g) == (k + 1, (1, k)), g
    assert dets == [8, -32, 96, -256, 640, -1536, 3584]


def test_radical_quotient_of_zero_gram():
    assert lattice.radical_quotient([[0, 0], [0, 0]]).rank == 0
    with pytest.raises(ValueError, match="zero rank"):
        rootgraph.span_lattice(rootgraph.RootGraph([], []))
    with pytest.raises(ValueError, match="symmetric"):
        lattice.radical_quotient([[0, 1], [0, 0]])

def glued_form_oracle(lat, glue):
    """Sorted q over H-perp/H, listing all of L*/L."""
    disc = lattice.discriminant_group(lat)
    order = len(coset_span(lat, glue))
    perp = [
        x
        for x in coset_span(lat, disc.generator_lifts)
        if all(lattice.gram_matrix(lat, [x], [h])[0][0] % 1 == 0 for h in glue)
    ]
    # q is constant on the cosets of the isotropic H inside H-perp
    return sorted(lattice.disc_q(lat, x) for x in perp)[::order]


def disc_form_values(lat):
    """Sorted q over L*/L."""
    disc = lattice.discriminant_group(lat)
    return sorted(lattice.disc_q(lat, x) for x in coset_span(lat, disc.generator_lifts))


def test_overlattice_form_matches_enumeration():
    rng = random.Random(81)
    names = ["A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "D4", "D5", "D6", "E6", "E7",
             "A1+A1", "A1+A1+A1", "A2+A2", "D4+A1"]
    checked = 0
    for trial in range(40):
        k = lattice.make_named(rng.choice(names))
        lat = lattice.direct_sum(k, lattice.rescale(k, -1))
        if abs(lattice.det(lat)) > 81:
            continue
        lifts = lattice.discriminant_group(k).generator_lifts
        pick = rng.sample(range(len(lifts)), rng.randint(1, len(lifts)))
        # twice a lift still glues diagonally, and spans a smaller H
        scales = rng.choices([1, 2], k=len(pick))
        glue = [tuple(m * c for c in lifts[i]) * 2 for i, m in zip(pick, scales)]
        over = lattice.overlattice(lat, glue)
        assert disc_form_values(over) == glued_form_oracle(lat, glue), trial
        checked += 1
    assert checked >= 20


def test_overlattice_form_checked_at_order_4096(monkeypatch):
    # A1^6 + A1(-1)^6 sat at the old enumeration cap.  Gluing the first three
    # diagonal pairs turns each into U and leaves the form of A1^3 + A1(-1)^3.
    a1 = lattice.make_named("A1+A1+A1")
    k = lattice.direct_sum(a1, a1)
    lat = lattice.direct_sum(k, lattice.rescale(k, -1))
    assert lattice.det(lat) == 4096
    half = Fraction(1, 2)
    glue = [tuple(half if j in (i, i + 6) else 0 for j in range(12)) for i in range(3)]
    over = lattice.overlattice(lat, glue)
    assert lattice.det(over) * 8**2 == 4096
    rest = lattice.direct_sum(a1, lattice.rescale(a1, -1))
    assert disc_form_values(over) == disc_form_values(rest)
    # a discriminant group of L' that misses a generator misses part of H-perp
    truthful = lattice._discriminant_group

    def short(l, d):
        group = truthful(l, d)
        if l.gram != over.gram:
            return group
        return lattice.DiscriminantGroup(group.invariant_factors[1:], group.rows[1:], group.den)

    monkeypatch.setattr(lattice, "_discriminant_group", short)
    with pytest.raises(AssertionError, match="H-perp/H"):
        lattice.overlattice(lat, glue)


def q_by_definition(lat, x):
    """<v, v>/2 mod 2 for the 0/1 vector v with bitmask x, summed entry by entry."""
    bits = [i for i in range(lat.rank) if x >> i & 1]
    return sum(lat.gram[i][j] for i in bits for j in bits) // 2 % 2


def check_mod2_subgroup(lat, gens):
    """mod2_subgroup against its definition; returns the number of anisotropic classes."""
    span, anisotropic = lattice.mod2_subgroup(lat, gens)
    want = {0}
    for h in gens:
        mask = sum(c << i for i, c in enumerate(h))
        want |= {x ^ mask for x in want}
    assert span == sorted(want), gens
    assert anisotropic == [x for x in span if q_by_definition(lat, x)], gens
    return len(anisotropic)


def repeated_and_dependent(rng, gens, n):
    """gens with a repeat, a sum of two of them and the zero vector, shuffled."""
    a, b = rng.choice(gens), rng.choice(gens)
    out = gens + [a, tuple((x + y) % 2 for x, y in zip(a, b)), (0,) * n]
    rng.shuffle(out)
    return out


def test_mod2_subgroup_matches_definition_on_ade_sums():
    # q is spread from the generators by the mod-2 law, so it is checked here
    # against <x, x>/2 on every class, the law itself not used
    rng = random.Random(33)
    names = ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "D6", "E6", "E7", "E8"]
    specs = ["E6+E6", "A1+A1+A1+A1", "D4+D4", "E8+A2+A2"]
    while len(specs) < 12:
        spec = "+".join(rng.choices(names, k=rng.randint(1, 3)))
        if lattice.make_named(spec).rank <= 12:
            specs.append(spec)
    anisotropic = 0
    for spec in specs:
        lat = lattice.make_named(spec)
        n = lat.rank
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        anisotropic += check_mod2_subgroup(lat, units)
        picked = rng.sample(units, rng.randint(1, n))
        anisotropic += check_mod2_subgroup(lat, repeated_and_dependent(rng, picked, n))
        vectors = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(rng.randint(1, 6))]
        anisotropic += check_mod2_subgroup(lat, repeated_and_dependent(rng, vectors, n))
    assert anisotropic > 0


def test_mod2_subgroup_matches_definition_on_catalog_r_invariants():
    # each row's H is isotropic; H with seeded vectors added is not
    rng = random.Random(34)
    anisotropic = 0
    for key in catalog.TABLE1_KEYS:
        rinv = catalog.q_kernel_invariant(catalog.table1(key).k_spec)
        n = rinv.k.rank
        assert check_mod2_subgroup(rinv.k, list(rinv.h_gens)) == 0, key
        extra = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(3)]
        anisotropic += check_mod2_subgroup(rinv.k, repeated_and_dependent(rng, [*rinv.h_gens, *extra], n))
    assert anisotropic > 0


PERFBENCH = Path(lattice.__file__).resolve().parent.parent.parent / "perfbench"


def perfbench_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def graph_workload_inputs(seed):
    """The graphs of the benchmark's graph-search workload at ``seed``."""
    inputs = perfbench_inputs()
    return [rootgraph.parse_graph_text(text) for text in inputs.graph_inputs(seed, inputs.load_sources())]


def glue_workload_inputs(seed):
    """(K, the generator indices to glue) of the benchmark's glue workload at ``seed``."""
    inputs = perfbench_inputs()
    out = []
    for item in inputs.glue_inputs(seed):
        k = lattice.make_lattice(item["gram"])
        m = len(lattice.discriminant_group(k).invariant_factors)
        out.append((k, inputs.chosen_generators(item["pick"], m)))
    return out


def check_basis_gram(lat, basis, den):
    """_basis_gram against B G B^T / den^2; True when that is integral."""
    g = exact.matmul(exact.matmul(basis, [list(r) for r in lat.gram]), exact.transpose(basis))
    if any(x % (den * den) for row in g for x in row):
        with pytest.raises(ValueError, match="non-integral pairing in constructed basis"):
            lattice._basis_gram(lat, basis, den)
        return False
    assert lattice._basis_gram(lat, basis, den) == [[x // (den * den) for x in row] for row in g]
    return True


def test_basis_gram_matches_matmul_on_every_adjoined_basis(monkeypatch):
    # every basis _adjoin builds while gluing the glue workload's K + K(-1),
    # taking half overlattices along their q-kernels and saturating
    seen = []
    truthful = lattice._adjoin

    def recording(lat, rows, den):
        basis, index = truthful(lat, rows, den)
        seen.append((lat, [list(r) for r in basis], den))
        return basis, index

    monkeypatch.setattr(lattice, "_adjoin", recording)
    for k, chosen in glue_workload_inputs(1):
        lifts = lattice.discriminant_group(k).generator_lifts
        lattice.overlattice(lattice.direct_sum(k, lattice.rescale(k, -1)),
                            [tuple(lifts[i]) * 2 for i in chosen])
        try:
            lattice.half_overlattice(k, lattice.mod2_nullity(k)[2])
        except ValueError as exc:
            assert str(exc) == "non-integral pairing in constructed basis"
    for spec in ("A1+A1+A1+A1", "A1+A1+A1+A1+A1+A1+A1+A1", "D4+D4", "A3+A3", "A7+A1", "E7+A1",
                 "A2+A2+A2", "D6+A1+A1"):
        lattice.saturate(lattice.make_named(spec))
    monkeypatch.undo()
    integral = [check_basis_gram(*args) for args in seen]
    assert integral.count(True) >= 40 and integral.count(False) >= 10
    # bases with no row, some rows and every row other than den*e_i all occur
    units = [sum(row == [den * (i == j) for j in range(len(row))] for i, row in enumerate(basis))
             for _, basis, den in seen]
    assert {min(u, 1) + (u == len(b)) for u, (_, b, _) in zip(units, seen)} == {0, 1, 2}


@pytest.mark.parametrize("gram, basis, den, want", [
    # e0 + e1/2 has its pivot at den, and a tail only whole-row detection sees
    ([[2, 0], [0, 4]], [[2, 1], [0, 2]], 2, [[3, 2], [2, 4]]),
    ([[2, 0, 0], [0, 2, 0], [0, 0, 4]], [[2, 0, 1], [0, 2, 0], [0, 0, 2]], 2,
     [[3, 0, 2], [0, 2, 0], [2, 0, 4]]),
    # den*e_i in another row than i, as a basis not in Hermite order gives it
    ([[2, 1], [1, 4]], [[0, 2], [2, 0]], 2, [[4, 1], [1, 2]]),
    ([[2, 0], [0, 4]], [[2, 1], [0, 2]], 1, [[12, 8], [8, 16]]),
], ids=["pivot-den-tail", "pivot-den-tail-3", "unit-row-out-of-place", "den-1"])
def test_basis_gram_on_hand_built_bases(gram, basis, den, want):
    lat = lattice.make_lattice(gram)
    assert check_basis_gram(lat, basis, den)
    assert lattice._basis_gram(lat, basis, den) == want
