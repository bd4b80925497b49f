import functools
import hashlib
import importlib.util
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
import sympy

import coblemukai
from coblemukai import rootgraph
from coblemukai.rootgraph import (
    DiagramType,
    connected_parabolics,
    from_edges,
    maximal_parabolics,
    parse_graph_text,
    span_check,
    span_det,
    vinberg_check,
)


def path_graph(n, name="P"):
    labels = [f"v{i}" for i in range(n)]
    return from_edges(name, labels, [(f"v{i}", f"v{i+1}", 1) for i in range(n - 1)])


def cycle_graph(n, name="C"):
    labels = [f"v{i}" for i in range(n)]
    edges = [(f"v{i}", f"v{(i+1) % n}", 1) for i in range(n)]
    return from_edges(name, labels, edges)


def types_of(g):
    """The one classifier's type of each connected affine subdiagram of g."""
    return dict(connected_parabolics(g))


def test_classify_triangle_is_affine_a2():
    g = cycle_graph(3)
    assert types_of(g) == {g.labels: DiagramType("A", 2, True)}


def test_classify_double_edge_pair_is_affine_a1():
    g = from_edges("G", ["a", "b"], [("a", "b", 2)])
    assert types_of(g) == {("a", "b"): DiagramType("A", 1, True)}


def test_classify_path4_is_a4():
    # P4 is definite, and a fifth vertex joined to both its ends closes it
    # to A~4, which the shape step finds only from the two ends of a path A4
    g = path_graph(4)
    assert types_of(g) == {}
    edges = [(f"v{i}", f"v{i+1}", 1) for i in range(3)] + [("v3", "w", 1), ("w", "v0", 1)]
    closed = from_edges("C", ["v0", "v1", "v2", "v3", "w"], edges)
    assert types_of(closed) == {closed.labels: DiagramType("A", 4, True)}


def test_classify_d_and_e_shapes():
    # D5: path of 3 with two leaves at one end
    g = from_edges(
        "D5",
        ["a", "b", "c", "d", "e"],
        [("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("c", "e", 1)],
    )
    assert types_of(g) == {}
    # affine D4: star
    star = from_edges(
        "D4~",
        ["c", "l1", "l2", "l3", "l4"],
        [("c", f"l{i}", 1) for i in range(1, 5)],
    )
    assert types_of(star) == {star.labels: DiagramType("D", 4, True)}
    # affine E6: three legs of length 2
    e6t = from_edges(
        "E6~",
        ["c", "a1", "a2", "b1", "b2", "c1", "c2"],
        [("c", "a1", 1), ("a1", "a2", 1), ("c", "b1", 1), ("b1", "b2", 1), ("c", "c1", 1), ("c1", "c2", 1)],
    )
    assert types_of(e6t) == {tuple(sorted(e6t.labels)): DiagramType("E", 6, True)}


def test_classify_affine_dn_two_forks():
    g = from_edges(
        "D6~",
        ["l1", "l2", "b1", "m", "b2", "r1", "r2"],
        [("l1", "b1", 1), ("l2", "b1", 1), ("b1", "m", 1), ("m", "b2", 1), ("b2", "r1", 1), ("b2", "r2", 1)],
    )
    assert types_of(g) == {tuple(sorted(g.labels)): DiagramType("D", 6, True)}


def test_classify_none_cases():
    # triple edge: outside Vinberg's hypothesis, refused
    g = from_edges("G", ["a", "b"], [("a", "b", 3)])
    with pytest.raises(ValueError, match="multiplicity >= 3"):
        connected_parabolics(g)
    # double edge attached to a third vertex: only the A~1 pair
    g2 = from_edges("G", ["a", "b", "c"], [("a", "b", 2), ("b", "c", 1)])
    assert types_of(g2) == {("a", "b"): DiagramType("A", 1, True)}
    # cycle with a chord: only its two triangles
    g3 = from_edges(
        "G",
        ["a", "b", "c", "d"],
        [("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("d", "a", 1), ("a", "c", 1)],
    )
    a2 = DiagramType("A", 2, True)
    assert types_of(g3) == {("a", "b", "c"): a2, ("a", "c", "d"): a2}


def test_classify_rejects_disconnected():
    # two A~1 pairs apart are two components, never one affine set
    g = from_edges("G", ["a", "b", "c", "d", "e"], [("a", "b", 2), ("d", "e", 2)])
    a1 = DiagramType("A", 1, True)
    assert types_of(g) == {("a", "b"): a1, ("d", "e"): a1}


def test_classify_relabel_invariance():
    rng = random.Random(41)
    g = cycle_graph(5)
    for _ in range(10):
        perm = list(range(5))
        rng.shuffle(perm)
        labels = [f"w{i}" for i in range(5)]
        mult = [[g.mult[perm[i]][perm[j]] for j in range(5)] for i in range(5)]
        h = rootgraph.RootGraph(labels, mult)
        assert types_of(h) == {tuple(labels): DiagramType("A", 4, True)}


def test_connected_parabolics_on_definite_graph_is_empty():
    assert connected_parabolics(path_graph(2)) == []
    assert connected_parabolics(path_graph(5)) == []


@pytest.mark.parametrize(
    "mult, fault",
    [
        ([[1, 0], [0, 0]], "multiplicity matrix must have zero diagonal"),
        ([[0, 1], [2, 0]], "multiplicity matrix must be symmetric"),
        ([[0, -1], [-1, 0]], "edge multiplicities must be non-negative"),
        # two faults: a row-major scan names the one it meets first, and at
        # one entry asymmetry before sign
        ([[0, -1, 0], [-1, 0, 0], [0, 0, 5]], "edge multiplicities must be non-negative"),
        ([[1, -1], [-1, 0]], "multiplicity matrix must have zero diagonal"),
        ([[0, 1], [0, -1]], "multiplicity matrix must be symmetric"),
        ([[0, 2, -1], [2, 0, 0], [1, 0, 0]], "multiplicity matrix must be symmetric"),
        ([[0, 0, 0], [0, 0, -1], [0, -1, 3]], "edge multiplicities must be non-negative"),
        ([[0, 1], [1]], "multiplicity matrix shape does not match vertex count"),
    ],
)
def test_root_graph_names_the_first_fault(mult, fault):
    with pytest.raises(ValueError) as err:
        rootgraph.RootGraph([f"v{i}" for i in range(len(mult))], mult)
    assert str(err.value) == fault


def test_from_edges_refuses_unknown_label():
    with pytest.raises(ValueError) as err:
        from_edges("G", ["a"], [("a", "b", 1)])
    assert str(err.value) == "unknown vertex label: 'b'"


@pytest.mark.parametrize("m", [0, -1])
def test_from_edges_refuses_multiplicity_below_one(m):
    # a multiplicity of 0 once read as no edge, so a second a -- b passed
    with pytest.raises(ValueError) as err:
        from_edges("G", ["a", "b"], [("a", "b", m), ("a", "b", 1)])
    assert str(err.value) == "edge 'a' -- 'b': multiplicity must be >= 1"


def test_non_integral_multiplicities_are_refused():
    # int() once truncated these: 2.7 read as a double edge, 1.9 as a single one
    with pytest.raises(ValueError) as err:
        from_edges("G", ["a", "b"], [("a", "b", 2.7)])
    assert str(err.value) == "edge 'a' -- 'b': multiplicity must be an integer"
    with pytest.raises(ValueError) as err:
        rootgraph.RootGraph(["a", "b"], [[0, 1.9], [1.9, 0]])
    assert str(err.value) == "edge multiplicities must be integers"


def test_numpy_integer_multiplicities_are_read():
    import numpy as np

    g = rootgraph.RootGraph(["a", "b"], np.array([[0, 2], [2, 0]]))
    assert g == from_edges("G", ["a", "b"], [("a", "b", np.int64(2))])
    assert g.mult == ((0, 2), (2, 0)) and type(g.mult[0][1]) is int


def test_non_integral_kinds_are_refused():
    # int() once truncated these: -1.5 and -1.7 read as roots
    for build in (lambda: rootgraph.RootGraph(["a"], [[0]], kinds=[-1.5]),
                  lambda: from_edges("G", [("a", -1.7)], []),
                  lambda: rootgraph.RootGraph(["a"], [[0]], kinds=["-1"])):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == "vertex kinds must be -2 (curve) or -1 (root)"


def test_numpy_integer_kinds_are_read():
    import numpy as np

    g = rootgraph.RootGraph(["a", "b"], [[0, 1], [1, 0]], kinds=np.array([-1, -2]))
    assert g.kinds == (-1, -2) and all(type(k) is int for k in g.kinds)
    assert g == from_edges("G", [("a", np.int8(-1)), ("b", np.int64(-2))], [("a", "b", 1)])


def test_connected_parabolics_simple():
    g = cycle_graph(4)
    cps = connected_parabolics(g)
    assert cps == [(("v0", "v1", "v2", "v3"), DiagramType("A", 3, True))]
    pair = from_edges("G", ["a", "b"], [("a", "b", 2)])
    assert connected_parabolics(pair) == [(("a", "b"), DiagramType("A", 1, True))]


def test_connected_parabolics_rejects_triple_edges():
    g = from_edges("G", ["a", "b"], [("a", "b", 3)])
    with pytest.raises(ValueError):
        connected_parabolics(g)


def test_affine_certificate_refuses_masks_that_disagree_with_mult():
    # a=b, c=d: two A~1 pairs.  Masks that add the edge b--c make the four a
    # path on which delta = 1 solves 2 delta_a = sum_b m_ab delta_b, so a
    # certificate that trusted them for connectivity would pass the set
    g = from_edges("G", ["a", "b", "c", "d"], [("a", "b", 2), ("c", "d", 2)])
    both = list(g._masks[2])
    assert not rootgraph._affine_certificate(g.mult, [0, 1, 2, 3], both)
    both[1] |= 1 << 2
    both[2] |= 1 << 1
    assert not rootgraph._affine_certificate(g.mult, [0, 1, 2, 3], both)
    # the honest masks still certify each pair
    assert rootgraph._affine_certificate(g.mult, [0, 1], g._masks[2])
    assert rootgraph._affine_certificate(g.mult, [2, 3], g._masks[2])


def test_connected_parabolics_finds_affine_trees():
    # affine D4 star plus a far-away double pair
    g = from_edges(
        "G",
        ["c", "l1", "l2", "l3", "l4", "x", "y"],
        [("c", f"l{i}", 1) for i in range(1, 5)] + [("x", "y", 2)],
    )
    cps = connected_parabolics(g)
    types = sorted(str(t) for _, t in cps)
    assert types == ["A~1", "D~4"]


def test_connected_parabolics_null_vector_positive():
    g = cycle_graph(6)
    for labels, typ in connected_parabolics(g):
        idx = [g.index(l) for l in labels]
        gram = [[-2 if a == b else g.mult[a][b] for b in idx] for a in idx]
        basis = sympy.Matrix(gram).nullspace()
        assert len(basis) == 1
        v = list(basis[0])
        sign = 1 if v[0] > 0 else -1
        assert all(sign * c > 0 for c in v)


def test_maximal_parabolics_packing():
    # two orthogonal double pairs: {A~1, A~1} is the unique rank-2 packing
    g = from_edges("G", ["a", "b", "c", "d"], [("a", "b", 2), ("c", "d", 2)])
    packs = maximal_parabolics(g, 2)
    assert len(packs) == 1
    assert packs[0].type_multiset() == "A~1+A~1"
    assert len(maximal_parabolics(g, 1)) == 2  # each pair alone
    assert maximal_parabolics(path_graph(3), 4) == []


def test_maximal_parabolics_requires_orthogonality():
    # two double pairs joined by a single edge cannot pack together
    g = from_edges(
        "G",
        ["a", "b", "c", "d"],
        [("a", "b", 2), ("c", "d", 2), ("b", "c", 1)],
    )
    assert maximal_parabolics(g, 2) == []


def test_negative_target_rank_is_rejected():
    one = from_edges("G", ["a"], [])
    with pytest.raises(ValueError, match="target rank"):
        maximal_parabolics(one, -1)
    with pytest.raises(ValueError, match="target rank"):
        vinberg_check(one)  # span rank 1 gives target -1
    assert vinberg_check(path_graph(2)).target_rank == 0


def test_connected_parabolics_negative_max_rank_is_rejected():
    with pytest.raises(ValueError, match="target rank"):
        connected_parabolics(cycle_graph(3), max_rank=-1)
    assert connected_parabolics(cycle_graph(3), max_rank=0) == []


def test_one_parabolic_search_per_graph(monkeypatch):
    from coblemukai import catalog

    calls = []
    search = rootgraph._parabolic_search
    monkeypatch.setattr(rootgraph, "_parabolic_search", lambda g: calls.append(g) or search(g))
    g = catalog.build_graph("MI")
    rootgraph.vinberg_check(g, 8)
    rootgraph.maximal_parabolics(g, 8)
    low = connected_parabolics(g, 3)
    assert len(calls) == 1
    assert low and all(t.rank <= 3 for _, t in low)
    low.clear()  # a fresh list: the graph's search is unchanged
    assert connected_parabolics(g, 3)


def test_vinberg_vacuous_pass():
    rep = vinberg_check(path_graph(3), target_rank=1)
    assert rep.passed and rep.witnesses == () and rep.maximal == ()


def test_vinberg_failure_witness():
    # A~1 alone cannot reach rank 2
    g = from_edges("G", ["a", "b"], [("a", "b", 2)])
    rep = vinberg_check(g, target_rank=2)
    assert not rep.passed
    assert rep.witnesses == ((("a", "b"), DiagramType("A", 1, True)),)


def test_span_check_examples():
    one = from_edges("G", ["a"], [])
    assert span_check(one) == (1, (0, 1))
    assert span_check(cycle_graph(3)) == (2, (0, 2))


def test_span_det_examples():
    one = from_edges("G", ["a"], [])
    assert span_det(one) == -2
    a2 = path_graph(2)
    assert span_det(a2) == 3
    # affine pair: rank-1 span generated by a (-2)-root, det -2
    pair = from_edges("G", ["a", "b"], [("a", "b", 2)])
    assert span_det(pair) == -2


def chains(*lengths):
    """Disjoint A_k chains, one of each given length."""
    labels, edges = [], []
    for c, k in enumerate(lengths):
        chain = [f"c{c}v{i}" for i in range(k)]
        labels += chain
        edges += [(a, b, 1) for a, b in zip(chain, chain[1:])]
    return from_edges("chains", labels, edges)


@pytest.mark.parametrize("lengths", [(1,) * 8, (2,) * 4, (4, 4), (8,)])
def test_span_det_saturates_to_e8(lengths):
    # E8 is an even unimodular overlattice of 8A1, 4A2, 2A4 and A8
    assert span_det(chains(*lengths)) == 1


def test_automorphisms_k4_double_edges():
    labels = ["a", "b", "c", "d"]
    edges = [(x, y, 2) for i, x in enumerate(labels) for y in labels[i + 1 :]]
    g = from_edges("K4", labels, edges)
    order, gens = rootgraph.automorphisms(g)
    assert order == 24
    for p in gens:
        for i in range(4):
            for j in range(4):
                assert g.mult[i][j] == g.mult[p[i]][p[j]]


def test_automorphisms_cycle():
    order, _ = rootgraph.automorphisms(cycle_graph(5))
    assert order == 10


def test_stabilizer_chain_member_generator_changes_nothing():
    # the dihedral group of the hexagon, order 12; r^2 s is already in it
    r, s = (1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1)
    a = rootgraph._StabilizerChain(6, [r, s])
    b = rootgraph._StabilizerChain(6, [r, s, tuple(r[r[s[i]]] for i in range(6))])
    assert a.order() == b.order() == 12
    assert [a.trans, a.inverse, a.points, a.gens] == [b.trans, b.inverse, b.points, b.gens]


def group_closure(gens, n):
    """Every element of the group that ``gens`` generate on 0..n-1."""
    closure = {tuple(range(n))}
    frontier = list(closure)
    while frontier:
        x = frontier.pop()
        for q in gens:
            y = tuple(x[q[i]] for i in range(n))
            if y not in closure:
                closure.add(y)
                frontier.append(y)
    return closure


class ResidueCountingChain(rootgraph._StabilizerChain):
    """A chain that counts the residues its Schreier sifts adjoin."""

    def __init__(self, n, gens):
        self.residues = 0
        super().__init__(n, gens)

    def _sift_schreier_generators(self, k):
        j = super()._sift_schreier_generators(k)
        self.residues += j is not None
        return j


@pytest.mark.parametrize("n, gens, order", [
    (4, [(1, 2, 3, 0), (1, 0, 2, 3)], 24),  # S4 from (0 1 2 3) and (0 1)
    (5, [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)], 60),  # A5 from (0 1 2 3 4) and (0 1 2)
], ids=["S4", "A5"])
def test_stabilizer_chain_adjoins_residues_of_a_non_strong_generating_set(n, gens, order):
    # neither set generates the stabilizer of 0, so the chain is complete
    # only once Schreier generators that sift to a residue are adjoined
    chain = ResidueCountingChain(n, gens)
    assert chain.order() == len(group_closure(gens, n)) == order
    assert chain.residues > 0


def relabelled(name, stride):
    """The catalog graph with vertex i taken from vertex stride * i mod n."""
    from coblemukai import catalog

    g = catalog.build_graph(name)
    order = [stride * i % g.n for i in range(g.n)]
    return rootgraph.RootGraph([g.labels[i] for i in order],
                               [[g.mult[i][j] for j in order] for i in order])


@pytest.mark.parametrize("name, stride, order, residues", [
    ("MI", 7, 1440, 2), ("MII", 7, 1152, 1), ("VI", 3, 120, 1),
])
def test_automorphisms_of_relabelled_graphs_adjoin_residues(monkeypatch, name, stride, order, residues):
    # in these vertex orders the search's strong generators are not strong
    # for the base 0..n-1, so the chain must adjoin residues to reach the order
    chains = []

    def recording(n, gens):
        chains.append(ResidueCountingChain(n, gens))
        return chains[-1]

    monkeypatch.setattr(rootgraph, "_StabilizerChain", recording)
    g = relabelled(name, stride)
    got, gens = rootgraph.automorphisms(g)
    assert got == order == len(group_closure(gens, g.n))
    assert [c.residues for c in chains] == [residues]
    for p in gens:
        assert all(g.mult[i][j] == g.mult[p[i]][p[j]] for i in range(g.n) for j in range(g.n))


def test_automorphisms_generators_close_to_order():
    g = cycle_graph(6)
    order, gens = rootgraph.automorphisms(g)
    assert order == 12
    closure = {tuple(range(g.n))}
    frontier = list(closure)
    while frontier:
        x = frontier.pop()
        for q in gens:
            y = tuple(x[q[i]] for i in range(g.n))
            if y not in closure:
                closure.add(y)
                frontier.append(y)
    assert len(closure) == order


def test_automorphisms_deep_search_needs_no_recursion():
    # two copies of a seeded random graph on 200 vertices: color refinement
    # cannot tell the copies apart, so finding the swap walks all 400 levels
    rng = random.Random(3)
    m = 200
    half = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < 0.1:
                half[i][j] = half[j][i] = 1
    mult = [row + [0] * m for row in half] + [[0] * m + row for row in half]
    g = rootgraph.RootGraph([f"v{i}" for i in range(2 * m)], mult)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        order, gens = rootgraph.automorphisms(g)
    finally:
        sys.setrecursionlimit(limit)
    swap = tuple(range(m, 2 * m)) + tuple(range(m))
    assert (order, gens) == (2, [swap])


PERFBENCH = Path(coblemukai.__file__).resolve().parent.parent.parent / "perfbench"


def benchmark_pool(seed):
    """The graphs of the benchmark's graph-search workload at ``seed``."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return [parse_graph_text(text) for text in inputs.graph_inputs(seed, inputs.load_sources())]


@functools.cache
def pinned_aut_graphs():
    """The catalog graphs I, II, VI, MI and MII, VI's Petersen block, and the
    seed-1 and seed-1000 graph-search pools: 166 graphs."""
    from coblemukai import catalog

    graphs = [catalog.build_graph(x) for x in ("I", "II", "VI", "MI", "MII")]
    vi = graphs[2]
    graphs.append(vi.induced([l for l in vi.labels if l.startswith("e:")]))
    return graphs + benchmark_pool(1) + benchmark_pool(1000)


def sha256_json(obj):
    return hashlib.sha256(json.dumps(obj).encode("utf-8")).hexdigest()


def test_automorphisms_pinned_on_catalog_and_benchmark_pools():
    # sha256 of the (order, generators) of every pinned graph, generators as
    # label lists as `graph aut --json` prints them, from the search that
    # tried each base vertex's whole color class
    graphs = pinned_aut_graphs()
    assert len(graphs) == 166
    out = []
    for g in graphs:
        order, gens = rootgraph.automorphisms(g)
        out.append([order, [[g.labels[i] for i in p] for p in gens]])
    assert [order for order, _ in out[:6]] == [4, 48, 120, 1440, 1152, 120]
    assert sha256_json(out) == "f3c514523189457f7a808aba515f0449f78e85b52992a32195731315958988dd"


def test_results_do_not_depend_on_vertex_numbering():
    # the built-ins and ten seeded graphs of the seed-1 pool, each renumbered
    # by a seeded shuffle of its labels: the span, the group order and the
    # parabolic type counts must not move
    from collections import Counter

    from coblemukai import catalog

    rng = random.Random(7)
    graphs = [catalog.build_graph(x) for x in ("I", "II", "VI", "MI", "MII")]
    graphs += rng.sample(benchmark_pool(1), 10)

    def invariants(g):
        span = span_check(g)
        return (span, span_det(g), rootgraph.automorphisms(g)[0],
                Counter(t for _, t in connected_parabolics(g)),
                Counter(p.type_multiset() for p in maximal_parabolics(g, span[0] - 2)))

    for k, g in enumerate(graphs):
        labels = list(g.labels)
        rng.shuffle(labels)
        h = g.induced(labels)
        assert h.labels != g.labels
        assert invariants(h) == invariants(g), k


def test_assignment_order_keeps_its_base():
    # sha256 of the search base of every pinned graph, as the base rule
    # computed it with a Counter of class sizes per placement
    bases = []
    for g in pinned_aut_graphs():
        colors = rootgraph._refine_colors(g)
        classes = [[v for v in range(g.n) if colors[v] == c] for c in dict.fromkeys(colors)]
        base, cells = rootgraph._assignment_order(g, classes)
        assert sorted(base) == list(range(g.n))
        assert all(b == cell[0] and cell == sorted(cell) for b, cell in zip(base, cells))
        bases.append(base)
    assert bases[2] == [0, 10, 7, 17, 3, 6, 13, 16, 1, 2, 4, 5, 8, 9, 11, 12, 14, 15, 18, 19]
    assert sha256_json(bases) == "b5010ba4e243c82ab155986cccf63474525502eee949dabbc2af288bd565774c"


def splitting_assignment_order(g, cells):
    """The search base and its cells with every cell split again at each
    placement, one-vertex cells too: the reference for ``_assignment_order``."""
    base, placed = [], []
    while cells:
        cell = min(cells, key=lambda c: (len(c), c[0]))
        v = cell[0]
        base.append(v)
        placed.append(cell)
        split = []
        for c in cells:
            parts = {}
            for w in c:
                if w != v:
                    parts.setdefault(g.mult[v][w], []).append(w)
            split += parts.values()
        cells = split
    return base, placed


class PlacesEachVertexOnce:
    """A graph seen through ``mult`` alone, which may be read once per vertex:
    an order that placed a vertex twice would never end, and raises instead."""

    def __init__(self, g):
        self.n, self.reads, self._mult = g.n, 0, g.mult

    @property
    def mult(self):
        self.reads += 1
        if self.reads > self.n:
            raise AssertionError(f"more than {self.n} placements")
        return self._mult


def test_assignment_order_matches_splitting_every_cell():
    # the catalog graphs, VI's Petersen block and the seed-1 and seed-1000
    # pools: one-vertex cells pass through, and base and cells stay the same
    for g in pinned_aut_graphs():
        colors = rootgraph._refine_colors(g)
        classes = [[v for v in range(g.n) if colors[v] == c] for c in dict.fromkeys(colors)]
        want = splitting_assignment_order(g, [list(c) for c in classes])
        assert rootgraph._assignment_order(PlacesEachVertexOnce(g), classes) == want, g.name


def test_type_multisets_match_naming_every_packing():
    from coblemukai import catalog

    graphs = [catalog.build_graph(x) for x in ("I", "II", "VI", "MI", "MII")]
    graphs += random.Random(44).sample(benchmark_pool(1), 20)
    distinct = 0
    for g in graphs:
        packs = maximal_parabolics(g, span_check(g)[0] - 2)
        want = tuple(sorted({p.type_multiset() for p in packs}))
        assert rootgraph.type_multisets(packs) == want, g.name
        distinct += len(want)
    assert distinct > len(graphs)


def test_type_multisets_name_each_type_tuple_once(monkeypatch):
    # 532 packings over the five catalog graphs carry 26 tuples of types
    from coblemukai import catalog

    named = []
    name = rootgraph.ParabolicSubdiagram.type_multiset
    monkeypatch.setattr(rootgraph.ParabolicSubdiagram, "type_multiset",
                        lambda self: named.append(self) or name(self))
    packings = tuples = 0
    for x in ("I", "II", "VI", "MI", "MII"):
        rep = vinberg_check(catalog.build_graph(x))
        packings += len(rep.maximal)
        tuples += len({tuple(t for _, t in p.components) for p in rep.maximal})
        assert rep.type_multisets() == tuple(sorted({name(p) for p in rep.maximal})), x
    assert (packings, tuples, len(named)) == (532, 26, 26)


def test_automorphism_search_tries_only_base_cells(monkeypatch):
    # at level k only b_k's cell can hold an image of b_k; trying its whole
    # color class made 20, 57, 171, 944 and 774 calls, with the same ones
    # finding an automorphism
    from coblemukai import catalog

    search, calls = rootgraph._find_automorphism, []

    def counted(*args):
        p = search(*args)
        calls.append(p is not None)
        return p

    monkeypatch.setattr(rootgraph, "_find_automorphism", counted)
    counts = {}
    for name in ("I", "II", "VI", "MI", "MII"):
        calls.clear()
        rootgraph.automorphisms(catalog.build_graph(name))
        counts[name] = (len(calls), sum(calls))
    assert counts == {"I": (2, 2), "II": (6, 5), "VI": (4, 4), "MI": (6, 6), "MII": (6, 6)}


NO_SCHREIER_SCRIPT = """
import sys
from coblemukai import catalog, rootgraph
if __debug__:
    sys.exit("not running under -O")


# a chain that takes every Schreier generator for 1 and sifts none
class NoSchreierChain(rootgraph._StabilizerChain):
    def _sift_schreier_generators(self, k):
        return None


rootgraph._StabilizerChain = NoSchreierChain
# vertex i of a copy is the graph's vertex stride * i mod n
for name, stride in (("MI", 1), ("MII", 1), ("VI", 1), ("MI", 7), ("MII", 7), ("VI", 3)):
    g = catalog.build_graph(name)
    order = [stride * i % g.n for i in range(g.n)]
    g = rootgraph.RootGraph([g.labels[i] for i in order],
                            [[g.mult[i][j] for j in order] for i in order])
    try:
        print(name, stride, "order", rootgraph.automorphisms(g)[0])
    except AssertionError as exc:
        print(name, stride, "raised:", exc)
"""


def test_schreier_shortcut_self_check_survives_python_O():
    # In the catalog's own vertex order the search's strong generators are a
    # strong generating set for the base 0..n-1 already, so a chain that
    # sifts no Schreier generator still has the right order there.  In the
    # renumbered copies it is too small, and the order check must say so.
    src = str(Path(coblemukai.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", NO_SCHREIER_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "MI 1 order 1440",
        "MII 1 order 1152",
        "VI 1 order 120",
        "MI 7 raised: automorphism generators give chain order 60, the search 1440",
        "MII 7 raised: automorphism generators give chain order 576, the search 1152",
        "VI 3 raised: automorphism generators give chain order 60, the search 120",
    ]


DEEP_PATH_SCRIPT = """
import sys
from coblemukai import rootgraph
n = 300
g = rootgraph.from_edges("P", [f"v{i}" for i in range(n)],
                         [(f"v{i}", f"v{i + 1}", 1) for i in range(n - 1)])
sys.setrecursionlimit(150)
print(rootgraph.connected_parabolics(g))
"""


def test_parabolic_search_needs_no_recursion():
    # every definite set on a 300-vertex path grows from its root one
    # vertex at a time, far deeper than the recursion limit of 150; a fresh
    # process keeps the test runner's own frames out of that limit
    src = str(Path(rootgraph.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", DEEP_PATH_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def double_edges(n):
    """n disjoint double edges: C(n, k) packings of rank n - k, one A~1 each."""
    labels = [f"v{i}" for i in range(2 * n)]
    return from_edges("D", labels, [(f"v{2 * i}", f"v{2 * i + 1}", 2) for i in range(n)])


DEEP_PACKING_SCRIPT = """
import sys
from coblemukai import rootgraph
n = 300
g = rootgraph.from_edges("D", [f"v{i}" for i in range(2 * n)],
                         [(f"v{2 * i}", f"v{2 * i + 1}", 2) for i in range(n)])
sys.setrecursionlimit(150)
packs = [p.components for p in rootgraph.maximal_parabolics(g, n - 1)]
print(len(packs), {len(p) for p in packs}, packs == sorted(packs))
"""


def test_packing_needs_no_recursion():
    # each of the 300 packings of rank 299 chooses 299 components one at a
    # time, far deeper than the recursion limit of 150
    src = str(Path(rootgraph.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", DEEP_PACKING_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "300 {299} True\n"


def test_packing_refuses_above_component_bound():
    # 1,100 double edges have C(1100, 2) packings of rank 1098 with 1098
    # components each; the bound stops the listing after 955 of them
    assert rootgraph.PACKING_MAX_COMPONENTS == 1 << 20
    with pytest.raises(ValueError) as exc:
        maximal_parabolics(double_edges(1100), 1098)
    assert str(exc.value) == (
        "the packings of rank 1098 list more than PACKING_MAX_COMPONENTS = 1048576 components"
    )


def test_packing_refusal_builds_no_dense_matrix():
    text = "graph D\n" + "".join(f"vertex v{i}\n" for i in range(2200))
    text += "".join(f"edge v{2 * i} v{2 * i + 1} 2\n" for i in range(1100))
    for g in (double_edges(1100), parse_graph_text(text)):
        with pytest.raises(ValueError, match="PACKING_MAX_COMPONENTS = 1048576"):
            maximal_parabolics(g, 1098)
        assert "mult" not in vars(g)


def test_searches_and_unimodular_span_build_no_dense_matrix(monkeypatch):
    # the colour refinement reads the edge map, and span_det reads the
    # radical split's det: a graph with a discrete refinement and a
    # unimodular span builds neither the dense mult nor the span Gram
    from coblemukai import catalog, lattice

    rng = random.Random(36)
    for trial in range(60):
        source = catalog.build_graph(("VI", "MI", "MII")[trial % 3])
        size = rng.randint(16, min(32, source.n))
        probe = source.induced(rng.sample(source.labels, size))
        if abs(probe._span.det) == 1 and len(set(rootgraph._refine_colors(probe))) == probe.n:
            break
    else:
        pytest.fail("no seeded subgraph with a discrete refinement and a unimodular span")
    built = []
    quotient = lattice.RadicalSplit.quotient.func  # hooked as a plain property: each build counts
    monkeypatch.setattr(lattice.RadicalSplit, "quotient",
                        property(lambda split: built.append(split) or quotient(split)))
    g = probe.induced(probe.labels)
    rank, _ = span_check(g)
    vinberg_check(g, rank - 2)
    assert rootgraph.automorphisms(g) == (1, [])
    assert abs(span_det(g)) == 1
    assert "mult" not in vars(g) and built == []
    mi = catalog.build_graph("MI")  # a span of det -4, saturated to det -1
    assert span_det(mi) == -1 and mi._span.det == -4 and built == [mi._span]


def test_split_det_is_checked_exact(monkeypatch):
    # det M must divide the squared product of the HNF pivots
    from coblemukai import exact, lattice

    split = lattice.RadicalSplit(rootgraph.RootGraph(["a", "b"], [[0, 1], [1, 0]]).gram_rows())
    assert split.det == 3
    truthful = exact.inverse
    # minors (-2, 3) lie det M = 2, which does not divide 3^2
    monkeypatch.setattr(exact, "inverse", lambda m: exact.Inverse(*truthful(m), (-2, 2)))
    message = "radical split failed: det M does not divide (prod p_i)^2"
    with pytest.raises(AssertionError, match=re.escape(message)):
        lattice.RadicalSplit(rootgraph.RootGraph(["a", "b"], [[0, 1], [1, 0]]).gram_rows()).det


def test_span_check_reads_a_folded_star_without_rank_signature(monkeypatch):
    # the double-edge star c = l1, c = l2 has M = G, whose diagonal is 0 below
    # the first pivot, so the split's elimination folds l2 into l1; M's
    # inertia is read off the minors alone, with rank_signature made to raise
    from coblemukai import exact

    def refuse(m):
        raise AssertionError("rank_signature called")

    monkeypatch.setattr(exact, "rank_signature", refuse)
    g = rootgraph.from_edges("star", ["c", "l1", "l2"], [("c", "l1", 2), ("c", "l2", 2)])
    assert g._span.minor == [[-2, 2, 2], [2, -2, 0], [2, 0, -2]]
    assert g._span.minors == (-2, -8, 8) and g._span.minor_det == 8
    assert span_check(g) == (3, (1, 2))


def _tuple_signature_refine_colors(g):
    """Color refinement with (color, sorted (mult, color) pairs)
    signatures, numbered by sorted signature, until the colors repeat."""
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


def _partition(colors):
    classes = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, []).append(v)
    return sorted(classes.values())


def petersen_graph():
    labels = [f"v{i}" for i in range(10)]
    edges = [(f"v{i}", f"v{(i + 1) % 5}", 1) for i in range(5)]
    edges += [(f"v{i + 5}", f"v{(i + 2) % 5 + 5}", 1) for i in range(5)]
    edges += [(f"v{i}", f"v{i + 5}", 1) for i in range(5)]
    return from_edges("Petersen", labels, edges)


def test_refine_colors_gives_the_tuple_signature_partition():
    # _refine_colors stops as soon as the partition is discrete, the tuple
    # refinement only when a round adds no class; the partitions must agree
    from coblemukai import catalog

    sources = [catalog.build_graph(name) for name in ("I", "II", "VI", "MI", "MII")]
    graphs = sources + [cycle_graph(5), petersen_graph(), rootgraph.RootGraph([], []),
                        rootgraph.RootGraph(["v"], [[0]])]
    rng = random.Random(39)
    for trial in range(40):
        source = sources[2 + trial % 3]
        graphs.append(source.induced(rng.sample(source.labels, rng.randint(2, source.n))))
    # codes m + c without the factor n collide here and merge two classes
    collide = [[0, 2, 3, 1, 0], [2, 0, 0, 0, 3], [3, 0, 0, 0, 1], [1, 0, 0, 0, 2], [0, 3, 1, 2, 0]]
    graphs.append(rootgraph.RootGraph([f"v{i}" for i in range(5)], collide))
    rng = random.Random(12)
    for trial in range(80):
        n = rng.randint(1, 18)
        density = rng.choice((0.15, 0.3, 0.6))
        mult = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < density:
                    mult[i][j] = mult[j][i] = rng.choice((1, 2, 3, 7))
        if trial % 4 == 0:
            # two copies, so that refinement keeps classes of size two
            mult = [row + [0] * n for row in mult] + [[0] * n + row for row in mult]
        graphs.append(rootgraph.RootGraph([f"v{i}" for i in range(len(mult))], mult))
    class_counts, discrete = set(), 0
    for g in graphs:
        colors = rootgraph._refine_colors(g)
        assert all(0 <= c < max(g.n, 1) for c in colors)
        assert _partition(colors) == _partition(_tuple_signature_refine_colors(g)), g.name
        class_counts.add(len(set(colors)))
        discrete += len(set(colors)) == g.n
    assert len(class_counts) > 5
    # both exits: a discrete partition, and a stable one that is not
    assert 20 <= discrete <= len(graphs) - 20, discrete
    for g in (cycle_graph(5), petersen_graph()):
        assert set(rootgraph._refine_colors(g)) == {0}


def test_discrete_refinement_gives_the_trivial_group_without_a_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("automorphism search ran")

    # the search orders its base before it looks for any automorphism
    monkeypatch.setattr(rootgraph, "_assignment_order", no_search)
    monkeypatch.setattr(rootgraph, "_find_automorphism", no_search)
    # a -1- b -2- c: the three vertices see different multiplicities
    g = from_edges("G", ["a", "b", "c"], [("a", "b", 1), ("b", "c", 2)])
    assert len(set(rootgraph._refine_colors(g))) == g.n
    assert rootgraph.automorphisms(g) == (1, [])
    assert rootgraph.automorphisms(rootgraph.RootGraph([], [])) == (1, [])
    # the patch is live: a path of three has its swap, so the search runs
    with pytest.raises(AssertionError, match="search ran"):
        rootgraph.automorphisms(path_graph(3))


def test_export_dot():
    empty = rootgraph.RootGraph([], [], name="G")
    assert rootgraph.export_dot(empty).split() == ['graph', '"G"', "{", "}"]
    pair = from_edges("G", [("a", -2), ("b", -1)], [("a", "b", 2)])
    dot = rootgraph.export_dot(pair)
    assert dot.count('"a" -- "b";') == 2
    assert dot.count("shape=circle") == 1
    assert dot.count("shape=doublecircle") == 1


def test_export_dot_escapes_quote_and_backslash():
    g = from_edges('q"g', ['a"b', "c\\"], [('a"b', "c\\", 1)])
    assert rootgraph.export_dot(g) == (
        'graph "q\\"g" {\n'
        '  "a\\"b" [shape=circle];\n'
        '  "c\\\\" [shape=circle];\n'
        '  "a\\"b" -- "c\\\\";\n'
        "}\n"
    )


@pytest.mark.parametrize("token", ["A0", "D3", "E5", "E9"])  # affine ones: test_cli
def test_parse_diagram_rejects_index_out_of_range(token):
    with pytest.raises(ValueError, match="no diagram"):
        rootgraph.parse_diagram(token)


@pytest.mark.parametrize("token", ["A4~", "~A4", "A~~4", "A~4~", "~", "A~", "D~~6"])
def test_parse_diagram_rejects_misplaced_tilde(token):
    with pytest.raises(ValueError, match="bad diagram token"):
        rootgraph.parse_diagram(token)


def test_parse_diagram_accepts_bounds():
    for token in ("A1", "A~1", "D4", "D~4", "E6", "E~8", " A~12 "):
        assert str(rootgraph.parse_diagram(token)) == token.strip()


def test_graph_text_roundtrip():
    g = from_edges("demo", [("a", -2), ("b", -1), ("c", -2)], [("a", "b", 2), ("b", "c", 1)])
    text = rootgraph.format_graph(g)
    assert rootgraph.parse_graph_text(text) == g


@pytest.mark.parametrize("name, label", [
    ("G", "a#b"),  # read back as vertex a
    ("my graph", "a"),
    ("G", ""),
    ("G", "a\tb"),
    ("G#1", "a"),
])
def test_format_graph_refuses_words_that_do_not_read_back(name, label):
    g = from_edges(name, [label, "z"], [])
    with pytest.raises(ValueError) as err:
        rootgraph.format_graph(g)
    assert repr(label if name == "G" else name) in str(err.value)


@pytest.mark.parametrize("call, message", [
    (lambda: from_edges("g", ["a", "a"], []), "vertex labels must be unique"),
    (lambda: from_edges("g", ["a"], [("a", "a", 1)]), "self-loop at 'a'"),
    (lambda: from_edges("g", ["a", "b"], [("a", "b", 1), ("b", "a", 1)]), "duplicate edge 'b' -- 'a'"),
    (lambda: from_edges("g", ["a"], [("a", "b", 1)]), "unknown vertex label: 'b'"),
    (lambda: from_edges("g", ["a", "b"], [("a", "b", 1.0)]), "edge 'a' -- 'b': multiplicity must be an integer"),
    (lambda: from_edges("g", ["a", "b"], [("a", "b", 0)]), "edge 'a' -- 'b': multiplicity must be >= 1"),
    (lambda: rootgraph.RootGraph(["a"], [[0]], kinds=[0]), "vertex kinds must be -2 (curve) or -1 (root)"),
    (lambda: rootgraph.RootGraph(["a"], [[0]], kinds=[-2, -2]), "vertex kinds must be -2 (curve) or -1 (root)"),
    (lambda: from_edges("g", ["a"], []).index("b"), "unknown vertex label: 'b'"),
], ids=["unique-labels", "self-loop", "duplicate-edge", "unknown-label", "integer-multiplicity",
        "positive-multiplicity", "kind", "kind-count", "index"])
def test_graph_refusals_name_their_reason(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_graph_text_minimal():
    g = parse_graph_text("graph tiny\nvertex only\n")
    assert g.n == 1 and g.labels == ("only",)


@pytest.mark.parametrize(
    "text,msg",
    [
        ("vertex a\n", "graph"),
        ("graph g\nedge a b 1\n", "undeclared"),
        ("graph g\nvertex a\nedge a a 1\n", "self-loop"),
        ("graph g\nvertex a\nvertex b\nedge a b 1\nedge b a 1\n", "duplicate edge"),
        ("graph g\nvertex a\nvertex b\nedge a b 0\n", ">= 1"),
        ("graph g\nvertex a\nvertex a\n", "duplicate vertex"),
        ("graph g\nvertex a kind=7\n", "bad kind"),
        ("graph g\nfrobnicate\n", "unknown directive"),
    ],
)
def test_graph_text_errors(text, msg):
    with pytest.raises(rootgraph.GraphFormatError, match=msg):
        parse_graph_text(text)


@pytest.mark.parametrize(
    "text,msg",
    [
        ("graph g\ngraph h\n", "line 2: duplicate graph declaration"),
        ("graph\n", "line 1: expected 'graph <name>'"),
        ("graph g h\n", "line 1: expected 'graph <name>'"),
        ("\n# c\nvertex a\n", "line 3: vertex before graph declaration"),
        ("vertex a\ngraph g\n", "line 1: vertex before graph declaration"),
        ("graph g\nvertex\n", "line 2: expected 'vertex <label> [kind=-1|-2]'"),
        ("graph g\nvertex a kind=-1 x\n", "line 2: expected 'vertex <label> [kind=-1|-2]'"),
        ("graph g\nvertex a\nvertex a kind=-1\n", "line 3: duplicate vertex 'a'"),
        ("graph g\nvertex a kind=7\n", "line 2: bad kind 'kind=7'"),
        ("graph g\nvertex a\nedge a\n", "line 3: expected 'edge <a> <b> <mult>'"),
        ("graph g\nvertex a\nedge a b 1 2\n", "line 3: expected 'edge <a> <b> <mult>'"),
        ("graph g\nvertex a\nedge a b 1\n", "line 3: edge uses undeclared vertex"),
        ("graph g\nvertex a\nedge b a 1\n", "line 3: edge uses undeclared vertex"),
        ("edge a b 1\ngraph g\n", "line 1: edge uses undeclared vertex"),
        # an undeclared vertex is named before a self-loop
        ("graph g\nedge x x 1\n", "line 2: edge uses undeclared vertex"),
        ("graph g\nvertex a\nedge a a 1\n", "line 3: self-loop at 'a'"),
        # a self-loop is named before a bad multiplicity
        ("graph g\nvertex a\nedge a a z\n", "line 3: self-loop at 'a'"),
        ("graph g\nvertex a\nvertex b\nedge a b 1.5\n", "line 4: multiplicity must be an integer"),
        ("graph g\nvertex a\nvertex b\nedge a b -1\n", "line 4: multiplicity must be >= 1"),
        ("graph g\nvertex a\nvertex b\nedge a b 0\n", "line 4: multiplicity must be >= 1"),
        ("graph g\nvertex a\nvertex b\nedge a b 1\nedge a b 2\n",
         "line 5: duplicate edge 'a' -- 'b'"),
        ("graph g\nvertex a\nvertex b\nedge a b 1\nedge b a 1\n",
         "line 5: duplicate edge 'b' -- 'a'"),
        ("graph g\nvertex a\nvertex b\nedge a b 2\nvertex c\nedge c a 1\nedge b a 1\n",
         "line 7: duplicate edge 'b' -- 'a'"),
        # a bad multiplicity is named before a duplicate edge
        ("graph g\nvertex a\nvertex b\nedge a b 1\nedge b a x\n",
         "line 5: multiplicity must be an integer"),
        ("graph g\nvertex a\nvertex b\nedge a b 1\nedge b a 0\n", "line 5: multiplicity must be >= 1"),
        ("graph g\nfrobnicate\n", "line 2: unknown directive 'frobnicate'"),
        ("frobnicate\ngraph g\n", "line 1: unknown directive 'frobnicate'"),
        ("", "missing graph declaration"),
        ("# only a comment\n\n", "missing graph declaration"),
    ],
)
def test_graph_text_error_full_text(text, msg):
    with pytest.raises(rootgraph.GraphFormatError, match="^" + re.escape(msg) + r"\Z"):
        parse_graph_text(text)


def random_graph_data(rng, n):
    """Labels with kinds -1 and -2, and single and double edges."""
    vertices = [(f"v{i}", rng.choice((rootgraph.KIND_CURVE, rootgraph.KIND_ROOT)))
                for i in range(n)]
    edges = [(f"v{i}", f"v{j}", rng.choice((1, 1, 2, 3)))
             for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35]
    return vertices, edges


def graph_text(rng, name, vertices, edges):
    """Graph text with the edges shuffled, each written either way round and
    placed anywhere after both its vertices are declared."""
    pos = {label: k for k, (label, _) in enumerate(vertices)}
    after = {k: [] for k in range(len(vertices))}
    for a, b, m in rng.sample(edges, len(edges)):
        k = rng.randint(max(pos[a], pos[b]), len(vertices) - 1)
        after[k].append(f"edge {b} {a} {m}" if rng.random() < 0.5 else f"edge {a} {b} {m}")
    lines = [f"graph {name}"]
    for k, (label, kind) in enumerate(vertices):
        lines.append(f"vertex {label}" + rng.choice(("", " kind=-2"))
                     if kind == rootgraph.KIND_CURVE else f"vertex {label} kind=-1")
        lines.extend(after[k])
    return "\n".join(lines) + "\n"


def test_graph_text_matches_from_edges_and_roundtrips():
    from coblemukai import catalog

    for name in ("I", "II", "VI", "MI", "MII"):
        g = catalog.build_graph(name)
        assert parse_graph_text(rootgraph.format_graph(g)) == g
    rng = random.Random(53)
    for trial in range(50):
        vertices, edges = random_graph_data(rng, rng.randint(1, 14))
        g = from_edges(f"R{trial}", vertices, edges)
        assert parse_graph_text(rootgraph.format_graph(g)) == g
        assert parse_graph_text(graph_text(rng, f"R{trial}", vertices, edges)) == g


def test_graph_text_comments_ignored():
    text = "# header\ngraph g  # trailing\nvertex a\nvertex b # another\nedge a b 1\n"
    g = parse_graph_text(text)
    assert g.n == 2 and g.mult[0][1] == 1


def test_span_lattice_raw_versus_saturated():
    g = catalog_graph_i()
    from coblemukai import lattice as lat

    raw = rootgraph.span_lattice(g)
    assert lat.det(raw) == -4
    assert rootgraph.span_det(g) == -1


def test_span_det_takes_one_determinant_per_lattice(monkeypatch):
    # graph I's span has det -4 and saturates to det -1: one Bareiss
    # determinant of the span and one of its overlattice
    from coblemukai import exact

    g = catalog_graph_i()
    rootgraph.span_lattice(g)
    truthful, calls = exact.det, []

    def counted(m):
        calls.append(len(m))
        return truthful(m)

    monkeypatch.setattr(exact, "det", counted)
    assert span_det(g) == -1
    assert len(calls) <= 2, calls


def catalog_graph_i():
    from coblemukai import catalog

    return catalog.build_graph("I")


LYING_CLASSIFIER_SCRIPT = """
import sys
from coblemukai import catalog, rootgraph
if __debug__:
    sys.exit("not running under -O")


def fires(check):
    try:
        check()
    except AssertionError as exc:
        print("raised:", exc)
    else:
        sys.exit("self-check did not fire")


# the certificate takes nothing from the classifier: a definite E8 read as E~8
star = rootgraph._STAR_TYPES[(1, 2, 4)]
rootgraph._STAR_TYPES[(1, 2, 4)] = rootgraph.DiagramType("E", 8, True)
fires(lambda: rootgraph.connected_parabolics(catalog.build_graph("I")))
rootgraph._STAR_TYPES[(1, 2, 4)] = star
# Components with the same multiplicity matrix share one certificate.  Fail
# it only for the A~2 triangle, which VI has 30 times and which is not its
# first component, so the shared check must still run and raise.
certificate = rootgraph._affine_certificate


def failing_for(block):
    def check(mult, idx, both):
        if [[-2 if a == b else mult[a][b] for b in idx] for a in idx] == block:
            return False
        return certificate(mult, idx, both)
    return check


triangle = [[-2, 1, 1], [1, -2, 1], [1, 1, -2]]
rootgraph._affine_certificate = failing_for(triangle)
fires(lambda: rootgraph.connected_parabolics(catalog.build_graph("VI")))
# It is shared by the exact matrix, not by the type: the certificate sees
# MI's A~3 squares in more than one vertex order (the order the search lists
# them in); fail only for one that is not the first square's.
received = []


def recording(mult, idx, both):
    received.append([[-2 if a == b else mult[a][b] for b in idx] for a in idx])
    return certificate(mult, idx, both)


rootgraph._affine_certificate = recording
rootgraph.connected_parabolics(catalog.build_graph("MI"))
squares = [m for m in received if len(m) == 4]  # A~3 is the one affine type on 4 vertices
later = next(m for m in squares if m != squares[0])
rootgraph._affine_certificate = failing_for(later)
# a graph searches once, so the lie needs a graph not yet searched
fires(lambda: rootgraph.connected_parabolics(catalog.build_graph("MI")))
rootgraph._affine_certificate = certificate
# Read one single edge of I as double in the graph's masks: the search takes
# the pair it joins for A~1, and the certificate, which reads the true
# multiplicities, refuses it.
g = catalog.build_graph("I")
single, double, both = (list(m) for m in g._masks)
i = next(i for i, s in enumerate(single) if s)
j = single[i].bit_length() - 1
for a, b in ((i, j), (j, i)):
    single[a] ^= 1 << b
    double[a] |= 1 << b
g._masks = single, double, both
fires(lambda: rootgraph.connected_parabolics(g))
"""


def test_parabolic_self_check_survives_python_O():
    src = str(Path(coblemukai.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", LYING_CLASSIFIER_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    first, second, third, fourth = proc.stdout.splitlines()
    assert first.startswith("raised: component (") and first.endswith("misclassified as E~8")
    assert second.startswith("raised: component (") and second.endswith("misclassified as A~2")
    assert third.startswith("raised: component (") and third.endswith("misclassified as A~3")
    assert fourth.startswith("raised: component (") and fourth.endswith("misclassified as A~1")


LYING_AUTOMORPHISMS_SCRIPT = """
import sys
from coblemukai import catalog, rootgraph
if __debug__:
    sys.exit("not running under -O")


def fires(check):
    try:
        check()
    except AssertionError as exc:
        print("raised:", exc)
    else:
        sys.exit("self-check did not fire")


# a search whose automorphisms are composed with one more group element no
# longer fix the base points they should, so its orbit product is wrong
last = rootgraph.automorphisms(catalog.build_graph("MI"))[1][-1]
search = rootgraph._find_automorphism


def lying_search(*args):
    p = search(*args)
    return None if p is None else rootgraph._compose(p, last)


rootgraph._find_automorphism = lying_search
fires(lambda: rootgraph.automorphisms(catalog.build_graph("MI")))
rootgraph._find_automorphism = search


# a chain of the right order whose transversal at its deepest nontrivial
# level sends that level's point to itself instead of to the least other one
class LyingChain(rootgraph._StabilizerChain):
    def __init__(self, n, gens):
        super().__init__(n, gens)
        m = max(k for k in range(n) if len(self.points[k]) > 1)
        p = min(q for q in self.points[m] if q != m)
        self.trans[m][p] = tuple(range(n))


rootgraph._StabilizerChain = LyingChain
for name in ("MI", "MII", "VI"):
    fires(lambda: rootgraph.automorphisms(catalog.build_graph(name)))
"""


def test_automorphism_self_checks_survive_python_O():
    src = str(Path(coblemukai.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", LYING_AUTOMORPHISMS_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    first, *walks = proc.stdout.splitlines()
    assert first == "raised: automorphism generators give chain order 720, the search 384000"
    assert len(walks) == 3
    for line in walks:
        assert re.fullmatch(r"raised: lex-greedy orbit of \d+ has size 1, the chain's 2", line), line
