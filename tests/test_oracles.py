"""Brute-force oracles for the shape-directed enumerations.

Small random graphs are checked against powerset enumeration (connected
parabolics and maximal packings) and against all-permutations search
(automorphisms), so the fast paths are validated by definitions.  Group
orders on larger graphs are also counted by networkx's VF2 matcher.
Discriminant forms are checked by listing L*/L: span_det against a DFS over
every chain of isotropic subgroups, and the form of an overlattice against
q on H-perp/H.  The span lattice built at the span's rank is checked against
sympy's rank and Smith form and against the n x n SNF congruence it replaced.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial, prod

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


def brute_connected_parabolics(g):
    """Connected induced subsets whose Gram matrix is negative semidefinite of
    corank 1, labeled by invariants alone, not by the shape classifier."""
    found = []
    for size in range(1, g.n + 1):
        for idx in combinations(range(g.n), size):
            if not is_connected(g, idx):
                continue
            gram = [[-2 if a == b else g.mult[a][b] for b in idx] for a in idx]
            if exact.rank_signature(gram) != (0, size - 1, 1):
                continue
            disc = 1
            for d in exact.snf(gram).factors:
                disc *= abs(d) or 1
            typ = affine_type_by_invariants(size, disc)
            found.append((tuple(sorted(g.labels[i] for i in idx)), typ))
    return sorted(found)


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
    rng = random.Random(101)
    for trial in range(60):
        n = rng.randint(2, 9)
        g = random_graph(rng, n)
        if any(g.mult[i][j] >= 3 for i in range(n) for j in range(n)):
            continue
        assert rootgraph.connected_parabolics(g) == brute_connected_parabolics(g), trial


def brute_maximal_parabolics(g, target):
    cps = brute_connected_parabolics(g)
    results = set()

    def compatible(a, b):
        for la in a:
            for lb in b:
                if la == lb or g.mult[g.index(la)][g.index(lb)]:
                    return False
        return True

    def rec(start, chosen, total):
        if total == target:
            results.add(tuple(sorted(chosen)))
            return
        for i in range(start, len(cps)):
            labels, typ = cps[i]
            if total + typ.rank > target:
                continue
            if all(compatible(labels, c[0]) for c in chosen):
                rec(i + 1, chosen + [cps[i]], total + typ.rank)

    rec(0, [], 0)
    return sorted(results)


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
        cps = rootgraph.connected_parabolics(g)
        reused = sorted(p.components for p in rootgraph.maximal_parabolics(g, target, cps))
        assert reused == brute, (trial, target)


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
    return sum(1 for _ in gm.isomorphisms_iter())


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
        got, gens = rootgraph.automorphisms(g)
        want = networkx_aut_order(g)
        assert got == want, trial
        if order is not None:
            assert got == order, trial
        for p in gens:
            assert all(
                g.mult[i][j] == g.mult[p[i]][p[j]] for i in range(g.n) for j in range(g.n)
            ), trial


def sympy_inertia(m):
    """(positive, negative, zero) eigenvalue counts from the characteristic
    polynomial: it is real-rooted for a symmetric matrix, so Descartes' rule
    of signs counts its positive and negative roots exactly."""
    import sympy

    coeffs = sympy.Matrix(m).charpoly().all_coeffs()  # leading coefficient first
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
    for _ in range(150):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_integer_matrix(rng, rows, cols)
        s = smith_normal_form(Matrix(m), domain=ZZ)
        want = tuple(abs(int(s[i, i])) for i in range(min(rows, cols)))
        assert exact.snf(m).factors == want, m


def test_det_matches_sympy():
    from sympy import Matrix

    rng = random.Random(37)
    for _ in range(150):
        n = rng.randint(1, 7)
        m = random_integer_matrix(rng, n, n)
        if rng.random() < 0.3:
            m[0][0] = 0  # send Bareiss through a row swap
        assert exact.det(m) == int(Matrix(m).det()), m
    assert exact.det([]) == 1 == int(Matrix([]).det())


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



# --- span lattices at the span's rank ------------------------------------------------

def snf_congruence_span(g):
    """The span as it was built from the n x n SNF of the graph Gram: the
    congruence by the right transform splits off the radical, and the
    leading r x r block is the Gram matrix of the span."""
    gram = g.gram_rows()
    res = exact.snf(gram)
    r = res.rank
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
    """Rank, |det| and inertia of Z^n/rad against sympy and rank_signature(G)."""
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
    pos, neg, _ = exact.rank_signature(gram)
    assert exact.rank_signature(quotient.gram_rows()) == (pos, neg, 0), gram
    return quotient


def check_span(g):
    old = snf_congruence_span(g)
    assert lattice.det(check_radical_quotient(g.gram_rows())) == lattice.det(old), g
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
        if all(lattice.disc_b(lat, x, h) == 0 for h in glue)
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
    truthful = lattice.discriminant_group

    def short(l):
        group = truthful(l)
        if l.gram != over.gram:
            return group
        return lattice.DiscriminantGroup(group.invariant_factors[1:], group.generator_lifts[1:])

    monkeypatch.setattr(lattice, "discriminant_group", short)
    with pytest.raises(AssertionError, match="H-perp/H"):
        lattice.overlattice(lat, glue)
