"""Brute-force oracles for the shape-directed enumerations.

Small random graphs are checked against powerset enumeration (connected
parabolics and maximal packings) and against all-permutations search
(automorphisms), so the fast paths are validated by definitions.
"""

import random
from itertools import combinations, permutations

from coblemukai import exact, rootgraph


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


def brute_connected_parabolics(g):
    found = []
    for size in range(1, g.n + 1):
        for idx in combinations(range(g.n), size):
            if not is_connected(g, idx):
                continue
            gram = [[-2 if a == b else g.mult[a][b] for b in idx] for a in idx]
            if exact.rank_signature(gram) != (0, size - 1, 1):
                continue
            typ = rootgraph.classify(g, [g.labels[i] for i in idx])
            assert typ is not None and typ.affine
            found.append((tuple(sorted(g.labels[i] for i in idx)), typ))
    return sorted(found)


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
        fast = sorted(p.components for p in rootgraph.maximal_parabolics(g, target))
        assert fast == brute_maximal_parabolics(g, target), (trial, target)


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
