"""Property-based checks for the algebraic laws the modules promise."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from coblemukai import lattice, rootgraph
from coblemukai.lattice import make_named


@st.composite
def lattice_and_vectors(draw):
    """A random symmetric Gram matrix and two lists of rational vectors whose
    entries have denominators 1, 2 or 3."""
    n = draw(st.integers(min_value=1, max_value=5))
    entry = st.integers(min_value=-5, max_value=5)
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = draw(entry)
    coord = st.builds(Fraction, st.integers(min_value=-7, max_value=7), st.sampled_from([1, 2, 3]))
    vectors = st.lists(st.tuples(*[coord] * n), min_size=1, max_size=4)
    return lattice.make_lattice(gram), draw(vectors), draw(vectors)


def defining_sum(lat, x, y):
    n = lat.rank
    return sum(Fraction(x[i]) * lat.gram[i][j] * Fraction(y[j]) for i in range(n) for j in range(n))


@given(lattice_and_vectors())
@settings(max_examples=150)
def test_gram_matrix_equals_defining_sum(case):
    lat, xs, ys = case
    gram = lattice.gram_matrix(lat, xs)
    cross = lattice.gram_matrix(lat, xs, ys)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            want = defining_sum(lat, x, y)
            assert cross[i][j] == want == lattice.gram_matrix(lat, [x], [y])[0][0]
            # integral entries come back as plain ints
            assert isinstance(cross[i][j], int) == (want.denominator == 1)
        for j, y in enumerate(xs):
            assert gram[i][j] == defining_sum(lat, x, y)

def _sparse_vectors(rng, n, count):
    """Rational vectors with mostly zero entries, denominators 1, 2 or 3,
    one of them all zero."""
    vectors = [(0,) * n]
    for _ in range(count - 1):
        vectors.append(tuple(Fraction(rng.randint(-7, 7), rng.choice((1, 2, 3)))
                             if rng.random() < 0.2 else 0 for _ in range(n)))
    return vectors


def _zero_heavy_cases():
    """(lattice, xs, ys): K + K(-1) up to rank 18, random Grams at least 70%
    zero, and all-zero Grams, each with sparse vectors."""
    rng = random.Random(28)
    names = ["A1", "A2", "A4", "A5", "D4", "D6", "E6", "E7", "E8", "A1+A1+A1", "A5+A2+A1+A1"]
    for name in names:
        k = make_named(name)
        lat = lattice.direct_sum(k, lattice.rescale(k, -1))
        yield lat, _sparse_vectors(rng, lat.rank, 5), _sparse_vectors(rng, lat.rank, 4)
    for n in (3, 5, 8, 12, 18) * 3:
        gram = [[0] * n for _ in range(n)]
        cells = [(i, j) for i in range(n) for j in range(i, n)]
        for i, j in rng.sample(cells, 3 * n * n // 20):  # each fills at most 2 of the n^2 entries
            gram[i][j] = gram[j][i] = rng.choice([-3, -2, -1, 1, 2, 3])
        assert sum(x == 0 for row in gram for x in row) >= 0.7 * n * n
        yield lattice.make_lattice(gram), _sparse_vectors(rng, n, 4), _sparse_vectors(rng, n, 3)
    for n in (1, 4, 18):
        zero = lattice.make_lattice([[0] * n for _ in range(n)])
        yield zero, _sparse_vectors(rng, n, 3), _sparse_vectors(rng, n, 2)


def test_gram_matrix_equals_defining_sum_on_zero_heavy_inputs():
    for lat, xs, ys in _zero_heavy_cases():
        gram = lattice.gram_matrix(lat, xs)
        cross = lattice.gram_matrix(lat, xs, ys)
        for i, x in enumerate(xs):
            assert gram[i] == [defining_sum(lat, x, y) for y in xs]
            for j, y in enumerate(ys):
                want = defining_sum(lat, x, y)
                assert cross[i][j] == want
                assert isinstance(cross[i][j], int) == (want.denominator == 1)


NAMES = ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "D6", "E6", "E7", "E8", "U"]


@given(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3))
def test_disc_group_order_equals_abs_det(parts):
    lat = make_named("+".join(parts))
    assert lattice.discriminant_group(lat).order == abs(lattice.det(lat))


@given(st.sampled_from(NAMES), st.sampled_from(NAMES))
def test_det_multiplicative(a, b):
    assert lattice.det(make_named(f"{a}+{b}")) == lattice.det(make_named(a)) * lattice.det(
        make_named(b)
    )


@given(st.permutations(list(range(6))))
def test_classify_is_relabel_invariant(perm):
    # a 6-cycle stays affine A~5 under any vertex relabeling
    n = 6
    base = [[0] * n for _ in range(n)]
    for i in range(n):
        base[i][(i + 1) % n] = base[(i + 1) % n][i] = 1
    mult = [[base[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    g = rootgraph.RootGraph([f"v{i}" for i in range(n)], mult)
    assert rootgraph.connected_parabolics(g) == [(g.labels, rootgraph.DiagramType("A", 5, True))]


@given(st.lists(st.sampled_from(["A1", "A2", "A3", "D4", "E6"]), min_size=1, max_size=2))
@settings(max_examples=30)
def test_mod2_law_on_random_sums(parts):
    lat = make_named("+".join(parts))
    n = lat.rank
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    _, anisotropic = lattice.mod2_subgroup(lat, units)
    q = [0] * (1 << n)
    for x in anisotropic:
        q[x] = 1
    # f(x, y) = sum of G[i][j] over i in x, j in y, mod 2: the parity of the
    # popcounts of row_i & y over i in x, row_i the mask of G's odd entries
    # in row i, which is the popcount of (XOR of row_i over i in x) & y
    odd = [sum(1 << j for j in range(n) if lat.gram[i][j] % 2) for i in range(n)]
    for x in range(min(1 << n, 64)):
        rows_x = 0
        for i in range(n):
            if x >> i & 1:
                rows_x ^= odd[i]
        for y in range(min(1 << n, 64)):
            f = (rows_x & y).bit_count()
            assert q[x ^ y] == (q[x] + q[y] + f) % 2
