import copy
import random

import pytest
import sympy

from coblemukai import exact, lattice


def diag(*entries):
    n = len(entries)
    return [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]


def test_snf_coprime_diagonal():
    res = exact.snf(diag(2, 3))
    assert res.factors == (1, 6)


def test_snf_cartan_a2():
    res = exact.snf([[-2, 1], [1, -2]])
    assert res.factors == (1, 3)


def test_snf_zero_1x1():
    res = exact.snf([[0]])
    assert res.factors == (0,)


def unit_pivot_matrices(rng):
    """Matrices where the Smith form's unit-pivot shortcuts act: entries in
    {-1, 0, 1}, rectangular shapes, and one unit last in row-major order
    among even entries."""
    for _ in range(40):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        yield [[rng.randint(-1, 1) for _ in range(cols)] for _ in range(rows)]
        late = [[2 * rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        late[-1][-1] = rng.choice((1, -1))
        yield late
    yield [[0, 2, 4], [6, 8, -1]]
    yield [[2], [4], [-1]]
    yield [[4, 6, 2, 1]]


def test_snf_transforms_are_unimodular():
    # M right = W D with W unimodular, stated through right alone: column j of
    # M right is d_j times column j of W (zero where d_j = 0 or j is past the
    # factors), and for a nonsingular M, W = M right D^-1 has |det W| = 1
    matrices = [[[4, 6, 2], [6, 12, 6], [2, 6, 22]], *unit_pivot_matrices(random.Random(5))]
    nonsingular = 0
    for m in matrices:
        res = exact.snf(m)
        right = [list(r) for r in res.right]
        assert abs(exact.det(right)) == 1
        mr = exact.matmul(m, right)
        ds = [*res.factors, *[0] * (len(right) - len(res.factors))]
        for j, dj in enumerate(ds):
            assert all(row[j] == 0 if dj == 0 else row[j] % dj == 0 for row in mr), m
        if len(m) == len(m[0]) and exact.det(m):
            nonsingular += 1
            w = [[x // dj for x, dj in zip(row, ds)] for row in mr]
            assert abs(exact.det(w)) == 1, m
    assert nonsingular >= 5


def test_snf_divisibility_chain_and_det():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        res = exact.snf(m)
        nz = [d for d in res.factors if d != 0]
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0
        d = exact.det(m)
        if d != 0:
            prod = 1
            for x in nz:
                prod *= x
            assert prod == abs(d)


def chain_product(factors, cols):
    """A_1 ... A_k by the triple loop; ``cols`` is the column count of A_k."""
    out = factors[0]
    for k, b in enumerate(factors[1:], 1):
        width = len(factors[k + 1]) if k + 1 < len(factors) else cols
        out = [[sum(row[t] * b[t][j] for t in range(len(b))) for j in range(width)]
               for row in out]
    return out


def random_chain(rng):
    """Integer matrix chains of 1-4 factors, any dimension 0-4.  A third of
    them fill each factor with one entry of one sign, so every entry of the
    product is at the bound (product of inner dimensions) * prod max|A_i|."""
    shape = [rng.randint(0, 4) for _ in range(rng.randint(2, 5))]
    mode = rng.choice(("small", "large", "extreme"))
    factors = []
    for r, c in zip(shape, shape[1:]):
        if mode == "extreme":
            v = rng.choice((1, -1)) * rng.choice((1, 7, 10**15))
            factors.append([[v] * c for _ in range(r)])
        else:
            top = 3 if mode == "small" else 10**18
            factors.append([[rng.randint(-top, top) for _ in range(c)] for _ in range(r)])
    return factors, shape[-1]


def test_product_is_agrees_with_triple_loop():
    rng = random.Random(26)
    seen = {True: 0, False: 0}
    for _ in range(400):
        factors, cols = random_chain(rng)
        rhs = chain_product(factors, cols)
        assert exact.product_is(factors, rhs)
        entries = [(i, j) for i, row in enumerate(rhs) for j in range(len(row))]
        if entries:
            i, j = rng.choice(entries)
            bad = [row[:] for row in rhs]
            bad[i][j] += rng.choice((1, -1))
            assert not exact.product_is(factors, bad)
        k = rng.randrange(len(factors))
        cells = [(i, j) for i, row in enumerate(factors[k]) for j in range(len(row))]
        if cells:
            i, j = rng.choice(cells)
            lied = [[row[:] for row in a] for a in factors]
            lied[k][i][j] += rng.choice((1, -1))
            expected = chain_product(lied, cols) == rhs
            assert exact.product_is(lied, rhs) == expected
            seen[expected] += 1
    # a changed factor entry may leave the product alone (a zero row or column)
    assert seen[True] and seen[False]


def test_product_is_base_exceeds_the_bound():
    # each difference row (D, -1) vanishes at x = (1, D), so it is missed by
    # any base B <= D; D is the bound E itself, or the base that a bound
    # without the inner dimensions (2ab + 3 = 3ab with ab = 3) would give
    for a, b in ((1, 1), (3, 5), (10**9, 7)):
        p = 2 * a * b  # A = [[a, a]], C = [[b, b], [b, b]]: D = p + (p + 1) = E
        factors = [[[a, a]], [[b, b], [b, b]]]
        assert chain_product(factors, 2) == [[p, p]]
        assert not exact.product_is(factors, [[-(p + 1), p + 1]])
        assert exact.product_is(factors, [[p, p]])
    for a, b in ((1, 3), (3, 1)):
        factors = [[[a] * 3], [[b, 0]] * 3]  # inner dimension 3, product [[3ab, 0]]
        assert chain_product(factors, 2) == [[3 * a * b, 0]]
        assert not exact.product_is(factors, [[0, 1]])


def test_product_is_refuses_mismatched_shapes():
    with pytest.raises(ValueError, match="product_is shape mismatch"):
        exact.product_is([[[1, 2]], [[1, 0]]], [[1]])


def test_det_examples():
    assert exact.det([[0, 1], [1, 0]]) == -1
    assert exact.det([[2]]) == 2
    assert exact.det([[1, 2], [3, 4]]) == -2
    assert exact.det([]) == 1


def test_rank_signature_basics():
    assert exact.rank_signature([[-2]]) == (0, 1, 0)
    assert exact.rank_signature([[0, 1], [1, 0]]) == (1, 1, 0)
    assert exact.rank_signature([[-2, 2], [2, -2]]) == (0, 1, 1)
    assert exact.rank_signature([]) == (0, 0, 0)


def test_refused_column_step_and_skipped_empty_column():
    # no diagonal entry is nonzero, so row 1 is folded into row 0; adding
    # column 1 to column 0 would empty the pivot -1 again, so no column moves
    a = [[0, 1], [-1, 0]]
    rows = [list(row) for row in a]
    assert exact._eliminate(rows) == [] and rows == [[-1, 1], [0, 1]]
    assert exact.det(a) == 1
    assert exact.inverse(a) == ([[0, -1], [1, 0]], 1)
    # an empty column first: symmetric swaps take it to the end, where its
    # step is skipped
    m = [[0, 0, 0], [0, -2, 1], [0, 1, -2]]
    rows = [list(row) for row in m]
    assert exact._eliminate(rows) == [(0, 1, False), (1, 2, False)]
    assert [rows[k][k] for k in range(3)] == [-2, 3, 0]
    assert exact.rank_signature(m) == (0, 2, 1) and exact.det(m) == 0
    # no later diagonal entry is nonzero either: step 0 is skipped, and the
    # later pivots, 2 after a fold and then -1, are those of [[0, 1], [1, 0]]
    m = [[0, 0, 0], [0, 0, 1], [0, 1, 0]]
    rows = [list(row) for row in m]
    assert exact._eliminate(rows) == [(1, 2, True)]
    assert [rows[k][k] for k in range(3)] == [0, 2, -1]
    assert exact.rank_signature(m) == (1, 1, 1) and exact.det(m) == 0
    assert exact.jacobi_inertia([0, 2, -1]) == (1, 1, 1)


def test_rank_signature_rejects_asymmetric():
    with pytest.raises(ValueError):
        exact.rank_signature([[0, 1], [2, 0]])


def test_rank_signature_unimodular_invariance():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = rng.randint(-4, 4)
                m[i][j] = v
                m[j][i] = v
        # random unimodular transform from elementary operations
        u = exact.identity(n)
        for _ in range(8):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randint(-2, 2)
                for k in range(n):
                    u[i][k] += c * u[j][k]
        conj = exact.matmul(exact.matmul(u, m), exact.transpose(u))
        assert exact.rank_signature(conj) == exact.rank_signature(m)


def sympy_kernel(m):
    return [tuple(v) for v in sympy.Matrix(m).nullspace()]


def test_kernel_basis_affine_a1():
    (v,) = sympy_kernel([[-2, 2], [2, -2]])
    assert v[0] == v[1] != 0
    assert exact.int_kernel([[-2, 2], [2, -2]]) in ([(1, 1)], [(-1, -1)])


def test_kernel_basis_definite_empty():
    assert sympy_kernel([[-2, 1], [1, -2]]) == []
    assert exact.int_kernel([[-2, 1], [1, -2]]) == []


def test_kernel_basis_affine_a2_cycle():
    g = [[-2, 1, 1], [1, -2, 1], [1, 1, -2]]
    (v,) = sympy_kernel(g)
    assert v[0] == v[1] == v[2] != 0
    (w,) = exact.int_kernel(g)
    assert w[0] == w[1] == w[2] != 0
    assert all(sum(g[i][j] * w[j] for j in range(3)) == 0 for i in range(3))


def test_kernel_matches_zero_signature_count():
    rng = random.Random(3)
    for _ in range(15):
        n = rng.randint(1, 5)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = rng.randint(-3, 3)
                m[i][j] = v
                m[j][i] = v
        zero = exact.rank_signature(m)[2]
        assert len(sympy_kernel(m)) == zero
        assert len(exact.int_kernel(m)) == zero


def test_int_kernel_saturated():
    # kernel of (2 4) in Z^2 is generated by (2, -1), not (4, -2)
    ker = exact.int_kernel([[2, 4]])
    assert len(ker) == 1
    v = ker[0]
    assert 2 * v[0] + 4 * v[1] == 0
    from math import gcd

    assert gcd(v[0], v[1]) == 1


def test_hnf_rows_basic():
    basis = exact.hnf_rows([[2, 0], [0, 2], [1, 1]])
    assert basis == [[1, 1], [0, 2]]


def test_hnf_rows_ignores_row_order():
    # hnf_rows reduces the rows last to first and RadicalSplit hands it G's
    # rows as they are; that is sound only because every order of the same
    # rows gives the same basis
    from coblemukai import catalog

    rng = random.Random(23)
    mats = []
    for _ in range(40):
        cols, rank = rng.randint(1, 7), rng.randint(0, 5)
        base = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rank)]
        # rank-deficient: combinations of the base rows and a zero row
        extra = [[sum(rng.randint(-2, 2) * row[j] for row in base) for j in range(cols)]
                 for _ in range(rng.randint(0, 3))]
        mats.append(base + extra + [[0] * cols] * rng.randint(0, 1))
    for k in range(12):
        source = catalog.build_graph(("VI", "MI", "MII")[k % 3])
        mats.append(source.induced(rng.sample(source.labels, rng.randint(2, 20))).gram_rows())
    ranks = set()
    for m in mats:
        want = exact.hnf_rows(m)
        ranks.add(len(want) < len(m))
        assert exact.hnf_rows(m[::-1]) == want, m
        for _ in range(5):
            assert exact.hnf_rows(rng.sample(m, len(m))) == want, m
    assert ranks == {True, False}


def test_hnf_rows_canonical_reduction():
    for rows in ([[3, 1, 0], [0, 5, 2], [0, 0, 7]], [[1, 3, 0], [0, 2, 2], [0, 0, 3]]):
        basis = exact.hnf_rows(rows)
        for i, row in enumerate(basis):
            c = next(k for k, x in enumerate(row) if x != 0)
            assert row[c] > 0
            for r2 in basis[:i]:
                assert 0 <= r2[c] < row[c]


# Symmetric, so every kernel takes them.  Zero diagonals and zero leading
# entries make the elimination behind det, inverse and rank_signature fold
# (the first) or swap a row with its column (the second), and the Smith form
# move its pivot; the third is singular (affine A2).
KERNEL_INPUTS = [
    [[0, 1, 2], [1, 0, 3], [2, 3, 0]],
    [[0, 0, 2], [0, -2, 1], [2, 1, 0]],
    [[-2, 1, 1], [1, -2, 1], [1, 1, -2]],
    [[4, 6], [6, 4]],
]


@pytest.mark.parametrize("kernel", [exact.det, exact.snf, exact.inverse, exact.hnf_rows,
                                    exact.rank_signature, exact.int_kernel],
                         ids=lambda f: f.__name__)
def test_kernels_leave_their_argument_unchanged(kernel):
    # the kernels copy only the rows they mutate, so a list-of-lists argument
    # stays as it was, and a Lattice.gram of tuples is read as it is
    def outcome(m):
        before = copy.deepcopy(m)
        try:
            got = kernel(m)
        except ValueError as exc:  # inverse of the singular input
            got = str(exc)
        assert m == before, (kernel.__name__, before)
        return got

    for rows in [*KERNEL_INPUTS, [list(row) for row in lattice.make_named("D4").gram]]:
        assert outcome(rows) == outcome(lattice.make_lattice(rows).gram), rows
