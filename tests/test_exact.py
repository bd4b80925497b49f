import random

import pytest
import sympy

from coblemukai import exact


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
    matrices = [[[4, 6, 2], [6, 12, 6], [2, 6, 22]], *unit_pivot_matrices(random.Random(5))]
    for m in matrices:
        res = exact.snf(m)
        assert abs(exact.det([list(r) for r in res.left])) == 1
        assert abs(exact.det([list(r) for r in res.right])) == 1
        prod = exact.matmul(exact.matmul([list(r) for r in res.left], m),
                            [list(r) for r in res.right])
        for i in range(len(m)):
            for j in range(len(m[0])):
                assert prod[i][j] == (res.factors[i] if i == j else 0), m


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
    # radical_quotient sorts G's rows before the HNF; that is sound only
    # because every order of the same rows gives the same basis
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
