import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm, prod
from pathlib import Path

import numpy as np
import pytest

from coblemukai import exact, lattice
from coblemukai.lattice import make_named


def test_named_ranks_and_dets():
    a4 = make_named("A4")
    assert a4.rank == 4
    assert abs(lattice.det(a4)) == 5
    u = make_named("U")
    assert u.gram == ((0, 1), (1, 0))
    assert lattice.det(u) == -1
    s = make_named("A5+A5+A1+A1")
    assert s.rank == 12
    assert abs(lattice.det(s)) == 144


def test_named_dets_examples():
    assert lattice.det(make_named("E8")) == 1
    assert lattice.det(make_named("E10")) == -1
    assert lattice.det(make_named("D8")) == 4
    assert lattice.det(make_named("E7")) == -2
    assert lattice.det(make_named("E6")) == 3


def test_named_signatures():
    assert lattice.signature(make_named("E10")) == (1, 9, 0)
    assert lattice.signature(make_named("A1")) == (0, 1, 0)
    assert lattice.signature(make_named("U(2)")) == (1, 1, 0)


def test_named_rescale():
    u2 = make_named("U(2)")
    assert u2.gram == ((0, 2), (2, 0))
    a1m = make_named("A1(-1)")
    assert a1m.gram == ((2,),)


# A257 and A200+A100 are above the rank bound and refused before any Gram is built
@pytest.mark.parametrize(
    "bad", ["D3", "E5", "E9", "A0", "B4", "", "A4++A2", "A4(0)", "q", "A257", "A200+A100"]
)
def test_named_rejects_malformed(bad):
    with pytest.raises(ValueError):
        make_named(bad)


def test_det_multiplicative_over_sums():
    rng = random.Random(5)
    names = ["A1", "A2", "A3", "A4", "D4", "D5", "E6", "E7", "E8", "U"]
    for _ in range(20):
        a, b = rng.choice(names), rng.choice(names)
        assert lattice.det(make_named(f"{a}+{b}")) == lattice.det(make_named(a)) * lattice.det(
            make_named(b)
        )


def test_discriminant_group_examples():
    assert lattice.discriminant_group(make_named("A2")).invariant_factors == (3,)
    assert lattice.discriminant_group(make_named("D8")).invariant_factors == (2, 2)
    assert lattice.discriminant_group(make_named("E8")).invariant_factors == ()


def test_discriminant_group_order_matches_det():
    for name in ["A1", "A4", "D5", "E6", "E7", "A2+A2", "A5+A5+A1+A1"]:
        lat = make_named(name)
        assert lattice.discriminant_group(lat).order == abs(lattice.det(lat))


def test_discriminant_lifts_are_dual_and_reduced():
    lat = make_named("A2")
    group = lattice.discriminant_group(lat)
    (lift,) = group.generator_lifts
    assert all(0 <= c < 1 for c in lift)
    assert lattice.disc_q(lat, lift) == Fraction(4, 3)


def _primes(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


@pytest.mark.parametrize("spec", [
    "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "D4", "D5", "E6", "E7", "E8", "U(4)",
    "A1(-2)+A1(2)", "A3+A3(-1)", "D4+A1", "A1+A3", "D4+A3",
])
def test_discriminant_lifts_are_rows_over_one_denominator(spec):
    # lift i is rows[i]/den, den the lcm of the factors, and has exact order
    # d_i in L*/L; L is Z^n in these coordinates
    lat = make_named(spec)
    group = lattice.discriminant_group(lat)
    factors = group.invariant_factors
    assert group.order == abs(lattice.det(lat))
    assert group.den == lcm(*factors)
    assert len(group.rows) == len(factors) == len(group.generator_lifts)
    for d_i, row, lift in zip(factors, group.rows, group.generator_lifts):
        assert lift == tuple(Fraction(x, group.den) for x in row)
        assert all(x % (group.den // d_i) == 0 for x in row)
        assert all(sum(c * g for c, g in zip(lift, col)).denominator == 1 for col in lat.gram)
        assert all((d_i * c).denominator == 1 for c in lift)
        for p in _primes(d_i):
            assert any((d_i // p * c).denominator != 1 for c in lift)


def test_disc_q_a1():
    a1 = make_named("A1")
    x = (Fraction(1, 2),)
    assert lattice.disc_q(a1, x) == Fraction(3, 2)
    assert lattice.disc_q(a1, (0,)) == 0


def test_disc_q_rejects_odd_lattice():
    odd = lattice.make_lattice([[1]])
    with pytest.raises(ValueError):
        lattice.disc_q(odd, (0,))


def test_disc_q_rejects_non_dual_lift():
    a2 = make_named("A2")
    with pytest.raises(ValueError):
        lattice.disc_q(a2, (Fraction(1, 2), 0))


# I + J: even, det 5, and no entry of its Gram is zero
DENSE_EVEN = lattice.make_lattice([[2 if i == j else 1 for j in range(4)] for i in range(4)])


@pytest.mark.parametrize("lat", [make_named("A1+A1+A1"), DENSE_EVEN, make_named("D4+A2")],
                         ids=["A1+A1+A1", "I+J", "D4+A2"])
def test_lifts_off_the_dual_by_one_coordinate_are_refused(lat):
    # a lift in L* moved by e_k/m, with m = 2 gcd(row k of G), pairs with
    # e_j to (row k)_j/m, which is not integral for some j: it leaves L*
    lifts = [*lattice.discriminant_group(lat).generator_lifts, (0,) * lat.rank]
    for lift in lifts:
        assert 0 <= lattice.disc_q(lat, lift) < 2
        for k, row in enumerate(lat.gram):
            off = tuple(c + Fraction(j == k, 2 * gcd(*row)) for j, c in enumerate(lift))
            with pytest.raises(ValueError, match="^lift is not in the dual lattice$"):
                lattice.disc_q(lat, off)
            for glue in ([off], [lift, off]):
                with pytest.raises(ValueError, match="^glue generator is not in the dual lattice$"):
                    lattice.overlattice(lat, glue)


ODD = lattice.make_lattice([[3]])
ODD_UNIMODULAR = lattice.make_lattice([[1]])
ODD_INDEFINITE = lattice.make_lattice([[1, 0], [0, -1]])


@pytest.mark.parametrize("call, message", [
    (lambda: lattice.overlattice(ODD, []), "overlattice gluing requires an even lattice"),
    (lambda: lattice.saturate(ODD), "saturation requires an even lattice"),
    (lambda: lattice.RadicalSplit(ODD.gram).saturated_det, "saturation requires an even lattice"),
    (lambda: lattice.half_overlattice(ODD, []), "half-integer overlattice requires an even lattice"),
    (lambda: lattice.disc_q(ODD, (0,)), "discriminant quadratic form is defined only for even lattices"),
    (lambda: lattice.mod2_subgroup(make_named("A2"), [(1, 2)]),
     "H generators must be 0/1 vectors of full rank length"),
    (lambda: lattice.mod2_subgroup(make_named("A2"), [(1,)]),
     "H generators must be 0/1 vectors of full rank length"),
    (lambda: lattice.half_overlattice(make_named("A1+A1"), [(1, 0, 1)]),
     "H generators must be 0/1 vectors of full rank length"),
    (lambda: lattice.mod2_subgroup(ODD, [(1,)]), "mod-2 quadratic form is defined only for even lattices"),
    # odd unimodular: det +-1 is not taken for "its own saturation"
    (lambda: lattice.saturate(ODD_UNIMODULAR), "saturation requires an even lattice"),
    (lambda: lattice.RadicalSplit(ODD_UNIMODULAR.gram).saturated_det, "saturation requires an even lattice"),
    (lambda: lattice.saturate(ODD_INDEFINITE), "saturation requires an even lattice"),
    (lambda: lattice.RadicalSplit(ODD_INDEFINITE.gram).saturated_det, "saturation requires an even lattice"),
    # ragged Grams: a short last row, a short first row
    (lambda: lattice.make_lattice([[0, 1], [1]]), "Gram matrix must be symmetric"),
    (lambda: lattice.make_lattice([[2], [1, 2]]), "Gram matrix must be symmetric"),
    (lambda: lattice.radical_quotient([[0, 1], [1]]), "Gram matrix must be symmetric"),
], ids=["overlattice", "saturate", "saturated_det", "half_overlattice", "disc_q",
        "mod2_subgroup-entry", "mod2_subgroup-length", "half_overlattice-length", "mod2_subgroup-odd",
        "saturate-det-1", "saturated_det-det-1", "saturate-det-minus-1", "saturated_det-det-minus-1",
        "make_lattice-ragged-last", "make_lattice-ragged-first", "radical_quotient-ragged"])
def test_lattice_refusals_name_their_reason(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("spec", ["E8", "U", "E8(-1)+U"])
def test_even_unimodular_is_its_own_saturation(spec):
    lat = make_named(spec)
    assert lattice.det(lattice.saturate(lat)) == lattice.det(lat) in (1, -1)
    assert lattice.saturate(lat).gram == lat.gram


def test_overlattice_u2_glue_gives_unimodular():
    u2 = make_named("U(2)")
    glue = [(Fraction(1, 2), Fraction(0))]  # the q = 0 order-2 class
    over = lattice.overlattice(u2, glue)
    assert lattice.det(over) == -1
    assert lattice.is_even(over)
    assert lattice.signature(over) == (1, 1, 0)


def test_overlattice_trivial_glue():
    d4 = make_named("D4")
    over = lattice.overlattice(d4, [])
    assert over.gram == d4.gram


def test_overlattice_d4d4_diagonal_glue():
    # diagonal (Z/2)^2 glue recovers the index-4 embedding D4+D4 in E8
    k = make_named("D4+D4")
    disc = lattice.discriminant_group(make_named("D4"))
    glue = [tuple(lift) + tuple(lift) for lift in disc.generator_lifts]
    over = lattice.overlattice(k, glue)
    assert lattice.det(over) == 1
    assert lattice.is_even(over)
    assert lattice.det(over) * 4**2 == lattice.det(k)


def test_overlattice_rejects_non_isotropic():
    a1a1 = make_named("A1+A1")
    with pytest.raises(ValueError):
        lattice.overlattice(a1a1, [(Fraction(1, 2), 0)])


def test_overlattice_det_law_randomized():
    # det(L') * |H|^2 = det(L) across diagonal glues of K + K(-1)
    rng = random.Random(17)
    names = ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "D6", "E6", "E7"]
    for _ in range(50):
        name = rng.choice(names)
        k = make_named(name)
        lat = lattice.direct_sum(k, lattice.rescale(k, -1))
        disc = lattice.discriminant_group(k)
        lifts = disc.generator_lifts
        if not lifts:
            continue
        pick = rng.sample(range(len(lifts)), rng.randint(1, len(lifts)))
        glue = [tuple(lifts[i]) + tuple(lifts[i]) for i in pick]
        # the diagonal lifts of independent generators span H = sum Z/d_i
        order = prod(disc.invariant_factors[i] for i in pick)
        over = lattice.overlattice(lat, glue)
        assert lattice.det(over) * order**2 == lattice.det(lat)


LYING_OVERLATTICE_SCRIPT = """
import sys
from coblemukai import lattice
if __debug__:
    sys.exit("not running under -O")
# saturate glues through the helper behind overlattice, which also returns
# L'*/L' and det L'; this one glues nothing, and ends the process on its
# third call, so a saturate that never stops fails at once
calls = []


def glue_nothing(lat, glue, den, d):
    calls.append(glue)
    if len(calls) == 3:
        sys.exit("saturate glued nothing 3 times and did not stop")
    return lat, lattice.discriminant_group(lat), d


lattice._overlattice = glue_nothing
try:
    lattice.saturate(lattice.make_named("A8"))
except AssertionError as exc:
    print("raised:", exc)
else:
    sys.exit("self-check did not fire")
"""


def test_saturate_self_check_survives_python_O():
    # A8*/A8 = Z/9 keeps its isotropic class 3 when nothing is glued
    src = str(Path(lattice.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", LYING_OVERLATTICE_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised: H-perp/H has a nonzero isotropic class after saturation\n"



SHORT_OVERLATTICE_GROUP_SCRIPT = """
import sys
from fractions import Fraction
from coblemukai import lattice
if __debug__:
    sys.exit("not running under -O")
# A1+A1 + A1(-1)+A1(-1) glued along its first diagonal pair is U+A1+A1(-1),
# whose discriminant group Z/2+Z/2 loses its first generator here
a1 = lattice.make_named("A1+A1")
lat = lattice.direct_sum(a1, lattice.rescale(a1, -1))
glue = [(Fraction(1, 2), 0, Fraction(1, 2), 0)]
over = lattice.overlattice(lat, glue)
truthful = lattice._discriminant_group


def short(l, d):
    group = truthful(l, d)
    if l.gram != over.gram:
        return group
    return lattice.DiscriminantGroup(group.invariant_factors[1:], group.rows[1:], group.den)


lattice._discriminant_group = short
try:
    lattice.overlattice(lat, glue)
except AssertionError as exc:
    print("raised:", exc)
else:
    sys.exit("self-check did not fire")
"""


def test_overlattice_form_check_survives_python_O():
    src = str(Path(lattice.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SHORT_OVERLATTICE_GROUP_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised: discriminant form of overlattice does not match H-perp/H\n"


def _run_under_O(script: str) -> str:
    src = str(Path(lattice.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LYING_SNF_RIGHT_SCRIPT = """
import sys
from coblemukai import exact, lattice
if __debug__:
    sys.exit("not running under -O")
truthful_snf = exact.snf


def identity_right(m):
    # the factors are right, but the right transform handed back is the identity
    return exact.SnfResult(truthful_snf(m).factors, tuple(map(tuple, exact.identity(len(m)))))


exact.snf = identity_right
for spec in ("A2", "E6", "A2+A2"):
    try:
        lattice.discriminant_group(lattice.make_named(spec))
    except AssertionError as exc:
        print("raised:", exc)
    else:
        sys.exit("self-check did not fire")
"""


def test_discriminant_dual_check_survives_python_O():
    # the lifts are read off the columns of the right transform; with the
    # identity they are unit vectors over d, which A2, E6 and A2+A2 do not
    # pair integrally
    assert _run_under_O(LYING_SNF_RIGHT_SCRIPT) == (
        "raised: discriminant generator lift is not in the dual lattice\n" * 3)


LYING_OVERLATTICE_LIFT_SCRIPT = """
import sys
from fractions import Fraction
from coblemukai import exact, lattice
if __debug__:
    sys.exit("not running under -O")
# A1+A1 + A1(-1)+A1(-1) glued along g = (1/2, 0, 1/2, 0); the L' lift handed
# back is, in L coordinates, first e_1/4 (outside L*), then e_1/2 (in L*, but
# <e_1/2, g> = -1/2)
a1 = lattice.make_named("A1+A1")
lat = lattice.direct_sum(a1, lattice.rescale(a1, -1))
glue = [(Fraction(1, 2), 0, Fraction(1, 2), 0)]
over = lattice.overlattice(lat, glue)
basis, _ = lattice._adjoin(lat, [[1, 0, 1, 0]], 2)  # L' in L coordinates, over 2
inv, d = exact.inverse(basis)
(row,) = exact.matmul([[1, 0, 0, 0]], inv)  # row * basis = d * e_1
truthful = lattice._discriminant_group
for den in (2 * d, d):
    def lying(l, det, den=den):
        if l.gram != over.gram:
            return truthful(l, det)
        return lattice.DiscriminantGroup((2,), (tuple(row),), den)
    lattice._discriminant_group = lying
    try:
        lattice.overlattice(lat, glue)
    except AssertionError as exc:
        print("raised:", exc)
    else:
        sys.exit("self-check did not fire")
"""


def test_overlattice_lift_checks_survive_python_O():
    assert _run_under_O(LYING_OVERLATTICE_LIFT_SCRIPT) == (
        "raised: overlattice discriminant lift is not in the dual lattice\n"
        "raised: overlattice discriminant lift is not orthogonal to the glue\n")


LYING_MINOR_SNF_SCRIPT = """
import sys
from coblemukai import catalog, exact, rootgraph
if __debug__:
    sys.exit("not running under -O")
n = catalog.build_graph("I").n  # 12 roots spanning rank 10


def fires(check):
    # a fresh graph each time: a graph builds its span once and keeps it
    try:
        check(catalog.build_graph("I"))
    except AssertionError as exc:
        print("raised:", exc)
    else:
        sys.exit("self-check did not fire")


truthful_inverse = exact.inverse


def lying_inverse(m):
    # d*M^-1 gains its first column in its second; the minors, det M among them, pass through
    solved = truthful_inverse(m)
    inv, d = solved
    return exact.Inverse([[r[0], r[0] + r[1]] + r[2:] for r in inv], d, solved.minors)


exact.inverse = lying_inverse
for check in (rootgraph.span_lattice, rootgraph.span_check):
    fires(check)
exact.inverse = truthful_inverse
truthful_hnf = exact.hnf_rows


def lying_hnf(rows):
    # the Gram's HNF loses its last row: S is one pivot short, M stays nonsingular
    res = truthful_hnf(rows)
    return res[:-1] if len(rows) == n else res


exact.hnf_rows = lying_hnf
for check in (rootgraph.span_lattice, rootgraph.span_check):
    fires(check)
"""


def test_radical_split_check_survives_python_O():
    # a wrong d*M^-1 fails (d M^-1) M = d I; a short pivot set S leaves
    # G[T,S] M^-1 G[S,T] != G[T,T] on the rows T outside it
    src = str(Path(lattice.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", LYING_MINOR_SNF_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "raised: radical split failed: d M^-1 times M is not d I\n" * 2
        + "raised: radical split failed: C M C^T is not d^2 G off the pivots\n" * 2
    )


LYING_ELIMINATION_SCRIPT = """
import sys
from coblemukai import catalog, exact, lattice, rootgraph
if __debug__:
    sys.exit("not running under -O")
truthful_eliminate = exact._eliminate


def lying_eliminate(a):
    # the one elimination behind det and inverse ends one off in its last pivot
    sign = truthful_eliminate(a)
    a[len(a) - 1][len(a) - 1] += 1
    return sign


exact._eliminate = lying_eliminate
for check in (lambda: lattice.discriminant_group(lattice.make_named("A2")),
              lambda: lattice.discriminant_group(lattice.make_named("A1")),
              lambda: rootgraph.span_lattice(catalog.build_graph("I"))):
    try:
        check()
    except AssertionError as exc:
        print("raised:", exc)
    else:
        sys.exit("self-check did not fire")
"""


def test_elimination_self_checks_survive_python_O():
    # det and inverse share exact._eliminate; a wrong last pivot breaks
    # |L*/L| = |det L| and (d M^-1) M = d I, two checks independent of it.
    # A1 is made to lie det = -1, so only the HNF that confirms a trivial
    # L*/L can catch it
    src = str(Path(lattice.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", LYING_ELIMINATION_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "raised: discriminant group order does not match |det|\n" * 2
        + "raised: radical split failed: d M^-1 times M is not d I\n"
    )


LYING_SNF_TRANSFORMS_SCRIPT = """
import sys
from coblemukai import exact, lattice
if __debug__:
    sys.exit("not running under -O")
truthful_identity = exact.identity


def sheared_identity(n):
    # snf's right transform starts one shear off the identity, so every
    # column operation it records is right but the transform it returns is not
    start = truthful_identity(n)
    if n > 1:
        start[0][n - 1] = 1
    return start


exact.identity = sheared_identity
for check in (lambda: lattice.discriminant_group(lattice.make_named("A2")),
              lambda: lattice.saturate(lattice.make_named("D4+D4"))):
    try:
        check()
    except AssertionError as exc:
        print("raised:", exc)
    else:
        sys.exit("self-check did not fire")
"""


def test_snf_self_check_survives_python_O():
    # snf checks nothing itself; its caller reads the lifts off the right
    # transform, and a transform that does not start at the identity gives
    # lifts outside L*
    assert _run_under_O(LYING_SNF_TRANSFORMS_SCRIPT) == (
        "raised: discriminant generator lift is not in the dual lattice\n" * 2)


TRIPLED_SNF_RIGHT_SCRIPT = """
import sys
from coblemukai import exact, lattice
if __debug__:
    sys.exit("not running under -O")
truthful_snf = exact.snf


def tripled_right(m):
    # the factors are right and the lifts stay in L*, but 3 times each
    res = truthful_snf(m)
    return exact.SnfResult(res.factors, tuple(tuple(3 * x for x in row) for row in res.right))


exact.snf = tripled_right
for spec in ("A2", "E6+A2", "A1+A1", "D4", "A3"):
    lat = lattice.make_named(spec)
    try:
        group = lattice.discriminant_group(lat)
    except AssertionError as exc:
        print(f"{spec} raised:", exc)
    else:
        print(f"{spec} passed:", group.invariant_factors)
"""


def test_discriminant_generation_check_survives_python_O():
    # 3 times a basis of L*/L generates nothing where L*/L is 3-torsion, so
    # the HNF index check fires on A2 and E6+A2; where 3 is a unit mod every
    # d_i the tripled lifts are still a basis, and nothing fires
    assert _run_under_O(TRIPLED_SNF_RIGHT_SCRIPT) == (
        "A2 raised: discriminant lifts do not generate L*/L\n"
        "E6+A2 raised: discriminant lifts do not generate L*/L\n"
        "A1+A1 passed: (2, 2)\n"
        "D4 passed: (2, 2)\n"
        "A3 passed: (4,)\n")


SHORT_KERNEL_HNF_SCRIPT = """
import sys
from coblemukai import exact
if __debug__:
    sys.exit("not running under -O")
truthful_hnf = exact.hnf_rows
# the HNF of (Mx, x) loses its last row, a kernel vector
exact.hnf_rows = lambda rows: truthful_hnf(rows)[:-1]
for m in ([[2, 4]], [[-2, 1, 1], [1, -2, 1], [1, 1, -2]]):
    try:
        exact.int_kernel(m)
    except AssertionError as exc:
        print("raised:", exc)
    else:
        sys.exit("self-check did not fire")
"""


def test_int_kernel_check_survives_python_O():
    assert _run_under_O(SHORT_KERNEL_HNF_SCRIPT) == (
        "raised: integer kernel: HNF of (Mx, x) is not of rank cols, or M K != 0\n" * 2)


LYING_INDEX_SCRIPT = """
import sys
from fractions import Fraction
from coblemukai import lattice
if __debug__:
    sys.exit("not running under -O")
truthful_adjoin = lattice._adjoin


def doubled_adjoin(lat, rows, den):
    # the HNF basis is right, the index read off its pivots is twice too big
    basis, index = truthful_adjoin(lat, rows, den)
    return basis, 2 * index


lattice._adjoin = doubled_adjoin
a1 = lattice.make_named("A1+A1")
half = Fraction(1, 2)
for lat, glue in ((lattice.make_named("U(2)"), [(half, 0)]),
                  (lattice.direct_sum(a1, lattice.rescale(a1, -1)), [(half, 0, half, 0)])):
    try:
        lattice.overlattice(lat, glue)
    except AssertionError as exc:
        print("raised:", exc)
    else:
        sys.exit("self-check did not fire")
"""


def test_overlattice_index_check_survives_python_O():
    # det L' is taken as det L / index^2.  U(2) has det -4, which 4^2 does
    # not divide; A1+A1+A1(-1)+A1(-1) has det 16 = 4^2 * 1, but the SNF of
    # L' = U+A1+A1(-1) finds |L'*/L'| = 4, not 1
    src = str(Path(lattice.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", LYING_INDEX_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "raised: overlattice index does not match glue subgroup order\n"
        "raised: discriminant group order does not match |det|\n"
    )


LYING_HNF_SCRIPT = """
import sys
from fractions import Fraction
from coblemukai import catalog, exact, lattice
if __debug__:
    sys.exit("not running under -O")
half = Fraction(1, 2)
u2 = lattice.make_named("U(2)")
model = catalog.build_model("MI")
truthful_hnf = exact.hnf_rows


def fires(check):
    try:
        check()
    except AssertionError as exc:
        print("raised:", exc)
    else:
        sys.exit("self-check did not fire")


# the HNF loses its last row: the span of den*I and the glue, or of 2*I and
# the boundaries, is then short of full rank
exact.hnf_rows = lambda rows: truthful_hnf(rows)[:-1]
fires(lambda: lattice.overlattice(u2, [(half, 0)]))
fires(lambda: catalog.coble_mukai(model))
# the HNF halves each row that is even: [[-2]] spans 2Z, [[1]] all of Z
exact.hnf_rows = lambda rows: [
    [x // 2 for x in row] if all(x % 2 == 0 for x in row) else row for row in truthful_hnf(rows)
]
fires(lambda: lattice.radical_quotient([[-2]]))
"""


def test_hnf_backed_self_checks_survive_python_O():
    # _adjoin and coble_mukai count the HNF's rows; radical_quotient's
    # B M^-1 B^T with B = [[1]], M = [[-2]] is -1/2
    assert _run_under_O(LYING_HNF_SCRIPT) == (
        "raised: overlattice basis does not have full rank\n"
        "raised: half-boundary extension does not have full rank\n"
        "raised: span Gram B M^-1 B^T is not integral\n")


LYING_HELPERS_SCRIPT = """
import sys
from fractions import Fraction
from coblemukai import lattice
if __debug__:
    sys.exit("not running under -O")
half = Fraction(1, 2)
a1 = lattice.make_named("A1+A1")
a1a1 = lattice.direct_sum(a1, lattice.rescale(a1, -1))


def fires(check):
    try:
        check()
    except AssertionError as exc:
        print("raised:", exc)
    else:
        sys.exit("self-check did not fire")


truthful_subgroup = lattice.mod2_subgroup


def one_more(lat, h_gens):
    # H gains a class: the span [0, 3] of (1, 1) on A1+A1 becomes [0, 1, 3]
    span, anisotropic = truthful_subgroup(lat, h_gens)
    return sorted({*span, 1}), anisotropic


lattice.mod2_subgroup = one_more
fires(lambda: lattice.half_overlattice(a1, [(1, 1)]))
lattice.mod2_subgroup = truthful_subgroup
truthful_adjoin = lattice._adjoin


def one_less(lat, rows, den):
    # the glued basis loses its last generator; on the rank-2 zero form,
    # of det 0, det K_H * |H|^2 = det K holds all the same
    return truthful_adjoin(lat, rows[:-1], den)


lattice._adjoin = one_less
fires(lambda: lattice.half_overlattice(lattice.make_lattice([[0, 0], [0, 0]]), [(1, 0), (0, 1)]))
lattice._adjoin = truthful_adjoin
truthful_basis_gram = lattice._basis_gram


def odd_corner(lat, basis, den):
    # the Gram of L' gains 1 in its first diagonal entry
    g = truthful_basis_gram(lat, basis, den)
    g[0][0] += 1
    return g


lattice._basis_gram = odd_corner
fires(lambda: lattice.overlattice(a1a1, [(half, 0, half, 0)]))
"""


def test_half_overlattice_and_evenness_checks_survive_python_O():
    # |H| is read off the span mod2_subgroup lists and must be the index of
    # the glued basis; L' is even by the evenness of L and the isotropy of
    # the glue, so an odd Gram cannot pass
    assert _run_under_O(LYING_HELPERS_SCRIPT) == (
        "raised: half-overlattice index does not match |H|\n"
        "raised: half-overlattice index does not match |H|\n"
        "raised: overlattice of an even lattice along isotropic glue must be even\n")


# sha256 of repr(radical_quotient(G).gram) for the catalog graphs and 20
# seeded induced subgraphs of VI, MI and MII (size in the comment), as
# produced when the rows went to the HNF in the order given
RADICAL_QUOTIENT_CATALOG_SHA256 = {
    "I": "a6af15d0ae8e4365d0065e49afe1971eb69d34eb7018597f9abd77442d72cef7",
    "II": "8371e7f4715ecf234e214c363aa44d3acaf8ff164b04172f5360aa15a43a36a4",
    "VI": "2b95b49190329be2fa751332766b815020c3442bb1ecf1b7cc64f24561e2ec98",
    "MI": "34c228839c32ce00f5f4006960e518e725e330b23abd23abca77dbec7ad9bf36",
    "MII": "6115b9fd7972b0438e0e90d6d23eeebd7a762cf9544cb823104049311905200d",
}
RADICAL_QUOTIENT_SUBGRAPH_SHA256 = [
    "e77febb7092033aa2f8998e713d63d36254b27eb5b455f659fee609a795bb66e",  # 8
    "fa32f19bbc0ac3ebd34ad52e6c341912f27a021fff2b6ac89cb703d2862bd167",  # 11
    "654cd3aa54ee2ff64498ae0f2c6420e39bf5ed593ce205465aeea1f8f3cf1378",  # 15
    "75102b4e83a3adc6421f177883a1c9677708a24c8dcddbeb0ee70fdc3deb8311",  # 16
    "07071f4660d01370a8ba213dad41eb306e60cb73a6f841d731f94d786cc398e9",  # 11
    "77b6a1ec15d88615bbe425010ed72860f1ba6f865093b9302b5407b7fcf526c4",  # 34
    "d26146172c212bdeb8910aa763b19611e7d1e4e60ac07733f28414a56d51b837",  # 17
    "89c2d911f7521082c317b0a644b01547c5d3318143af1db861322f000ee622be",  # 5
    "e0f815898705ed3de2167a3aa4069065762fd1ebbefc54c1e9d042d93ea415f9",  # 21
    "cfc5ab109ea4bee1e5008a1b6a909c09bbde7f41783513fa80d51cfef50a5bcc",  # 20
    "8b39e6fd7d5311d04fe4cbc564c6c2fe78fbea9f21fc462d18628d4b11775af6",  # 37
    "4c3a2c8082ee651830d5a389137adc743f0d7d85df7c5f4f35b87d0b0c716e06",  # 24
    "63627b13e3f7f03414b49cf211b9a9801f1bd355e37ab47fc3f989ca287ea0f1",  # 7
    "77b03a2e37bd3df80e9708c4899f3a7159fb484f35a0085b047d620968359370",  # 31
    "8b5ceaa3a82818e5873b92db49b2f54a2056d545f46f9994088602717be7dfcd",  # 30
    "7e9ff0808bd8d9f8c64baa3286c3e587a94666333ab1cadc9015806387d80e6b",  # 11
    "15d118d104e961fc1ef2c755999ef09d6a838ee4fd19f51b0e7e73b1bb824680",  # 32
    "42d11d742e5ca86e14655fca66a8e9c087aeed98d5e5e4f434bc02150987bf2c",  # 38
    "cca54f492c1457e2286c9e2f86ccb2bb6b1142cc807ae3c47ae9623ffb32759c",  # 20
    "4ad35c0641d5afbc33d8091f64489ef33004b040bc628681a8ec9bdfe87c7f0b",  # 4
]


def test_radical_quotient_gram_pinned():
    from coblemukai import catalog

    def digest(g):
        q = lattice.radical_quotient(g.gram_rows())
        return hashlib.sha256(repr(q.gram).encode("utf-8")).hexdigest()

    for name, want in RADICAL_QUOTIENT_CATALOG_SHA256.items():
        assert digest(catalog.build_graph(name)) == want, name
    rng = random.Random(15)
    for k, want in enumerate(RADICAL_QUOTIENT_SUBGRAPH_SHA256):
        source = catalog.build_graph(("VI", "MI", "MII")[k % 3])
        g = source.induced(rng.sample(source.labels, rng.randint(2, source.n)))
        assert digest(g) == want, k


def test_radical_split_quotient_matches_the_dense_product():
    # B M^-1 B^T from the triangle of the upper-triangular B, against two
    # dense products, on random symmetric Grams of rank below their size
    rng = random.Random(44)
    for _ in range(60):
        n, r = rng.randint(1, 9), rng.randint(1, 5)
        c = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)]
        d = [[rng.choice((-2, -1, 1, 2)) * (i == j) + rng.randint(-1, 1) * (i != j) for j in range(r)]
             for i in range(r)]
        d = [[d[i][j] + d[j][i] for j in range(r)] for i in range(r)]
        g = exact.matmul(exact.matmul(exact.transpose(c), d), c)
        if not any(map(any, g)):
            continue
        split = lattice.RadicalSplit(g)
        b = [[row[j] for j in split.pivots] for row in split.hnf]
        dense = exact.matmul(exact.matmul(b, split.inverse), exact.transpose(b))
        assert split.quotient.gram == tuple(tuple(x // split.den for x in row) for row in dense), g


def test_mod2_nullity_examples():
    assert lattice.mod2_nullity(make_named("A1"))[0] == 0
    assert lattice.mod2_nullity(make_named("A1+A1"))[:2] == (1, 1)
    assert lattice.mod2_nullity(make_named("E6"))[0] == 0
    assert lattice.mod2_nullity(make_named("A5+A5+A1+A1"))[0] == 3
    assert lattice.mod2_nullity(make_named("D8+A2+A2"))[0] == 2
    assert lattice.mod2_nullity(make_named("E8+A2+A2"))[0] == 0


def test_mod2_nullity_kernel_vectors_annihilate_f():
    for name in ["A1+A1", "A5+A5+A1+A1", "D8+A2+A2", "A9+A1"]:
        lat = make_named(name)
        nullity, rank, basis = lattice.mod2_nullity(lat)
        assert nullity + rank == lat.rank
        g = lat.gram
        for v in basis:
            norm = sum(v[i] * g[i][j] * v[j] for i in range(lat.rank) for j in range(lat.rank))
            assert norm % 4 == 0  # q(v) = <v, v>/2 is 0 mod 2
            for j in range(lat.rank):
                assert sum(g[i][j] * v[i] for i in range(lat.rank)) % 2 == 0


def test_half_overlattice_a1a1():
    k = make_named("A1+A1")
    out = lattice.half_overlattice(k, [(1, 1)])
    assert out.rank == 2
    assert lattice.det(k) == lattice.det(out) * 4
    # contains a (-1)-vector, so the result is odd
    assert not lattice.is_even(out)
    assert any(out.gram[i][i] == -1 for i in range(2))


def test_half_overlattice_trivial():
    k = make_named("A2")
    assert lattice.half_overlattice(k, []).gram == k.gram


def test_half_overlattice_d8a2a2_kernel_pairs_half_integrally():
    # The two q-kernel classes of D8 pair to -1/2 whatever lifts are chosen,
    # so halving the full kernel cannot give an integral lattice; the op
    # reports that instead of silently returning a rational Gram.
    k = make_named("D8+A2+A2")
    nullity, _, basis = lattice.mod2_nullity(k)
    assert nullity == 2
    with pytest.raises(ValueError, match="non-integral"):
        lattice.half_overlattice(k, basis)
    # each cyclic piece of the kernel glues fine on its own
    for v in basis:
        out = lattice.half_overlattice(k, [v])
        assert out.rank == 12
        assert lattice.det(out) * 4 == lattice.det(k)


def test_half_overlattice_two_generator_integral_case():
    k = make_named("A1+A1+A1+A1")
    out = lattice.half_overlattice(k, [(1, 1, 0, 0), (0, 0, 1, 1)])
    assert out.rank == 4
    assert lattice.det(out) * 16 == lattice.det(k)
    assert not lattice.is_even(out)


@pytest.mark.parametrize("spec", ["D4", "A1+A1+A1", "A1+A1+A1+A1"])
def test_half_overlattice_refuses_full_q_kernel(spec):
    # two kernel classes pairing to 2 mod 4 make <h/2, h'/2> half-integral
    k = make_named(spec)
    _, _, basis = lattice.mod2_nullity(k)
    with pytest.raises(ValueError, match="non-integral pairing in constructed basis"):
        lattice.half_overlattice(k, basis)


def test_half_overlattice_accepts_e8a1a1_q_kernel():
    k = make_named("E8+A1+A1")
    nullity, _, basis = lattice.mod2_nullity(k)
    assert nullity == 1
    out = lattice.half_overlattice(k, basis)
    assert out.rank == 10
    assert lattice.det(out) * 4 == lattice.det(k)
    assert not lattice.is_even(out)


def test_half_overlattice_rejects_non_isotropic():
    k = make_named("A1+A1")
    with pytest.raises(ValueError):
        lattice.half_overlattice(k, [(1, 0)])


def test_gram_text_roundtrip(tmp_path):
    lat = make_named("A2")
    text = "rank 2\n-2 1\n1 -2\n"
    parsed = lattice.parse_gram_text(text)
    assert parsed.gram == lat.gram
    p = tmp_path / "a2.gram"
    p.write_text(text)
    assert lattice.load_gram_file(str(p)).gram == lat.gram


@pytest.mark.parametrize(
    "text",
    ["", "rank x\n1", "rank 2\n1 2 3", "rank 2\n0 1\n2 0", "rank 2\na b c d"],
)
def test_gram_text_rejects_malformed(text):
    with pytest.raises(ValueError):
        lattice.parse_gram_text(text)


def test_mod2_nullity_any_rank():
    # mod-2 linear algebra only, so any rank is fine
    big = lattice.direct_sum(*[make_named("A1")] * 17)
    nullity, rank, _ = lattice.mod2_nullity(big)
    assert nullity + rank == 17


@pytest.mark.parametrize("token, value", [
    ("0", 0), ("7", 7), ("-7", -7), ("+7", 7), ("-0", 0), ("007", 7), ("1" * 300, int("1" * 300)),
])
def test_ascii_int_reads_a_sign_and_ascii_digits(token, value):
    assert lattice.ascii_int(token) == value


# int() reads 1_0, the non-ASCII digits ٢ and １, and the tokens with whitespace
@pytest.mark.parametrize("token", ["", "-", "+", "1_0", "٢", "²", "１", " 1", "1 ", "+-1", "--1", "1.0", "0x1"])
def test_ascii_int_refuses_other_integer_text(token):
    with pytest.raises(ValueError, match="^not an integer: "):
        lattice.ascii_int(token)


def test_ascii_int_refuses_more_digits_than_int_converts_in_its_own_words():
    limit = sys.get_int_max_str_digits()
    assert limit > 0
    for token in ("1" * (limit + 1), "-" + "1" * (limit + 1)):
        with pytest.raises(ValueError) as info:
            lattice.ascii_int(token)
        assert str(info.value) == f"integer has more than {limit} digits"
    assert lattice.ascii_int("-" + "1" * limit) == -int("1" * limit)
    sys.set_int_max_str_digits(0)  # no limit: the same token is read
    try:
        assert lattice.ascii_int("1" * (limit + 1)) == int("1" * (limit + 1))
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("token, value", [
    ("3", Fraction(3)), ("-3", Fraction(-3)), ("1/2", Fraction(1, 2)), ("-1/2", Fraction(-1, 2)),
    ("+2/4", Fraction(1, 2)), ("0/5", Fraction(0)), ("7/03", Fraction(7, 3)),
])
def test_ascii_fraction_reads_p_and_p_over_q(token, value):
    assert lattice.ascii_fraction(token) == value


# Fraction reads the decimal, exponent, underscore and non-ASCII forms here
@pytest.mark.parametrize("token", [
    "", "/", "1/", "/2", "1/-2", "1/+2", "1/2/3", "1/ 2", "0.5", ".5", "5.", "1e3", "1e-3",
    "1_0/2", "1/2_0", "٢/3", "1/٢", "nan", "inf", "1/" + "1" * 5000, "1" * 5000 + "/2",
], ids=lambda t: t if len(t) < 20 else f"{t[:3]}...({len(t)} chars)")
def test_ascii_fraction_refuses_other_rational_text(token):
    with pytest.raises(ValueError):
        lattice.ascii_fraction(token)


def test_ascii_fraction_zero_denominator_is_a_zero_division():
    for token in ("1/0", "0/0", "-5/000"):
        with pytest.raises(ZeroDivisionError):
            lattice.ascii_fraction(token)


NON_SYMMETRIC = [[2, 1], [0, 2]]


@pytest.mark.parametrize("call, message", [
    (lambda: exact.matmul([[1, 2]], [[1, 2]]), "matmul shape mismatch"),
    (lambda: exact.det([[1, 2]]), "det requires a square matrix"),
    (lambda: exact.inverse([[1, 2]]), "inverse requires a square matrix"),
    (lambda: lattice.make_lattice(NON_SYMMETRIC), "Gram matrix must be symmetric"),
    (lambda: lattice.radical_quotient(NON_SYMMETRIC), "Gram matrix must be symmetric"),
    (lambda: lattice.rescale(make_named("A1"), 0), "rescale factor must be nonzero"),
    (lambda: lattice.discriminant_group(lattice.make_lattice([[0, 0], [0, -2]])),
     "degenerate Gram matrix has no discriminant group"),
], ids=["matmul-shape", "det-non-square", "inverse-non-square", "Lattice-non-symmetric",
        "radical_quotient-non-symmetric", "rescale-zero", "discriminant_group-degenerate"])
def test_exact_and_lattice_refusals(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


# Entries are checked where they enter: a Gram entry must be an integer, a
# vector entry an integer or a Fraction.  An integer is read by
# operator.index, so a numpy integer or a bool comes out as a Python int,
# and a float, a Fraction Gram entry or a str is refused, not truncated.
GRAM_ENTRIES = "Gram entries must be integers"
VECTOR_ENTRIES = "vector entries must be integers or Fractions"
WIDE = lattice.make_lattice([[2**30, 0], [0, 2]])
ENTRY_POINTS = {
    "make_lattice": lambda x: lattice.make_lattice([[x, 0], [0, 2]]).gram,
    "rescale": lambda x: lattice.rescale(make_named("A1"), x).gram,
    "radical_quotient": lambda x: lattice.radical_quotient([[x, 0], [0, -2]]).gram,
    "gram_matrix": lambda x: lattice.gram_matrix(make_named("A1"), [[x]]),
    "gram_matrix-array": lambda x: lattice.gram_matrix(WIDE, np.array([[x, 1]])),
    "overlattice": lambda x: lattice.overlattice(make_named("U(2)"), [[x, 0]]).gram,
    "disc_q": lambda x: [[lattice.disc_q(make_named("A1"), [x])]],
}


def _entry_case(entry_point, entry, outcome):
    return pytest.param(entry_point, entry, outcome, id=f"{entry_point}-{type(entry).__name__}")


@pytest.mark.parametrize("entry_point, entry, outcome", [
    *(_entry_case(name, entry, GRAM_ENTRIES)
      for name in ("make_lattice", "rescale", "radical_quotient")
      for entry in (1.5, Fraction(1, 2), "3")),
    *(_entry_case(name, entry, VECTOR_ENTRIES)
      for name in ("gram_matrix", "gram_matrix-array", "overlattice", "disc_q")
      for entry in (1.5, "3")),
    _entry_case("gram_matrix", Fraction(1, 2), [[Fraction(-1, 2)]]),
    _entry_case("overlattice", Fraction(1, 2), ((0, 1), (1, 0))),
    _entry_case("disc_q", Fraction(1, 2), [[Fraction(3, 2)]]),
    _entry_case("make_lattice", np.int64(3), ((3, 0), (0, 2))),
    _entry_case("make_lattice", True, ((1, 0), (0, 2))),
    _entry_case("rescale", np.int64(3), ((-6,),)),
    _entry_case("radical_quotient", np.int64(3), ((3, 0), (0, -2))),
    _entry_case("radical_quotient", True, ((1, 0), (0, -2))),
    _entry_case("gram_matrix", np.int64(3), [[-18]]),
    _entry_case("overlattice", True, ((0, 2), (2, 0))),
    # int64 products would wrap 2^110 + 2 to 2: array entries must become Python ints
    _entry_case("gram_matrix-array", 2**40, [[2**110 + 2]]),
])
def test_entries_are_checked_where_they_enter(entry_point, entry, outcome):
    call = ENTRY_POINTS[entry_point]
    if isinstance(outcome, str):
        with pytest.raises(ValueError) as exc:
            call(entry)
        assert str(exc.value) == outcome
        return
    got = call(entry)
    assert got == outcome
    assert [list(map(type, row)) for row in got] == [list(map(type, row)) for row in outcome]
