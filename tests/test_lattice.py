import os
import random
import subprocess
import sys
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

from coblemukai import lattice
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


@pytest.mark.parametrize("bad", ["D3", "E5", "E9", "A0", "B4", "", "A4++A2", "A4(0)", "q"])
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


def test_disc_b_examples():
    a1 = make_named("A1")
    x = (Fraction(1, 2),)
    assert lattice.disc_b(a1, x, x) == Fraction(1, 2)
    assert lattice.disc_b(a1, x, (0,)) == 0
    u = make_named("U")
    assert lattice.disc_b(u, (0, 0), (0, 0)) == 0


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
lattice.overlattice = lambda lat, glue: lat  # glues nothing
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



LYING_MINOR_SNF_SCRIPT = """
import sys
from coblemukai import catalog, exact, rootgraph
if __debug__:
    sys.exit("not running under -O")
g = catalog.build_graph("I")  # 12 roots spanning rank 10
truthful = exact.snf

def lying(m):
    # lies only on the r x r minor: V gains its first column in its second
    res = truthful(m)
    if len(m) == g.n:
        return res
    right = tuple((r[0], r[0] + r[1]) + r[2:] for r in res.right)
    return exact.SnfResult(res.factors, res.left, right)

exact.snf = lying
try:
    rootgraph.span_lattice(g)
except AssertionError as exc:
    print("raised:", exc)
else:
    sys.exit("self-check did not fire")
"""


def test_radical_split_check_survives_python_O():
    # a wrong d*M^-1 gives root coordinates C with C M C^T != d^2 G
    src = str(Path(lattice.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", LYING_MINOR_SNF_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised: radical split failed\n"

def test_mod2_form_a1():
    form = lattice.mod2_form(make_named("A1"))
    assert form.f_matrix == ((0,),)
    assert form.q_values == (0, 1)


def test_mod2_form_law_small():
    for name in ["A1", "A2", "A1+A1", "D4", "E6"]:
        lat = make_named(name)
        form = lattice.mod2_form(lat)
        n = form.dimension
        for x in range(1 << n):
            for y in range(1 << n):
                f = sum(
                    form.f_matrix[i][j]
                    for i in range(n)
                    if x >> i & 1
                    for j in range(n)
                    if y >> j & 1
                )
                assert form.q_values[x ^ y] == (form.q_values[x] + form.q_values[y] + f) % 2


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
        g = lat.gram_rows()
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


def test_orth_complement_examples():
    u = make_named("U")
    c = lattice.orth_complement(u, [(1, 0)])
    assert c.rank == 1 and c.gram == ((0,),)
    e10 = make_named("E10")
    e8_vectors = [tuple(1 if j == i else 0 for j in range(10)) for i in range(2, 10)]
    comp = lattice.orth_complement(e10, e8_vectors)
    assert comp.rank == 2
    assert lattice.det(comp) == -1
    assert lattice.signature(comp) == (1, 1, 0)
    assert lattice.orth_complement(u, []) is u


def test_reflect_examples():
    a2 = make_named("A2")
    e1, e2 = (1, 0), (0, 1)
    assert lattice.reflect(a2, e2, e1) == (1, 1)
    assert lattice.reflect(a2, e1, e1) == (-1, 0)
    u = make_named("U")
    delta = (1, -1)
    assert lattice.reflect(u, delta, (1, 1)) == (1, 1)


def test_reflect_involution_and_isometry():
    rng = random.Random(23)
    lat = make_named("E10")
    n = lat.rank
    deltas = [tuple(1 if j == i else 0 for j in range(n)) for i in range(2, n)]
    deltas.append((1, -1) + (0,) * 8)
    deltas = [d for d in deltas if lattice.pairing(lat, d, d) == -2]
    assert len(deltas) >= 5
    for delta in deltas:
        for _ in range(5):
            x = tuple(rng.randint(-3, 3) for _ in range(n))
            y = tuple(rng.randint(-3, 3) for _ in range(n))
            rx = lattice.reflect(lat, delta, x)
            assert lattice.reflect(lat, delta, rx) == x
            assert lattice.pairing(lat, rx, lattice.reflect(lat, delta, y)) == lattice.pairing(
                lat, x, y
            )


def test_reflect_rejects_wrong_norm():
    with pytest.raises(ValueError):
        lattice.reflect(make_named("U"), (1, 0), (0, 1))


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


def test_mod2_form_rank_cap():
    big = lattice.direct_sum(*[make_named("A1")] * 17)
    with pytest.raises(ValueError, match="capped"):
        lattice.mod2_form(big)
    # nullity still works above the cap, via linear algebra only
    nullity, rank, _ = lattice.mod2_nullity(big)
    assert nullity + rank == 17
