import copy
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from coblemukai import catalog, exact, lattice, rootgraph
from coblemukai.catalog import (
    build_graph,
    build_model,
    coble_mukai,
    q_kernel_invariant,
    r_invariant_check,
    table1,
    verify_realization,
)
from coblemukai.rootgraph import KIND_CURVE, KIND_ROOT


def test_build_graph_vertex_counts():
    assert build_graph("I").n == 12
    assert build_graph("II").n == 12
    assert build_graph("VI").n == 20
    assert build_graph("MI").n == 40
    assert build_graph("MII").n == 40
    with pytest.raises(ValueError):
        build_graph("V")


def test_mi_census():
    g = build_graph("MI")
    duads = [l for l in g.labels if l.startswith("d:")]
    synthemes = [l for l in g.labels if l.startswith("s:")]
    triads = [l for l in g.labels if l.startswith("t:")]
    assert (len(duads), len(synthemes), len(triads)) == (15, 15, 10)
    # each duad: 8 single duad neighbors, 3 syntheme + 4 triad double neighbors
    i = g.index("d:12")
    singles = sum(1 for j in range(g.n) if g.mult[i][j] == 1)
    doubles = sum(1 for j in range(g.n) if g.mult[i][j] == 2)
    assert (singles, doubles) == (8, 7)
    # triads: complete double graph among themselves, 21 doubles total
    t = g.index("t:123")
    assert sum(1 for j in range(g.n) if g.mult[t][j] == 2) == 21
    assert sum(1 for j in range(g.n) if g.mult[t][j] == 1) == 0


def test_mii_census():
    g = build_graph("MII")
    grid = [l for l in g.labels if l.startswith("g:")]
    perms = [l for l in g.labels if l.startswith("p:")]
    assert (len(grid), len(perms)) == (16, 24)
    i = g.index("g:11")
    assert sum(1 for j in range(g.n) if g.mult[i][j] == 1) == 6
    assert sum(1 for j in range(g.n) if g.mult[i][j] == 2) == 6
    p = g.index("p:id")
    assert sum(1 for j in range(g.n) if g.mult[p][j] == 1) == 8
    assert sum(1 for j in range(g.n) if g.mult[p][j] == 2) == 13


def test_vi_census():
    g = build_graph("VI")
    e_block = [l for l in g.labels if l.startswith("e:")]
    assert len(e_block) == 10
    # Petersen part is 3-regular under single edges
    for l in e_block:
        i = g.index(l)
        deg = sum(1 for m in e_block if g.mult[i][g.index(m)] == 1)
        assert deg == 3
    # cross pairing e_D . f_D' = 2 * delta
    for d in ("12", "25", "45"):
        for dp in ("12", "25", "45"):
            got = g.mult[g.index(f"e:{d}")][g.index(f"f:{dp}")]
            assert got == (2 if d == dp else 0)


def test_parity_law_on_built_graphs():
    # curve/root pairings are always even
    for name in ("I", "VI", "MI", "MII"):
        g = build_graph(name)
        for i in range(g.n):
            for j in range(i + 1, g.n):
                if g.kinds[i] != g.kinds[j]:
                    assert g.mult[i][j] % 2 == 0, (name, g.labels[i], g.labels[j])


def test_kind_decorations():
    gI = build_graph("I")
    assert [l for l, k in zip(gI.labels, gI.kinds) if k == KIND_ROOT] == ["c2", "c3"]
    gMI = build_graph("MI")
    roots = [l for l, k in zip(gMI.labels, gMI.kinds) if k == KIND_ROOT]
    assert all(l.startswith("t:") for l in roots) and len(roots) == 10
    gMII = build_graph("MII")
    roots = [l for l, k in zip(gMII.labels, gMII.kinds) if k == KIND_ROOT]
    assert all(l.startswith("g:") for l in roots) and len(roots) == 16


def test_graph_roundtrip_through_text():
    for name in ("I", "MI"):
        g = build_graph(name)
        assert rootgraph.parse_graph_text(rootgraph.format_graph(g)) == g


def test_model_mi_invariants():
    # classes are rows over den, so row pairings are den**2 times the pairings
    model = build_model("MI")
    amb = model.ambient
    scale = model.den ** 2
    (bn, b), (bpn, bp) = model.boundaries
    assert lattice.gram_matrix(amb, [b], [b])[0][0] == -4 * scale
    assert lattice.gram_matrix(amb, [b], [bp])[0][0] == 0
    rm = model.root_map()
    assert lattice.gram_matrix(amb, [rm["d:12"]], [rm["d:13"]])[0][0] == 1 * scale
    assert lattice.gram_matrix(amb, [rm["d:12"]], [rm["d:34"]])[0][0] == 0
    assert lattice.gram_matrix(amb, [rm["t:123"]], [rm["t:124"]])[0][0] == 2 * scale


def test_model_mii_invariants():
    model = build_model("MII")
    amb = model.ambient
    scale = model.den ** 2
    rm = model.root_map()
    g = build_graph("MII")
    # double edge iff (i,j) in the permutation graph
    for ij in ("11", "23", "44"):
        for p in ("p:id", "p:(12)", "p:(1234)"):
            got = lattice.gram_matrix(amb, [rm[f"g:{ij}"]], [rm[p]])[0][0]
            assert got == g.mult[g.index(f"g:{ij}")][g.index(p)] * scale
    # grid roots pair to 1 iff they share exactly one coordinate
    assert lattice.gram_matrix(amb, [rm["g:11"]], [rm["g:12"]])[0][0] == 1 * scale
    assert lattice.gram_matrix(amb, [rm["g:11"]], [rm["g:22"]])[0][0] == 0


def test_mii_transposition_conic_regression():
    # the conic labeled by the transposition (12) passes through exactly
    # (p1,p2), (p2,p1), (p3,p3), (p4,p4)
    pts = catalog.mii_curve_points("p:(12)")
    assert sorted(pts) == [(1, 2), (2, 1), (3, 3), (4, 4)]


WRONG_MII_EQUATION_SCRIPT = """
import sys
from coblemukai import catalog
if __debug__:
    sys.exit("not running under -O")
# the identity's curve is given the equation of (12)(34)
catalog.MII_EQUATIONS["p:id"] = catalog.MII_EQUATIONS["p:(12)(34)"]
try:
    catalog.build_model_mii()
except AssertionError as exc:
    print("raised:", exc)
else:
    sys.exit("self-check did not fire")
"""


def test_mii_curve_check_survives_python_O():
    src = str(Path(catalog.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", WRONG_MII_EQUATION_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "raised: curve p:id: F3 evaluation gives [(1, 2), (2, 1), (3, 4), (4, 3)], "
        "not the permutation graph\n")


def test_verify_realization_passes():
    for name in ("MI", "MII"):
        rep = verify_realization(build_graph(name), build_model(name))
        assert rep.ok, rep.failures[:4]


def test_verify_realization_negative_control():
    g = build_graph("MI")
    model = build_model("MI")
    mult = [list(row) for row in g.mult]
    i, j = g.index("d:12"), g.index("d:13")
    mult[i][j] = mult[j][i] = 0  # delete one edge
    broken = rootgraph.RootGraph(g.labels, mult, g.kinds, name="MI-broken")
    rep = verify_realization(broken, model)
    assert not rep.ok
    assert any("d:12" in f and "d:13" in f for f in rep.failures)


@pytest.mark.parametrize("name", ["MI", "MII"])
def test_verify_realization_flags_swapped_kind_tags(name):
    g = build_graph(name)
    root = g.kinds.index(KIND_ROOT)
    curve = g.kinds.index(KIND_CURVE)
    kinds = list(g.kinds)
    kinds[root], kinds[curve] = kinds[curve], kinds[root]
    swapped = rootgraph.RootGraph(g.labels, g.mult, kinds, name=name)
    rep = verify_realization(swapped, build_model(name))
    flagged = [f for f in rep.failures if "kind tag" in f]
    assert flagged == [f"{g.labels[i]}: kind tag does not match realization"
                       for i in sorted((root, curve))]


def test_coble_mukai_mi():
    cm = coble_mukai(build_model("MI"))
    lat = cm.lattice
    assert lat.rank == 10
    assert lattice.is_even(lat)
    assert lattice.signature(lat) == (1, 9, 0)
    assert lattice.det(lat) == -1


def test_coble_mukai_mii():
    cm = coble_mukai(build_model("MII"))
    lat = cm.lattice
    assert lat.rank == 10
    assert lattice.is_even(lat)
    assert lattice.signature(lat) == (1, 9, 0)
    d = lattice.det(lat)
    assert d < 0 and abs(d) & (abs(d) - 1) == 0  # -2^l


def test_coble_mukai_contains_all_roots():
    for name in ("MI", "MII"):
        model = build_model(name)
        cm = coble_mukai(model)
        roots = [v for _, v in model.roots]
        assert cm.contains(roots, model.den)
        for v in roots:
            assert cm.contains([v], model.den)
        assert cm.contains([], model.den)
        # a boundary pairs -4 with itself, so it is not in its complement
        boundary = model.boundary_vectors()[0]
        assert not cm.contains([boundary], model.den)
        assert not cm.contains([roots[0], boundary], model.den)
        # over 2*den, a root plus 1 in one entry is half a unit off the lattice
        assert cm.contains([[2 * x for x in roots[0]]], 2 * model.den)
        off = [2 * x + (k == 0) for k, x in enumerate(roots[0])]
        assert not cm.contains([off], 2 * model.den)


def test_coble_mukai_contains_leaves_twice_unchanged():
    # contains hands the rows of twice to exact.hnf_rows, which copies the
    # rows it reduces; so a second call sees the same basis and answers alike
    model = build_model("MI")
    cm = coble_mukai(model)
    before = copy.deepcopy(cm.twice)
    roots = [v for _, v in model.roots]
    for rows, want in ((roots, True), ([model.boundary_vectors()[0]], False)):
        assert cm.contains(rows, model.den) is want
        assert cm.contains(rows, model.den) is want
        assert cm.twice == before


def sympy_solve_in_rows(rows, target):
    """Coefficients x with x * rows = target, or None; the rows are independent."""
    k = len(rows)
    aug = sympy.Matrix(rows + [list(target)]).T
    aug = DomainMatrix.from_Matrix(aug).convert_to(sympy.QQ)
    if aug[:, :k].rank() != aug.rank():
        return None
    red, _ = aug.rref()
    return list(red.to_Matrix()[:k, k])


@pytest.mark.parametrize("name", ["MI", "MII"])
def test_coble_mukai_contains_matches_sympy_solve(name):
    # contains compares integer HNFs; the definition is an integral solution
    # of the rational linear system in the basis rows, twice the cm.twice rows
    model = build_model(name)
    cm = coble_mukai(model)
    basis = [[Fraction(x, 2) for x in b] for b in cm.twice]
    n = model.ambient.rank
    rng = random.Random(17)
    probes = [tuple(Fraction(x, model.den) for x in v)
              for _, v in model.roots + model.boundaries]
    for _ in range(40):
        coeffs = [rng.randint(-2, 2) for _ in basis]
        member = [sum(c * b[k] for c, b in zip(coeffs, basis)) for k in range(n)]
        probes.append(tuple(member))
        # nudging one coordinate by 1/2 or 1 usually leaves the lattice
        k = rng.randrange(n)
        probes.append(tuple(x + (Fraction(1, 2) if i == k else 0) for i, x in enumerate(member)))
        probes.append(tuple(x + (1 if i == k else 0) for i, x in enumerate(member)))
        probes.append(tuple(Fraction(rng.randint(-3, 3), 2) for _ in range(n)))
        probes.append(tuple(rng.randint(-3, 3) for _ in range(n)))
    probes.append(tuple(Fraction(1, 3) for _ in range(n)))
    verdicts = []
    for v in probes:
        sol = sympy_solve_in_rows(basis, v)
        want = sol is not None and all(c.is_integer for c in sol)
        rows, den = exact.integer_rows([v])
        assert cm.contains(rows, den) == want, v
        verdicts.append(want)
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("name", ["MI", "MII"])
def test_minus_one_root_shape_is_twice_an_exceptional_class(name):
    model = build_model(name)
    b, bp = model.boundary_vectors()[:2]
    half = [(x + y) // 2 for x, y in zip(b, bp)]  # (B + B')/2 over den
    for idx, coef, want in ((5, 2, True), (5, 1, False), (5, 4, False), (5, -2, False), (0, 2, False)):
        v = list(half)
        v[idx] += coef * model.den
        assert catalog._is_minus_one_root(model, v) is want, (idx, coef)


def minus_one_root_by_all_pairs(model, v):
    """The shape test of ``_is_minus_one_root`` against every pair sum."""
    twice = [2 * x for x in v]
    for a, b in combinations(model.boundary_vectors(), 2):
        rest = [t - x - y for t, x, y in zip(twice, a, b)]
        moved = [k for k, x in enumerate(rest) if x]
        if (len(moved) == 1 and rest[moved[0]] == 4 * model.den
                and model.basis_labels[moved[0]] in model.exceptional):
            return True
    return False


@pytest.mark.parametrize("name", ["MI", "MII"])
def test_minus_one_root_matches_all_pairs_scan(name):
    # every root and curve class of the model, then each changed at one
    # entry (a ruling or an exceptional one), and with 2 of each exceptional
    # entry moved to the next exceptional class
    model = build_model(name)
    den = model.den
    exc = [k for k, label in enumerate(model.basis_labels) if label in model.exceptional]
    probes = []
    for _, v in model.roots:
        probes.append(list(v))
        for k in range(len(v)):
            for step in (-4 * den, -den, den):
                w = list(v)
                w[k] += step
                probes.append(w)
        for k, j in zip(exc, exc[1:] + exc[:1]):
            w = list(v)
            w[k], w[j] = w[k] - 2 * den, w[j] + 2 * den
            probes.append(w)
    verdicts = [catalog._is_minus_one_root(model, v) for v in probes]
    assert verdicts == [minus_one_root_by_all_pairs(model, v) for v in probes]
    # some moved classes keep the shape, with their bump at another class
    unmoved = sum(catalog._is_minus_one_root(model, v) for _, v in model.roots)
    assert sum(verdicts) > unmoved > 0 and not all(verdicts)


def test_minus_one_root_compares_only_pair_sums_that_agree_off_the_exceptional_classes(monkeypatch):
    # each full comparison subtracts a pair sum from 2v entry by entry; the
    # all-pairs scan made 40 on MI and 888 on MII
    counts = {}
    for name in ("MI", "MII"):
        g, model = build_graph(name), build_model(name)
        entries = []
        monkeypatch.setattr(catalog, "sub", lambda a, b: entries.append(a) or a - b)
        assert verify_realization(g, model).ok
        counts[name] = len(entries) // model.ambient.rank
        off, index = model._pair_sums
        assert [model.basis_labels[k] for k in off] == ["hu", "hv"]
        assert all(tuple(s[k] for k in off) == key for key, sums in index.items() for s in sums)
    assert counts == {"MI": 10, "MII": 136}


def test_coble_mukai_no_boundaries_is_ambient():
    model = build_model("MI")
    bare = catalog.BlowupModel(
        ambient=model.ambient,
        basis_labels=model.basis_labels,
        exceptional=model.exceptional,
        boundaries=(),
        roots=(),
        den=model.den,
    )
    cm = coble_mukai(bare)
    assert cm.lattice.gram == model.ambient.gram


def test_half_integral_boundary_is_refused():
    # (1/2, -4, 0) has self-pairing -4, but coble_mukai used to truncate it to
    # (0, -4, 0) and return a "complement" pairing 1/2 with the real boundary;
    # as rows over den = 2 it is (1, -8, 0), of row pairing -4 * den**2
    amb = lattice.make_lattice([[0, 1, 0], [1, 0, 0], [0, 0, -1]])
    boundary = (1, -8, 0)
    assert lattice.gram_matrix(amb, [boundary], [boundary])[0][0] == -4 * 2 ** 2

    def model(b):
        return catalog.BlowupModel(
            ambient=amb, basis_labels=("hu", "hv", "e1"), exceptional=("e1",),
            boundaries=(("B", b),), roots=(), den=2,
        )

    with pytest.raises(ValueError, match="boundary B is not an integral class"):
        model(boundary)
    # an integral boundary of the same square, (1, -2, 0), is accepted, and
    # its complement is orthogonal to it
    integral = (2, -4, 0)
    cm = coble_mukai(model(integral))
    assert all(row == [0] for row in lattice.gram_matrix(amb, cm.twice, [integral]))


def _small_model(boundaries, roots):
    """A model on hu, hv, e1, e2 with den 1; rows in that basis."""
    amb, labels = catalog._quadric_ambient(["e1", "e2"])
    return catalog.BlowupModel(ambient=amb, basis_labels=labels, exceptional=labels[2:],
                               boundaries=tuple(boundaries), roots=tuple(roots), den=1)


TWO_E1 = ("B", (0, 0, 2, 0))  # self-pairing -4


@pytest.mark.parametrize("call, message", [
    (lambda: _small_model([("B", (0, 0, 1, 0))], []), "boundary B does not have self-pairing -4"),
    (lambda: _small_model([TWO_E1], [("r", (0, 0, 0, 1))]), "root class r does not have self-pairing -2"),
    (lambda: _small_model([TWO_E1], [("r", (0, 0, 1, -1))]), "root class r meets boundary B"),
    (lambda: coble_mukai(_small_model([TWO_E1, ("B2", (0, 0, 2, 0))], [("r", (1, -1, 0, 0))])),
     "boundary classes must be pairwise orthogonal"),
], ids=["boundary-square", "root-square", "root-meets-boundary", "boundaries-orthogonal"])
def test_model_refusals_name_their_reason(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_small_model_is_accepted():
    # each refused model above differs from this one in a single class;
    # the complement of 2e1 is hu, hv, e2
    model = _small_model([TWO_E1], [("r", (1, -1, 0, 0))])
    assert coble_mukai(model).lattice.gram == ((0, 1, 0), (1, 0, 0), (0, 0, -1))


def test_r_invariant_rows():
    rep = r_invariant_check(q_kernel_invariant("A5+A5+A1+A1"), p=3, expect_nullity=3)
    assert rep.ok and rep.h_rank == 3 and rep.nullity == 3
    assert abs(rep.det_k) == 144 and rep.p_valuation == 2
    rep = r_invariant_check(q_kernel_invariant("D8+A2+A2"), p=3, expect_nullity=2)
    assert rep.ok and rep.h_rank == 2 and rep.nullity == 2
    rep = r_invariant_check(q_kernel_invariant("E6"), expect_nullity=0)
    assert rep.ok and rep.h_rank == 0 and rep.nullity == 0
    rep = r_invariant_check(q_kernel_invariant("E8+A2+A2"), expect_nullity=0)
    assert rep.ok and rep.nullity == 0


def test_r_invariant_all_table_rows_glue():
    # every claimed H embeds isotropically in the q-kernel of its K
    for key in catalog.TABLE1_KEYS:
        row = table1(key)
        k = lattice.make_named(row.k_spec)
        nullity, _, basis = lattice.mod2_nullity(k)
        assert nullity >= row.h_rank, key
        rinv = catalog.RInvariant(k=k, h_gens=tuple(basis[: row.h_rank]))
        rep = r_invariant_check(rinv)
        assert rep.ok and rep.h_rank == row.h_rank, (key, rep.failures)
    # D9 (type II) is the one row whose kernel strictly exceeds its H
    assert lattice.mod2_nullity(lattice.make_named("D9"))[0] == 1


def test_r_invariant_rejects_non_isotropic():
    k = lattice.make_named("A1+A1")
    rinv = catalog.RInvariant(k=k, h_gens=((1, 0),))
    rep = r_invariant_check(rinv)
    assert not rep.ok and any("isotropic" in f for f in rep.failures)


def test_r_invariant_flags_nullity_below_dim_h_and_unexpected_nullity():
    # E8 is unimodular, so q on E8/2E8 has nullity 0; two orthogonal roots
    # sum to an isotropic class that spans an H of dimension 1 all the same
    e8 = lattice.make_named("E8")
    rep = r_invariant_check(catalog.RInvariant(k=e8, h_gens=((1, 0, 1, 0, 0, 0, 0, 0),)))
    assert not rep.ok and rep.failures == ("nullity 0 smaller than dim H = 1",)
    rep = r_invariant_check(q_kernel_invariant("E6"), expect_nullity=1)
    assert not rep.ok and rep.failures == ("nullity 0 != expected 1",)


VALUATION_REFUSALS_SCRIPT = """
from coblemukai import catalog, lattice
zero = catalog.RInvariant(lattice.make_lattice([[0, 0], [0, 0]]), ())
for rinv, p in [(zero, 3), (catalog.q_kernel_invariant("A1+A1"), 1)]:
    try:
        catalog.r_invariant_check(rinv, p=p)
    except ValueError as exc:
        print("refused:", exc)
"""


def test_r_invariant_valuation_refuses_det_zero_and_p_below_two():
    # a valuation of 0, or to a base p < 2, would divide forever: the
    # subprocess's timeout turns a hang into a failure
    src = str(Path(catalog.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", VALUATION_REFUSALS_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "refused: det K = 0: a degenerate K has no p-adic valuation\n"
        "refused: p-adic valuation needs p >= 2, got p = 1\n"
    )


def test_verify_realization_flags_a_vertex_with_no_class():
    g = build_graph("MI")
    labels = list(g.labels)
    labels[0] = "no-such-class"
    renamed = rootgraph.RootGraph(labels, g.mult, g.kinds, name="MI-renamed")
    rep = verify_realization(renamed, build_model("MI"))
    assert not rep.ok and rep.failures == ("missing class for vertex no-such-class",)


def test_verify_realization_flags_odd_curve_root_pairings():
    # the curve d:12 tagged a root: its simple edges to the curves d:13, ...
    # then pair a root with a curve oddly
    g = build_graph("MI")
    i = g.index("d:12")
    assert g.kinds[i] == g.kinds[g.index("d:13")] == KIND_CURVE
    kinds = list(g.kinds)
    kinds[i] = KIND_ROOT
    rep = verify_realization(rootgraph.RootGraph(g.labels, g.mult, kinds, name="MI"),
                             build_model("MI"))
    assert not rep.ok
    assert "pair (d:12, d:13): odd curve/root pairing 1" in rep.failures
    assert rep.failures[-1] == "d:12: kind tag does not match realization"


def test_table1_rows():
    mi = table1("MI")
    assert (mi.p, mi.n, mi.k) == ("3", 2, 40)
    assert mi.r_invariant == "(A5+A5+A1+A1, (Z/2)^3)"
    vii = table1("VII")
    assert (vii.p, vii.n, vii.k) == ("5", 1, 20)
    assert vii.r_invariant == "(A9+A1, (Z/2)^1)"
    i1 = table1("I-1")
    assert (i1.p, i1.n, i1.k) == ("any", 1, 12)
    assert i1.r_invariant == "(E8+A1, {0})"
    with pytest.raises(ValueError):
        table1("VIII")


def test_table1_k_matches_builtins():
    for name in catalog.BUILTIN_GRAPHS:
        row = table1(catalog.GRAPH_TABLE_ROW[name])
        assert build_graph(name).n == row.k


def test_model_text_export():
    model = build_model("MI")
    text = catalog.format_model(model)
    assert text.startswith("basis hu hv e1")
    assert "boundary B " in text
    assert "root t:123 " in text
    # triad rows carry exact rationals/integers only
    for line in text.splitlines():
        if line.startswith("root"):
            for tok in line.split()[2:]:
                Fraction(tok)


def test_load_graph_roundtrip(tmp_path):
    g = build_graph("VI")
    p = tmp_path / "vi.graph"
    p.write_text(rootgraph.format_graph(g))
    assert rootgraph.load_graph_file(str(p)) == g


def test_connected_parabolics_null_vectors_positive_on_mi():
    g = build_graph("MI")
    cps = rootgraph.connected_parabolics(g)
    assert len(cps) > 0
    for labels, typ in cps[:80]:
        idx = [g.index(l) for l in labels]
        gram = [[-2 if a == b else g.mult[a][b] for b in idx] for a in idx]
        basis = sympy.Matrix(gram).nullspace()
        assert len(basis) == 1
        v = list(basis[0])
        sign = 1 if v[0] > 0 else -1
        assert all(sign * c > 0 for c in v), (labels, typ)


def test_maximal_parabolics_components_orthogonal_and_exact_rank():
    g = build_graph("MII")
    packs = rootgraph.maximal_parabolics(g, 8)
    for p in packs[:40]:
        assert sum(t.rank for _, t in p.components) == 8
        for a in range(len(p.components)):
            for b in range(a + 1, len(p.components)):
                for la in p.components[a][0]:
                    for lb in p.components[b][0]:
                        assert g.mult[g.index(la)][g.index(lb)] == 0


def test_vinberg_cross_check_components_cover_connected():
    for name in ("I", "VI", "MI"):
        g = build_graph(name)
        rep = rootgraph.vinberg_check(g, 8)
        assert rep.passed
        used = {c for p in rep.maximal for c in p.components}
        for c in rootgraph.connected_parabolics(g):
            assert c in used, (name, c)


def test_mii_minus_one_root_adjacency_law():
    # two grid roots pair to 1 iff their index pairs share exactly one slot
    model = build_model("MII")
    amb = model.ambient
    rm = model.root_map()
    grid = [(i, j) for i in range(1, 5) for j in range(1, 5)]
    for a in grid:
        for b in grid:
            if a >= b:
                continue
            ra, rb = rm[f"g:{a[0]}{a[1]}"], rm[f"g:{b[0]}{b[1]}"]
            got = lattice.gram_matrix(amb, [ra], [rb])[0][0]
            shared = (a[0] == b[0]) + (a[1] == b[1])
            assert got == (1 if shared == 1 else 0) * model.den ** 2, (a, b, got)


def test_mi_gram_full_inertia():
    from coblemukai import exact

    g = build_graph("MI")
    assert exact.rank_signature(g.gram_rows()) == (1, 9, 30)


def test_mi_automorphism_generators_close_to_order():
    g = build_graph("MI")
    order, gens = rootgraph.automorphisms(g)
    assert order == 1440
    for p in gens:
        for i in range(g.n):
            for j in range(i + 1, g.n):
                assert g.mult[i][j] == g.mult[p[i]][p[j]]
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


def test_lemma_witness_cycles_appear_in_connected_parabolics():
    gmi = build_graph("MI")
    cps = dict(rootgraph.connected_parabolics(gmi, max_rank=8))
    six_cycle = tuple(sorted(["d:12", "d:23", "d:34", "d:45", "d:56", "d:16"]))
    assert str(cps[six_cycle]) == "A~5"
    gmii = build_graph("MII")
    cps2 = dict(rootgraph.connected_parabolics(gmii, max_rank=8))
    eight_cycle = tuple(
        sorted(["g:11", "g:41", "g:42", "g:32", "g:33", "g:23", "g:24", "g:14"])
    )
    assert str(cps2[eight_cycle]) == "A~7"
