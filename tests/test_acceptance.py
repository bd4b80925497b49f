"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; any assertion failure marks the criterion failed.
"""

import io
import random
import time
from math import prod

import numpy as np

from coblemukai import catalog, cli, fibrations, lattice, rootgraph
from coblemukai.fibrations import fiber_multiset
from coblemukai.lattice import make_named
from coblemukai.rootgraph import parse_diagram


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def as_parabolic(graph, groups):
    types = dict(rootgraph.connected_parabolics(graph))
    comps = []
    total = 0
    for labels, typ in groups:
        got = types.get(tuple(sorted(labels)))
        assert got == parse_diagram(typ), (labels, typ, got)
        comps.append((tuple(sorted(labels)), got))
        total += got.rank
    return rootgraph.ParabolicSubdiagram(components=tuple(sorted(comps)), rank=total)


def test_criterion_1_vinberg_builtins():
    for name in ("I", "II", "VI", "MI", "MII"):
        g = catalog.build_graph(name)
        t0 = time.time()
        rep = rootgraph.vinberg_check(g, 8)
        elapsed = time.time() - t0
        assert rep.passed, (name, rep.witnesses[:3])
        assert elapsed < 60, (name, elapsed)
    report(1, "Vinberg criterion passes at rank 8 for I, II, VI, MI, MII")


MI_WITNESSES = [
    (
        "A~5+A~2+A~1",
        [
            (["d:12", "d:23", "d:34", "d:45", "d:56", "d:16"], "A~5"),
            (["s:15.24.36", "s:14.26.35", "s:13.25.46"], "A~2"),
            (["s:14.25.36", "t:135"], "A~1"),
        ],
    ),
    (
        "A~4+A~4",
        [
            (["d:12", "d:23", "d:34", "d:45", "d:15"], "A~4"),
            (["s:13.25.46", "s:14.26.35", "s:13.24.56", "s:14.25.36", "s:16.24.35"], "A~4"),
        ],
    ),
    (
        "A~3+A~3+A~1+A~1",
        [
            (["d:35", "d:36", "d:46", "d:45"], "A~3"),
            (["s:13.24.56", "s:16.25.34", "s:14.23.56", "s:15.26.34"], "A~3"),
            (["d:12", "s:12.34.56"], "A~1"),
            (["t:134", "t:156"], "A~1"),
        ],
    ),
    (
        "A~2+A~2+A~2+A~2",
        [
            (["d:12", "d:23", "d:13"], "A~2"),
            (["d:45", "d:56", "d:46"], "A~2"),
            (["s:15.26.34", "s:16.24.35", "s:14.25.36"], "A~2"),
            (["s:16.25.34", "s:14.26.35", "s:15.24.36"], "A~2"),
        ],
    ),
]

MII_WITNESSES = [
    (
        "A~7+A~1",
        [
            (["g:11", "g:41", "g:42", "g:32", "g:33", "g:23", "g:24", "g:14"], "A~7"),
            (["p:(12)(34)", "p:(13)"], "A~1"),
        ],
    ),
    (
        "A~5+A~2+A~1",
        [
            (["g:11", "g:31", "g:32", "g:22", "g:23", "g:13"], "A~5"),
            (["p:(12)(34)", "p:(124)", "p:(142)"], "A~2"),
            (["g:44", "p:(12)"], "A~1"),
        ],
    ),
    (
        "A~3+A~3+A~1+A~1",
        [
            (["g:11", "g:21", "g:22", "g:12"], "A~3"),
            (["g:33", "g:43", "g:44", "g:34"], "A~3"),
            (["p:(13)(24)", "p:(14)(23)"], "A~1"),
            (["p:(1324)", "p:(1423)"], "A~1"),
        ],
    ),
    (
        "A~2+A~2+A~2+A~2",
        [
            (["g:11", "g:21", "g:31"], "A~2"),
            (["g:42", "g:43", "g:44"], "A~2"),
            (["p:(14)(23)", "p:(124)", "p:(134)"], "A~2"),
            (["p:(14)", "p:(1324)", "p:(1234)"], "A~2"),
        ],
    ),
]


def test_criterion_2_maximal_parabolic_types():
    expected = {
        "MI": {"A~5+A~2+A~1", "A~4+A~4", "A~3+A~3+A~1+A~1", "A~2+A~2+A~2+A~2"},
        "MII": {"A~7+A~1", "A~5+A~2+A~1", "A~3+A~3+A~1+A~1", "A~2+A~2+A~2+A~2"},
    }
    for name, witnesses in (("MI", MI_WITNESSES), ("MII", MII_WITNESSES)):
        g = catalog.build_graph(name)
        packs = rootgraph.maximal_parabolics(g, 8)
        assert {p.type_multiset() for p in packs} == expected[name], name
        pack_set = {p.components for p in packs}
        for multiset, groups in witnesses:
            pack = as_parabolic(g, groups)
            assert pack.rank == 8
            assert pack.type_multiset() == multiset
            assert pack.components in pack_set, (name, multiset)
    report(2, "maximal parabolic type multisets and all printed witness subsets check out")


def test_criterion_3_automorphism_orders():
    assert rootgraph.automorphisms(catalog.build_graph("MI"))[0] == 1440
    assert rootgraph.automorphisms(catalog.build_graph("MII"))[0] == 1152
    vi = catalog.build_graph("VI")
    petersen = vi.induced([l for l in vi.labels if l.startswith("e:")])
    assert rootgraph.automorphisms(petersen)[0] == 120
    report(3, "automorphism orders: MI 1440, MII 1152, Petersen block 120")


def test_criterion_4_realizations():
    for name in ("MI", "MII"):
        rep = catalog.verify_realization(catalog.build_graph(name), catalog.build_model(name))
        assert rep.ok, (name, rep.failures[:4])
    report(4, "blow-up models reproduce the 40x40 graph Grams exactly, parity included")


def test_criterion_5_coble_mukai_and_span_dets():
    cm = catalog.coble_mukai(catalog.build_model("MI"))
    assert cm.lattice.rank == 10
    assert lattice.is_even(cm.lattice)
    assert lattice.signature(cm.lattice) == (1, 9, 0)
    for name in ("MI", "MII"):
        d = rootgraph.span_det(catalog.build_graph(name))
        assert d < 0 and (-d & (-d - 1)) == 0, (name, d)
    assert rootgraph.span_det(catalog.build_graph("I")) == -1
    report(5, "CM(MI) is even of signature (1,9); span dets have shape -2^l; Gamma_I gives -1")


def _qlaw_violations(lat) -> int:
    n = lat.rank
    size = 1 << n
    # q(x) = 1 exactly on the anisotropic classes of the span of all unit vectors
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    span, anisotropic = lattice.mod2_subgroup(lat, units)
    assert span == list(range(size))
    q = np.zeros(size, dtype=np.int8)
    q[anisotropic] = 1
    f = np.array(lat.gram, dtype=np.int16) % 2
    masks = np.arange(size, dtype=np.int64)
    vecs = ((masks[:, None] >> np.arange(n)) & 1).astype(np.int16)
    bad = 0
    step = 512
    for lo in range(0, size, step):
        hi = min(lo + step, size)
        fblock = (vecs[lo:hi] @ f @ vecs.T) % 2
        xor = masks[lo:hi, None] ^ masks[None, :]
        lhs = q[xor]
        rhs = (q[lo:hi, None] + q[None, :] + fblock) % 2
        bad += int((lhs != rhs).sum())
    return bad


def test_criterion_6_mod2_nullities_and_q_law():
    assert lattice.mod2_nullity(make_named("A5+A5+A1+A1"))[0] == 3
    assert lattice.mod2_nullity(make_named("D8+A2+A2"))[0] == 2
    assert lattice.mod2_nullity(make_named("E6"))[0] == 0
    assert lattice.mod2_nullity(make_named("E8+A2+A2"))[0] == 0
    for spec in ("A5+A5+A1+A1", "D8+A2+A2", "E6", "E8+A2+A2"):
        assert _qlaw_violations(make_named(spec)) == 0, spec
    report(6, "mod-2 nullities 3/2/0/0 and exhaustive q-law holds at rank <= 12")


def test_criterion_7_lattice_basics():
    assert abs(lattice.det(make_named("A4"))) == 5
    assert lattice.det(make_named("E8")) == 1
    assert lattice.det(make_named("E10")) == -1
    disc = lattice.discriminant_group(make_named("D8"))
    assert disc.invariant_factors == (2, 2) and disc.order == 4
    rng = random.Random(2024)
    names = ["A1", "A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "D7", "E6", "E7"]
    done = 0
    while done < 50:
        k = make_named(rng.choice(names))
        lat = lattice.direct_sum(k, lattice.rescale(k, -1))
        disc = lattice.discriminant_group(k)
        lifts = disc.generator_lifts
        pick = rng.sample(range(len(lifts)), rng.randint(1, len(lifts)))
        glue = [tuple(lifts[i]) + tuple(lifts[i]) for i in pick]
        # the diagonal lifts of independent generators span H = sum Z/d_i
        order = prod(disc.invariant_factors[i] for i in pick)
        over = lattice.overlattice(lat, glue)
        assert lattice.det(over) * order**2 == lattice.det(lat)
        done += 1
    half = lattice.half_overlattice(make_named("A1+A1"), [(1, 1)])
    assert any(half.gram[i][i] == -1 for i in range(half.rank))
    report(7, "dets/discriminants, 50 overlattice glue laws, and the norm -1 half-class")


def test_criterion_8_extremal_tables():
    assert len(fibrations.EXTREMAL_GENERIC) == 16
    assert len(fibrations.EXTREMAL_P5) == 16
    assert len(fibrations.EXTREMAL_P3) == 14
    look = fibrations.extremal_lookup
    assert look(fiber_multiset(["I5", "I5", "I1", "I1"]), "generic")
    assert look(fiber_multiset(["I5", "I5", "I1", "I1"]), "p3")
    assert not look(fiber_multiset(["I5", "I5", "I1", "I1"]), "p5")
    assert look(fiber_multiset(["I5", "I5", "II"]), "p5")
    assert look(fiber_multiset(["I9", "II"]), "p3")
    assert not look(fiber_multiset(["I9", "II"]), "generic")
    assert not look(fiber_multiset(["I9", "II"]), "p5")
    assert not look(fiber_multiset(["I3", "I3", "I3", "I3"]), "p3")
    assert look(fiber_multiset(["IV", "IV", "IV", "IV"]), "p3")
    tags = ["I2", "I3", "I4", "I9", "I0*", "I1*", "I4*", "III", "III*", "IV", "IV*", "II*"]
    for tok in tags:
        f = fibrations.parse_fiber(tok)
        d = fibrations.diagram_of(f)
        assert d is not None and f in fibrations.fibers_of(d), tok
    for tok in ("I1", "II"):
        assert fibrations.diagram_of(fibrations.parse_fiber(tok)) is None
    report(8, "extremal tables encode 16/16/14 rows; spot lookups and the diagram round-trip agree")


def test_criterion_9_table1_static_rows():
    frozen = {
        "I-1": ("I", "any", 1, 12, "D8", "(E8+A1, {0})"),
        "I-2": ("I", "any", 2, 12, "D8", "(E8+A1+A1, (Z/2)^1)"),
        "II": ("II", "any", 1, 12, "S4", "(D9, {0})"),
        "V": ("V", "3", 2, 20, "S4 x Z/2", "(E7+A2+A1+A1, (Z/2)^2)"),
        "VI-5": ("VI", "5", 1, 20, "S5", "(E6+A4, {0})"),
        "VI-3": ("VI", "3", 5, 20, "S5", "(E6+D5, (Z/2)^1)"),
        "VII": ("VII", "5", 1, 20, "S5", "(A9+A1, (Z/2)^1)"),
        "MI": ("MI", "3", 2, 40, "Aut(S6)", "(A5+A5+A1+A1, (Z/2)^3)"),
        "MII": ("MII", "3", 8, 40, "(S4 x S4).Z/2", "(D8+A2+A2, (Z/2)^2)"),
    }
    assert set(catalog.TABLE1_KEYS) == set(frozen)
    for key, (typ, p, n, k, aut, rinv) in frozen.items():
        row = catalog.table1(key)
        assert (row.type, row.p, row.n, row.k, row.aut, row.r_invariant) == (
            typ,
            p,
            n,
            k,
            aut,
            rinv,
        ), key
    for name in catalog.BUILTIN_GRAPHS:
        assert catalog.build_graph(name).n == catalog.table1(catalog.GRAPH_TABLE_ROW[name]).k
    report(9, "the nine summary rows match verbatim and vertex counts equal k")


def test_criterion_10_cli_determinism():
    outputs = set()
    for _ in range(5):
        out = io.StringIO()
        code = cli.run(["catalog", "check", "MI", "--json"], out, io.StringIO())
        assert code == 0
        outputs.add(out.getvalue())
    assert len(outputs) == 1
    report(10, "catalog check MI --json is byte-identical across 5 runs")
