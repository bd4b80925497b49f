from itertools import combinations_with_replacement, product
from math import isqrt, prod

import pytest

from coblemukai import fibrations
from coblemukai.fibrations import (
    KodairaFiber,
    admissible_assignments,
    diagram_of,
    extremal_lookup,
    fiber_multiset,
    fibers_of,
    parse_fiber,
)
from coblemukai.rootgraph import DiagramType, parse_diagram


def test_parse_fiber_tokens():
    assert parse_fiber("I6") == KodairaFiber("I", 6)
    assert parse_fiber("I0*") == KodairaFiber("I*", 0)
    assert parse_fiber("II*") == KodairaFiber("II*")
    assert parse_fiber("IV") == KodairaFiber("IV")
    assert str(parse_fiber("I12*")) == "I12*"
    for bad in ("I0", "V", "II**", "IV3", ""):
        with pytest.raises(ValueError):
            parse_fiber(bad)


@pytest.mark.parametrize("kind, index, message", [
    ("V", 0, "unknown Kodaira kind 'V'"),
    ("I*", -1, "I_n* requires n >= 0"),
    ("II", 1, "II carries no index"),
])
def test_kodaira_fiber_refusals_name_their_reason(kind, index, message):
    with pytest.raises(ValueError) as info:
        KodairaFiber(kind, index)
    assert str(info.value) == message


def test_diagram_of_examples():
    assert diagram_of(parse_fiber("I6")) == DiagramType("A", 5, True)
    assert diagram_of(parse_fiber("II")) is None
    assert diagram_of(parse_fiber("I1")) is None
    assert diagram_of(parse_fiber("I0*")) == DiagramType("D", 4, True)
    assert diagram_of(parse_fiber("II*")) == DiagramType("E", 8, True)
    assert diagram_of(parse_fiber("III")) == DiagramType("A", 1, True)
    assert diagram_of(parse_fiber("IV*")) == DiagramType("E", 6, True)


def test_fibers_of_examples():
    assert set(map(str, fibers_of(parse_diagram("A~2")))) == {"I3", "IV"}
    assert set(map(str, fibers_of(parse_diagram("E~8")))) == {"II*"}
    assert set(map(str, fibers_of(parse_diagram("A~7")))) == {"I8"}
    assert set(map(str, fibers_of(parse_diagram("D~6")))) == {"I2*"}
    with pytest.raises(ValueError):
        fibers_of(parse_diagram("A4"))


def test_fibers_of_is_the_inverse_of_diagram_of():
    fibers = [KodairaFiber(k) for k in ("II", "III", "IV", "II*", "III*", "IV*")]
    fibers += [KodairaFiber("I", n) for n in range(1, 14)]
    fibers += [KodairaFiber("I*", n) for n in range(9)]
    for family in "ADE":
        for index in range(12):
            d = DiagramType(family, index, True)
            want = tuple(sorted(f for f in fibers if diagram_of(f) == d))
            if want:
                assert fibers_of(d) == want, d
            else:
                with pytest.raises(ValueError, match="no Kodaira fiber"):
                    fibers_of(d)


def test_roundtrip_consistency():
    fibers = [parse_fiber(t) for t in ("I2", "I3", "I5", "I9", "I0*", "I4*", "III", "III*", "IV", "IV*", "II*")]
    for f in fibers:
        d = diagram_of(f)
        assert d is not None
        assert f in fibers_of(d)


def test_table_row_counts():
    assert len(fibrations.EXTREMAL_GENERIC) == 16
    assert len(fibrations.EXTREMAL_P5) == 16
    assert len(fibrations.EXTREMAL_P3) == 14
    assert len(fibrations.QUASI_ELLIPTIC_P3) == 3


def test_lookup_spot_checks():
    assert extremal_lookup(fiber_multiset(["I5", "I5", "I1", "I1"]), "generic")
    assert extremal_lookup(fiber_multiset(["I5", "I5", "I1", "I1"]), "p3")
    assert not extremal_lookup(fiber_multiset(["I5", "I5", "I1", "I1"]), "p5")
    assert extremal_lookup(fiber_multiset(["I5", "I5", "II"]), "p5")
    assert extremal_lookup(fiber_multiset(["I9", "II"]), "p3")
    assert not extremal_lookup(fiber_multiset(["I9", "II"]), "generic")
    assert not extremal_lookup(fiber_multiset(["I9", "II"]), "p5")
    assert not extremal_lookup(fiber_multiset(["I3", "I3", "I3", "I3"]), "p3")
    assert extremal_lookup(fiber_multiset(["I3", "I3", "I3", "I3"]), "generic")
    assert extremal_lookup(fiber_multiset(["IV", "IV", "IV", "IV"]), "p3")
    assert not extremal_lookup(fiber_multiset(["IV", "IV", "IV", "IV"]), "generic")
    with pytest.raises(ValueError):
        extremal_lookup((), "p7")


def test_table_rows_map_to_small_parabolics():
    for col in (fibrations.EXTREMAL_GENERIC, fibrations.EXTREMAL_P5, fibrations.EXTREMAL_P3):
        for row in col:
            rank = 0
            for f in row:
                d = diagram_of(f)
                if d is not None:
                    rank += d.rank
            assert rank <= 8


def test_admissible_assignments_examples():
    got = admissible_assignments(["A~4", "A~4"], "generic")
    assert fiber_multiset(["I5", "I5", "I1", "I1"]) in got
    got_p3 = admissible_assignments(["E~8"], "p3")
    assert fiber_multiset(["II*", "I1"]) in got_p3
    assert fiber_multiset(["II*"]) in got_p3
    quad = admissible_assignments(["A~2", "A~2", "A~2", "A~2"], "p3")
    assert quad == [fiber_multiset(["IV", "IV", "IV", "IV"])]


def test_admissible_assignments_mi_types_nonempty_at_p3():
    for types in (["A~5", "A~2", "A~1"], ["A~4", "A~4"], ["A~3", "A~3", "A~1", "A~1"], ["A~2", "A~2", "A~2", "A~2"]):
        assert admissible_assignments(types, "p3")


_ORACLE_MAX_FIBERS = 4
_ORACLE_PADDING = (KodairaFiber("I", 1), KodairaFiber("II"))


def _oracle_admissible_assignments(types, char_class):
    """The product-and-pad search: every choice of one fiber per component,
    padded with I1 and II up to four fibers, looked up row by row."""
    rows = {
        "generic": fibrations.EXTREMAL_GENERIC,
        "p5": fibrations.EXTREMAL_P5,
        "p3": fibrations.EXTREMAL_P3 + fibrations.QUASI_ELLIPTIC_P3,
    }[char_class]
    comps = [t if isinstance(t, DiagramType) else parse_diagram(t) for t in types]
    choices = [fibers_of(t) for t in comps]
    if len(comps) > _ORACLE_MAX_FIBERS:
        return []
    results = set()
    for picked in product(*choices):
        base = tuple(sorted(picked))
        for extra in range(_ORACLE_MAX_FIBERS - len(base) + 1):
            for pad in combinations_with_replacement(_ORACLE_PADDING, extra):
                key = tuple(sorted(base + pad))
                if key in rows:
                    results.add(key)
    return sorted(results)


_AFFINE_TYPES = (
    [DiagramType("A", i, True) for i in range(1, 9)]
    + [DiagramType("D", i, True) for i in range(4, 9)]
    + [DiagramType("E", i, True) for i in (6, 7, 8)]
)


def test_admissible_assignments_match_product_and_pad_search():
    multisets = [
        m
        for k in range(5)
        for m in combinations_with_replacement(_AFFINE_TYPES, k)
        if sum(d.rank for d in m) <= 9
    ]
    assert len(multisets) == 126
    found = 0
    for m in multisets:
        for char in fibrations.CHAR_CLASSES:
            got = admissible_assignments(m, char)
            assert got == _oracle_admissible_assignments(m, char), (m, char)
            # any order of the components gives the same answer
            assert admissible_assignments(m[::-1], char) == got
            found += len(got)
    assert found > 0


def test_admissible_assignments_edge_cases():
    five = ["A~1"] * 5
    for char in fibrations.CHAR_CLASSES:
        assert admissible_assignments(five, char) == []
        assert admissible_assignments(["A~1"] * 40, char) == []
    with pytest.raises(ValueError, match="only affine"):
        admissible_assignments(["A~2", "A2"], "generic")
    with pytest.raises(ValueError, match="only affine"):
        admissible_assignments([DiagramType("E", 8, False)], "p3")
    with pytest.raises(ValueError, match="char class"):
        admissible_assignments(["A~2"], "p7")
    with pytest.raises(ValueError, match="bad diagram token"):
        admissible_assignments(["A~2", "X~3"], "generic")
    # the class is checked before the tokens, the tokens before affineness
    with pytest.raises(ValueError, match="char class"):
        admissible_assignments(["X~3"], "p7")
    with pytest.raises(ValueError, match="bad diagram token"):
        admissible_assignments(["A2", "X~3"], "generic")
    for tokens in (["A~4", "A~4"], ["E~8"], ["A~2"] * 4, ["D~4", "D~4"], ["A~5", "A~2", "A~1"]):
        for char in fibrations.CHAR_CLASSES:
            as_types = [parse_diagram(t) for t in tokens]
            assert admissible_assignments(tokens, char) == admissible_assignments(as_types, char)


def test_table_rows_have_the_shape_the_index_relies_on():
    """At most four fibers a row and every irreducible fiber I1 or II: then
    the rows keyed by their reducible part are what padding with I1 and II
    up to four fibers finds."""
    irreducible = {KodairaFiber("I", 1), KodairaFiber("II")}
    columns = (fibrations.EXTREMAL_GENERIC, fibrations.EXTREMAL_P5, fibrations.EXTREMAL_P3,
               fibrations.QUASI_ELLIPTIC_P3)
    for col in columns:
        for row in col:
            assert 1 <= len(row) <= 4, row
            assert row == tuple(sorted(row)), row
            for f in row:
                assert diagram_of(f) is not None or f in irreducible, row


# (Euler number, rank, det) of each fiber's root lattice, the test's own:
# I_n is A_(n-1), I_n* is D_(n+4), and III, IV, IV*, III*, II* are A1, A2,
# E6, E7, E8; I1 and II are irreducible
NAMED_FIBERS = {"II": (2, 0, 1), "III": (3, 1, 2), "IV": (4, 2, 3),
                "IV*": (8, 6, 3), "III*": (9, 7, 2), "II*": (10, 8, 1)}


def fiber_invariants(token):
    if token in NAMED_FIBERS:
        return NAMED_FIBERS[token]
    n = int(token[1:].rstrip("*"))
    return (n + 6, n + 4, 4) if token.endswith("*") else (n, n - 1, n)


def table_rule_failures(tokens):
    """The rules an extremal row breaks: Mordell-Weil rank 0 means reducible
    rank 8, and the product of the discriminants is |MW_tors|^2
    (Shioda-Tate); the Euler numbers sum to 12 (Ogg's formula, no wild
    conductor)."""
    euler, rank, disc = zip(*map(fiber_invariants, tokens))
    failures = []
    if sum(rank) != 8:
        failures.append("rank")
    if isqrt(prod(disc)) ** 2 != prod(disc):
        failures.append("disc")
    if sum(euler) != 12:
        failures.append(f"euler {sum(euler)}")
    return failures


def test_extremal_tables_satisfy_shioda_tate_ogg_and_the_sieve():
    def tokens(row):
        return tuple(sorted(map(str, row)))

    columns = {"generic": fibrations.EXTREMAL_GENERIC, "p5": fibrations.EXTREMAL_P5,
               "p3": fibrations.EXTREMAL_P3}
    failures = {(name, " ".join(map(str, row))): table_rule_failures(tokens(row))
                for name, rows in columns.items() for row in rows}
    # at p = 3 the shortfall is the wild part of the conductor
    assert {key: got for key, got in failures.items() if got} == {
        ("p3", "II*"): ["euler 10"], ("p3", "I1 II*"): ["euler 11"],
        ("p3", "I3 IV*"): ["euler 11"], ("p3", "I9 II"): ["euler 11"]}
    # a quasi-elliptic surface has Euler number 12 and a cuspidal generic fiber, e = 2
    for row in fibrations.QUASI_ELLIPTIC_P3:
        assert sum(fiber_invariants(t)[0] - 2 for t in tokens(row)) == 8, row
    # the sieve: every multiset of fibers with the three rules.  Each fiber
    # has e - rank 1 (I_n) or 2, so the sum 4 allows two to four fibers
    kinds = [f"I{n}" for n in range(1, 13)] + [f"I{n}*" for n in range(7)] + list(NAMED_FIBERS)
    sieve = {tuple(sorted(c)) for k in range(2, 5) for c in combinations_with_replacement(kinds, k)
             if not table_rule_failures(c)}
    generic = set(map(tokens, fibrations.EXTREMAL_GENERIC))
    assert len(sieve) == 24 and generic <= sieve and set(map(tokens, fibrations.EXTREMAL_P5)) <= sieve
    outside = ["I1 I8 III", "I1 I9 II", "I2 I6 IV", "I2 I8 II", "I3 I3 I0*", "I3 I6 III",
               "I5 I5 II", "I4* II"]
    assert sieve - generic == {tuple(sorted(t.split())) for t in outside}
