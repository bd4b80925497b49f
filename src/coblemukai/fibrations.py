"""Kodaira fiber types, their affine diagrams, and the extremal tables.

The extremal rational elliptic configurations are stored verbatim, one
column per characteristic class (generic means p not in {2,3,5}; 16 rows
generic, 16 at p = 5 and 14 at p = 3), plus the char-3 quasi-elliptic
list.  Nothing here is derived from Weierstrass data; the tables are the
ground truth and the only computations are lookups and the diagram
correspondence.
"""

from __future__ import annotations

import re

from .lattice import ascii_int
from .record import OrderedRecord
from .rootgraph import DiagramType, parse_diagram

CHAR_CLASSES = ("generic", "p5", "p3")


class KodairaFiber(OrderedRecord):
    __match_args__ = ("kind", "index")

    # kind: "I", "I*", "II", "II*", "III", "III*", "IV", "IV*";
    # only I_n (n>=1) and I*_n (n>=0) carry an index
    def __init__(self, kind: str, index: int = 0):
        if kind not in ("I", "I*", "II", "II*", "III", "III*", "IV", "IV*"):
            raise ValueError(f"unknown Kodaira kind {kind!r}")
        if kind == "I" and index < 1:
            raise ValueError("I_n requires n >= 1")
        if kind == "I*" and index < 0:
            raise ValueError("I_n* requires n >= 0")
        if kind not in ("I", "I*") and index != 0:
            raise ValueError(f"{kind} carries no index")
        super().__init__(kind, index)

    def __str__(self):
        if self.kind == "I":
            return f"I{self.index}"
        if self.kind == "I*":
            return f"I{self.index}*"
        return self.kind


_FIBER_RE = re.compile(r"^(I{1,3}|IV)([0-9]*)(\*?)$")  # ASCII digits only


def parse_fiber(token: str) -> KodairaFiber:
    m = _FIBER_RE.match(token.strip())
    if not m or (m[2] and m[1] != "I"):
        raise ValueError(f"bad fiber token: {token!r}")
    try:
        index = ascii_int(m[2]) if m[2] else 0
    except ValueError:
        raise ValueError(f"bad fiber token: {token!r}") from None
    return KodairaFiber(m[1] + m[3], index)


def fiber_multiset(tokens) -> tuple[KodairaFiber, ...]:
    return tuple(sorted(parse_fiber(t) for t in tokens))


# diagrams of the fiber kinds that carry no index
_UNINDEXED_DIAGRAMS = {
    "II": None,
    "III": DiagramType("A", 1, True),
    "IV": DiagramType("A", 2, True),
    "II*": DiagramType("E", 8, True),
    "III*": DiagramType("E", 7, True),
    "IV*": DiagramType("E", 6, True),
}


def diagram_of(fiber: KodairaFiber) -> DiagramType | None:
    """Affine diagram of a reducible fiber; irreducible I1 and II give None."""
    if fiber.kind == "I":
        return DiagramType("A", fiber.index - 1, True) if fiber.index >= 2 else None
    if fiber.kind == "I*":
        return DiagramType("D", fiber.index + 4, True)
    return _UNINDEXED_DIAGRAMS[fiber.kind]


def fibers_of(d: DiagramType) -> tuple[KodairaFiber, ...]:
    """Fibers whose diagram is d, sorted: the few candidates of its index
    filtered through diagram_of, so the two cannot disagree."""
    if not d.affine:
        raise ValueError("only affine diagrams correspond to fibers")
    candidates = (KodairaFiber("I", max(d.index, 0) + 1), KodairaFiber("I*", max(d.index - 4, 0)),
                  *map(KodairaFiber, ("III", "IV", "II*", "III*", "IV*")))
    fibers = tuple(sorted(f for f in candidates if diagram_of(f) == d))
    if not fibers:
        raise ValueError(f"no Kodaira fiber has diagram {d}")
    return fibers


def _row(*tokens):
    return fiber_multiset(tokens)


# Extremal rational elliptic fibrations, one tuple of rows per column.
EXTREMAL_GENERIC = (
    _row("II*", "II"),
    _row("III*", "III"),
    _row("IV*", "IV"),
    _row("I0*", "I0*"),
    _row("II*", "I1", "I1"),
    _row("III*", "I2", "I1"),
    _row("IV*", "I3", "I1"),
    _row("I4*", "I1", "I1"),
    _row("I2*", "I2", "I2"),
    _row("I1*", "I4", "I1"),
    _row("I9", "I1", "I1", "I1"),
    _row("I8", "I2", "I1", "I1"),
    _row("I6", "I3", "I2", "I1"),
    _row("I5", "I5", "I1", "I1"),
    _row("I4", "I4", "I2", "I2"),
    _row("I3", "I3", "I3", "I3"),
)

EXTREMAL_P5 = (
    _row("II*", "II"),
    _row("III*", "III"),
    _row("IV*", "IV"),
    _row("I0*", "I0*"),
    _row("II*", "I1", "I1"),
    _row("III*", "I2", "I1"),
    _row("IV*", "I3", "I1"),
    _row("I4*", "I1", "I1"),
    _row("I2*", "I2", "I2"),
    _row("I1*", "I4", "I1"),
    _row("I9", "I1", "I1", "I1"),
    _row("I8", "I2", "I1", "I1"),
    _row("I6", "I3", "I2", "I1"),
    _row("I5", "I5", "II"),
    _row("I4", "I4", "I2", "I2"),
    _row("I3", "I3", "I3", "I3"),
)

# two rows of the p=3 column are gaps ("--"): (IV*, IV) and (I3, I3, I3, I3)
EXTREMAL_P3 = (
    _row("II*"),
    _row("III*", "III"),
    _row("I0*", "I0*"),
    _row("II*", "I1"),
    _row("III*", "I2", "I1"),
    _row("IV*", "I3"),
    _row("I4*", "I1", "I1"),
    _row("I2*", "I2", "I2"),
    _row("I1*", "I4", "I1"),
    _row("I9", "II"),
    _row("I8", "I2", "I1", "I1"),
    _row("I6", "I3", "III"),
    _row("I5", "I5", "I1", "I1"),
    _row("I4", "I4", "I2", "I2"),
)

QUASI_ELLIPTIC_P3 = (
    _row("II*"),
    _row("IV*", "IV"),
    _row("IV", "IV", "IV", "IV"),
)

# Each class's rows as one set; p3 takes the quasi-elliptic list too.
_ROWS = {
    "generic": frozenset(EXTREMAL_GENERIC),
    "p5": frozenset(EXTREMAL_P5),
    "p3": frozenset(EXTREMAL_P3 + QUASI_ELLIPTIC_P3),
}


def _by_reducible_part(rows):
    """Sorted rows keyed by the sorted diagrams of their reducible fibers."""
    index = {}
    for row in sorted(rows):
        index.setdefault(tuple(sorted(filter(None, map(diagram_of, row)))), []).append(row)
    return index


_ASSIGNMENTS = {c: _by_reducible_part(rows) for c, rows in _ROWS.items()}


def extremal_lookup(fibers, char_class: str = "generic") -> bool:
    """True iff the fiber multiset is an extremal configuration in that
    characteristic (for p3, the quasi-elliptic list counts too)."""
    if char_class not in CHAR_CLASSES:
        raise ValueError(f"char class must be one of {CHAR_CLASSES}")
    return tuple(sorted(fibers)) in _ROWS[char_class]


def admissible_assignments(types, char_class: str = "generic"):
    """Extremal fiber multisets, sorted, whose reducible fibers have exactly
    the given affine types.  Every table row has at most four fibers and its
    irreducible ones are I1 or II, so this is one lookup in the class's rows
    keyed by their reducible part.
    """
    if char_class not in CHAR_CLASSES:
        raise ValueError(f"char class must be one of {CHAR_CLASSES}")
    comps = [t if isinstance(t, DiagramType) else parse_diagram(t) for t in types]
    for d in comps:
        if not d.affine:
            raise ValueError("only affine diagrams correspond to fibers")
    return list(_ASSIGNMENTS[char_class].get(tuple(sorted(comps)), ()))
