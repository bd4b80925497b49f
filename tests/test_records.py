"""The value classes of the package as their readers see them: construction,
repr, equality within one class, hashing and order over the field tuple,
no assignment; and importing the CLI generates no code at run time."""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import coblemukai
from coblemukai import catalog
from coblemukai.catalog import (
    BlowupModel, CatalogEntry, CobleMukaiLattice, RealizationReport, RInvariant, RInvariantReport,
    Table1Row,
)
from coblemukai.exact import SnfResult
from coblemukai.fibrations import KodairaFiber
from coblemukai.lattice import DiscriminantGroup, Lattice
from coblemukai.record import Record
from coblemukai.rootgraph import DiagramType, ParabolicSubdiagram, VinbergReport

A2 = ((2, -1), (-1, 2))
MI_MODEL = catalog.build_model("MI")
MI_ROW = catalog.table1("MI")
MODEL_FIELDS = ("ambient", "basis_labels", "exceptional", "boundaries", "roots", "den")
ROW_FIELDS = ("key", "type", "p", "n", "k", "aut", "aut_order", "k_spec", "h_rank")

# (class, field names in order, field values)
RECORDS = [
    (SnfResult, ("factors", "right"), ((1, 3), ((1, 0), (0, 1)))),
    (Lattice, ("gram",), (A2,)),
    (DiscriminantGroup, ("invariant_factors", "rows", "den"), ((3,), ((1, 2),), 3)),
    (DiagramType, ("family", "index", "affine"), ("A", 3, True)),
    (ParabolicSubdiagram, ("components", "rank"), (((("a", "b"), DiagramType("A", 1, True)),), 1)),
    (VinbergReport, ("passed", "target_rank", "witnesses", "maximal"), (True, 8, (), ())),
    (BlowupModel, MODEL_FIELDS, tuple(getattr(MI_MODEL, f) for f in MODEL_FIELDS)),
    (CobleMukaiLattice, ("lattice", "twice"), (Lattice(A2), [[2, 0], [0, 2]])),
    (RealizationReport, ("ok", "failures"), (False, ("pair (a, b): model 0 != graph 1",))),
    (RInvariant, ("k", "h_gens"), (Lattice(A2), ((1, 0),))),
    (RInvariantReport, ("ok", "h_rank", "nullity", "det_k", "p_valuation", "failures"),
     (True, 1, 2, 4, None, ())),
    (Table1Row, ROW_FIELDS, tuple(getattr(MI_ROW, f) for f in ROW_FIELDS)),
    (CatalogEntry, ("name", "graph", "model", "row"), ("MI", catalog.build_graph("MI"), MI_MODEL, MI_ROW)),
    (KodairaFiber, ("kind", "index"), ("I*", 2)),
]
ORDERED = (DiagramType, KodairaFiber)
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_records_construct_print_and_compare_over_their_fields(cls, names, values):
    record = cls(*values)
    assert record == cls(**dict(zip(names, values)))
    assert tuple(getattr(record, n) for n in names) == values
    assert repr(record) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in zip(names, values))})"
    # equal only within the class: not to the field tuple, nor to a subclass
    assert (record == values) is False and record != values
    assert record != type("Sub", (cls,), {})(*values)
    try:
        expected = hash(values)
    except TypeError:  # a list or a RootGraph among the fields
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_records_refuse_assignment_and_deletion(cls, names, values):
    record = cls(*values)
    for name in (names[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert getattr(record, names[0]) is values[0]


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_only_diagram_types_and_fibers_order(cls, names, values):
    record = cls(*values)
    with pytest.raises(TypeError):
        record < values
    if cls not in ORDERED:
        with pytest.raises(TypeError):
            record < cls(*values)


@pytest.mark.parametrize("cls, fields", [
    (DiagramType, [("E", 8, True), ("A", 3, False), ("A", 3, True), ("D", 4, True), ("A", 10, True)]),
    (KodairaFiber, [("I*", 0), ("I", 9), ("II*", 0), ("I", 10), ("I*", 2), ("IV", 0)]),
])
def test_ordered_records_order_as_their_field_tuples(cls, fields):
    records = [cls(*f) for f in fields]
    for a, fa in zip(records, fields):
        for b, fb in zip(records, fields):
            assert (a < b, a <= b, a > b, a >= b) == (fa < fb, fa <= fb, fa > fb, fa >= fb)
    assert sorted(records) == [cls(*f) for f in sorted(fields)]
    with pytest.raises(TypeError):
        DiagramType("A", 1, True) < KodairaFiber("I", 2)


def test_record_reprs_and_defaults():
    assert repr(KodairaFiber("II")) == "KodairaFiber(kind='II', index=0)"
    assert KodairaFiber("II") == KodairaFiber("II", 0) == KodairaFiber(kind="II", index=0)
    assert repr(Lattice(A2)) == "Lattice(gram=((2, -1), (-1, 2)))"
    assert repr(DiagramType("D", 4, True)) == "DiagramType(family='D', index=4, affine=True)"
    assert repr(ParabolicSubdiagram((), 0)) == "ParabolicSubdiagram(components=(), rank=0)"
    assert (Lattice(A2) == (A2,)) is False


def test_cached_reads_of_records_still_work():
    group = DiscriminantGroup((3,), ((1, 2),), 3)
    assert group.generator_lifts == ((Fraction(1, 3), Fraction(2, 3)),)
    assert group.generator_lifts is group.generator_lifts
    model = BlowupModel(*RECORDS[6][2])
    assert model._pair_sums is model._pair_sums
    assert model._gram == MI_MODEL._gram
    assert catalog.verify_realization(catalog.build_graph("MI"), model).ok


@pytest.mark.parametrize("make, message", [
    (lambda: Lattice(((0, 1), (2, 0))), "Gram matrix must be symmetric"),
    (lambda: KodairaFiber("V"), "unknown Kodaira kind 'V'"),
    (lambda: KodairaFiber("I"), "I_n requires n >= 1"),
    (lambda: KodairaFiber("I*", -1), "I_n\\* requires n >= 0"),
    (lambda: KodairaFiber("IV*", 1), "IV\\* carries no index"),
], ids=["lattice", "kind", "I0", "I*-1", "IV*1"])
def test_record_refusals(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


# --- no code generated at import --------------------------------------------

SRC = Path(coblemukai.__file__).resolve().parent


def _generated_code(text: str) -> list[str]:
    """Imports of ``dataclasses`` and calls of ``exec`` or ``eval``: each
    compiles code when the module runs."""
    found = []
    for node in ast.walk(ast.parse(text)):
        names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                 else [node.module] if isinstance(node, ast.ImportFrom) else [])
        found += [f"{node.lineno}: import {n}" for n in names if n and n.split(".")[0] == "dataclasses"]
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("exec", "eval")):
            found.append(f"{node.lineno}: {node.func.id}")
    return found


def test_package_sources_generate_no_code():
    found = [f"{p.name}:{v}" for p in sorted(SRC.glob("*.py"))
             for v in _generated_code(p.read_text(encoding="utf-8"))]
    assert found == []


def test_generated_code_guard_sees_imports_and_calls():
    text = ("import dataclasses\nfrom dataclasses import dataclass\nimport os\n"
            "exec('x = 1')\ny = eval('2')\nz = obj.eval()\n")
    assert _generated_code(text) == ["1: import dataclasses", "2: import dataclasses", "4: exec", "5: eval"]


def test_importing_the_cli_leaves_dataclasses_and_inspect_out():
    code = "import sys\nimport coblemukai.cli\nprint(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# --- fields named once, in __match_args__ ------------------------------------

@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_records_take_keyword_fields_in_any_order(cls, names, values):
    backwards = dict(reversed(list(zip(names, values))))
    assert cls(**backwards) == cls(*values)
    assert cls(values[0], **{n: v for n, v in backwards.items() if n != names[0]}) == cls(*values)


@pytest.mark.parametrize("args, kwargs, message", [
    (("A", 3), {}, "DiagramType() missing field 'affine'"),
    ((), {"index": 3}, "DiagramType() missing fields 'family', 'affine'"),
    (("A", 3, True), {"colour": 1}, "DiagramType() got an unknown field 'colour'"),
    (("A", 3), {"family": "D"}, "DiagramType() got multiple values for field 'family'"),
    (("A", 3, True, 0), {}, "DiagramType() takes 3 fields but 4 were given"),
], ids=["missing", "missing-two", "unknown", "repeated", "extra"])
def test_records_refuse_missing_unknown_and_repeated_fields(args, kwargs, message):
    with pytest.raises(TypeError) as refused:
        DiagramType(*args, **kwargs)
    assert str(refused.value) == message


CHECKING = (Lattice, KodairaFiber, BlowupModel)


def test_only_checking_records_write_an_init_and_it_takes_their_fields():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    package = [cls for cls in subclasses(Record) if cls.__module__.startswith("coblemukai.")]
    assert {cls for cls in package if "__init__" in vars(cls)} == set(CHECKING)
    for cls in CHECKING:
        code = cls.__init__.__code__
        assert code.co_varnames[1:code.co_argcount] == cls.__match_args__, cls.__name__


def test_ordered_records_write_only_lt():
    # total_ordering derives <=, > and >= from it
    (ordered,) = [node for node in ast.parse((SRC / "record.py").read_text(encoding="utf-8")).body
                  if isinstance(node, ast.ClassDef) and node.name == "OrderedRecord"]
    assert [f.name for f in ordered.body if isinstance(f, ast.FunctionDef)] == ["__lt__"]


def _field_setters(text: str) -> list[str]:
    """Reads of ``__setattr__`` from ``object`` or ``super()``: each sets a
    field past the refusal of ``Record.__setattr__``."""
    found = [node for node in ast.walk(ast.parse(text))
             if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
             and (isinstance(node.value, ast.Name) and node.value.id == "object"
                  or isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Name)
                  and node.value.func.id == "super")]
    return [f"{node.lineno}: {ast.unparse(node)}" for node in sorted(found, key=lambda n: n.lineno)]


def test_only_record_sets_fields():
    found = [f"{p.name}:{v}" for p in sorted(SRC.glob("*.py")) if p.name != "record.py"
             for v in _field_setters(p.read_text(encoding="utf-8"))]
    assert found == []
    assert len(_field_setters((SRC / "record.py").read_text(encoding="utf-8"))) == 1


def test_field_setter_guard_sees_calls_aliases_and_super():
    text = ("object.__setattr__(self, 'x', 1)\nput = object.__setattr__\n"
            "super().__setattr__('y', 2)\nsetattr(self, 'z', 3)\nself.other.__setattr__('w', 4)\n")
    assert _field_setters(text) == [
        "1: object.__setattr__", "2: object.__setattr__", "3: super().__setattr__"]
