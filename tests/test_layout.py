"""Source rules that hold only by review otherwise.

Self-checks in the package must run under ``python -O``, so they raise
exceptions instead of using ``assert``; no module reaches into another
package module's private names; and every public name has a caller in the
package or the benchmark, unless an allow-list entry says why it stays.
"""

import ast
from pathlib import Path

import coblemukai

SRC = Path(coblemukai.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))
PACKAGE_MODULES = {p.stem for p in MODULES}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _module_aliases(tree: ast.Module, own: str | None) -> dict[str, str]:
    """Local names bound to other package modules, e.g. ``from . import exact``
    or ``from coblemukai import exact``."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in ((1, None), (0, "coblemukai")):
            for a in node.names:
                if a.name in PACKAGE_MODULES and a.name != own:
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "coblemukai" and len(parts) == 2 and parts[1] != own:
                    aliases[a.asname or a.name] = parts[1]
    return aliases


def _violations(text: str, filename: str) -> list[str]:
    tree = ast.parse(text, filename=filename)
    aliases = _module_aliases(tree, Path(filename).stem)
    found = []
    for node in ast.walk(tree):
        where = f"{filename}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Assert):
            found.append(f"{where}: assert statement")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases and _private(node.attr)):
            found.append(f"{where}: {node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            found += [f"{where}: from .{node.module} import {a.name}"
                      for a in node.names if _private(a.name)]
    return found


def test_modules_found():
    assert {"exact", "lattice", "rootgraph", "catalog", "cli"} <= PACKAGE_MODULES


def test_no_assert_and_no_private_cross_module_access():
    found = [v for p in MODULES for v in _violations(p.read_text(encoding="utf-8"), p.name)]
    assert found == []


def test_guard_sees_both_rules():
    bad = (
        "from . import exact, lattice as lat\n"
        "from .rootgraph import _classify_shape\n"
        "assert lat.det(x)\n"
        "g = lat._basis_gram(x, b, 1)\n"
        "r = exact.snf(g).__class__\n"
        "self._own = 1\n"
    )
    assert _violations(bad, "catalog.py") == [
        "catalog.py:2: from .rootgraph import _classify_shape",
        "catalog.py:3: assert statement",
        "catalog.py:4: lat._basis_gram",
    ]
    # a module may use its own private names
    assert _violations("from . import lattice\nlattice._rows(l, v)\n", "lattice.py") == []


PERFBENCH = SRC.parent.parent / "perfbench"

# public names that nothing in the package or the benchmark calls, and why they stay
UNREFERENCED_ALLOWED = {
    "lattice.saturate": "test oracles and the -O overlattice self-check build the saturation itself",
    "lattice.radical_quotient": "the library entry for a raw Gram: it checks entries and symmetry, "
                                "then reads RadicalSplit.quotient, which rootgraph reads directly",
    "rootgraph.span_lattice": "the span Gram of a graph for library callers and test oracles; "
                              "span_det reads the split's saturated det without it",
    "fibrations.fibers_of": "the reference inverse of diagram_of in acceptance and the assignment oracle",
}


def _public_definitions(tree: ast.Module, module: str) -> list[str]:
    """Public top-level functions and classes, and the public methods of a
    public class, as ``module.name`` or ``module.Class.method``."""
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            defs.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                defs += [f"{module}.{node.name}.{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return defs


def _references(tree: ast.Module, own: str | None) -> tuple[set[str], set[str]]:
    """(qualified, attributes) that ``tree``, package module ``own`` or a
    user text for None, refers to.  ``qualified`` holds ``module.name`` for
    an attribute of an alias of a package module, an imported name
    (``from .module import name`` or ``from coblemukai.module import name``)
    that is then used, and, in a package module, any other bare name as its
    own; ``attributes`` holds every attribute name, qualified or not."""
    aliases = _module_aliases(tree, own)
    imported = {}  # local name -> module.name
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.level <= 1:
            module = node.module if node.level else node.module.partition("coblemukai.")[2]
            if module in PACKAGE_MODULES:
                imported.update((a.asname or a.name, f"{module}.{a.name}") for a in node.names)
    qualified, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if node.id in imported:
                qualified.add(imported[node.id])
            elif own:
                qualified.add(f"{own}.{node.id}")
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
            if isinstance(node.value, ast.Name) and node.value.id in aliases:
                qualified.add(f"{aliases[node.value.id]}.{node.attr}")
    return qualified, attributes


def _unreferenced(sources: dict[str, str], users: list[str]) -> list[str]:
    """Public names of the package modules in ``sources`` (stem -> text) that
    nothing in a package module or in a ``users`` text refers to.

    A top-level function or class counts as referenced only with its module:
    as an attribute of an alias of that module, as a name imported from it
    and then used, or as a bare name inside it.  A method counts as
    referenced when any attribute carries its name, as its receiver cannot
    be resolved statically.  ``__init__`` re-exports do not count; a
    definition is not a reference to itself, but a use in its own module is.
    """
    trees = {m: ast.parse(text) for m, text in sources.items() if m != "__init__"}
    qualified, attributes = set(), set()
    for tree, own in [*((t, m) for m, t in trees.items()), *((ast.parse(u), None) for u in users)]:
        q, a = _references(tree, own)
        qualified |= q
        attributes |= a

    def referenced(d: str) -> bool:
        return d in qualified if d.count(".") == 1 else d.rsplit(".", 1)[1] in attributes

    return sorted(d for m, tree in trees.items() for d in _public_definitions(tree, m) if not referenced(d))


def test_every_public_name_has_a_caller():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    users = [p.read_text(encoding="utf-8") for p in sorted(PERFBENCH.glob("*.py"))]
    assert users, PERFBENCH
    assert _unreferenced(sources, users) == sorted(UNREFERENCED_ALLOWED)


def test_caller_guard_sees_functions_classes_and_methods():
    sources = {
        "lattice": "def used(): pass\ndef unused(): pass\ndef inner(): used()\n"
                   "class K:\n    def m(self): pass\n    def _p(self): pass\ndef _private(): pass\n",
        "catalog": "from . import lattice\nlattice.inner()\n",
        "__init__": "from .lattice import unused, K\n",
    }
    assert _unreferenced(sources, ["from coblemukai.lattice import K\nK().x\n"]) == [
        "lattice.K.m", "lattice.unused"]
    assert _unreferenced(sources, ["K().x\n"]) == ["lattice.K", "lattice.K.m", "lattice.unused"]
    assert _unreferenced(sources, []) == ["lattice.K", "lattice.K.m", "lattice.unused"]


def test_caller_guard_matches_names_with_their_module():
    # rootgraph reads a method det, a variable det and exact.det, none of
    # them lattice.det; a match without the module took any of them for it
    sources = {
        "lattice": "def det(): pass\ndef hnf(): pass\n",
        "rootgraph": "from . import exact\nclass Split:\n    def det(self): pass\n"
                     "Split().det()\ndet = exact.det\n",
        "catalog": "from .lattice import hnf as h\nh()\n",
    }
    assert _unreferenced(sources, []) == ["lattice.det"]
    assert _unreferenced(sources, ["from coblemukai import lattice as lat\nlat.det()\n"]) == []
    assert _unreferenced(sources, ["from coblemukai.lattice import det\n"]) == ["lattice.det"]
    assert _unreferenced(sources, ["from coblemukai.lattice import det\ndet()\n"]) == []
    # an import that is never used calls nothing
    sources["catalog"] = "from .lattice import hnf\n"
    assert _unreferenced(sources, []) == ["lattice.det", "lattice.hnf"]


def _calls(tree: ast.Module, function: str) -> set[str]:
    """Names that the top-level function ``function`` calls directly."""
    (node,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function]
    return {call.func.id for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)}


def test_det_and_inverse_share_one_elimination():
    # both reach the one Bareiss loop of exact.py through exact._eliminate,
    # and so does rank_signature, which reads the inertia off its pivots
    tree = ast.parse((SRC / "exact.py").read_text(encoding="utf-8"))
    assert "_eliminate" in _calls(tree, "det")
    assert "_eliminate" in _calls(tree, "inverse")
    assert {"_eliminate", "jacobi_inertia"} <= _calls(tree, "rank_signature")


def _span_reads_outside_split(text: str) -> list[str]:
    """Faults of the span's one owner, ``lattice.RadicalSplit``: rootgraph.py
    binding ``exact`` (as a module alias or by importing from it) or reading
    the split's ``minor``, ``minors`` or ``minor_det``.  Its span functions
    read what the split answers, never the minor it eliminates."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound = _module_aliases(ast.Module(body=[node], type_ignores=[]), "rootgraph")
            found += [f"{node.lineno}: exact alias {a}" for a, m in bound.items() if m == "exact"]
            if isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] == "exact":
                found.append(f"{node.lineno}: from exact import")
        elif isinstance(node, ast.Attribute) and node.attr in ("minor", "minors", "minor_det"):
            found.append(f"{node.lineno}: .{node.attr}")
    return sorted(found, key=lambda f: int(f.split(":")[0]))


def test_rootgraph_reads_the_span_from_its_split():
    assert _span_reads_outside_split((SRC / "rootgraph.py").read_text(encoding="utf-8")) == []


def test_span_guard_sees_exact_and_minor_reads():
    bad = (
        "from . import exact as ex, lattice\n"
        "from .exact import rank_signature\n"
        "def span_check(g):\n"
        "    if g._span.minors is None:\n"
        "        return ex.rank_signature(g._span.minor)\n"
        "    return g._span.inertia, g._span.minor_det\n"
    )
    assert _span_reads_outside_split(bad) == [
        "1: exact alias ex", "2: from exact import", "4: .minors", "5: .minor", "6: .minor_det"]
    assert _span_reads_outside_split("import coblemukai.exact\nfrom . import lattice\n") == [
        "1: exact alias coblemukai.exact"]


def _shape_outside_search(text: str) -> list[str]:
    """Reads of ``_STAR_TYPES`` outside ``_parabolic_search``, and any
    ``_classify_tree``: the growth step is the one place that decides shape."""
    tree = ast.parse(text)
    search = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_parabolic_search"]
    inside = {id(node) for fn in search for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_classify_tree":
            found.append(f"{node.lineno}: def _classify_tree")
        elif (isinstance(node, ast.Name) and node.id == "_STAR_TYPES"
              and isinstance(node.ctx, ast.Load) and id(node) not in inside):
            found.append(f"{node.lineno}: _STAR_TYPES")
    return found


def test_tree_shapes_are_decided_in_the_growth_step():
    text = (SRC / "rootgraph.py").read_text(encoding="utf-8")
    assert _shape_outside_search(text) == []


def test_shape_guard_sees_reads_and_the_classifier():
    bad = (
        "_STAR_TYPES = {}\n"
        "def _classify_tree(members, adj):\n"
        "    return _STAR_TYPES.get(())\n"
        "def _parabolic_search(g):\n"
        "    return _STAR_TYPES.get((1,))\n"
    )
    assert _shape_outside_search(bad) == ["2: def _classify_tree", "3: _STAR_TYPES"]


def _second_chain(text: str) -> list[str]:
    """Every ``_StabilizerChain(...)`` call unless there is exactly one, and
    any ``_lex_least_outside``: the lex-greedy generators are read off the
    one chain of the automorphism group itself."""
    tree = ast.parse(text)
    calls = [f"{node.lineno}: _StabilizerChain(...)" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "_StabilizerChain"]
    found = [] if len(calls) == 1 else calls or ["no _StabilizerChain(...) call"]
    found += [f"{node.lineno}: def _lex_least_outside" for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == "_lex_least_outside"]
    return found


def test_automorphisms_build_one_chain():
    text = (SRC / "rootgraph.py").read_text(encoding="utf-8")
    assert _second_chain(text) == []


def test_chain_guard_sees_a_second_chain_and_the_coset_walk():
    bad = (
        "def _lex_least_outside(chain, sub):\n"
        "    pass\n"
        "def automorphisms(g):\n"
        "    chain = _StabilizerChain(n, strong)\n"
        "    span = _StabilizerChain(n)\n"
    )
    assert _second_chain(bad) == [
        "4: _StabilizerChain(...)",
        "5: _StabilizerChain(...)",
        "1: def _lex_least_outside",
    ]
    assert _second_chain("def automorphisms(g):\n    return 1\n") == ["no _StabilizerChain(...) call"]


def _search_outside_cells(text: str) -> list[str]:
    """Faults of the automorphism search's scope: ``automorphisms`` must
    iterate ``cells[k]``, the only images b_k can have, and
    ``_find_automorphism`` must not test its start vertex against
    ``want[k]`` again."""
    tree = ast.parse(text)
    funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}

    def subscripts(fn: str, name: str) -> list[ast.Subscript]:
        return [node for node in ast.walk(funcs[fn]) if isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name) and node.value.id == name
                and isinstance(node.slice, ast.Name) and node.slice.id == "k"]

    loops = {id(node.iter) for node in ast.walk(funcs["automorphisms"]) if isinstance(node, ast.For)}
    found = [] if any(id(s) in loops for s in subscripts("automorphisms", "cells")) else [
        "automorphisms: no loop over cells[k]"]
    found += [f"{node.lineno}: want[k] in _find_automorphism"
              for node in subscripts("_find_automorphism", "want")]
    return found


def test_automorphism_search_tries_only_cells():
    text = (SRC / "rootgraph.py").read_text(encoding="utf-8")
    assert _search_outside_cells(text) == []


def test_cell_guard_sees_a_class_loop_and_the_precheck():
    bad = (
        "def _find_automorphism(mult, base, want, cands, k, u):\n"
        "    if k and get(mult[u]) != want[k]:\n"
        "        return None\n"
        "def automorphisms(g):\n"
        "    for u in cands[b]:\n"
        "        cells[k]\n"
    )
    assert _search_outside_cells(bad) == [
        "automorphisms: no loop over cells[k]",
        "2: want[k] in _find_automorphism",
    ]


def _lifts_outside_rows(text: str) -> list[str]:
    """Reads of ``generator_lifts`` in a private function, and any
    ``exact.integer_rows`` outside ``_rows``: inside lattice.py the
    discriminant lifts stay integer rows over one denominator, and rational
    vectors from callers become rows in one place."""
    tree = ast.parse(text)
    funcs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    rows = {id(node) for fn in funcs if fn.name == "_rows" for node in ast.walk(fn)}
    found = [f"{node.lineno}: generator_lifts in {fn.name}" for fn in funcs if _private(fn.name)
             for node in ast.walk(fn)
             if isinstance(node, ast.Attribute) and node.attr == "generator_lifts"]
    found += [f"{node.lineno}: exact.integer_rows" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr == "integer_rows"
              and isinstance(node.value, ast.Name) and node.value.id == "exact"
              and id(node) not in rows]
    return found


def test_discriminant_lifts_stay_integer_rows():
    text = (SRC / "lattice.py").read_text(encoding="utf-8")
    assert _lifts_outside_rows(text) == []


def test_lift_guard_sees_fraction_reads_and_conversions():
    bad = (
        "def _rows(lat, vectors):\n"
        "    return exact.integer_rows(vectors)\n"
        "def _saturate(lat, d):\n"
        "    rows, den = exact.integer_rows(group.generator_lifts)\n"
        "def discriminant_group(lat):\n"
        "    return group.generator_lifts\n"
    )
    assert _lifts_outside_rows(bad) == ["4: generator_lifts in _saturate", "4: exact.integer_rows"]


def _int_limit_readers(sources: dict[str, str]) -> list[str]:
    """Where ``sys.get_int_max_str_digits`` is named, as ``module.function``
    (the outermost function; ``module.<module>`` outside any): only the one
    reader of integer text, ``lattice.ascii_int``, may decide the digit limit."""
    found = set()
    for module, text in sources.items():
        tree = ast.parse(text)
        owner = {}
        for fn in ast.walk(tree):  # breadth first, so an outer function comes first
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    owner.setdefault(id(node), fn.name)
        for node in ast.walk(tree):
            names = ([a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [node.attr] if isinstance(node, ast.Attribute)
                     else [node.id] if isinstance(node, ast.Name) else [])
            if "get_int_max_str_digits" in names:
                found.add(f"{module}.{owner.get(id(node), '<module>')}")
    return sorted(found)


def _fraction_calls(text: str) -> list[str]:
    """Calls of ``Fraction`` or ``fractions.Fraction``: the CLI reads
    rational text through ``lattice.ascii_fraction``, not Fraction's grammar."""
    return [f"{node.lineno}: Fraction(...)" for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Call) and "Fraction" in (getattr(node.func, "id", None),
                                                             getattr(node.func, "attr", None))]


def test_one_reader_decides_number_text():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert _int_limit_readers(sources) == ["lattice.ascii_int"]
    assert _fraction_calls(sources["cli"]) == []


def test_number_text_guard_sees_limit_reads_and_fraction_calls():
    bad = {
        "lattice": "import sys\ndef ascii_int(t):\n    return sys.get_int_max_str_digits()\n"
                   "LIMIT = sys.get_int_max_str_digits()\n",
        "rootgraph": "from sys import get_int_max_str_digits\n"
                     "def parse_diagram(t):\n    def inner():\n        return get_int_max_str_digits()\n",
    }
    assert _int_limit_readers(bad) == [
        "lattice.<module>", "lattice.ascii_int", "rootgraph.<module>", "rootgraph.parse_diagram"]
    assert _int_limit_readers({"cli": "import sys\nsys.argv\n"}) == []
    text = ("from fractions import Fraction\nimport fractions\nx = Fraction(1)\n"
            "y = fractions.Fraction('1/2')\nz = isinstance(x, Fraction)\n")
    assert _fraction_calls(text) == ["3: Fraction(...)", "4: Fraction(...)"]


def _entry_conversions(sources: dict[str, str]) -> list[str]:
    """Where integer entries are read, as ``module.owner`` (the outermost
    function or class; ``module.<module>`` outside any): each
    ``operator.index``, or ``index`` imported from operator.  Also each
    ``int(...)`` or ``map(int, ...)`` in exact.py, as ``exact.owner: int``,
    and a ``gram_rows`` method of ``lattice.Lattice``: entries are checked
    once, where they enter, and the kernels of exact.py trust their rows."""
    found = set()
    for module, text in sources.items():
        tree = ast.parse(text)
        owner = {id(node): top.name for top in tree.body
                 if isinstance(top, (ast.FunctionDef, ast.ClassDef)) for node in ast.walk(top)}
        imported = {a.asname or a.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "operator"
                    for a in node.names if a.name == "index"}
        for node in ast.walk(tree):
            where = f"{module}.{owner.get(id(node), '<module>')}"
            if (isinstance(node, ast.Attribute) and node.attr == "index"
                    and isinstance(node.value, ast.Name) and node.value.id == "operator"
                    or isinstance(node, ast.Name) and node.id in imported):
                found.add(where)
            elif module == "exact" and isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                args = [a.id for a in node.args[:1] if isinstance(a, ast.Name)]
                if node.func.id == "int" or node.func.id == "map" and args == ["int"]:
                    found.add(f"{where}: int")
            elif (module == "lattice" and isinstance(node, ast.ClassDef) and node.name == "Lattice"
                  and any(isinstance(f, ast.FunctionDef) and f.name == "gram_rows" for f in node.body)):
                found.add("lattice.Lattice.gram_rows")
    return sorted(found)


def test_integer_entries_are_checked_where_they_enter():
    # from_edges is the RootGraph constructor of edge lists
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert _entry_conversions(sources) == [
        "exact.integer_rows", "lattice.make_lattice", "lattice.radical_quotient",
        "rootgraph.RootGraph", "rootgraph.from_edges",
    ]


def test_entry_guard_sees_kernel_conversions_and_gram_rows():
    bad = {
        "exact": "import operator\nfrom operator import index as ix\n"
                 "def det(m):\n    a = [[int(x) for x in row] for row in m]\n"
                 "def hnf_rows(rows):\n    return [list(map(int, r)) for r in rows]\n"
                 "def snf(m):\n    return ix(m[0][0])\n"
                 "def integer_rows(v):\n    return operator.index(v)\n",
        "lattice": "import operator\nclass Lattice:\n    def gram_rows(self):\n"
                   "        return [list(row) for row in self.gram]\n"
                   "def _rows(lat, v):\n    return list(map(operator.index, v))\n",
        # int() outside exact.py, and an ``index`` not from operator, are not entries
        "rootgraph": "def index(label):\n    return int(label)\nindex('a')\n",
    }
    assert _entry_conversions(bad) == [
        "exact.det: int", "exact.hnf_rows: int", "exact.integer_rows", "exact.snf",
        "lattice.Lattice.gram_rows", "lattice._rows",
    ]


def _vg_outside_kernel(text: str) -> list[str]:
    """Loops over a Gram's rows that sum or ``mul`` outside ``_times_gram``,
    and a ``_pairings`` or ``_in_dual`` that does not call it: lattice.py
    forms V*G in one kernel, which reads only the nonzero entries of V."""
    tree = ast.parse(text)
    funcs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    kernel = {id(node) for fn in funcs if fn.name == "_times_gram" for node in ast.walk(fn)}

    def reads_gram(expr) -> bool:
        return any(isinstance(n, ast.Attribute) and n.attr in ("gram", "gram_rows")
                   for n in ast.walk(expr))

    def sums(nodes) -> bool:
        return any(isinstance(n, ast.Name) and n.id in ("sum", "mul")
                   for node in nodes for n in ast.walk(node))

    lines = []
    for node in ast.walk(tree):
        if id(node) in kernel:
            continue
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            loops, body = node.generators, [node.elt]
        elif isinstance(node, ast.For):
            loops, body = [node], node.body
        else:
            continue
        if any(reads_gram(loop.iter) for loop in loops) and sums(body):
            lines.append(node.lineno)
    found = [f"{line}: V*G outside _times_gram" for line in sorted(lines)]
    found += [f"{fn.name} does not call _times_gram" for fn in funcs
              if fn.name in ("_pairings", "_in_dual") and "_times_gram" not in _calls(tree, fn.name)]
    return found


def test_lattice_forms_vg_in_one_kernel():
    text = (SRC / "lattice.py").read_text(encoding="utf-8")
    assert _vg_outside_kernel(text) == []


def test_kernel_guard_sees_a_second_vg_loop():
    bad = (
        "def _times_gram(lat, rows):\n"
        "    return [sum(map(mul, v, g)) for v in rows for g in lat.gram]\n"
        "def _in_dual(lat, rows, den):\n"
        "    return all(sum(map(mul, col, row)) % den == 0 for row in rows for col in lat.gram)\n"
        "def _pairings(lat, rows, cols):\n"
        "    vg = _times_gram(lat, rows)\n"
        "    for col in lat.gram_rows():\n"
        "        out.append(sum(col))\n"
        "def rescale(lat, m):\n"
        "    return [[m * x for x in row] for row in lat.gram]\n"
    )
    assert _vg_outside_kernel(bad) == [
        "4: V*G outside _times_gram",
        "7: V*G outside _times_gram",
        "_in_dual does not call _times_gram",
    ]


def _report_path_faults(text: str) -> list[str]:
    """Faults of the CLI's one report path: ``_print_report`` called outside
    ``run``, ``.write`` called outside ``run`` and ``_print_report``, and a
    ``_cmd_*`` handler that takes an ``out`` stream.  Handlers return a report
    or raw text; ``run`` alone writes it and picks the exit code."""
    found = []
    for top in ast.parse(text).body:
        owner = top.name if isinstance(top, ast.FunctionDef) else "<module>"
        if owner.startswith("_cmd_"):
            a = top.args
            if "out" in [x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs)]:
                found.append(f"{top.lineno}: {owner} takes out")
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "_print_report" and owner != "run":
                found.append(f"{node.lineno}: _print_report in {owner}")
            elif (isinstance(node.func, ast.Attribute) and node.func.attr == "write"
                  and owner not in ("run", "_print_report")):
                found.append(f"{node.lineno}: .write in {owner}")
    return sorted(found, key=lambda f: int(f.split(":")[0]))


def test_cli_writes_reports_in_run_alone():
    assert _report_path_faults((SRC / "cli.py").read_text(encoding="utf-8")) == []


def test_report_guard_sees_a_handler_that_prints_its_own_report():
    bad = (
        "def _print_report(report, as_json, out):\n"
        "    out.write(text)\n"
        "def _cmd_graph(args, out):\n"
        "    _print_report(report, args.json, out)\n"
        "    out.write(dot)\n"
        "    return 0\n"
        "def run(argv, out=None, err=None):\n"
        "    _print_report(args.func(args), args.json, out)\n"
        "    err.write('error')\n"
        "sys.stdout.write('x')\n"
    )
    assert _report_path_faults(bad) == [
        "3: _cmd_graph takes out",
        "4: _print_report in _cmd_graph",
        "5: .write in _cmd_graph",
        "10: .write in <module>",
    ]


TESTS = Path(__file__).resolve().parent


def _self_check_texts(text: str) -> list[str]:
    """The literal parts of each ``raise AssertionError(...)`` message: the
    string, or the constant pieces of an f-string, stripped of the spaces
    that join them to the formatted values.  A self-check raised with no
    literal text yields "<line>: no literal message"."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.Raise):
            continue
        call = node.exc if isinstance(node.exc, ast.Call) else None
        exc = call.func if call else node.exc
        if not (isinstance(exc, ast.Name) and exc.id == "AssertionError"):
            continue
        parts = []
        for arg in call.args if call else []:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                parts.append(arg.value)
            elif isinstance(arg, ast.JoinedStr):
                parts += [v.value for v in arg.values if isinstance(v, ast.Constant)]
        parts = [p.strip() for p in parts if p.strip()]
        found += parts or [f"{node.lineno}: no literal message"]
    return found


def _string_constants(text: str) -> list[str]:
    """Every string literal of a source, adjacent literals joined as Python joins them."""
    return [node.value for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)]


def _unfired_self_checks(sources: dict[str, str], tests: list[str]) -> list[str]:
    """``file: part`` for each literal part of a self-check message in
    ``sources`` (name -> text) that no string literal of a ``tests`` source
    contains."""
    strings = [s for t in tests for s in _string_constants(t)]
    return [f"{name}: {part}" for name, text in sources.items()
            for part in _self_check_texts(text) if not any(part in s for s in strings)]


def test_every_self_check_message_appears_in_a_test():
    # a self-check whose message no test names has never been seen to fire;
    # this file is left out, since its self-test quotes messages of its own
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    tests = [p.read_text(encoding="utf-8") for p in sorted(TESTS.glob("test_*.py"))
             if p.name != Path(__file__).name]
    assert sum(map(len, map(_self_check_texts, sources.values()))) >= 20
    assert _unfired_self_checks(sources, tests) == []


def test_self_check_guard_sees_unnamed_messages():
    src = (
        "def f(x):\n"
        "    if x:\n"
        "        raise AssertionError('span is not integral')\n"
        "    if x > 1:\n"
        "        raise AssertionError(f'curve {x}: gives {x!r}, not the graph')\n"
        "    if x > 2:\n"
        "        raise AssertionError\n"
        "    if x > 3:\n"
        "        raise AssertionError(MESSAGE)\n"
        "    raise ValueError('not a self-check')\n"
    )
    assert _self_check_texts(src) == [
        "span is not integral", "curve", ": gives", ", not the graph",
        "7: no literal message", "9: no literal message",
    ]
    # adjacent literals count as one; a comment is not a string literal
    tests = ["# span is not integral\nout = ('raised: curve 3: gives 3, '\n       'not the graph')\n"]
    assert _unfired_self_checks({"m.py": src}, tests) == [
        "m.py: span is not integral", "m.py: 7: no literal message", "m.py: 9: no literal message",
    ]


def test_mutant_snippets_occur_once_and_killers_exist():
    # tools/mutants.py applies each snippet by exact text: one that a refactor
    # moved or duplicated, or a killer that was renamed, must be updated there
    import importlib.util

    root = SRC.parent.parent
    spec = importlib.util.spec_from_file_location("mutants", root / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert len(mutants.MUTANTS) >= 28
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    texts = {}
    for m in mutants.MUTANTS:
        text = texts.setdefault(m.path, (root / m.path).read_text(encoding="utf-8"))
        assert text.count(m.snippet) == 1 and m.replacement != m.snippet, m.name
        assert m.path.startswith("src/coblemukai/") and m.killers, m.name
        for killer in m.killers:
            path, _, name = killer.partition("::")
            test = texts.setdefault(path, (root / path).read_text(encoding="utf-8"))
            assert f"\ndef {name}(" in test, (m.name, killer)
