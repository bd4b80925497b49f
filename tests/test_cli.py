import hashlib
import io
import json
import random
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coblemukai
from coblemukai import catalog, cli, lattice, rootgraph


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def test_vinberg_builtin_mi():
    code, out, _ = run(["graph", "vinberg", "builtin:MI"])
    assert code == 0
    assert "pass: true" in out
    for t in ("A~5+A~2+A~1", "A~4+A~4", "A~3+A~3+A~1+A~1", "A~2+A~2+A~2+A~2"):
        assert t in out


def test_lattice_mod2():
    code, out, _ = run(["lattice", "mod2", "A5+A5+A1+A1"])
    assert code == 0
    assert "nullity: 3" in out


def test_lattice_det_json():
    code, out, _ = run(["lattice", "det", "E10", "--json"])
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["det"] == -1
    assert payload["signature"] == [1, 9, 0]


def test_lattice_disc():
    code, out, _ = run(["lattice", "disc", "D8"])
    assert code == 0
    assert "invariant_factors:" in out and "- 2" in out


def test_lattice_overlattice_glue():
    code, out, _ = run(["lattice", "overlattice", "U(2)", "--glue", "1/2,0"])
    assert code == 0
    assert "index: 2" in out and "det: -1" in out
    code, out, _ = run(["lattice", "overlattice", "U(4)", "--glue", "1/4,0"])
    assert code == 0
    assert "index: 4" in out and "det: -1" in out


def test_lattice_overlattice_rejects_cross_term():
    # q(g1) = q(g2) = 0 in U(2)*/U(2), but b(g1, g2) = 1/2, so g1 + g2 has q = 1
    code, out, err = run(["lattice", "overlattice", "U(2)", "--glue", "1/2,0;0,1/2"])
    assert code == 2
    assert out == ""
    assert err == "error: glue subgroup is not isotropic: <g1, g2> = 1/2\n"


def test_lattice_overlattice_half_kernel():
    code, out, _ = run(["lattice", "overlattice", "A1+A1", "--half-kernel"])
    assert code == 0
    assert "index: 2" in out and "even: false" in out


def test_lattice_overlattice_requires_mode():
    code, _, err = run(["lattice", "overlattice", "A1+A1"])
    assert code == 2
    assert "error:" in err


def test_fiber_lookup_exit_codes():
    code, out, _ = run(["fiber", "lookup", "--char", "p3", "IV", "IV", "IV", "IV"])
    assert code == 0 and "pass: true" in out
    code, out, _ = run(["fiber", "lookup", "--char", "p5", "I5", "I5", "I1", "I1"])
    assert code == 1 and "pass: false" in out


def test_fiber_candidates():
    code, out, _ = run(["fiber", "candidates", "--char", "generic", "A~4+A~4"])
    assert code == 0
    assert "(I5, I5, I1, I1)" in out


def test_graph_dot_output():
    code, out, _ = run(["graph", "dot", "builtin:VI"])
    assert code == 0
    assert out.count("shape=circle") == 10
    assert out.count("shape=doublecircle") == 10


def test_graph_info_file_source(tmp_path):
    p = tmp_path / "pair.graph"
    p.write_text("graph pair\nvertex a\nvertex b\nedge a b 2\n")
    code, out, _ = run(["graph", "info", str(p)])
    assert code == 0
    assert "vertices: 2" in out


def test_graph_with_triple_edge_loads_but_is_not_searched(tmp_path):
    # a -- b triple, b -- c single: info, aut and dot print what the
    # dense-matrix implementation printed; the searches refuse the graph
    p = tmp_path / "triple.graph"
    p.write_text("graph T\nvertex a\nvertex b\nvertex c\nedge a b 3\nedge b c 1\n")
    assert run(["graph", "info", str(p)]) == (0, (
        f"command: graph info {p}\npass: true\npayload:\n  name: T\n  vertices: 3\n"
        "  edges: 2\n  curves: 3\n  roots: 0\n  span_rank: 3\n  signature:\n"
        "    - 1\n    - 2\n  span_det: 12\n"), "")
    assert run(["graph", "aut", str(p)]) == (0, (
        f"command: graph aut {p}\npass: true\npayload:\n  order: 1\n"
        "  generator_count: 0\n"), "")
    assert run(["graph", "dot", str(p)]) == (0, (
        'graph "T" {\n  "a" [shape=circle];\n  "b" [shape=circle];\n'
        '  "c" [shape=circle];\n' + '  "a" -- "b";\n' * 3 + '  "b" -- "c";\n}\n'), "")
    for action in ("parabolics", "vinberg"):
        assert run(["graph", action, str(p)]) == (
            2, "", "error: edge multiplicity >= 3: Vinberg's criterion hypothesis fails\n")


# sha256 of `coblemukai catalog build X` and `coblemukai graph dot builtin:X`
# stdout, as produced by the implementation that kept a dense multiplicity
# matrix and wrote edges in its row-major order
BUILD_DOT_SHA256 = {
    "I": ("16d8696deae487341fb619d1b8b7606e93f77f7cd71dc5a5a3ed47ed00a86da5",
          "f13833e57e5754e98937fe45b2b4b17cb743d109fe19c83af66a3c825fb32f7a"),
    "II": ("33b46f8e95f56274f1c22c314263a55958f118e2e52c39600111fda576c9221c",
           "7fda9d5013972629eca456cfef9d188fd09eb6e5b0e98fab8cbbb83cc55a2806"),
    "VI": ("a80fa7325557fc5478d6420f4375cab96c2db33e9567ddabfb1129a19e1cc712",
           "78bd335178a5af1922b8ceba1301d156c7793c6e404749b142b8e0cd0bc29262"),
    "MI": ("c717ca9c4cb5ae9111bd5a28e7de5f1f93918306f2ed2bba1254edc507c91f2c",
           "614f1c7678700ba58584a9cfd3f200d120d08bfc22a1124a75095c972673bf9b"),
    "MII": ("ee7101abc647b93c3ea84ca403390a4193f4e14b0bcd68f000c75253eeaeac63",
            "41bb80a8f80af27dfa34be82c7c4c98efe3fcf13c0666adcfb4cd7c0a9e611f5"),
}


@pytest.mark.parametrize("name", sorted(BUILD_DOT_SHA256))
def test_catalog_build_and_dot_pinned(name):
    argvs = (["catalog", "build", name], ["graph", "dot", f"builtin:{name}"])
    for argv, want in zip(argvs, BUILD_DOT_SHA256[name]):
        code, out, _ = run(argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want, argv


def test_graph_aut_on_shuffled_cycle(tmp_path):
    # the A~39 cycle of an I40 fibre, its vertices declared in a shuffled
    # order: the search base must not follow the declaration order
    order = list(range(40))
    random.Random(40).shuffle(order)
    lines = ["graph C40"] + [f"vertex v{i}" for i in order]
    lines += [f"edge v{i} v{(i + 1) % 40} 1" for i in range(40)]
    p = tmp_path / "c40.graph"
    p.write_text("\n".join(lines) + "\n")
    code, out, _ = run(["graph", "aut", str(p)])
    assert code == 0
    assert "order: 80" in out


def test_graph_parabolics_listing():
    code, out, _ = run(["graph", "parabolics", "builtin:I"])
    assert code == 0
    assert "A~1: c1 c2" in out
    code, out, _ = run(["graph", "parabolics", "builtin:I", "--maximal", "--rank", "8"])
    assert code == 0
    assert "E~8" in out


def test_usage_errors_exit_2():
    assert run(["frobnicate"])[0] == 2
    assert run(["graph", "explode", "builtin:MI"])[0] == 2
    assert run(["lattice", "det", "Q9"])[0] == 2
    assert run(["lattice", "det", "A257"])[0] == 2  # above the named-spec rank bound
    assert run(["graph", "info", "/nonexistent/file.graph"])[0] == 2
    assert run(["catalog", "build", "V"])[0] == 2
    assert run([])[0] == 2
    # int() and Fraction() read underscores and non-ASCII digits; the CLI does not
    for argv, text in ((["graph", "parabolics", "builtin:I", "--rank", "٢"], "argument --rank: invalid"),
                       (["graph", "parabolics", "builtin:I", "--rank", "1_0"], "argument --rank: invalid"),
                       (["lattice", "overlattice", "U(2)", "--glue", "١/2,0"], "glue vector entries")):
        code, out, err = run(argv)
        assert (code, out) == (2, ""), argv
        assert text in err and "Traceback" not in err


def test_catalog_build_roundtrip():
    code, out, _ = run(["catalog", "build", "MII"])
    assert code == 0
    g = rootgraph.parse_graph_text(out)
    assert g.n == 40


def test_catalog_model_output():
    code, out, _ = run(["catalog", "model", "MI"])
    assert code == 0
    assert out.startswith("basis hu hv")


def test_catalog_check_small():
    code, out, _ = run(["catalog", "check", "II", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["payload"]["checks"]["span"]["ok"] is True


def test_failing_catalog_check_exits_1_with_the_whole_report(monkeypatch):
    # no built-in entry fails, so a wrong claimed |Aut| is patched in
    code, text, _ = run(["catalog", "check", "MI"])
    _, js, _ = run(["catalog", "check", "MI", "--json"])
    assert code == 0
    monkeypatch.setitem(catalog.CLAIMED_GRAPH_AUT, "MI", 1441)
    passing = "automorphisms:\n      ok: true\n      order: 1440\n      claimed: 1440\n"
    failing = "automorphisms:\n      ok: false\n      order: 1440\n      claimed: 1441\n"
    assert text.count("pass: true\n") == 1 and text.count(passing) == 1
    assert run(["catalog", "check", "MI"]) == (
        1, text.replace("pass: true\n", "pass: false\n").replace(passing, failing), "")
    code, out, err = run(["catalog", "check", "MI", "--json"])
    assert (code, err) == (1, "")
    want = json.loads(js)
    want["pass"] = False
    want["payload"]["checks"]["automorphisms"].update(ok=False, claimed=1441)
    assert json.loads(out) == want


def test_determinism_across_runs():
    outputs = {run(["catalog", "check", "VI", "--json"])[1] for _ in range(3)}
    assert len(outputs) == 1


def test_catalog_check_vi_includes_block_order():
    code, out, _ = run(["catalog", "check", "VI", "--json"])
    assert code == 0
    checks = json.loads(out)["payload"]["checks"]
    assert checks["block_automorphisms"]["ok"] is True
    assert checks["block_automorphisms"]["order"] == 120


def test_graph_maximal_json_lists_subdiagrams():
    code, out, _ = run(
        ["graph", "parabolics", "builtin:I", "--maximal", "--rank", "8", "--json"]
    )
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["count"] == len(payload["subdiagrams"])
    assert any(any(c.startswith("E~8:") for c in p) for p in payload["subdiagrams"])


def test_glue_zero_denominator_exit_2():
    code, out, err = run(["lattice", "overlattice", "A1", "--glue", "1/0"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_glue_over_long_entries_exit_2_with_glue_message():
    # Fraction hands these to int(), which refuses more than 4300 digits
    # with its own text; the CLI names the glue vector instead
    ones = "1" * 5000
    for glue in (f"{ones}/2,0", f"1/{ones},0"):
        code, out, err = run(["lattice", "overlattice", "U(2)", "--glue", glue])
        assert (code, out) == (2, ""), glue[-8:]
        assert err == f"error: glue vector entries must be ASCII rationals: {glue!r}\n"


def test_glue_lift_length_must_match_rank():
    # a lift longer than the rank is refused, not cut: "1/2,0,7/3" is no "1/2,0"
    for glue in ("1/2,0,7/3", "1/2,0,0", "1/2", "1/2,0;1/2,0,0"):
        code, out, err = run(["lattice", "overlattice", "U(2)", "--glue", glue])
        assert code == 2, glue
        assert out == ""
        assert err == "error: vector length does not match lattice rank\n"


def test_lattice_file_spec(tmp_path):
    p = tmp_path / "u2.gram"
    p.write_text("rank 2\n0 2\n2 0\n")
    for action in ("det", "disc", "mod2"):
        file_out = run(["lattice", action, f"file:{p}", "--json"])[1]
        named_out = run(["lattice", action, "U(2)", "--json"])[1]
        assert json.loads(file_out)["payload"] == json.loads(named_out)["payload"]
    code, out, err = run(["lattice", "det", f"file:{tmp_path / 'missing.gram'}"])
    assert code == 2 and out == "" and err.startswith("error:")


def test_fiber_candidates_unknown_affine_type_exit_2():
    for diagram in ("E~9", "E~5", "A~0", "D~3", "A~2+A~0"):
        code, out, err = run(["fiber", "candidates", diagram])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


def test_fiber_candidates_misplaced_tilde_exit_2():
    for diagram in ("A4~", "~A4", "A~~4", "A4~+~A4", "A~4+A4~"):
        code, out, err = run(["fiber", "candidates", diagram])
        assert code == 2, diagram
        assert out == ""
        assert err.startswith("error: bad diagram token")


def test_parabolics_negative_rank_exit_2():
    code, out, err = run(["graph", "parabolics", "builtin:I", "--rank", "-1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "target rank" in err


def test_negative_vinberg_target_exit_2(tmp_path):
    p = tmp_path / "one.graph"
    p.write_text("graph one\nvertex a\n")  # span rank 1, so target rank -1
    for argv in (
        ["graph", "vinberg", str(p)],
        ["graph", "parabolics", str(p), "--maximal"],
        ["graph", "vinberg", "builtin:I", "--rank", "-1"],
        ["graph", "parabolics", "builtin:I", "--maximal", "--rank", "-1"],
    ):
        code, out, err = run(argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:") and "target rank" in err


def test_fiber_candidates_many_components_returns_quickly():
    # more components than any extremal configuration has fibers; the
    # product over fiber choices alone would be 2**40
    code, out, _ = run(["fiber", "candidates", "+".join(["A~1"] * 40)])
    assert code == 1
    assert "pass: false" in out


DIAGRAM_TOKENS = st.one_of(
    st.sampled_from(["A~1", "A~2", "A~3", "A~4", "A~8", "D~4", "D~8", "E~6", "E~7", "E~8"]),
    st.builds(
        "{}{}{}".format,
        st.sampled_from("ADE"),
        st.sampled_from(["", "~"]),
        st.integers(min_value=-1, max_value=12),
    ),
    st.builds(
        "{}{}{}".format,
        st.sampled_from("ADEI"),
        st.sampled_from(["", "~", "~~"]),
        st.text("0123456789-~ ", max_size=3),
    ),
    st.text(max_size=6),
)


@given(st.lists(DIAGRAM_TOKENS, min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
@example(["A~0"])
@example(["A~1"] * 5)
def test_fuzz_fiber_candidates_exit_codes(tokens):
    code, out, err = run(["fiber", "candidates", "+".join(tokens)])
    assert code in (0, 1, 2)
    assert (code == 2) == (out == "")


GRAPH_LABELS = st.sampled_from(["a", "b", "c", "d", 'q"r', "s\\"])
GRAPH_LINES = st.one_of(
    st.builds(
        "vertex {}{}".format,
        GRAPH_LABELS,
        st.sampled_from(["", " kind=-1", " kind=-2", " kind=0", " x y"]),
    ),
    st.builds(
        "edge {} {} {}".format,
        GRAPH_LABELS,
        GRAPH_LABELS,
        st.sampled_from(["0", "1", "2", "3", "-1", "x", "1.5", "12"]),
    ),
    st.builds("graph {}".format, st.text(max_size=4)),
    st.text(max_size=12),
)


@st.composite
def graph_texts(draw):
    """Mostly well-formed graph files, with a few arbitrary lines let in."""
    labels = draw(st.lists(GRAPH_LABELS, unique=True, max_size=5))
    kinds = st.sampled_from(["", "", " kind=-1", " kind=-2"])
    lines = ["graph g"] + [f"vertex {label}{draw(kinds)}" for label in labels]
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            mult = draw(st.sampled_from(["", "", "1", "1", "2", "3"]))
            if mult:
                lines.append(f"edge {a} {b} {mult}")
    for line in draw(st.lists(GRAPH_LINES, max_size=2)):
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), line)
    return "\n".join(lines)


@given(graph_texts())
@settings(max_examples=200, deadline=None)
@example("graph g")
@example("graph g\nvertex a")
def test_fuzz_graph_info_exit_codes(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.graph"
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
        code, out, err = run(["graph", "info", str(path)])
    assert code in (0, 1, 2)
    assert (code == 2) == (out == "")


# sha256 of `coblemukai catalog check X` stdout, text then --json, as produced
# by the Fraction-based implementation the integer core replaced
CATALOG_CHECK_SHA256 = {
    "I": (
        "0441eed145d829be48d35aef9c031984f1ec28848e0a8e9f25dd73182a6a0033",
        "c347e57ecbdf375bce10ee8db923c1fd1d91b44d3baf9e57da7fee9cbdff2e3f",
    ),
    "II": (
        "4fb12680304b36359565b7b61bfa99c5b809628cc64b34cdaf9925ba07bfc499",
        "d8b508f7a656081e62086b6a8b1ce5b6527e6e42e6c4980d6d12970fdf5f1e9b",
    ),
    "VI": (
        "49ba67f6a1b09e5bac2bacb7ddc12180f361f5adf2b78d48f6e44cfad3fbae6a",
        "d38dd137b0bccc97ebb3d6825b10dabf7f16bb451b72ebb394073145c0f8660f",
    ),
    "MI": (
        "e409a1d71275b009cba6a173564bc1ad30adee8c36def93a67bd376ac4bb39d0",
        "384a2a8b77cef30cccd259b31609efd967e2b87066d5e838b5549b914ef7199e",
    ),
    "MII": (
        "64c4acefceb278dd06ebc1c1238fa1ff086cf0f1274438218da051bc55420a8c",
        "8d05d724309f5b291ad659682cf3e85f8026b15302f457674ca623191b5e4d60",
    ),
}


@pytest.mark.parametrize("name", sorted(CATALOG_CHECK_SHA256))
def test_catalog_check_stdout_pinned(name):
    text_sha, json_sha = CATALOG_CHECK_SHA256[name]
    for argv, want in ((["catalog", "check", name], text_sha),
                       (["catalog", "check", name, "--json"], json_sha)):
        code, out, _ = run(argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want, argv


# sha256 of `coblemukai graph aut builtin:X` stdout, text then --json, as
# produced by the implementation that listed every group element; --json
# prints every generator, so these pin the generating set itself
GRAPH_AUT_SHA256 = {
    "I": (
        "515b4e3ec3c5279099eae25af980d4507485c287a0cf69cfba0183091edeab14",
        "6426177e7b85ddcb604b693beac906c27030e372771fa852ab962356d058ab61",
    ),
    "II": (
        "54516c8c6ddffad29c6c6af19b2748d2857d977d6485043dbcda14c3937e8049",
        "6e45edb80bf85db9a575c774c627289ed00a3eb6a8b569d3df43f46ca0915b3f",
    ),
    "VI": (
        "149a0063269623e8a07747b712ca09e522fde22f713735ca092cfc67241eb9a1",
        "d41c4342d66b25c80f22416e941c612aa2cfd2c01174e9a5f4a96dbd208b7afe",
    ),
    "MI": (
        "e2425b6bfd8f6db6d303f94b002d7d9a0faf785f5db77769dba59130dd0a1fb6",
        "43e1dacd73cd367027b5331e29084b9aa37dd798bb7478541adff398859099bb",
    ),
    "MII": (
        "472aef19b72c10558fb695a15769137ea9eded4c46e98d7638df2d2862526c88",
        "5144ffb38af1355ae5a1cb0fd166f46c832a42c53030fedf2ac8783c1a0e5bff",
    ),
}


@pytest.mark.parametrize("name", sorted(GRAPH_AUT_SHA256))
def test_graph_aut_stdout_pinned(name):
    text_sha, json_sha = GRAPH_AUT_SHA256[name]
    for argv, want in ((["graph", "aut", f"builtin:{name}"], text_sha),
                       (["graph", "aut", f"builtin:{name}", "--json"], json_sha)):
        code, out, _ = run(argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want, argv


def shuffled_graph_text(name, n, edges, seed):
    """Graph-file text for single edges on v0..v{n-1}, the vertices declared
    in a seeded random order."""
    order = list(range(n))
    random.Random(seed).shuffle(order)
    lines = [f"graph {name}"] + [f"vertex v{i}" for i in order]
    lines += [f"edge v{a} v{b} 1" for a, b in edges]
    return "\n".join(lines) + "\n"


# graph files beyond the builtins: the A~39 cycle, the 5-cube and eight
# disjoint 5-cycles, each declared in a seeded vertex order
AUT_FILE_GRAPHS = {
    "C40": (40, [(i, (i + 1) % 40) for i in range(40)], 40),
    "Q5": (32, [(a, a | 1 << k) for a in range(32) for k in range(5) if not a >> k & 1], 5),
    "8C5": (40, [(5 * c + i, 5 * c + (i + 1) % 5) for c in range(8) for i in range(5)], 8),
}

# sha256 of `coblemukai graph aut NAME.graph --json` stdout, run from the
# directory that holds the file, as produced by the two-chain coset walk that
# the lex-greedy walk of the automorphism group's own chain replaced
GRAPH_AUT_FILE_SHA256 = {
    "C40": "da2107ab50bf2d03b36c7f708814b3bc59909f0866bdbb8397492570f7a48874",
    "Q5": "714ff12ca68bda711a1ac69975117db96a04673e9e09873d4c9691065f6cef5c",
    "8C5": "60e87151ae7702787efcfa178635b28d0629ecbebb5a8918e103b780f90febfc",
}


@pytest.mark.parametrize("name", sorted(GRAPH_AUT_FILE_SHA256))
def test_graph_aut_json_pinned_on_graph_files(name, tmp_path, monkeypatch):
    n, edges, seed = AUT_FILE_GRAPHS[name]
    (tmp_path / f"{name}.graph").write_text(shuffled_graph_text(name, n, edges, seed))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(["graph", "aut", f"{name}.graph", "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GRAPH_AUT_FILE_SHA256[name]


# sha256 of `coblemukai graph vinberg builtin:X` and `coblemukai graph
# parabolics builtin:X --maximal` stdout, text then --json, as produced by the
# list-queue enumeration and k^2 packing table the bitmask search replaced;
# the --json packings list every component of every maximal parabolic
GRAPH_VINBERG_SHA256 = {
    "I": (
        "0100fd89e2ab8add5bb6166812148dc2fc2d275b47babd0e0b20012cb1a10578",
        "f1043cf2ce940920499d1ba73de71a59e492419814404426a0c9c57e0aa6ec96",
    ),
    "II": (
        "29ad1383f4ceeddadb0a4cd74d174745d52815eb63e6226feb0130750d132357",
        "a3803a4aedbc1c22a70bde852090c7d6ec73dc970f6668b43d01d99a382d96a2",
    ),
    "VI": (
        "235a53b5b85db1593652a6486e4de50bb52e6c4ae6d1e56328271bec45f9d321",
        "8b8008fae9d8f0c1b2e90fbd4d2b3e55b7a06e84bca5a33b565888b3e41c1419",
    ),
    "MI": (
        "5d6705cb7e7da9987ee496e8bbb100515bcc04b580f7604ef46e2dae44e743fe",
        "7bb3728a518fdfc8151c586da13bef49e006ed5a2e72b70ba4d41d92f2054ea6",
    ),
    "MII": (
        "4709bc00006234dc0c9c3f0f5a21a80b9e30842ac68834e638576dbe6fc89851",
        "e1ab4a3b7ec3afc66c085f114dcdf36d6f0ff75f9a6372f3147c1f4a7b70a66f",
    ),
}
GRAPH_MAXIMAL_SHA256 = {
    "I": (
        "7fe3c1bfd90249a8a38c5a7a79abf055234cc8d64effb34e9dbf5a7d377b4bba",
        "a70968db0b2eacc3314897399b67f2b8387aebf8ccb522f9f3ab57f2488013de",
    ),
    "II": (
        "592eb9eb5e2701593c749c53b8d04ffa570a08fe5363894d8abf8dfb3104a554",
        "0628051ae814b1cc0112806d0b557b6444340ee1c49adf1a3733b38d6a7f53a3",
    ),
    "VI": (
        "54d1d8f760b0b0d4955e313cb7e0224ea5399c4163c3bf43490c470b1870fd8a",
        "71a67c58cef12afeb7541abbbf3e16fd19d2359d23b94b5a9434033430ce606c",
    ),
    "MI": (
        "a2e93812b8c6d7baf58dafd524dca653131d12bc1dd1c033700d76d5f042600f",
        "f861a5ac8e57a0554321dde08f49b77a716562474793b5e4675bd43b7cb8ce37",
    ),
    "MII": (
        "d893c453b60b867bd7eb9f546170af5d15545849f39b3d469d777a7f96fee7bd",
        "530e0dc30766178e12010db80eff41aff745d5a4a672fa25d2f76320f90e115d",
    ),
}


@pytest.mark.parametrize("name", sorted(GRAPH_VINBERG_SHA256))
def test_graph_vinberg_and_maximal_stdout_pinned(name):
    for base, (text_sha, json_sha) in (
        (["graph", "vinberg", f"builtin:{name}"], GRAPH_VINBERG_SHA256[name]),
        (["graph", "parabolics", f"builtin:{name}", "--maximal"], GRAPH_MAXIMAL_SHA256[name]),
    ):
        for argv, want in ((base, text_sha), (base + ["--json"], json_sha)):
            code, out, _ = run(argv)
            assert code == 0
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want, argv


# sha256 of `coblemukai graph parabolics builtin:X` (all ranks, then
# --rank 3) and `coblemukai graph info builtin:X` stdout, text then --json,
# as produced by the degree-scan classifier and the span check on the full
# Gram that the growth step and the cached span replaced
GRAPH_PARABOLICS_SHA256 = {
    "I": (
        "b7a21b19575334b233c8997f9ee31d85dac2e886c777d6c82095ef18c1d0c1d4",
        "d2fbd2c4618588dab8d63e08407c1ea3e031c8a70f9b5a4698abac56e3503add",
    ),
    "II": (
        "304d765e24c664c7d51ae4a37a4f07eb6806891735e974e2398813827ef3ea21",
        "458637ba6f78a3a0e3856f982f5aedebf7777d09525b4d85640cdbfbe1ff0bf4",
    ),
    "VI": (
        "6f616095773bc2dcc2ab64f221e2b27d83f6080f9742a1954125bd0a3144fcce",
        "79bf9a4eaf5e5213087c7adcc53dd83a84f475a5b676849cf61ec6640b0ee3b6",
    ),
    "MI": (
        "422fd0509fcef1538ec6fdb188edbc3525d4f4702543043999e6080258d957ac",
        "a749b7f3de3e5ce8bc3d3dfb5ac856df818d37878e2d4b47fb527eeaabcca736",
    ),
    "MII": (
        "549a5211e2bb7bb8f39bde80ad3bd01055482eee60694fa172f1f33359726559",
        "9879dd68500e1c6bbda969d91da95f5f56853c0ad5e3e1e1359855f26e2bff2d",
    ),
}
GRAPH_PARABOLICS_RANK3_SHA256 = {
    "I": (
        "ce2b73423bbfe262fbe8392ebde24c6909c2f810e552d45a467dcdd361900a80",
        "b87b3774a3797cfa78b8f78cae8f2a577cae86ad519565ce136e5eaa116aa792",
    ),
    "II": (
        "36ce66214edd8b313c4b9845d67e298580904243c9f7726b7404c9ee93755600",
        "d60f552795e2af67172d300925bb4e9290d18010b9b4f2d44229cc19ccc39d88",
    ),
    "VI": (
        "0d5042b8a72c760875fc8494bd795b8cc72b6e6aba635c180e410507d033f0e5",
        "f36a6d1c3240d5940867d81edf46fbd4a8772d97f222656eeb03e258d4a27f39",
    ),
    "MI": (
        "c58a5c5ebf50309acb18f1f0b7a38fb63dffb953d8da76958b1c7ce83409be33",
        "4e2bfbe8862c90c312ad3a5b729864c4b7c7d8922cfe2db5710699f33931a831",
    ),
    "MII": (
        "dad03adfa7fb71bd1d74d8fc24189a32be07ff1f4dee67d6d0ef23ad2f1ed95c",
        "beef8eb1e036e7affb6fefc1e2daa03ca7024c4c0c2cff391d7238fe9aa48339",
    ),
}
GRAPH_INFO_SHA256 = {
    "I": (
        "0afca160ded689f54a6128c4c0360af81a9b7bcd26a25ef1cbfd9f8e38ede0ef",
        "b42e4fafc362de57c24fdf6c4facbbc076a8bce721f8174f32fdeceac450a348",
    ),
    "II": (
        "3783ff796fe21067c9cd0645cf2559fc61ab7b53256c3ceaba24e6210da156b1",
        "9eec90e03f0ad7b1123fc6e8d559048f3b2c5ddc0b493347849e480ce1e01a4f",
    ),
    "VI": (
        "ef2267f8649c5779e5eaa1febc149f577f465cadbc008f529bf82be7dcb5e4d0",
        "7ba3985446e15c7c9330b5eab1dc8d50e3ebf3eb06bdfe1bed06c0f3a621000b",
    ),
    "MI": (
        "a67603d4d45b99382f03614ad7073fc70ca18fa061722a5ae9c891b246e1e8ff",
        "4070cefd36795ce0602498f81e368bb028f5a2152c9311b30176e2bc26d242fe",
    ),
    "MII": (
        "9ee7beb305df2e787efa42134f175f960080f436a9b3bf5d6230b8aedab2d2ea",
        "5d302afc1d5ce77d79cc965bda46f4d0ce35de00bd5708efab5e3063aeae518f",
    ),
}


@pytest.mark.parametrize("name", sorted(GRAPH_INFO_SHA256))
def test_graph_parabolics_and_info_stdout_pinned(name):
    source = f"builtin:{name}"
    for base, (text_sha, json_sha) in (
        (["graph", "parabolics", source], GRAPH_PARABOLICS_SHA256[name]),
        (["graph", "parabolics", source, "--rank", "3"], GRAPH_PARABOLICS_RANK3_SHA256[name]),
        (["graph", "info", source], GRAPH_INFO_SHA256[name]),
    ):
        for argv, want in ((base, text_sha), (base + ["--json"], json_sha)):
            code, out, _ = run(argv)
            assert code == 0
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want, argv


# sha256 of stdout, text then --json, for commands that print Fraction
# strings (discriminant lifts and q values, blow-up model vectors) or Gram
# matrices built from rational bases, as produced by the implementation that
# carried rational vectors as tuples of Fraction
HAMMING_GLUE = (
    "1/2,1/2,1/2,1/2,0,0,0,0;0,0,1/2,1/2,1/2,1/2,0,0;"
    "0,0,0,0,1/2,1/2,1/2,1/2;1/2,0,1/2,0,1/2,0,1/2,0"
)
RATIONAL_STDOUT_SHA256 = [
    (["lattice", "disc", "A2+D4"], (
        "ad2990888e518b3387fb85a1d7fe5c2ba6a0081c6b5299da663d09a1f2688d92",
        "4c4c2ddd2d5decc1da10b8d7d6833c0e48a1f083b2cb596854fd82b9359ae9dc",
    )),
    (["lattice", "disc", "E6+A4"], (
        "6727d04d296b605252ee3447e7327ac0c8c179049c8a1af7f90d0814a2e210bc",
        "a62e75d2589c94825f244f2b896f022e286f5690c49916b80a51eba6c3e6798f",
    )),
    (["lattice", "disc", "D9"], (
        "b3ac925fa3dd431cd1d771fd0d2ebc0f0ae36ffbcef58e2a47a8128d8297ce25",
        "cf5152a53456a0333413b63f446f3f7f17500547bebec59b24e31e5690e7b3fe",
    )),
    (["lattice", "disc", "U(2)"], (
        "5b0ca4e795b33b9543821dece0f44702f9f0ac2640173ae80928fdde41472d75",
        "7d54bb96d2cef12c327bd9893dded4758a2e0a07b69ebedb6c5435f06d1b1456",
    )),
    (["lattice", "overlattice", "U(4)", "--glue", "1/4,0"], (
        "b91b4e627c7f4a3c0cbfc29628b812f99f16a46f0b05aa16cae14148d9132b12",
        "07932ba3e2299f4bd7369105dfde3c62f1b35c6653e3ab3f0d2030b829c73f56",
    )),
    (["lattice", "overlattice", "D4+D4(-1)", "--glue",
      "0 0 1/2 1/2 0 0 1/2 1/2; 1/2 0 1/2 0 1/2 0 1/2 0"], (
        "edcf1437cefec5a9f31f41d7bf179fe02cc10b8a1fb65e01a82eebcc7236f3c4",
        "df91f3c741d8f9ec370dc7be61145a508d510639393adeac732102dcd66b45f0",
    )),
    # the extended Hamming code glues 8 A1 to E8
    (["lattice", "overlattice", "A1+A1+A1+A1+A1+A1+A1+A1", "--glue", HAMMING_GLUE], (
        "efe324fb842ab399f13b36639487fdff993b795f24db89bc24029b7788d2c007",
        "103d641e01fd73e86eb80d0e289c3f36775dc2f3410311adc98e035ca63b8166",
    )),
    (["lattice", "overlattice", "E8+A1+A1", "--half-kernel"], (
        "d90bfdbc22b0d2b3f47b4ee36ebf4b5703692e43aa240d7ef78844c165f3227b",
        "41edbadaa42c9b87a1a469ce45a618f1eae2e3fe2debf587d998a30a3071fa74",
    )),
    # L*/L of unimodular lattices and of small groups, with the lifts printed
    (["lattice", "disc", "E8"], (
        "526c8f9e8d51f742e8866ae7bf2ddb8182f530cff38ed9b4838284bb44073ed5",
        "8e73b0762c29228168adb0918fad6624b83e3d7e8c10902d26207a55b6a2a7ae",
    )),
    (["lattice", "disc", "U"], (
        "fdb416335fd37b5a90a06b3d191d4cf2665057d23abb272aa6edc5264aa50cdf",
        "e799d564183480fee2dbc4e9638f3d33cedc6cc6eeac84e2e52aa7702b43fcb5",
    )),
    (["lattice", "disc", "E8+U"], (
        "c8adb2d2e2a6ac241ba4c2a09169a29e30175819c77aacc437d43c71a8b60037",
        "9e2300d0afe0f98a8ea3495d2a6c82cb3b21bcc494ccd7a3d631812151e61685",
    )),
    (["lattice", "disc", "E10"], (
        "666bc6c3cbe2f5772289d2d79f196beb59b2cd66220ca44dc37d4d504fd1596f",
        "dae1f8503bbfe3dbdd1718e545e4848853b1004455b59964252a25761ccc9b8f",
    )),
    (["lattice", "disc", "D4+D4"], (
        "2a1cec36bb0d82d68a199742b8dd16e108b59a630f8f5922702a5f8467992d5b",
        "e49d6016a02410bb67cf2fc42a6786638197847e8f65296206241d94edb21580",
    )),
    (["lattice", "disc", "A2+A2+A2+A2"], (
        "33de30df60daa3803aef019e90b9b20d61e24b87c6cefdbb961c2e5068a64103",
        "dbc181975840d0601c7a65e5ebf9733897285637a9565db9a815a016f8c7d374",
    )),
    (["lattice", "disc", "E7+A1"], (
        "a2422151cd20a413bf27bf29e8be95f6cde50cf1f3f6de70cf12a1ddad29516f",
        "2061798087196499c2334af92eb9d7e268887bcb3bc77a497d48ea08aa9d68ff",
    )),
    (["lattice", "disc", "A1+A1+A1+A1+A1+A1+A1+A1"], (
        "a5f2d625f8b197f5e310662778b84d86f9d42e02ff48fc38d525940e4992399d",
        "f15d0b032a0da1057220fb6ded25f1f9e2d4f8e087f439d3c0f4b820968d9262",
    )),
    # `catalog model` prints the model text whether or not --json is given
    (["catalog", "model", "MI"], (
        "e4c25b5c490f33ecb148f5b006cf5be3113928c4d651eef1549b8229c947d8e1",
        "e4c25b5c490f33ecb148f5b006cf5be3113928c4d651eef1549b8229c947d8e1",
    )),
    (["catalog", "model", "MII"], (
        "a329d7fdebc588878186180a9801a840f6b0471abe9789ba41190dac7e07af06",
        "a329d7fdebc588878186180a9801a840f6b0471abe9789ba41190dac7e07af06",
    )),
    # `lattice mod2` on the four R-invariant specs, as produced while lattice
    # still kept a second, exhaustive 2^n table of q beside mod2_nullity
    (["lattice", "mod2", "A5+A5+A1+A1"], (
        "4e7d59b746e28edc960deb2ea64e508028f48011746f0597e04a66fa30886f2e",
        "38f67344efe61dd8bf53fb6ba757ff047dd1989b7281827132897b9ccd2b8064",
    )),
    (["lattice", "mod2", "D8+A2+A2"], (
        "2bd8e2f2378b0f9c49a2a79f10478fd79c7ca6bcd3447edbfd1beedcd1225d4f",
        "b1e5cff7a7cb71a9304eb209231a3810b6f29f07c42750266d8afe0898c3e791",
    )),
    (["lattice", "mod2", "E6"], (
        "ee1cbf18a9a2daabada649f26da9c3bf51cd9da73cbf65356fa9f8dc02749de8",
        "aface32017c3759fe7e6efa2829787842e500e4885fb0a535c5a100d37fe7ffd",
    )),
    (["lattice", "mod2", "E8+A2+A2"], (
        "c82d93940a85fb5e6aac881a8cc66e05636c240abdb2869309491e89abcb9343",
        "581c9a223e7fa5565c2d8bdf163703acb42c9427e8dfd196b3a5aacfd6ad0541",
    )),
]


@pytest.mark.parametrize(
    "base,shas", RATIONAL_STDOUT_SHA256, ids=[" ".join(a[:3]) for a, _ in RATIONAL_STDOUT_SHA256]
)
def test_rational_vector_stdout_pinned(base, shas):
    text_sha, json_sha = shas
    for argv, want in ((base, text_sha), (base + ["--json"], json_sha)):
        code, out, _ = run(argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want, argv

GRAM_TOKENS = st.one_of(
    st.integers(min_value=-3, max_value=3).map(str),
    st.sampled_from(["rank", "x", "1.5", "-0", "+2", "1/2", ""]),
)


@st.composite
def gram_texts(draw):
    """Mostly well-formed Gram matrix files: symmetric or not, degenerate or
    not, with a few arbitrary tokens let in."""
    n = draw(st.integers(min_value=-1, max_value=4))
    m = [[draw(st.integers(min_value=-3, max_value=3)) for _ in range(max(n, 0))]
         for _ in range(max(n, 0))]
    if draw(st.booleans()):
        m = [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    tokens = ["rank", str(n)] + [str(x) for row in m for x in row]
    for tok in draw(st.lists(GRAM_TOKENS, max_size=2)):
        tokens.insert(draw(st.integers(min_value=0, max_value=len(tokens))), tok)
    return draw(st.sampled_from([" ", "\n"])).join(tokens)


@given(gram_texts(), st.sampled_from(["det", "disc", "mod2"]))
@settings(max_examples=300, deadline=None)
@example("rank 0", "det")
@example("rank 1\n0", "disc")
@example("rank 2\n0 2\n2 0", "mod2")
def test_fuzz_lattice_file_exit_codes(text, action):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.gram"
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
        code, out, err = run(["lattice", action, f"file:{path}"])
    assert code in (0, 1, 2)
    assert (code == 2) == (out == "")


GLUE_ENTRIES = st.one_of(
    st.sampled_from(["0", "1", "-1", "1/2", "-1/2", "3/2", "1/3", "1/4", "7/3", "1/0", "x", "1.5", "", "nan"]),
    st.text("0123456789/-. ", max_size=4),
)


@given(
    st.sampled_from(["U(2)", "U(4)", "A1", "A1+A1", "D4", "A3", "U", "E8"]),
    st.lists(st.lists(GLUE_ENTRIES, max_size=5), min_size=1, max_size=3),
    st.sampled_from([",", " ", ", "]),
)
@settings(max_examples=300, deadline=None)
@example("U(2)", [["1/2", "0", "7/3"]], ",")
@example("D4", [["1/2", "0", "1/2", "0"]], ",")
def test_fuzz_overlattice_glue_exit_codes(spec, vectors, sep):
    glue = " ; ".join(sep.join(v) for v in vectors)
    code, out, err = run(["lattice", "overlattice", spec, "--glue", glue])
    assert code in (0, 1, 2)
    assert (code == 2) == (out == "")


FIBER_TOKENS = st.one_of(
    st.sampled_from(["I1", "I2", "I5", "I9", "I0*", "I4*", "II", "III", "IV", "II*", "III*", "IV*"]),
    st.builds(
        "{}{}{}".format,
        st.sampled_from(["I", "II", "III", "IV", "V", ""]),
        st.sampled_from(["", "0", "1", "12", "-1", "x"]),
        st.sampled_from(["", "*", "**"]),
    ),
    st.text(max_size=4),
)


@given(
    st.sampled_from(["generic", "p5", "p3", "p7"]),
    st.lists(FIBER_TOKENS, min_size=1, max_size=6),
)
@settings(max_examples=300, deadline=None)
@example("p3", ["IV", "IV", "IV", "IV"])
@example("generic", ["I0"])
def test_fuzz_fiber_lookup_exit_codes(char, tokens):
    code, out, err = run(["fiber", "lookup", "--char", char, *tokens])
    assert code in (0, 1, 2)
    assert (code == 2) == (out == "")


def chains_file(tmp_path, count, length):
    lines = ["graph chains"]
    for c in range(count):
        lines += [f"vertex c{c}v{i}" for i in range(length)]
        lines += [f"edge c{c}v{i} c{c}v{i + 1} 1" for i in range(length - 1)]
    path = tmp_path / "chains.graph"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_graph_info_four_a7_chains(tmp_path):
    # L*/L = (Z/8)^4 has 31 nonzero isotropic classes; a maximal isotropic
    # subgroup has order 32, so det = 4096 / 32^2
    code, out, err = run(["graph", "info", chains_file(tmp_path, 4, 7), "--json"])
    assert code == 0, err
    payload = json.loads(out)["payload"]
    assert payload["span_rank"] == 28
    assert payload["span_det"] == 4


def test_graph_info_refuses_above_saturation_bound(tmp_path):
    # det -66045 is square-free, so L*/L is anisotropic and the closing scan
    # would list all 66045 classes; at multiplicity 255 (det -65021) it answers
    path = tmp_path / "m257.graph"
    path.write_text("graph m257\nvertex a\nvertex b\nedge a b 257\n")
    code, out, err = run(["graph", "info", str(path)])
    assert code == 2
    assert out == ""
    assert err == (
        "error: the saturation scan of a discriminant group of order 66045 "
        "would list more than SATURATE_MAX_ORDER = 65536 classes\n"
    )


def test_graph_info_saturates_24_isolated_vertices(tmp_path):
    # L*/L = (Z/2)^24 is above the saturation bound, but each scan stops at
    # its first isotropic class: A1^24 lies in the Niemeier lattice of root
    # system A1^24, so its saturation is unimodular
    code, out, err = run(["graph", "info", chains_file(tmp_path, 24, 1), "--json"])
    assert code == 0, err
    assert json.loads(out)["payload"]["span_det"] == 1


def test_graph_maximal_refuses_above_packing_bound(tmp_path):
    lines = ["graph pairs"] + [f"vertex v{i}" for i in range(2200)]
    lines += [f"edge v{2 * i} v{2 * i + 1} 2" for i in range(1100)]
    path = tmp_path / "pairs.graph"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(["graph", "parabolics", str(path), "--maximal", "--rank", "1098"])
    assert code == 2
    assert out == ""
    assert err == (
        "error: the packings of rank 1098 list more than "
        "PACKING_MAX_COMPONENTS = 1048576 components\n"
    )


# int() also reads underscores and non-ASCII decimal digits; the parsers take
# only an optional sign and ASCII digits
@pytest.mark.parametrize("mult", ["0_1", "1_0", "٢", "１", "²"])
def test_graph_multiplicity_must_be_ascii_digits(tmp_path, mult):
    p = tmp_path / "pair.graph"
    p.write_text(f"graph pair\nvertex a\nvertex b\nedge a b {mult}\n", encoding="utf-8")
    code, out, err = run(["graph", "info", str(p)])
    assert (code, out, err) == (2, "", "error: line 4: multiplicity must be an integer\n")


@pytest.mark.parametrize("text, message", [
    ("rank 1\n-1_0\n", "gram file entries must be integers"),
    ("rank 1\n٢\n", "gram file entries must be integers"),
    ("rank 2\n0 1\n1 ０\n", "gram file entries must be integers"),
    ("rank ١\n3\n", "gram file rank is not an integer"),
    ("rank 0_1\n3\n", "gram file rank is not an integer"),
])
def test_gram_tokens_must_be_ascii_digits(tmp_path, text, message):
    p = tmp_path / "bad.gram"
    p.write_text(text, encoding="utf-8")
    code, out, err = run(["lattice", "det", f"file:{p}"])
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("diagram", ["A~٥", "A~²", "D٥", "E８", "A~1_0"])
def test_diagram_index_must_be_ascii_digits(diagram):
    code, out, err = run(["fiber", "candidates", diagram])
    assert (code, out, err) == (2, "", f"error: bad diagram token: {diagram!r}\n")


@pytest.mark.parametrize("fiber", ["I٢", "I²", "I٢*", "I1_0"])
def test_fiber_index_must_be_ascii_digits(fiber):
    code, out, err = run(["fiber", "lookup", fiber, "I1"])
    assert (code, out, err) == (2, "", f"error: bad fiber token: {fiber!r}\n")


# int() refuses more than 4300 digits, with its own message
@pytest.mark.parametrize("argv, message", [
    (["fiber", "candidates", "A~" + "1" * 5000], "bad diagram token"),
    (["fiber", "lookup", "I" + "1" * 5000, "I1"], "bad fiber token"),
    (["lattice", "det", "A1(" + "1" * 5000 + ")"], "malformed lattice term"),
    (["lattice", "det", "A" + "1" * 5000], "malformed lattice term"),
], ids=["diagram", "fiber", "lattice-scale", "lattice-index"])
def test_overlong_index_is_a_bad_token(argv, message):
    code, out, err = run(argv)
    assert (code, out, err) == (2, "", f"error: {message}: {argv[2]!r}\n")


def test_gram_file_refuses_negative_rank(tmp_path):
    # rank -1 asks for (-1)^2 = 1 entry, which was read as a rank-0 lattice
    p = tmp_path / "negative.gram"
    p.write_text("rank -1\n5\n")
    code, out, err = run(["lattice", "det", f"file:{p}"])
    assert (code, out, err) == (2, "", "error: gram file rank must be >= 0\n")


def test_argparse_writes_to_the_given_streams():
    code, out, err = run(["--version"])
    assert (code, out, err) == (0, f"coblemukai {coblemukai.__version__}\n", "")
    code, out, err = run(["--help"])
    assert (code, err) == (0, "") and out.startswith("usage: coblemukai ")
    code, out, err = run(["graph", "info"])
    assert (code, out) == (2, "") and err.startswith("usage: coblemukai graph ")
    assert err.endswith("coblemukai graph: error: the following arguments are required: source\n")


def test_negative_glue_value_is_joined_with_equals():
    # argparse takes a separate value that starts with - for an option, so
    # the README and the --glue help say to write --glue=-1/4,0
    joined = run(["lattice", "overlattice", "U(4)", "--glue=-1/4,0"])
    assert joined[0] == 0 and joined == run(["lattice", "overlattice", "U(4)", "--glue", "3/4,0"])
    code, out, err = run(["lattice", "overlattice", "U(4)", "--glue", "-1/4,0"])
    assert (code, out) == (2, "") and err.endswith("argument --glue: expected one argument\n")


@pytest.mark.parametrize("argv, message", [
    (["lattice", "overlattice", "A1+A1", "--glue", "1/2,0", "--half-kernel"],
     "--glue and --half-kernel are mutually exclusive"),
    (["lattice", "overlattice", "A1+A1"], "overlattice needs --glue VECTORS or --half-kernel"),
    (["lattice", "overlattice", "A1+A1", "--glue", " ; ;"], "empty glue specification"),
    (["lattice", "overlattice", "A1", "--glue", "1/0"], "glue vector has a zero denominator: '1/0'"),
    (["lattice", "det", "A1++A2"], "malformed lattice spec: 'A1++A2'"),
    (["lattice", "det", "Q9"], "unknown lattice name: 'Q9'"),
    (["lattice", "det", "A0"], "A_m requires m >= 1"),
    (["lattice", "det", "D3"], "D_n requires n >= 4"),
    (["lattice", "det", "E9"], "E_k requires k in {6, 7, 8}"),
    (["lattice", "det", "A300"], "lattice spec of rank 300 is above the bound 256"),
    (["fiber", "lookup", "I0", "I1"], "I_n requires n >= 1"),
    (["catalog", "build", "X"], "unknown built-in graph: 'X' (have I, II, VI, MI, MII)"),
    (["graph", "info", "builtin:X"], "unknown built-in graph: 'X' (have I, II, VI, MI, MII)"),
    (["catalog", "model", "I"], "no blow-up model for 'I' (have MI, MII)"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_spec_and_option_refusals_exit_2(argv, message):
    assert run(argv) == (2, "", f"error: {message}\n")


# Every reader of a number token in the CLI: (name, argv with "{}" for the
# token and FILE for a file holding `text`, the refusal, the refusal of the
# empty token if it differs); {arg!r} stands for the argument holding the token.
NUMBER_READERS = [
    ("graph-rank", ["graph", "parabolics", "builtin:I", "--rank", "{}"], None,
     "coblemukai graph: error: argument --rank: invalid ascii_int value: {arg!r}", None),
    ("graph-multiplicity", ["graph", "info", "FILE"], "graph pair\nvertex a\nvertex b\nedge a b {}\n",
     "error: line 4: multiplicity must be an integer", "error: line 4: expected 'edge <a> <b> <mult>'"),
    ("gram-rank", ["lattice", "det", "file:FILE"], "rank {}",
     "error: gram file rank is not an integer", 'error: gram file must start with "rank N"'),
    ("gram-entry", ["lattice", "det", "file:FILE"], "rank 1\n{}\n",
     "error: gram file entries must be integers", "error: expected 1 matrix entries, found 0"),
    ("lattice-index", ["lattice", "det", "A{}"], None,
     "error: malformed lattice term: {arg!r}", "error: unknown lattice name: {arg!r}"),
    ("lattice-scale", ["lattice", "det", "A1({})"], None, "error: malformed lattice term: {arg!r}", None),
    ("glue-numerator", ["lattice", "overlattice", "U(2)", "--glue", "{}/2,0"], None,
     "error: glue vector entries must be ASCII rationals: {arg!r}", None),
    ("glue-denominator", ["lattice", "overlattice", "U(2)", "--glue", "1/{},0"], None,
     "error: glue vector entries must be ASCII rationals: {arg!r}", None),
    ("fiber-index", ["fiber", "lookup", "I{}", "I1"], None,
     "error: bad fiber token: {arg!r}", "error: I_n requires n >= 1"),
    ("diagram-index", ["fiber", "candidates", "A~{}"], None, "error: bad diagram token: {arg!r}", None),
]
BAD_NUMBER_TOKENS = {"long": "1" * 5000, "non-ascii": "٢", "underscore": "1_0", "empty": ""}


def _number_token_cases():
    for reader, argv, text, refusal, empty_refusal in NUMBER_READERS:
        for kind, token in BAD_NUMBER_TOKENS.items():
            expected = empty_refusal if not token and empty_refusal else refusal
            yield pytest.param(argv, text, token, expected, id=f"{reader}-{kind}")
    # Fraction reads these; for the first it builds an integer of ten million digits
    for form in ("1e10000000", "1e3", "0.5"):
        yield pytest.param(["lattice", "overlattice", "U(2)", "--glue", "{},0"], None, form,
                           "error: glue vector entries must be ASCII rationals: {arg!r}", id=f"glue-{form}")


@pytest.mark.parametrize("argv, text, token, refusal", list(_number_token_cases()))
def test_number_tokens_are_refused_in_the_tools_own_words(tmp_path, argv, text, token, refusal):
    path = tmp_path / "tokens.txt"
    if text is not None:
        path.write_text(text.format(token), encoding="utf-8")
    arg = next((a.format(token) for a in argv if "{}" in a), None)
    start = time.perf_counter()
    code, out, err = run([a.format(token).replace("FILE", str(path)) for a in argv])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "Exceeds the limit" not in err and "Traceback" not in err
    expected = refusal.format(arg=arg) + "\n"
    if expected.startswith("coblemukai "):  # argparse's refusal follows its usage text
        assert err.startswith("usage: coblemukai ") and err.endswith(expected)
    else:
        assert err == expected


def test_a_signed_scale_reads_as_its_value(monkeypatch):
    # "+" sums terms only outside parentheses, so ascii_int reads the sign
    for signed, plain in (("U(+2)", "U(2)"), ("A1(+2)+A1", "A1(2)+A1")):
        for fmt in ([], ["--json"]):
            code, out, err = run(["lattice", "det", signed, *fmt])
            assert (code, err) == (0, "")
            assert out == run(["lattice", "det", plain, *fmt])[1].replace(plain, signed)
    for term in ("A1(+)", "A1(2"):
        assert run(["lattice", "det", term]) == (2, "", f"error: malformed lattice term: {term!r}\n")
    # the terms are found in one pass and a long sum is refused before any
    # Gram is built: ten times the terms take about ten times as long, where
    # a split quadratic in the terms would take a hundred times
    def no_gram(gram):
        raise AssertionError("a Gram matrix was built")

    monkeypatch.setattr(lattice, "make_lattice", no_gram)
    best = {}
    for terms in (4000, 40000):
        argv = ["lattice", "det", "+".join(["A1"] * terms)]
        refusal = (2, "", f"error: lattice spec of rank {terms} is above the bound 256\n")
        times = []
        for _ in range(3):
            start = time.perf_counter()
            assert run(argv) == refusal
            times.append(time.perf_counter() - start)
        best[terms] = min(times)
    assert best[40000] / best[4000] < 30, best
