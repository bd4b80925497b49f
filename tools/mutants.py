"""Run the committed mutants of ``src/`` against the tests that must kill them.

    python tools/mutants.py [mutant name ...]

Each mutant replaces one exact snippet of one package file.  The script
copies ``src/``, ``tests/``, ``perfbench/`` and ``pyproject.toml`` to a
temporary directory and runs the killer tests of the chosen mutants there
once unmutated; they must pass.  Then, for each mutant, it applies the
replacement to the copy, runs all of that mutant's killer tests (the copy's
``src`` on PYTHONPATH), reads each test's outcome, and puts the file back.
A mutant whose killers all pass survived; a killer that passes under a
mutant that others kill is listed as idle, since the list then claims more
than the tests pin.  One line per mutant is printed, then the counts; the
exit status is 1 if any mutant survived or any killer was idle.  A run that
exceeds TIMEOUT seconds counts as killed by every killer.  Needs only the
standard library and pytest.

``tests/test_layout.py`` checks that every snippet still occurs exactly once
in its file and that every killer names a test function, so a refactor that
moves a snippet updates this list in the same change.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
TIMEOUT = 600


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the root of the checkout
    snippet: str
    replacement: str
    killers: tuple[str, ...]  # pytest node ids


EXACT, LATTICE, ROOTGRAPH = "src/coblemukai/exact.py", "src/coblemukai/lattice.py", "src/coblemukai/rootgraph.py"
CATALOG, FIBRATIONS = "src/coblemukai/catalog.py", "src/coblemukai/fibrations.py"
STALE = "tests/test_oracles.py::test_lazy_rescale_matches_sympy_on_stale_rows"
SPARSE = "tests/test_oracles.py::test_lazy_rescale_matches_sympy_on_sparse_block_inverses"
DET = "tests/test_oracles.py::test_det_matches_sympy"
INVERSE = "tests/test_oracles.py::test_inverse_matches_sympy"
FOLD = "tests/test_oracles.py::test_det_and_inverse_match_sympy_after_a_fold"
SPLIT = "tests/test_oracles.py::test_radical_split_identities_match_sympy"
FOLDED_STAR = "tests/test_rootgraph.py::test_span_check_reads_a_folded_star_without_rank_signature"
SPLIT_FOLD = "tests/test_oracles.py::test_radical_split_identities_after_a_fold"
REFUSED_SKIPPED = "tests/test_exact.py::test_refused_column_step_and_skipped_empty_column"
INERTIA = "tests/test_oracles.py::test_rank_signature_matches_sympy_inertia"
ODD_SPLIT = "tests/test_lattice.py::test_lattice_refusals_name_their_reason"
SNF_CHAIN = "tests/test_exact.py::test_snf_divisibility_chain_and_det"
SNF_SYMPY = "tests/test_oracles.py::test_snf_invariant_factors_match_sympy"
SNF_UNIMODULAR = "tests/test_exact.py::test_snf_transforms_are_unimodular"
DISC_GROUP = "tests/test_lattice.py::test_discriminant_group_examples"
PRODUCT = "tests/test_exact.py::test_product_is_agrees_with_triple_loop"
PRODUCT_BOUND = "tests/test_exact.py::test_product_is_base_exceeds_the_bound"
RESIDUES = "tests/test_rootgraph.py::test_stabilizer_chain_adjoins_residues_of_a_non_strong_generating_set"
RELABELLED = "tests/test_rootgraph.py::test_automorphisms_of_relabelled_graphs_adjoin_residues"
AUT_MATCHER = "tests/test_oracles.py::test_automorphisms_match_networkx_matcher"
NUMBERING = "tests/test_rootgraph.py::test_results_do_not_depend_on_vertex_numbering"
ISOTROPIC_CHAIN = "tests/test_oracles.py::test_span_det_matches_isotropic_chain_oracle"
SATURATE_O = "tests/test_lattice.py::test_saturate_self_check_survives_python_O"
SATURATES_TO_E8 = "tests/test_rootgraph.py::test_span_det_saturates_to_e8"
SATURATION_BOUND = "tests/test_cli.py::test_graph_info_refuses_above_saturation_bound"
HALF_O = "tests/test_lattice.py::test_half_overlattice_and_evenness_checks_survive_python_O"
HNF = "tests/test_oracles.py::test_hnf_rows_on_rows_with_long_zero_heads"
BASIS_GRAM = "tests/test_oracles.py::test_basis_gram_on_hand_built_bases"
ADJOINED = "tests/test_oracles.py::test_basis_gram_matches_matmul_on_every_adjoined_basis"
MOD2_ADE = "tests/test_oracles.py::test_mod2_subgroup_matches_definition_on_ade_sums"
MOD2_CATALOG = "tests/test_oracles.py::test_mod2_subgroup_matches_definition_on_catalog_r_invariants"
MOD2_LAW = "tests/test_properties.py::test_mod2_law_on_random_sums"
R_ISOTROPIC = "tests/test_catalog.py::test_r_invariant_rejects_non_isotropic"
SPAN_DETS = "tests/test_acceptance.py::test_criterion_5_coble_mukai_and_span_dets"
POWERSET = "tests/test_oracles.py::test_connected_parabolics_matches_powerset_oracle"
CYCLES = "tests/test_oracles.py::test_affine_a_count_matches_chordless_cycles"
LYING = "tests/test_rootgraph.py::test_parabolic_self_check_survives_python_O"
MASKS = "tests/test_rootgraph.py::test_affine_certificate_refuses_masks_that_disagree_with_mult"
REFINE = "tests/test_rootgraph.py::test_refine_colors_gives_the_tuple_signature_partition"
PACKING = "tests/test_oracles.py::test_maximal_parabolics_matches_packing_oracle"
CLOSED = "tests/test_oracles.py::test_parabolic_search_records_each_closed_neighbourhood"
BELOW_SPAN = "tests/test_oracles.py::test_maximal_parabolics_below_span_rank_match_recursion"
ORTHOGONAL = "tests/test_rootgraph.py::test_maximal_parabolics_requires_orthogonality"
PAIR_SUM_COUNT = ("tests/test_catalog.py::"
                  "test_minus_one_root_compares_only_pair_sums_that_agree_off_the_exceptional_classes")
MULTISETS = "tests/test_rootgraph.py::test_type_multisets_match_naming_every_packing"
MULTISET_NAMES = "tests/test_rootgraph.py::test_type_multisets_name_each_type_tuple_once"
SPLITTING = "tests/test_rootgraph.py::test_assignment_order_matches_splitting_every_cell"
EXTREMAL_RULES = "tests/test_fibrations.py::test_extremal_tables_satisfy_shioda_tate_ogg_and_the_sieve"
RECORD = "src/coblemukai/record.py"
KEYWORD_ORDER = "tests/test_records.py::test_records_take_keyword_fields_in_any_order"
RECORD_FIELDS = "tests/test_records.py::test_records_construct_print_and_compare_over_their_fields"
RECORD_ORDER = "tests/test_records.py::test_ordered_records_order_as_their_field_tuples"

MUTANTS = (
    # the pivot choice of _eliminate: a diagonal entry with its column first
    Mutant("eliminate: no diagonal pivot", EXACT,
           "piv = next((i for i in range(k + 1, n) if a[i][i]), None)", "piv = None",
           (STALE, REFUSED_SKIPPED)),
    Mutant("eliminate: diagonal pivot read in the pivot column", EXACT,
           "range(k + 1, n) if a[i][i]), None)", "range(k + 1, n) if a[i][k]), None)",
           (STALE, DET)),
    Mutant("eliminate: symmetric swap without its column", EXACT,
           "                    row[k], row[piv] = row[piv], row[k]\n", "                    pass\n",
           (STALE, INVERSE)),
    Mutant("eliminate: symmetric swap recorded as a fold", EXACT,
           "moves.append((k, piv, False))", "moves.append((k, piv, True))",
           (INVERSE, STALE)),
    Mutant("eliminate: symmetric swap not recorded", EXACT,
           "moves.append((k, piv, False))", "pass",
           (INVERSE, STALE)),
    # the fold, when no later diagonal entry is nonzero
    Mutant("eliminate: fold's column step dropped", EXACT,
           "                    for row in a:\n                        row[k] += row[piv]\n",
           "                    pass\n",
           (FOLDED_STAR, SPLIT_FOLD, STALE, FOLD)),
    Mutant("eliminate: fold's column step made when it empties the pivot", EXACT,
           "if rk[k] + rk[piv]:", "if True:",
           (REFUSED_SKIPPED, STALE)),
    Mutant("eliminate: fold's rows not brought up to date", EXACT,
           "                for i in (k, piv):\n"
           "                    a[i][k:], scale[i] = [x * prev // scale[i] for x in a[i][k:]], prev\n",
           "",
           (STALE, FOLD)),
    Mutant("eliminate: skipped step sets prev to 0", EXACT,
           "                continue  # an empty pivot column\n",
           "                prev = 0\n                continue  # an empty pivot column\n",
           (REFUSED_SKIPPED,)),
    Mutant("det: a skipped step not read as 0", EXACT,
           "        return 0  # a skipped step\n", "        pass\n",
           (STALE, REFUSED_SKIPPED)),
    Mutant("inverse: solution rows not put back", EXACT,
           "for k, i, fold in reversed(moves):", "for k, i, fold in ():",
           (INVERSE, STALE)),
    Mutant("inverse: moves replayed forwards", EXACT,
           "for k, i, fold in reversed(moves):", "for k, i, fold in moves:",
           (STALE, INVERSE)),
    Mutant("inverse: det read off the first minor", EXACT,
           "return self.minors[-1] if self.minors else 1", "return self.minors[0] if self.minors else 1",
           (STALE, SPLIT)),
    # Jacobi's rule, the one count behind rank_signature and the split's inertia
    Mutant("jacobi: count without the leading 1", EXACT,
           "zip((1, *nonzero), nonzero)", "zip(nonzero, nonzero[1:])",
           (SPLIT, SPAN_DETS, INERTIA)),
    Mutant("jacobi: counts sign agreements", EXACT,
           "(a < 0) != (b < 0)", "(a < 0) == (b < 0)",
           (SPLIT, SPAN_DETS, INERTIA)),
    Mutant("span_det: saturation handed -det", LATTICE,
           "_saturate(self.quotient, d)[1]", "_saturate(self.quotient, -d)[1]",
           (SPAN_DETS, SPLIT)),
    Mutant("split: an odd unimodular quotient taken as its own saturation", LATTICE,
           "abs(d) == 1 and self.even", "abs(d) == 1",
           (ODD_SPLIT,)),
    # the lazy rescale of _eliminate
    Mutant("eliminate: no scale swap", EXACT,
           "                scale[k], scale[piv] = scale[piv], scale[k]\n", "",
           (STALE, SPARSE)),
    Mutant("eliminate: no pivot rescale", EXACT,
           "rk[j] = rk[j] * prev // s", "rk[j] = rk[j]",
           (STALE, SPARSE)),
    Mutant("eliminate: stale row divided by prev", EXACT,
           "row[j] = (p * row[j] - c * rk[j]) // s", "row[j] = (p * row[j] - c * rk[j]) // prev",
           (STALE, SPARSE)),
    Mutant("eliminate: prev recorded as the scale", EXACT,
           "                scale[i] = p\n", "                scale[i] = prev\n",
           (STALE, DET)),
    Mutant("eliminate: last row's step skipped", EXACT,
           "for k in range(n):  # the last row's step", "for k in range(n - 1):  # the last row's step",
           (STALE, SPARSE)),
    # the in-place tails of hnf_rows
    Mutant("hnf_rows: reduction one column late", EXACT,
           "q = vc // rc\n                for j in range(c, n):", "q = vc // rc\n                for j in range(c + 1, n):",
           (HNF,)),
    Mutant("hnf_rows: xgcd combination one column late", EXACT,
           "for j in range(c, n):\n                    a, b = row[j], v[j]",
           "for j in range(c + 1, n):\n                    a, b = row[j], v[j]",
           (HNF,)),
    Mutant("hnf_rows: top-down pass one column late", EXACT,
           "for j in range(c, len(rk)):\n                    row[j] -= q * rk[j]",
           "for j in range(c + 1, len(rk)):\n                    row[j] -= q * rk[j]",
           (HNF,)),
    Mutant("hnf_rows: next scan one column late", EXACT,
           "            c += 1\n    pivots = sorted(by_pivot)", "            c += 2\n    pivots = sorted(by_pivot)",
           (HNF,)),
    # the moved-row Gram and the mod-2 span
    Mutant("basis_gram: moved rows found by the pivot alone", LATTICE,
           "if row[i] != den or row.count(0) != n - 1]", "if row[i] != den]",
           (BASIS_GRAM,)),
    Mutant("basis_gram: moved x moved block dropped", LATTICE,
           "        for j in moved:\n            row[j] = sum(map(mul, u, basis[j]))\n", "",
           (BASIS_GRAM, ADJOINED)),
    Mutant("mod2_subgroup: <x, h> term dropped", LATTICE,
           "(qx ^ qh ^ ((fx & mask).bit_count() & 1), fx ^ fh)", "(qx ^ qh, fx ^ fh)",
           (MOD2_ADE, MOD2_CATALOG, MOD2_LAW)),
    Mutant("mod2_subgroup: q(h) term dropped", LATTICE,
           "(qx ^ qh ^ ((fx & mask).bit_count() & 1), fx ^ fh)", "(qx ^ ((fx & mask).bit_count() & 1), fx ^ fh)",
           (MOD2_ADE, MOD2_CATALOG, R_ISOTROPIC)),
    Mutant("mod2_subgroup: q(h) flipped for e0", LATTICE,
           "qh, fh = _q2(lat.gram, mask, n), ", "qh, fh = _q2(lat.gram, mask, n) ^ (mask == 1), ",
           (MOD2_ADE, R_ISOTROPIC)),
    # the parabolic search, its certificate, the colour refinement and the packing
    # the Smith form, the product check, the stabilizer chain, the saturation
    Mutant("snf: pivot left when it does not divide the rest", EXACT,
           "        if fix is not None:\n            for j in range(cols):\n",
           "        if False:\n            for j in range(cols):\n",
           (SNF_CHAIN, SNF_SYMPY)),
    Mutant("snf: column step not applied to the transform", EXACT,
           "                for i in range(cols):\n                    right[i][j] -= q * right[i][t]\n", "",
           (SNF_UNIMODULAR, DISC_GROUP)),
    Mutant("product_is: bound without the inner dimensions", EXACT,
           "base = 2 * (prod(map(len, factors[1:])) * prod(top[:-1]) + top[-1]) + 1",
           "base = 2 * (prod(top[:-1]) + top[-1]) + 1",
           (PRODUCT_BOUND,)),
    Mutant("product_is: evaluated at the all-ones vector", EXACT,
           "x = v = [base**j for j in", "x = v = [1 for j in",
           (PRODUCT,)),
    Mutant("stabilizer chain: no restart at the residue's level", ROOTGRAPH,
           "k = k - 1 if j is None else j", "k = k - 1",
           (RELABELLED, NUMBERING)),
    Mutant("stabilizer chain: new points see only the new generator", ROOTGRAPH,
           "for s in gens if i >= new_from else (g,):", "for s in (g,):",
           (RESIDUES, AUT_MATCHER)),
    Mutant("saturate: no anisotropy check", LATTICE,
           "    while (x := next(_isotropic_classes(", "    if (x := next(_isotropic_classes(",
           (ISOTROPIC_CHAIN, SATURATES_TO_E8)),
    Mutant("saturate: progress guard dropped", LATTICE,
           "if abs(d_next) >= abs(d):", "if False:",
           (SATURATE_O,)),
    Mutant("saturate: scan lists past the bound", LATTICE,
           "for x in islice(classes, SATURATE_MAX_ORDER):", "for x in classes:",
           (SATURATION_BOUND,)),
    Mutant("half_overlattice: index not compared with |H|", LATTICE,
           "if index != len(span) or det(out)", "if det(out)",
           (HALF_O,)),
    Mutant("parabolic search: prune also masks two", ROOTGRAPH,
           "if new_ext & ~new_dbl:", "if new_ext & ~(new_dbl | two | one & single[v]):",
           (POWERSET, CYCLES)),
    Mutant("parabolic search: certificate keyed on size only", ROOTGRAPH,
           "key = bytes([rows[a][b] for a, b in combinations(idx, 2)])", "key = bytes([len(idx)])",
           (LYING,)),
    Mutant("parabolic search: certificate keyed on type only", ROOTGRAPH,
           "key = bytes([rows[a][b] for a, b in combinations(idx, 2)])", "key = typ",
           (LYING,)),
    Mutant("affine certificate: masks not checked against mult", ROOTGRAPH,
           "        if both[a] & mask != bits:\n            return False\n", "",
           (MASKS,)),
    Mutant("refine colors: stops at n - 1 classes", ROOTGRAPH,
           "    while count < n:\n", "    while count < n - 1:\n",
           (REFINE,)),
    Mutant("maximal parabolics: tail bound strict", ROOTGRAPH,
           "total + tail[i := (rest & -rest).bit_length() - 1] >= target_rank",
           "total + tail[i := (rest & -rest).bit_length() - 1] > target_rank",
           (PACKING, BELOW_SPAN)),
    Mutant("maximal parabolics: compat from holding", ROOTGRAPH,
           "clash |= touching[v]", "clash |= holding[v]",
           (ORTHOGONAL, PACKING)),
    Mutant("maximal parabolics: packing bound one vertex short", ROOTGRAPH,
           "c[3].bit_count() - r <= spare", "c[3].bit_count() - r < spare",
           (PACKING, BELOW_SPAN)),
    # only the recorded mask is wrong: vertex 0 joins an A~k's neighbourhood
    Mutant("parabolic search: a closer's mask holds an extra vertex", ROOTGRAPH,
           '_diagram("A", k, True), mask | one | dbl | both[v]))',
           '_diagram("A", k, True), mask | one | dbl | both[v] | 1))',
           (CLOSED,)),
    Mutant("type multisets: type tuples keyed by rank only", ROOTGRAPH,
           "first.setdefault(tuple([t for _, t in p.components]), p)",
           "first.setdefault(tuple([t.rank for _, t in p.components]), p)",
           (MULTISETS, MULTISET_NAMES)),
    # the placed vertex would be placed again and again: the killer raises
    # once a graph's multiplicities are read more often than it has vertices
    Mutant("assignment order: one-vertex pass-through keeps the base vertex", ROOTGRAPH,
           "                if c is not cell:\n                    split.append(c)\n",
           "                split.append(c)\n",
           (SPLITTING,)),
    # results stay right, since each candidate is still compared in full;
    # only the count of full comparisons shows the coarser key
    Mutant("realization: pair-sum key drops a non-exceptional coordinate", CATALOG,
           "if label not in self.exceptional]", "if label not in self.exceptional][1:]",
           (PAIR_SUM_COUNT,)),
    # a one-token typo in the generic extremal column: reducible rank 7, Euler sum 11
    Mutant("extremal tables: generic I6 I3 I2 I1 typed I6 I3 I1 I1", FIBRATIONS,
           '_row("I6", "I3", "I2", "I1"),\n    _row("I5", "I5", "I1", "I1"),',
           '_row("I6", "I3", "I1", "I1"),\n    _row("I5", "I5", "I1", "I1"),',
           (EXTREMAL_RULES,)),
    # the one constructor of the records and the one comparison of their order
    Mutant("record: keyword fields kept in the order given", RECORD,
           "return [values[f] for f in fields]", "return list(values.values())",
           (KEYWORD_ORDER,)),
    Mutant("record: last field dropped", RECORD,
           "for name, value in zip(fields, args):", "for name, value in zip(fields[:-1], args):",
           (RECORD_FIELDS,)),
    Mutant("record: order reversed", RECORD,
           "return self._values() < other._values()", "return self._values() > other._values()",
           (RECORD_ORDER,)),
)


def _pytest(root: str, killers) -> tuple[bool, set[str], str]:
    """(all passed, the killers with a failing test, last line of output) of
    the killer tests in the copy at root."""
    # no bytecode: a mutant of the same size and second could be read back from it
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", "-o", "addopts=", *killers]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False, set(killers), f"timed out after {TIMEOUT} s"
    lines = proc.stdout.strip().splitlines()
    # -rA's summary: one "FAILED node - reason" or "ERROR node - reason" line
    # per failing test, or per test file that fails to collect; a
    # parametrized killer's nodes end in [...]
    failing = {line.split(" ", 1)[1].split(" - ", 1)[0] for line in lines
               if line.startswith(("FAILED ", "ERROR "))}
    failed = {k for k in killers for node in failing
              if node == k or node.startswith(k + "[") or k.startswith(node + "::")}
    return proc.returncode == 0, failed, lines[-1] if lines else proc.stderr.strip()[-200:]


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if names and len(chosen) != len(set(names)):
        print("unknown mutant:", sorted(set(names) - {m.name for m in chosen}))
        return 2
    with tempfile.TemporaryDirectory() as root:
        for item in COPIED:
            src = os.path.join(ROOT, item)
            if os.path.isdir(src):
                shutil.copytree(src, os.path.join(root, item),
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy(src, root)
        ok, _, last = _pytest(root, sorted({k for m in chosen for k in m.killers}))
        if not ok:
            print("killer tests fail before any mutation:", last)
            return 2
        survivors = idle = 0
        for m in chosen:
            path = os.path.join(root, m.path)
            with open(path, encoding="utf-8") as f:
                text = f.read()
            if text.count(m.snippet) != 1:
                print(f"{m.name}: snippet does not occur exactly once in {m.path}")
                return 2
            with open(path, "w", encoding="utf-8") as f:
                f.write(text.replace(m.snippet, m.replacement))
            start = time.perf_counter()
            try:
                _, failed, last = _pytest(root, m.killers)
            finally:
                with open(path, "w", encoding="utf-8") as f:
                    f.write(text)
            passed = [k for k in m.killers if k not in failed]
            survivors += not failed
            verdict = "SURVIVED" if not failed else "killed"
            print(f"{verdict}: {m.name} ({time.perf_counter() - start:.1f} s; {last})", flush=True)
            if failed and passed:
                idle += len(passed)
                for k in passed:
                    print(f"  IDLE KILLER: {k} passes under this mutant", flush=True)
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed, {survivors} survived, "
          f"{idle} listed killers passed under their mutant")
    return 1 if survivors or idle else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
