"""Oracles for each workload, computed outside the timed region.

Each check returns a list of problems with one op summary; an empty list
means the op agrees with its oracle.  The paper's own numbers are the oracle
for paper-check; sympy and networkx (both installed with the toolchain, never
imported by the program) are the independent oracles for the other two.
"""

from __future__ import annotations

import json
from itertools import product
from math import prod

import inputs

# What the paper states for every entry of `catalog check`.
PAPER_AUT = {"MI": 1440, "MII": 1152}
PAPER_MAXIMAL_TYPES = {
    "MI": ["A~2+A~2+A~2+A~2", "A~3+A~3+A~1+A~1", "A~4+A~4", "A~5+A~2+A~1"],
    "MII": ["A~2+A~2+A~2+A~2", "A~3+A~3+A~1+A~1", "A~5+A~2+A~1", "A~7+A~1"],
}


def _is_minus_power_of_two(d: int) -> bool:
    return d < 0 and (-d & (-d - 1)) == 0


def check_paper(entry: str, s: dict) -> list[str]:
    if s["entry"] != entry:
        return [f"ran {s['entry']}, expected {entry}"]
    if s["rc"] != 0:
        return [f"{entry}: exit code {s['rc']}"]
    rep = json.loads(s["stdout"])
    checks = rep["payload"]["checks"]
    bad = []
    if rep["command"] != f"catalog check {entry}" or rep["pass"] is not True:
        bad.append(f"{entry}: report does not pass")
    bad += [f"{entry}: check {k} not ok" for k, c in checks.items() if not c["ok"]]
    if checks["span"]["rank"] != 10 or checks["span"]["signature"] != [1, 9]:
        bad.append(f"{entry}: span is not of rank 10 and signature (1, 9)")
    if not _is_minus_power_of_two(checks["span_det"]["value"]):
        bad.append(f"{entry}: span_det {checks['span_det']['value']} is not -2^l")
    if entry in PAPER_AUT:
        if checks["automorphisms"]["order"] != PAPER_AUT[entry]:
            bad.append(f"{entry}: Aut order {checks['automorphisms']['order']}")
        if checks["vinberg"]["maximal_types"] != PAPER_MAXIMAL_TYPES[entry]:
            bad.append(f"{entry}: maximal type multisets {checks['vinberg']['maximal_types']}")
        cm = checks["coble_mukai"]
        if cm["rank"] != 10 or cm["even"] is not True:
            bad.append(f"{entry}: Coble-Mukai lattice is not even of rank 10")
    return bad


# --- glue ---------------------------------------------------------------------

def _sympy_det(gram) -> int:
    import sympy

    return int(sympy.Matrix(gram).det(method="bareiss"))


def _invariant_factors(gram) -> list[int]:
    import sympy
    from sympy.matrices.normalforms import smith_normal_form

    snf = smith_normal_form(sympy.Matrix(gram), domain=sympy.ZZ)
    return sorted(abs(int(snf[i, i])) for i in range(snf.rows) if abs(int(snf[i, i])) > 1)


def check_glue(item: dict, s: dict) -> list[str]:
    spec, g = item["spec"], item["gram"]
    if s["spec"] != spec:
        return [f"ran {s['spec']}, expected {spec}"]
    n = len(g)
    bad = []
    det_k = _sympy_det(g)
    factors = s["factors"]
    if sorted(factors) != _invariant_factors(g) or prod(factors) != abs(det_k):
        bad.append(f"{spec}: invariant factors {factors} disagree with sympy")
    chosen = [factors[i] for i in inputs.chosen_generators(item["pick"], len(factors))]
    if s["chosen"] != chosen:
        bad.append(f"{spec}: glued factors {s['chosen']}, expected {chosen}")
    h = prod(chosen)
    det_l = det_k * det_k * (-1) ** n
    over = s["gram"]
    if len(over) != 2 * n or any(over[i][j] != over[j][i] for i in range(2 * n) for j in range(i)):
        bad.append(f"{spec}: overlattice Gram is not symmetric of rank {2 * n}")
        return bad
    det_over = _sympy_det(over)
    if s["det"] != det_over or det_over * h * h != det_l:
        bad.append(f"{spec}: det(L') = {s['det']}, sympy {det_over}, |H| = {h}, det L = {det_l}")
    if not all(over[i][i] % 2 == 0 for i in range(2 * n)) or s["even"] is not True:
        bad.append(f"{spec}: overlattice is not even")
    # Kernel of q on K/2K by brute force over F2^n (n <= 9).
    kernel = []
    for x in product((0, 1), repeat=n):
        gx = [sum(g[i][j] * x[j] for j in range(n)) for i in range(n)]
        if all(v % 2 == 0 for v in gx) and sum(a * b for a, b in zip(x, gx)) % 4 == 0:
            kernel.append(x)
    nullity = len(kernel).bit_length() - 1
    basis = [tuple(v) for v in s["kernel"]]
    rank = inputs.gf2_rank([sum(b << i for i, b in enumerate(v)) for v in basis])
    if s["nullity"] != nullity or any(v not in kernel for v in basis) or rank != nullity:
        bad.append(f"{spec}: q-kernel of nullity {s['nullity']} disagrees with brute force {nullity}")
    # K_H is integral iff the kernel basis pairs to 0 mod 4 (each h/2 pairs
    # integrally with K because h lies in the kernel of f).
    pairs_mod4 = all(
        sum(a[i] * g[i][j] * b[j] for i in range(n) for j in range(n)) % 4 == 0
        for a in basis
        for b in basis
    )
    if pairs_mod4:
        if s["half_gram"] is None:
            bad.append(f"{spec}: half_overlattice refused an integral kernel: {s['half_refusal']}")
        elif _sympy_det(s["half_gram"]) != s["half_det"] or s["half_det"] * 4 ** nullity != det_k:
            bad.append(f"{spec}: det(K_H) = {s['half_det']} breaks det(K_H) * 4^{nullity} = det K")
    elif s["half_refusal"] is None:
        bad.append(f"{spec}: half_overlattice accepted a kernel that pairs to 2 mod 4")
    return bad


# --- graph-search -----------------------------------------------------------------

def check_graph(text: str, s: dict) -> list[str]:
    import networkx as nx
    import sympy
    from networkx.algorithms.isomorphism import GraphMatcher

    name, labels, _, edges = inputs.parse_graph(text)
    n = len(labels)
    bad = []
    if s["n"] != n:
        return [f"{name} subgraph: parsed {s['n']} vertices, wrote {n}"]
    gram = [[-2 if i == j else 0 for j in range(n)] for i in range(n)]
    for (i, j), m in edges.items():
        gram[i][j] = gram[j][i] = m
    rank = sympy.Matrix(gram).rank()
    if s["rank"] != rank or sum(s["signature"]) != rank:
        bad.append(f"{name} subgraph on {n}: span rank {s['rank']}, sympy {rank}")
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from((i, j, {"m": m}) for (i, j), m in edges.items())
    matcher = GraphMatcher(graph, graph, edge_match=lambda a, b: a["m"] == b["m"])
    order = sum(1 for _ in matcher.isomorphisms_iter())
    if s["aut_order"] != order:
        bad.append(f"{name} subgraph on {n}: Aut order {s['aut_order']}, networkx {order}")
    if s["span_det_refusal"] is not None:
        bad.append(f"{name} subgraph on {n}: span_det refused: {s['span_det_refusal']}")
    elif s["span_det"] == 0:
        bad.append(f"{name} subgraph on {n}: span_det is 0")
    if s["target_rank"] != rank - 2:
        bad.append(f"{name} subgraph on {n}: Vinberg target rank {s['target_rank']}")
    return bad
