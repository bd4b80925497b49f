"""Seeded inputs for the benchmark workloads, built without the program.

Everything here uses the standard library only, so the parent process can
rebuild an input for its oracle and the workload process can build the same
input during set-up.  The program under test only ever sees the results.
"""

from __future__ import annotations

import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))

# Entries of `coblemukai catalog check`, in the order the paper lists them.
PAPER_ENTRIES = ("I", "II", "VI", "MI", "MII")

# K for the glue workload, L = K + K(-1) and |det L| = |det K|^2.  The first
# list keeps |det L| <= 81, where overlattice enumerates L*/L to check the
# glued discriminant form (at most about 1 s per call); the second keeps
# |det L| > 4096 = DISC_CHECK_MAX_ORDER, where that check is skipped.  The
# band in between costs 1-45 s per call and would leave too few ops in a run.
# Every K has one invariant factor or several equal ones, so the order of the
# glue group, which sets the cost of an op, does not depend on the seed.
GLUE_ENUMERATED = (
    "A2", "A3", "A4", "A5", "A6", "A8", "D4", "D5", "D8", "D9", "E6", "E7",
    "A1+A1+A1", "A2+A2", "D4+A1", "E7+A1",
)
GLUE_SKIPPED = (
    "A2+A2+A2+A2", "A1+A1+A1+A1+A1+A1+A1", "A1+A1+A1+A1+A1+A1+A1+A1",
    "A1+A1+A1+A1+A1+A1+A1+A1+A1", "A2+A2+A2+A1+A1+A1", "D4+A1+A1+A1+A1+A1",
)

# Source graphs for graph-search, exported by `coblemukai catalog build X`.
GRAPH_SOURCES = ("VI", "MI", "MII")
SUBGRAPH_SIZES = (16, 32)
SUBGRAPHS_PER_SIZE = 2
FIXED_CORANK4 = 2
SPAN_RANK = 10  # of VI, MI and MII and, in every draw seen, of their subgraphs


def _cartan_edges(family: str, n: int) -> list[tuple[int, int]]:
    if family == "A":
        return [(i, i + 1) for i in range(n - 1)]
    if family == "D":
        return [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    return [(i, i + 1) for i in range(n - 2)] + [(2, n - 1)]


def ade_gram(spec: str) -> list[list[int]]:
    """Negative definite Gram matrix (-2 diagonal) of an ADE sum like "A2+A1"."""
    blocks = []
    for term in spec.split("+"):
        family, n = term[0], int(term[1:])
        g = [[-2 if i == j else 0 for j in range(n)] for i in range(n)]
        for a, b in _cartan_edges(family, n):
            g[a][b] = g[b][a] = 1
        blocks.append(g)
    size = sum(len(b) for b in blocks)
    out = [[0] * size for _ in range(size)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off : off + len(row)] = row
        off += len(b)
    return out


def glue_inputs(seed: int) -> list[dict]:
    """Every K of both lists once, in seeded order, each with a seeded pick."""
    rng = random.Random(f"glue:{seed}")
    specs = list(GLUE_ENUMERATED + GLUE_SKIPPED)
    rng.shuffle(specs)
    return [{"spec": s, "gram": ade_gram(s), "pick": rng.getrandbits(32)} for s in specs]


def chosen_generators(pick: int, m: int) -> list[int]:
    """Indices of the (m + 1) // 2 of m discriminant-group generators to glue.

    A random subset of fixed size: the cost of gluing grows with the order of
    the glue group, and subsets of any size would make it swing by 3-4x
    between seeds on K such as A1+A1+A1+A1+A1+A1+A1+A1+A1.
    """
    return sorted(random.Random(pick).sample(range(m), (m + 1) // 2))


def parse_graph(text: str) -> tuple[str, list[str], list[int], dict]:
    """(name, labels, kinds, {(i, j): mult}) from the graph text format."""
    name, labels, kinds, edges = None, [], [], {}
    index = {}
    for line in text.splitlines():
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "graph":
            name = parts[1]
        elif parts[0] == "vertex":
            index[parts[1]] = len(labels)
            labels.append(parts[1])
            kinds.append(-1 if parts[2:] == ["kind=-1"] else -2)
        elif parts[0] == "edge":
            i, j = sorted((index[parts[1]], index[parts[2]]))
            edges[(i, j)] = int(parts[3])
    return name, labels, kinds, edges


def format_graph(name, labels, kinds, edges) -> str:
    lines = [f"graph {name}"]
    for label, kind in zip(labels, kinds):
        lines.append(f"vertex {label} kind=-1" if kind == -1 else f"vertex {label}")
    for (i, j), m in sorted(edges.items()):
        lines.append(f"edge {labels[i]} {labels[j]} {m}")
    return "\n".join(lines) + "\n"


def load_sources() -> dict:
    out = {}
    for name in GRAPH_SOURCES:
        with open(os.path.join(HERE, "graphs", f"{name}.graph"), encoding="utf-8") as fh:
            out[name] = parse_graph(fh.read())
    return out


def gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) of the rows, given as bitmasks."""
    rank = 0
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [r ^ pivot if r & low else r for r in rows]
    return rank


def corank_mod2(n: int, edges: dict) -> int:
    """rank(Gram) - rank(Gram mod 2) for a graph of span rank SPAN_RANK: the
    number of even invariant factors of the span's discriminant group."""
    rows = [0] * n
    for (i, j), m in edges.items():
        if m % 2:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return SPAN_RANK - gf2_rank(rows)


def _induced(source, keep: list[int]) -> tuple[dict, str]:
    name, labels, kinds, edges = source
    pos = {v: k for k, v in enumerate(keep)}
    sub = {(pos[i], pos[j]): m for (i, j), m in edges.items() if i in pos and j in pos}
    text = format_graph(name, [labels[v] for v in keep], [kinds[v] for v in keep], sub)
    return sub, text


def graph_inputs(seed: int, sources: dict) -> list[str]:
    """Graph text of induced subgraphs, stratified by source, size and 2-rank.

    For each source graph and each size from 16 to min(32, |V|), draw
    SUBGRAPHS_PER_SIZE vertex subsets uniformly among those whose span
    discriminant has at most 2 even invariant factors; the seed fixes the
    subsets and the order in which they run.  The other draws (1.7% of
    uniform ones, all with 4 even factors) are where span_det's saturation
    search is slow and its cost swings from 0.1 to 7.5 s between subgraphs,
    so each pool holds the same FIXED_CORANK4 of them instead.
    """
    rng = random.Random(f"graph-search:{seed}")
    texts = []
    lo, hi = SUBGRAPH_SIZES
    for name in GRAPH_SOURCES:
        n_all = len(sources[name][1])
        for size in range(lo, min(hi, n_all) + 1):
            for _ in range(SUBGRAPHS_PER_SIZE):
                while True:
                    sub, text = _induced(sources[name], sorted(rng.sample(range(n_all), size)))
                    if corank_mod2(size, sub) < 4:
                        break
                texts.append(text)
    texts += _fixed_corank4(sources)
    rng.shuffle(texts)
    return texts


def _fixed_corank4(sources: dict) -> list[str]:
    """The first FIXED_CORANK4 draws with 4 even invariant factors from a
    stream that does not depend on the seed."""
    rng = random.Random("graph-search:corank4")
    out = []
    lo, hi = SUBGRAPH_SIZES
    while len(out) < FIXED_CORANK4:
        name = rng.choice(GRAPH_SOURCES)
        n_all = len(sources[name][1])
        size = rng.randint(lo, min(hi, n_all))
        sub, text = _induced(sources[name], sorted(rng.sample(range(n_all), size)))
        if corank_mod2(size, sub) >= 4:
            out.append(text)
    return out
