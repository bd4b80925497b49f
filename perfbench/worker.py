"""The workload process: set up, run timed passes, print one JSON object.

Started by run.py in a fresh interpreter from the root of a checkout, with
the checkout's ``src`` first on the path.  One caller, one thread, closed
loop: each op starts when the previous one has returned.

    python3 perfbench/worker.py --workload W --seed N --seconds S
        --mode setup|run|trace --launched T

``--launched`` is the parent's ``time.monotonic()`` just before the launch,
so ``ready_at - launched`` is the set-up time up to the first timed op.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

from coblemukai import catalog, cli, exact, fibrations, lattice, rootgraph  # noqa: E402

MODULES = {
    "exact": exact,
    "lattice": lattice,
    "rootgraph": rootgraph,
    "catalog": catalog,
    "fibrations": fibrations,
    "cli": cli,
}

# A run makes a fixed number of whole passes over its inputs, so that every
# run of a commit, whatever the machine's speed, has the same op count and
# op_tail_ms sits at the same rank.  The count is --seconds over the pass time
# at reference speed measured on the commit that defined the benchmark, but
# at least MIN_PASSES (each op then has a median over repeats) and enough for
# MIN_OPS ops (so op_tail_ms has ten samples beyond a high percentile).  A
# traced run makes half as many passes untraced, but at least MIN_PASSES, so
# the median drops the first pass, which runs cold; then at least
# TRACE_MIN_PASSES traced ones, so their counts can be compared.
NOMINAL_PASS_S = {"paper-check": 4.5, "glue": 5.9, "graph-search": 6.5}
MIN_PASSES = 3
MIN_OPS = 30
TRACE_MIN_PASSES = 2

# Reference times taken right after set-up, to scale setup_s.
SETUP_REFS = 7


# --- ops ----------------------------------------------------------------------
# Each op returns a JSON-able summary of what the program computed; the parent
# checks it against an oracle, and repeats of one input must agree exactly.

def paper_check_op(entry: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    rc = cli.run(["catalog", "check", entry, "--json"], out=out, err=err)
    return {"entry": entry, "rc": rc, "stdout": out.getvalue()}


def glue_op(item: dict) -> dict:
    k, big_l = item["k"], item["l"]
    group = lattice.discriminant_group(k)
    factors = list(group.invariant_factors)
    chosen = inputs.chosen_generators(item["pick"], len(factors))
    glue = [tuple(group.generator_lifts[i]) * 2 for i in chosen]
    over = lattice.overlattice(big_l, glue)
    nullity, _, kernel = lattice.mod2_nullity(k)
    try:
        half = lattice.half_overlattice(k, kernel)
    except ValueError as exc:
        half_gram, half_det, refusal = None, None, str(exc)
    else:
        half_gram, half_det, refusal = [list(r) for r in half.gram], lattice.det(half), None
    return {
        "spec": item["spec"],
        "factors": factors,
        "chosen": [factors[i] for i in chosen],
        "gram": [list(r) for r in over.gram],
        "det": lattice.det(over),
        "even": lattice.is_even(over),
        "nullity": nullity,
        "kernel": [list(v) for v in kernel],
        "half_gram": half_gram,
        "half_det": half_det,
        "half_refusal": refusal,
    }


def graph_op(text: str) -> dict:
    g = rootgraph.parse_graph_text(text)
    rank, sig = rootgraph.span_check(g)
    rep = rootgraph.vinberg_check(g, rank - 2)
    order, gens = rootgraph.automorphisms(g)
    try:
        sdet, refusal = rootgraph.span_det(g), None
    except ValueError as exc:
        sdet, refusal = None, str(exc)
    assignments = {}
    for multiset in rep.type_multisets():
        types = [rootgraph.parse_diagram(t) for t in multiset.split("+")]
        assignments[multiset] = {
            char: [[str(f) for f in a] for a in fibrations.admissible_assignments(types, char)]
            for char in fibrations.CHAR_CLASSES
        }
    return {
        "n": g.n,
        "rank": rank,
        "signature": list(sig),
        "vinberg_passed": rep.passed,
        "target_rank": rep.target_rank,
        "maximal": len(rep.maximal),
        "witnesses": len(rep.witnesses),
        "aut_order": order,
        "aut_generators": len(gens),
        "span_det": sdet,
        "span_det_refusal": refusal,
        "assignments": assignments,
    }


def build(workload: str, seed: int):
    """(op, inputs) for a workload; this is the set-up that setup_s times."""
    if workload == "paper-check":
        return paper_check_op, list(inputs.PAPER_ENTRIES)
    if workload == "glue":
        items = []
        for item in inputs.glue_inputs(seed):
            g = item["gram"]
            neg = [[-x for x in row] for row in g]
            n = len(g)
            big = [row + [0] * n for row in g] + [[0] * n + row for row in neg]
            items.append(
                {
                    "spec": item["spec"],
                    "pick": item["pick"],
                    "k": lattice.make_lattice(g),
                    "l": lattice.make_lattice(big),
                }
            )
        return glue_op, items
    if workload == "graph-search":
        return graph_op, inputs.graph_inputs(seed, inputs.load_sources())
    raise SystemExit(f"unknown workload {workload!r}")


# --- timed passes -------------------------------------------------------------------

class Recorder:
    """The first summary of each input, and the failed ops."""

    def __init__(self, n: int):
        self.first: list = [None] * n
        self.first_text: list = [None] * n
        self.failures: list[str] = []
        self.failed_ops = 0

    def record(self, i: int, summary: dict) -> None:
        text = json.dumps(summary, sort_keys=True)
        if self.first_text[i] is None:
            self.first_text[i], self.first[i] = text, summary
        elif text != self.first_text[i]:
            self.failed_ops += 1
            self.failures.append(f"input {i}: output differs from its first run")


def pass_count(workload: str, seconds: float, n_items: int, min_passes: int, min_ops: int) -> int:
    by_time = round(seconds / NOMINAL_PASS_S[workload])
    return max(min_passes, -(-min_ops // n_items), by_time)


def run_passes(op, items, rec: Recorder, n_passes: int, on_pass=None):
    """(latencies, reference times) by pass; each op is followed by its
    reference samples, so the samples after op i - 1 and after op i bracket
    op i in time."""
    passes: list[list[float]] = []
    refs: list[list[list[float]]] = []
    clock = time.perf_counter
    for _ in range(n_passes):
        lat, ref = [], []
        for i, item in enumerate(items):
            t0 = clock()
            try:
                summary = op(item)
            except Exception as exc:  # an unexpected exception is a failed op
                summary = None
                rec.failed_ops += 1
                rec.failures.append(f"input {i}: {type(exc).__name__}: {exc}")
            lat.append(clock() - t0)
            ref.append(speed.samples_after(lat[-1]))
            if summary is not None:
                rec.record(i, summary)
        passes.append(lat)
        refs.append(ref)
        if on_pass is not None:
            on_pass()
    return passes, refs


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--launched", type=float, required=True)
    args = ap.parse_args()
    op, items = build(args.workload, args.seed)
    ready_at = time.monotonic()
    result = {
        "ready_at": ready_at,
        "launched": args.launched,
        "setup_refs": [speed.reference_work() for _ in range(SETUP_REFS)],
        "inputs": len(items),
    }
    if args.mode != "setup":
        rec = Recorder(len(items))
        result["pre_refs"] = speed.samples_after(0.0)
        if args.mode == "run":
            n = pass_count(args.workload, args.seconds, len(items), MIN_PASSES, MIN_OPS)
            result["passes"], result["refs"] = run_passes(op, items, rec, n)
        else:
            half = args.seconds / 2
            n = pass_count(args.workload, half, len(items), MIN_PASSES, 0)
            result["passes"], result["refs"] = run_passes(op, items, rec, n)
            n = pass_count(args.workload, half, len(items), TRACE_MIN_PASSES, 0)
            tracer = tracing.Tracer(MODULES, [("catalog", catalog.CobleMukaiLattice, "contains")])
            per_pass = []

            def close_pass():
                per_pass.append(tracer.summary())
                tracer.reset()

            tracer.install()
            try:
                result["traced_passes"], result["traced_refs"] = run_passes(
                    op, items, rec, n, on_pass=close_pass
                )
            finally:
                tracer.uninstall()
            result["trace"] = per_pass
            result["count_keys"] = tracing.count_keys()
        result["summaries"] = rec.first
        result["failures"] = rec.failures
        result["failed_ops"] = rec.failed_ops
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
