"""Benchmark of the coblemukai toolkit; see perfbench/README.md.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-check|glue|graph-search
        --seed N --seconds S --trace 0|1

It launches the workload process (perfbench/worker.py) on the checkout's
``src``, checks every op against its oracle outside the timed region, prints
a human-readable summary and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # write nothing outside the checkout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import oracles  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("paper-check", "glue", "graph-search")

# setup_s is the median over this many fresh workload processes: the measured
# run itself plus SETUP_LAUNCHES - 1 that stop after set-up.
SETUP_LAUNCHES = 7

# The whole run must end within 180 s; a workload process gets what is left.
DEADLINE_S = 170.0

# Ten samples must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

# Times are scaled to reference speed (speed.py): op i is scaled by the mean
# of the median reference times taken just before it and just after it.
# Each op's latency is then the median of its input's repeats in the run;
# quantiles are taken over all ops of the run.


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def launch(root: str, args, mode: str, deadline: float) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, "-s", os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--launched", repr(launched)],
            cwd=root, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        fail(f"workload process did not finish before the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        fail(f"workload process exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout)


def scaled(passes: list[list[float]], refs: list[list[list[float]]], pre: list[float]):
    """Latencies by pass, each op scaled by the reference times around it."""
    out, before = [], pre
    for lat, after_each in zip(passes, refs):
        row = []
        for x, after in zip(lat, after_each):
            row.append(x * speed.bracket_factor(before, after))
            before = after
        out.append(row)
    return out


def input_medians(passes: list[list[float]]) -> list[float]:
    """Each input's latency: the median of its repeats over the passes."""
    return [statistics.median(col) for col in zip(*passes)]


def throughput(medians: list[float]) -> float:
    """Ops per second of one pass, each op timed by its input's median."""
    return len(medians) / sum(medians)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) of the highest percentile of the sorted
    latencies that has TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    idx = len(ordered) - TAIL_BEYOND - 1  # worker.MIN_OPS keeps this >= 19
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered)


def oracle_problems(workload: str, seed: int, summaries: list) -> list[list[str]]:
    if workload == "paper-check":
        items, check = inputs.PAPER_ENTRIES, oracles.check_paper
    elif workload == "glue":
        items, check = inputs.glue_inputs(seed), oracles.check_glue
    else:
        items, check = inputs.graph_inputs(seed, inputs.load_sources()), oracles.check_graph
    if len(summaries) != len(items):
        fail("workload process ran a different input set")
    return [check(item, s) if s is not None else [] for item, s in zip(items, summaries)]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "coblemukai", "__init__.py")):
        fail("run from the root of a checkout: src/coblemukai is missing")

    setups, setups_raw = [], []
    for mode in ["setup"] * (SETUP_LAUNCHES - 1) + ["trace" if args.trace else "run"]:
        res = launch(root, args, mode, deadline)
        raw = res["ready_at"] - res["launched"]
        setups_raw.append(raw)
        setups.append(raw * speed.factor(res["setup_refs"]))

    # Oracles, outside the timed region.  Every op on an input that disagrees
    # with its oracle counts as failed; so does every op that raised or whose
    # output differed from the first run of the same input.
    problems = oracle_problems(args.workload, args.seed, res["summaries"])
    n_passes = len(res["passes"]) + len(res.get("traced_passes", []))
    attempted = n_passes * res["inputs"]
    failed = res["failed_ops"] + n_passes * sum(1 for p in problems if p)
    failed = min(failed, attempted)
    for msg in res["failures"][:10] + [m for p in problems for m in p][:10]:
        print(f"FAIL {msg}")

    passes = scaled(res["passes"], res["refs"], res["pre_refs"])
    medians = input_medians(passes)
    untraced_ops = throughput(medians)
    raw = input_medians(res["passes"])
    machine = speed.factor([r for p in res["refs"] for op in p for r in op])
    print(
        f"{args.workload} seed={args.seed}: {len(passes)} passes x {res['inputs']} ops, "
        f"error_rate={failed / attempted:.4g} ({failed}/{attempted}); machine at "
        f"{machine:.3f} of reference speed; unscaled: ops_per_s={throughput(raw):.4g} "
        f"op_p50_ms={statistics.median(raw) * 1e3:.4g} "
        f"setup_s={statistics.median(setups_raw):.4g}"
    )
    if args.trace:
        metrics, problem = trace_metrics(res, untraced_ops)
        if problem:
            print(f"FAIL {problem}")
            failed = max(failed, 1)
        units = {n: "count" for n in res["count_keys"]}
        units["rootgraph.cps_calls_per_vinberg"] = "ratio"
        units["trace_overhead_ratio"] = "ratio"
        out = {k: {"value": v, "unit": units.get(k, "ms")} for k, v in metrics.items()}
    else:
        tail_s, tail_pct, tail_n = tail(medians * len(passes))
        print(f"op_tail_ms is p{tail_pct:.1f} of {tail_n} ops, {TAIL_BEYOND} beyond it")
        out = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": untraced_ops, "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(medians) * 1e3, "unit": "ms"},
            "op_tail_ms": {"value": tail_s * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024, "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))


def trace_metrics(res: dict, untraced_ops: float) -> tuple[dict, str | None]:
    """Per-layer metrics: per-pass medians of times, per-pass counts.

    Counts must repeat exactly from one traced pass to the next, since every
    pass runs the same inputs.
    """
    per_pass = res["trace"]
    counts = set(res["count_keys"])
    problem = None
    for key in res["count_keys"]:
        if len({p[key] for p in per_pass}) != 1:
            problem = f"counter {key} differs between passes: {[p[key] for p in per_pass]}"
    pass_speed = [speed.factor([r for op in p for r in op]) for p in res["traced_refs"]]
    metrics = {}
    for name in tracing.metric_names():
        if name == "trace_overhead_ratio":
            traced = scaled(res["traced_passes"], res["traced_refs"], res["refs"][-1][-1])
            metrics[name] = throughput(input_medians(traced)) / untraced_ops
        elif name in counts:
            metrics[name] = per_pass[0][name]
        else:
            metrics[name] = statistics.median(p[name] * f for p, f in zip(per_pass, pass_speed))
    return metrics, problem


if __name__ == "__main__":
    main()
