"""Outside-in tracing of the coblemukai layers.

Every public function of a layer module is replaced, at its module
attribute, by a wrapper that records a span (name, parent, start, end).
Calls between modules go through module attributes (``exact.rank_signature``
inside ``rootgraph``), and so do calls inside a module to its own public
functions, so nested calls are caught without touching the program.  The
originals are put back by ``uninstall``.  Spans stay in memory; ``summary``
turns them into per-function calls, inclusive and self time, per-layer self
time and the work counters.
"""

from __future__ import annotations

import functools
import inspect
import time

LAYERS = ("exact", "lattice", "rootgraph", "catalog", "fibrations", "cli")

# Per-function metrics reported by the traced run; see README.md for the
# end-to-end metric and workload each one should move.
TRACED_FUNCTIONS = (
    "lattice.pairing",
    "exact.solve_in_rows",
    "catalog.verify_realization",
    "catalog.build_model",
    "catalog.coble_mukai",
    "catalog.CobleMukaiLattice.contains",
    "lattice.overlattice",
    "lattice.disc_q",
    "lattice.disc_b",
    "lattice.discriminant_group",
    "lattice.half_overlattice",
    "exact.mat_vec",
    "exact.hnf_rows",
    "exact.snf",
    "exact.det",
    "exact.rank_signature",
    "rootgraph.connected_parabolics",
    "rootgraph.maximal_parabolics",
    "rootgraph.span_check",
    "rootgraph.span_det",
    "rootgraph.automorphisms",
    "rootgraph.vinberg_check",
    "rootgraph.parse_graph_text",
    "fibrations.admissible_assignments",
    "cli.run",
)

COUNTERS = (
    "rootgraph.components",
    "rootgraph.packings",
    "rootgraph.aut_order_sum",
    "rootgraph.cps_calls_per_vinberg",
    "fibrations.assignments",
    "lattice.disc_check_enumerated",
    "lattice.disc_check_skipped",
)


class Tracer:
    def __init__(self, modules: dict, methods=()):
        """``modules`` maps layer name to module; ``methods`` lists
        (layer, class, method name) triples to wrap on the class."""
        self._modules = modules
        self._methods = methods
        self._saved: list[tuple[object, str, object]] = []
        self._exact_det = modules["exact"].det
        self._lattice = modules["lattice"]
        self.spans: list = []
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Forget recorded spans and counts; the wrappers keep these lists."""
        self.spans.clear()
        self._stack.clear()
        self._active.clear()
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._vinberg_calls = 0
        self._cps_in_vinberg = 0

    def install(self) -> None:
        for layer, mod in self._modules.items():
            for name, obj in list(vars(mod).items()):
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    self._replace(mod, name, f"{layer}.{name}")
        for layer, cls, name in self._methods:
            self._replace(cls, name, f"{layer}.{cls.__name__}.{name}")

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _replace(self, owner, name: str, key: str) -> None:
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, self._wrap(key, original))

    def _wrap(self, key: str, fn):
        spans, stack, active = self.spans, self._stack, self._active
        hook = getattr(self, "_after_" + key.replace(".", "_"), None)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            outer = not active.get(key)
            active[key] = active.get(key, 0) + 1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[key] -= 1
                spans[idx] = (key, parent, start, end, outer)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    # --- work counters, read from arguments and results ---------------------

    def _after_rootgraph_connected_parabolics(self, args, result):
        self.counts["rootgraph.components"] += len(result)
        if self._active.get("rootgraph.vinberg_check"):
            self._cps_in_vinberg += 1

    def _after_rootgraph_maximal_parabolics(self, args, result):
        self.counts["rootgraph.packings"] += len(result)

    def _after_rootgraph_automorphisms(self, args, result):
        self.counts["rootgraph.aut_order_sum"] += result[0]

    def _after_rootgraph_vinberg_check(self, args, result):
        self._vinberg_calls += 1

    def _after_fibrations_admissible_assignments(self, args, result):
        self.counts["fibrations.assignments"] += len(result)

    def _after_lattice_overlattice(self, args, result):
        cap = getattr(self._lattice, "DISC_CHECK_MAX_ORDER", None)
        order = abs(self._exact_det([list(row) for row in args[0].gram]))
        skipped = cap is not None and order > cap
        self.counts["lattice.disc_check_skipped" if skipped else "lattice.disc_check_enumerated"] += 1

    # --- summary ---------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Metrics for the spans recorded since the last reset, times in ms."""
        child_time = [0.0] * len(self.spans)
        for key, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = {}
        incl: dict[str, float] = {}
        self_t: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i, (key, _, start, end, outer) in enumerate(self.spans):
            own = end - start - child_time[i]
            calls[key] = calls.get(key, 0) + 1
            self_t[key] = self_t.get(key, 0.0) + own
            if outer:
                incl[key] = incl.get(key, 0.0) + (end - start)
            layer_self[key.split(".", 1)[0]] += own
        out: dict[str, float] = {}
        for key in TRACED_FUNCTIONS:
            out[f"{key}.calls"] = calls.get(key, 0)
            out[f"{key}.ms"] = incl.get(key, 0.0) * 1e3
            out[f"{key}.self_ms"] = self_t.get(key, 0.0) * 1e3
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = layer_self[layer] * 1e3
        counts = dict(self.counts)
        counts["rootgraph.cps_calls_per_vinberg"] = (
            self._cps_in_vinberg / self._vinberg_calls if self._vinberg_calls else 0.0
        )
        out.update(counts)
        return out


def count_keys() -> list[str]:
    """Metrics of the summary that must repeat exactly for the same inputs."""
    return [f"{key}.calls" for key in TRACED_FUNCTIONS] + list(COUNTERS)


def metric_names() -> list[str]:
    names = []
    for key in TRACED_FUNCTIONS:
        names += [f"{key}.calls", f"{key}.ms", f"{key}.self_ms"]
    names += [f"{layer}.self_ms" for layer in LAYERS]
    names += list(COUNTERS)
    names.append("trace_overhead_ratio")
    return names
