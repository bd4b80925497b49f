"""Command-line front end.

Subcommands mirror the library: ``graph`` (info/aut/parabolics/vinberg/dot on
a built-in or a graph file), ``lattice`` (det/disc/mod2/overlattice on a
lattice spec, or ``file:PATH`` for a Gram matrix file), ``catalog``
(build/model/check) and ``fiber`` (lookup/candidates).  Exit codes: 0
success or pass, 1 a verification failed, 2 usage or input errors.  Output
is byte-deterministic; ``--json`` switches the report to JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

from . import catalog, fibrations, lattice, rootgraph


def _render_text(report: dict) -> str:
    lines: list[str] = []

    def emit(key, val, indent):
        pad = "  " * indent
        if isinstance(val, dict):
            lines.append(f"{pad}{key}:")
            for k, v in val.items():
                emit(k, v, indent + 1)
        elif isinstance(val, (list, tuple)):
            lines.append(f"{pad}{key}:")
            for item in val:
                lines.append(f"{pad}  - {item}")
        elif isinstance(val, bool):
            lines.append(f"{pad}{key}: {'true' if val else 'false'}")
        else:
            lines.append(f"{pad}{key}: {val}")

    for k, v in report.items():
        emit(k, v, 0)
    return "\n".join(lines) + "\n"


def _print_report(report: dict, as_json: bool, out) -> None:
    if as_json:
        out.write(json.dumps(report, indent=2) + "\n")
    else:
        out.write(_render_text(report))


def _load_graph_source(src: str) -> rootgraph.RootGraph:
    if src.startswith("builtin:"):
        return catalog.build_graph(src[len("builtin:"):])
    return rootgraph.load_graph_file(src)


def _load_lattice_spec(spec: str) -> lattice.Lattice:
    if spec.startswith("file:"):
        return lattice.load_gram_file(spec[len("file:"):])
    return lattice.make_named(spec)


def _parse_glue(text: str):
    vectors = []
    for chunk in filter(None, (c.strip() for c in text.split(";"))):
        try:
            vectors.append(tuple(map(lattice.ascii_fraction, chunk.replace(",", " ").split())))
        except ZeroDivisionError:
            raise ValueError(f"glue vector has a zero denominator: {chunk!r}") from None
        except ValueError:
            raise ValueError(f"glue vector entries must be ASCII rationals: {chunk!r}") from None
    if not vectors:
        raise ValueError("empty glue specification")
    return vectors


def _fiber_str(fibers) -> str:
    def key(f):
        d = fibrations.diagram_of(f)
        return (-(d.rank if d else 0), str(f))

    return "(" + ", ".join(str(f) for f in sorted(fibers, key=key)) + ")"


# --- graph subcommands -------------------------------------------------------

def _cmd_graph(args):
    g = _load_graph_source(args.source)
    if args.action == "dot":
        return rootgraph.export_dot(g)
    passed = True
    if args.action == "info":
        rank, sig = rootgraph.span_check(g)
        payload = {
            "name": g.name,
            "vertices": g.n,
            "edges": g.edge_count(),
            "curves": sum(1 for k in g.kinds if k == rootgraph.KIND_CURVE),
            "roots": sum(1 for k in g.kinds if k == rootgraph.KIND_ROOT),
            "span_rank": rank,
            "signature": list(sig),
            "span_det": rootgraph.span_det(g),
        }
    elif args.action == "aut":
        order, gens = rootgraph.automorphisms(g)
        payload = {"order": order, "generator_count": len(gens)}
        if args.json:
            payload["generators"] = [[g.labels[p[i]] for i in range(g.n)] for p in gens]
    elif args.action == "parabolics":
        if args.maximal:
            target = args.rank
            if target is None:
                target = rootgraph.span_check(g)[0] - 2
            packs = rootgraph.maximal_parabolics(g, target)
            payload = {
                "target_rank": target,
                "count": len(packs),
                "type_multisets": list(rootgraph.type_multisets(packs)),
            }
            if args.json:
                payload["subdiagrams"] = [
                    [f"{typ}: {' '.join(labels)}" for labels, typ in p.components]
                    for p in packs
                ]
        else:
            cps = rootgraph.connected_parabolics(g, max_rank=args.rank)
            payload = {
                "count": len(cps),
                "components": [f"{typ}: {' '.join(labels)}" for labels, typ in cps],
            }
    else:  # vinberg
        rep = rootgraph.vinberg_check(g, args.rank)
        passed = rep.passed
        payload = {
            "target_rank": rep.target_rank,
            "maximal_count": len(rep.maximal),
            "maximal_types": list(rep.type_multisets()),
            "witnesses": [f"{typ}: {' '.join(labels)}" for labels, typ in rep.witnesses],
        }
    return {"command": f"graph {args.action} {args.source}", "pass": passed, "payload": payload}


# --- lattice subcommands -----------------------------------------------------

def _cmd_lattice(args):
    lat = _load_lattice_spec(args.spec)
    if args.action == "det":
        pos, neg, zero = lattice.signature(lat)
        payload = {
            "rank": lat.rank,
            "det": lattice.det(lat),
            "signature": [pos, neg, zero],
            "even": lattice.is_even(lat),
        }
    elif args.action == "disc":
        group = lattice.discriminant_group(lat)
        payload = {
            "invariant_factors": list(group.invariant_factors),
            "order": group.order,
            "generator_lifts": [" ".join(str(c) for c in lift) for lift in group.generator_lifts],
        }
        if lattice.is_even(lat):
            payload["q_values"] = [str(lattice.disc_q(lat, lift)) for lift in group.generator_lifts]
    elif args.action == "mod2":
        nullity, rank, basis = lattice.mod2_nullity(lat)
        payload = {
            "nullity": nullity,
            "rank": rank,
            "kernel": ["".join(str(b) for b in v) for v in basis],
        }
    else:  # overlattice
        if args.half_kernel and args.glue:
            raise ValueError("--glue and --half-kernel are mutually exclusive")
        if args.half_kernel:
            _, _, basis = lattice.mod2_nullity(lat)
            over = lattice.half_overlattice(lat, basis)
            over_det = lattice.det(over)
            index = 1 << len(basis)
            kind = "half-integer overlattice along the full q-kernel"
        elif args.glue:
            over, index, over_det = lattice.overlattice_index(lat, _parse_glue(args.glue))
            kind = "overlattice along isotropic glue"
        else:
            raise ValueError("overlattice needs --glue VECTORS or --half-kernel")
        payload = {
            "kind": kind,
            "index": index,
            "rank": over.rank,
            "det": over_det,
            "even": lattice.is_even(over),
            "gram": [" ".join(str(x) for x in row) for row in over.gram],
        }
    return {"command": f"lattice {args.action} {args.spec}", "pass": True, "payload": payload}


# --- catalog subcommands -----------------------------------------------------

def catalog_check(name: str) -> dict:
    """All bundled consistency checks for one catalog entry."""
    entry = catalog.get_entry(name)
    g, row = entry.graph, entry.row
    checks: dict[str, dict] = {}

    def record(key, ok, **info):
        checks[key] = {"ok": bool(ok), **info}

    record("vertex_count", g.n == row.k, got=g.n, expected=row.k)
    rank, sig = rootgraph.span_check(g)
    record("span", rank == 10 and sig == (1, 9), rank=rank, signature=list(sig))
    parity_ok = all(
        m % 2 == 0 for (i, j), m in g.edges.items() if g.kinds[i] != g.kinds[j]
    )
    record("parity_law", parity_ok)
    vin = rootgraph.vinberg_check(g, rank - 2)
    record(
        "vinberg",
        vin.passed,
        target_rank=vin.target_rank,
        maximal_types=list(vin.type_multisets()),
    )
    order, _ = rootgraph.automorphisms(g)
    claimed = catalog.CLAIMED_GRAPH_AUT.get(name)
    record(
        "automorphisms",
        claimed is None or order == claimed,
        order=order,
        claimed=claimed if claimed is not None else "-",
    )
    if name in catalog.CLAIMED_BLOCK_AUT:
        prefix, expected = catalog.CLAIMED_BLOCK_AUT[name]
        block = g.induced([l for l in g.labels if l.startswith(prefix)])
        border, _ = rootgraph.automorphisms(block)
        record("block_automorphisms", border == expected, block=prefix, order=border)
    sdet = rootgraph.span_det(g)
    record("span_det", sdet < 0 and (-sdet & (-sdet - 1)) == 0, value=sdet)
    if entry.model is not None:
        real = catalog.verify_realization(g, entry.model)
        record("realization", real.ok, failures=list(real.failures[:5]))
        cm = catalog.coble_mukai(entry.model)
        det = lattice.det(cm.lattice)
        cm_ok = (
            cm.lattice.rank == 10
            and lattice.is_even(cm.lattice)
            and lattice.signature(cm.lattice) == (1, 9, 0)
            and det < 0
            and (-det & (-det - 1)) == 0
        )
        record(
            "coble_mukai",
            cm_ok,
            rank=cm.lattice.rank,
            det=det,
            even=lattice.is_even(cm.lattice),
        )
        record("roots_in_cm", cm.contains([v for _, v in entry.model.roots], entry.model.den))
        rinv = catalog.q_kernel_invariant(row.k_spec)
        rrep = catalog.r_invariant_check(rinv, p=3, expect_nullity=row.h_rank)
        record(
            "r_invariant",
            rrep.ok and rrep.p_valuation >= 2,
            nullity=rrep.nullity,
            det_k=rrep.det_k,
            p_valuation=rrep.p_valuation,
        )
    all_ok = all(c["ok"] for c in checks.values())
    return {
        "command": f"catalog check {name}",
        "pass": all_ok,
        "payload": {
            "table_row": {
                "key": row.key,
                "type": row.type,
                "p": row.p,
                "n": row.n,
                "k": row.k,
                "aut": row.aut,
                "r_invariant": row.r_invariant,
            },
            "checks": checks,
        },
    }


def _cmd_catalog(args):
    if args.action == "build":
        return rootgraph.format_graph(catalog.build_graph(args.name))
    if args.action == "model":
        return catalog.format_model(catalog.build_model(args.name))
    return catalog_check(args.name)


# --- fiber subcommands ---------------------------------------------------------

def _cmd_fiber(args):
    if args.action == "lookup":
        fibers = fibrations.fiber_multiset(args.tokens)
        return {
            "command": f"fiber lookup --char {args.char} {' '.join(args.tokens)}",
            "pass": fibrations.extremal_lookup(fibers, args.char),
            "payload": {"configuration": _fiber_str(fibers), "char": args.char},
        }
    # candidates
    types = [rootgraph.parse_diagram(t) for t in args.diagram.split("+")]
    found = fibrations.admissible_assignments(types, args.char)
    return {
        "command": f"fiber candidates --char {args.char} {args.diagram}",
        "pass": bool(found),
        "payload": {
            "diagram": rootgraph.multiset_str(types),
            "char": args.char,
            "assignments": [_fiber_str(f) for f in found],
        },
    }


# --- parser --------------------------------------------------------------------

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="coblemukai",
        description="Exact lattice and root-graph toolkit for the Coble surface tables",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pg = sub.add_parser("graph", help="root graph operations")
    pg.add_argument("action", choices=["info", "aut", "parabolics", "vinberg", "dot"])
    pg.add_argument("source", help="builtin:NAME or a graph file path")
    pg.add_argument("--maximal", action="store_true", help="enumerate maximal parabolics")
    pg.add_argument("--rank", type=lattice.ascii_int, default=None,
                    help="target rank (default: span rank - 2)")
    pg.add_argument("--json", action="store_true")
    pg.set_defaults(func=_cmd_graph)

    pl = sub.add_parser("lattice", help="integral lattice invariants")
    pl.add_argument("action", choices=["det", "disc", "mod2", "overlattice"])
    pl.add_argument("spec", help='lattice spec, e.g. "A5+A5+A1+A1" or "U(2)"')
    pl.add_argument("--glue", default=None, help='dual lifts "1/2,1/2,0 ; ..." for overlattice; '
                    "each entry is p or p/q in ASCII digits, p with an optional sign; "
                    "write a value that starts with - as --glue=-1/4,0")
    pl.add_argument("--half-kernel", action="store_true", help="halve the full mod-2 q-kernel")
    pl.add_argument("--json", action="store_true")
    pl.set_defaults(func=_cmd_lattice)

    pc = sub.add_parser("catalog", help="built-in graphs, models and checks")
    pc.add_argument("action", choices=["build", "model", "check"])
    pc.add_argument("name", help=f"one of {', '.join(catalog.BUILTIN_GRAPHS)}")
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(func=_cmd_catalog)

    pf = sub.add_parser("fiber", help="extremal fibration tables")
    fsub = pf.add_subparsers(dest="action", required=True)
    pfl = fsub.add_parser("lookup", help="is this fiber multiset extremal?")
    pfl.add_argument("--char", choices=list(fibrations.CHAR_CLASSES), default="generic")
    pfl.add_argument("tokens", nargs="+", help="fiber tokens such as I5 I5 I1 I1")
    pfl.add_argument("--json", action="store_true")
    pfl.set_defaults(func=_cmd_fiber)
    pfc = fsub.add_parser("candidates", help="extremal assignments for a parabolic type")
    pfc.add_argument("--char", choices=list(fibrations.CHAR_CLASSES), default="generic")
    pfc.add_argument("diagram", help='affine type multiset, e.g. "A~4+A~4"')
    pfc.add_argument("--json", action="store_true")
    pfc.set_defaults(func=_cmd_fiber)
    return parser


def run(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _parser()
    try:
        # argparse writes usage errors, --help and --version to sys.stderr and sys.stdout
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        # a handler returns raw text (exit 0) or a report (exit 0 on pass, else 1)
        result = args.func(args)
        if isinstance(result, str):
            out.write(result)
            return 0
        _print_report(result, args.json, out)
        return 0 if result["pass"] else 1
    except (ValueError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
