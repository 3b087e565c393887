"""Command-line front end.

One executable, eight subcommands (lambda, blocks, color, verify, solve,
scan, reduce-3sat, export-dot), deterministic plain-text reports with a
``--json`` mirror, and exit codes with fixed meaning: 0 success or
verdict-true, 1 verdict-false or counterexample, 2 usage or parse error,
3 budget exhausted, 4 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback
from pathlib import Path

from .colorings import (
    EdgeColoring,
    color_cactus,
    color_complete,
    color_complete_multipartite,
    color_general_upper,
    color_grid,
    color_regular,
    color_tree,
    parse_coloring,
    serialize_coloring,
)
from .connectivity import _tree_weights, local_edge_connectivity
from .errors import BudgetExceededError, ColoringError, GraphParseError, SrdKitError
from .graph import _int, blocks, export_dot, is_connected, parse_graph, serialize_graph
from .reduction import (
    DEFAULT_NODE_BUDGET,
    build_reduction,
    check_equivalence,
    parse_dimacs_cnf,
)
from .solver import DEFAULT_MAX_EDGES, all_connected_graphs, conjecture_scan, rd_number, srd_number
from .verifier import is_rd_coloring, is_srd_coloring


class _UsageError(Exception):
    """Bad flag combination; reported on exit code 2."""


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument(
        "--seed", type=int, default=0, help="recorded in the report header"
    )
    common.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="ignored; every search runs in one process (must be at least 1)",
    )

    parser = argparse.ArgumentParser(
        prog="srdkit",
        description="strong rainbow disconnection colorings: construct, "
        "verify, solve exactly, and generate hardness instances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lambda", parents=[common], help="edge connectivity numbers")
    p.add_argument("graph")
    p.add_argument("--pair", nargs=2, type=int, metavar=("U", "V"))

    p = sub.add_parser("blocks", parents=[common], help="block decomposition")
    p.add_argument("graph")

    p = sub.add_parser("color", parents=[common], help="construct a coloring")
    p.add_argument(
        "--family",
        required=True,
        choices=[
            "auto",
            "tree",
            "cactus",
            "general",
            "regular",
            "complete",
            "multipartite",
            "grid",
        ],
    )
    p.add_argument("--graph", help="input graph (auto/tree/cactus/general/regular)")
    p.add_argument("--n", type=int, help="order for --family complete")
    p.add_argument("--sizes", help="comma list for --family multipartite")
    p.add_argument("--rows", type=int, help="grid rows")
    p.add_argument("--cols", type=int, help="grid columns")
    p.add_argument("--out", help="write the coloring file here")
    p.add_argument("--graph-out", help="write the (generated) graph file here")
    p.add_argument("--budget", type=int, default=5_000_000)

    p = sub.add_parser("verify", parents=[common], help="check a coloring")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.add_argument("--mode", choices=["srd", "rd"], default="srd")

    p = sub.add_parser("solve", parents=[common], help="exact srd/rd numbers")
    p.add_argument("graph")
    p.add_argument("--mode", choices=["srd", "rd", "both"], default="srd")
    p.add_argument("--max-edges", type=int, default=DEFAULT_MAX_EDGES)
    p.add_argument("--witness-out", help="write the optimal coloring here")

    p = sub.add_parser("scan", parents=[common], help="rd vs srd over all graphs of an order")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-edges", type=int, default=DEFAULT_MAX_EDGES)
    p.add_argument("--out", help="also write the report here")

    p = sub.add_parser(
        "reduce-3sat", parents=[common], help="3-SAT to rainbow-min-cut instance"
    )
    p.add_argument("cnf")
    p.add_argument("--out-prefix", help="default: the CNF path minus its suffix")
    p.add_argument("--check", action="store_true", help="run both oracles and compare")
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)

    p = sub.add_parser("export-dot", parents=[common], help="Graphviz rendering")
    p.add_argument("graph")
    p.add_argument("--coloring")
    p.add_argument("--roles", help="roles sidecar for vertex/color labels")

    return parser


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise GraphParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _load_graph(path: str):
    return parse_graph(_read(path))


def _bool(x) -> str:
    return "true" if x else "false"


# --------------------------------------------------------------------------
# subcommand handlers: each takes the parsed arguments and returns
# (exit code, text lines, json payload)


def _cmd_lambda(args):
    path = args.graph
    g = _load_graph(path)
    lines = [f"graph {path} n={g.vertex_count} m={g.edge_count}"]
    payload = {"graph": path, "n": g.vertex_count, "m": g.edge_count}
    if args.pair is not None:
        u, v = args.pair
        value = local_edge_connectivity(g, u, v)
        lines.append(f"lambda({u},{v})={value}")
        payload.update(pair=[u, v], value=value)
    else:
        weights = _tree_weights(g)  # one flow tree gives both
        lam, lam_plus = min(weights), max(weights)
        lines.append(f"lambda={lam} lambda+={lam_plus}")
        payload.update({"lambda": lam, "lambda_plus": lam_plus})
    return 0, lines, payload


def _cmd_blocks(args):
    path = args.graph
    g = _load_graph(path)
    dec = blocks(g)
    lines = [
        f"graph {path} n={g.vertex_count} m={g.edge_count}",
        f"blocks={len(dec.blocks)} cut-vertices={len(dec.cut_vertices)}",
    ]
    records = []
    for i, blk in enumerate(dec.blocks):
        vs = sorted(blk.vertices)
        lines.append(
            f"block {i} : vertices {' '.join(map(str, vs))} ; "
            f"edges {' '.join(map(str, blk.edge_ids))}"
        )
        records.append({"vertices": vs, "edges": list(blk.edge_ids)})
    for v in sorted(dec.cut_vertices):
        lines.append(f"cut-vertex {v}")
    payload = {
        "graph": path,
        "blocks": records,
        "cut_vertices": sorted(dec.cut_vertices),
    }
    return 0, lines, payload


def _require(args, key, family):
    value = getattr(args, key)
    if value is None:
        raise _UsageError(f"--family {family} requires --{key.replace('_', '-')}")
    return value


def _cmd_color(args):
    family = args.family
    budget = args.budget
    if budget < 1:
        raise _UsageError("--budget must be positive")
    params = {}

    if family in ("auto", "tree", "cactus", "general", "regular"):
        path = _require(args, "graph", family)
        g = _load_graph(path)
        params["graph"] = path
        if family == "tree":
            coloring = color_tree(g)
        elif family == "cactus":
            coloring = color_cactus(g)
        elif family == "regular":
            coloring = color_regular(g, budget=budget)
        elif family == "auto" and g.vertex_count <= 2:
            if g.vertex_count < 2 or not is_connected(g):
                raise ColoringError(
                    "--family auto needs a connected graph on at least 2 vertices"
                )
            # every edge joins the two vertices, so the one cut is all of
            # them, and only distinct colors make it rainbow
            coloring = EdgeColoring(tuple(range(1, g.edge_count + 1)))
        else:  # auto and general both take the dispatching construction
            coloring = color_general_upper(g, budget=budget)
    elif family == "complete":
        n = _require(args, "n", family)
        params["n"] = n
        g, coloring = color_complete(n)
    elif family == "multipartite":
        raw = _require(args, "sizes", family)
        try:
            sizes = tuple(_int(x) for x in raw.split(","))
        except ValueError:
            raise _UsageError(f"bad --sizes value {raw!r}") from None
        params["sizes"] = list(sizes)
        g, coloring = color_complete_multipartite(sizes, budget=budget)
    else:  # grid
        rows = _require(args, "rows", family)
        cols = _require(args, "cols", family)
        params.update(rows=rows, cols=cols)
        g, coloring = color_grid(rows, cols)

    param_text = " ".join(
        f"{k}={','.join(map(str, v)) if isinstance(v, list) else v}"
        for k, v in params.items()
    )
    lines = [
        f"# family {family} {param_text}".rstrip(),
        f"# n={g.vertex_count} m={g.edge_count} colors={coloring.num_colors}",
    ]
    wrote = []
    if args.graph_out:
        Path(args.graph_out).write_text(serialize_graph(g))
        wrote.append(args.graph_out)
        lines.append(f"# wrote {args.graph_out}")
    if args.out:
        Path(args.out).write_text(serialize_coloring(coloring))
        wrote.append(args.out)
        lines.append(f"# wrote {args.out}")
    else:
        # no destination: the report body *is* the coloring file
        lines.extend(serialize_coloring(coloring).splitlines())
    payload = {
        "family": family,
        "params": params,
        "n": g.vertex_count,
        "m": g.edge_count,
        "colors": coloring.num_colors,
        "coloring": list(coloring.colors),
        "wrote": wrote,
    }
    return 0, lines, payload


def _cmd_verify(args):
    g = _load_graph(args.graph)
    coloring = parse_coloring(_read(args.coloring), g.edge_count)
    mode = args.mode
    if mode == "srd":
        rep = is_srd_coloring(g, coloring)
    else:
        rep = is_rd_coloring(g, coloring)
    code = 0 if rep.verdict else 1
    # most pairs share one of the cut tree's n - 1 cuts: render each once
    shown = {}
    if args.json:
        witnesses = []
        if rep.verdict:
            for (u, v), cert in sorted(rep.witnesses.items()):
                if cert.cut not in shown:
                    shown[cert.cut] = sorted(cert.cut)
                witnesses.append(
                    {"u": u, "v": v, "size": cert.value, "edges": shown[cert.cut]}
                )
        payload = {
            "graph": args.graph,
            "mode": mode,
            "verdict": rep.verdict,
            "witnesses": witnesses,
            "failing": None if rep.verdict else list(rep.failing_pair),
        }
        return code, [], payload
    lines = [
        f"graph {args.graph} n={g.vertex_count} m={g.edge_count}",
        f"mode {mode}",
        f"verdict {_bool(rep.verdict)}",
    ]
    if rep.verdict:
        for (u, v), cert in sorted(rep.witnesses.items()):
            if cert.cut not in shown:
                shown[cert.cut] = " ".join(map(str, sorted(cert.cut)))
            lines.append(f"{u} {v} : {cert.value} {shown[cert.cut]}")
    else:
        u, v = rep.failing_pair
        lines.append(f"failing {u} {v}")
    return code, lines, {}


def _cmd_solve(args):
    if args.max_edges < 0:
        raise _UsageError("--max-edges must be non-negative")
    g = _load_graph(args.graph)
    mode = args.mode
    if args.witness_out and mode == "both":
        raise _UsageError("--witness-out needs a single --mode (srd or rd)")
    if mode == "both":
        (rec,) = conjecture_scan([g], args.max_edges)
        results = {"rd": rec.rd, "srd": rec.srd}
    else:
        solve = srd_number if mode == "srd" else rd_number
        results = {mode: solve(g, args.max_edges)}
    lines = [
        f"graph {args.graph} n={g.vertex_count} m={g.edge_count}",
        " ".join(
            f"{name}={'?' if r.value is None else r.value}" for name, r in results.items()
        ),
    ]
    payload = {"graph": args.graph, "results": {}}
    for name, r in results.items():
        lines.append(
            f"{name} bounds=[{r.lower_bound},{r.upper_bound}] "
            f"tested={r.colorings_tested} complete={_bool(r.complete)}"
        )
        payload["results"][name] = {
            "value": r.value,
            "lower": r.lower_bound,
            "upper": r.upper_bound,
            "tested": r.colorings_tested,
            "complete": r.complete,
        }
    if args.witness_out:
        witness = results[mode].witness
        if witness is not None:
            Path(args.witness_out).write_text(serialize_coloring(witness))
            lines.append(f"wrote {args.witness_out}")
            payload["wrote"] = [args.witness_out]
    code = 0 if all(r.complete for r in results.values()) else 3
    return code, lines, payload


def _cmd_scan(args):
    n = args.n
    if n < 1:
        raise _UsageError("--n must be at least 1")
    if args.max_edges < 0:
        raise _UsageError("--max-edges must be non-negative")
    graphs = [g for g in all_connected_graphs(n) if g.edge_count > 0]
    records = conjecture_scan(graphs, max_edges=args.max_edges)
    lines = []
    payload_records = []
    budget = counterexamples = equal = 0
    for rec in records:
        edges = ",".join(f"{u}-{v}" for u, v in rec.graph.edges)
        rd = rec.rd.value if rec.rd.value is not None else "?"
        srd = rec.srd.value if rec.srd.value is not None else "?"
        if rec.equal is None:
            flag = "budget"
            budget += 1
        elif rec.equal:
            flag = "equal"
            equal += 1
        else:
            flag = "COUNTEREXAMPLE"
            counterexamples += 1
        lines.append(f"{edges} rd={rd} srd={srd} {flag}")
        payload_records.append(
            {"edges": edges, "rd": rec.rd.value, "srd": rec.srd.value, "flag": flag}
        )
    lines.append(
        f"summary graphs={len(records)} equal={equal} "
        f"budget={budget} counterexamples={counterexamples}"
    )
    payload = {
        "n": n,
        "records": payload_records,
        "summary": {
            "graphs": len(records),
            "equal": equal,
            "budget": budget,
            "counterexamples": counterexamples,
        },
    }
    if counterexamples:
        code = 1
    elif budget:
        code = 3
    else:
        code = 0
    if args.out:
        header = f"# srdkit scan seed={args.seed}"
        Path(args.out).write_text("\n".join([header, *lines]) + "\n")
    return code, lines, payload


def _cmd_reduce(args):
    if args.node_budget < 1:
        raise _UsageError("--node-budget must be positive")
    phi = parse_dimacs_cnf(_read(args.cnf))
    inst = build_reduction(phi)
    g = inst.graph
    prefix = args.out_prefix
    if prefix is None:
        stem = Path(args.cnf)
        prefix = str(stem.with_suffix("")) if stem.suffix else str(stem) + "-out"

    role_lines = [
        f"vertex {v} {inst.vertex_roles[v]}" for v in range(g.vertex_count)
    ]
    role_lines += [
        f"color {c} {inst.color_roles[c]}" for c in sorted(inst.color_roles)
    ]
    outputs = {
        f"{prefix}.graph": serialize_graph(g),
        f"{prefix}.colors": serialize_coloring(inst.coloring),
        f"{prefix}.roles": "\n".join(role_lines) + "\n",
    }
    if os.path.abspath(args.cnf) in map(os.path.abspath, outputs):  # no filesystem call
        raise _UsageError(f"an output file would overwrite the CNF file {args.cnf}")

    lines = [
        f"formula vars={phi.variable_count} clauses={phi.num_clauses}",
        f"instance n={g.vertex_count} m={g.edge_count} s={inst.s} t={inst.t} "
        f"lambda={6 * inst.m} colors={inst.coloring.num_colors}",
    ]
    lines += [f"wrote {path}" for path in outputs]
    payload = {
        "cnf": args.cnf,
        "vars": phi.variable_count,
        "clauses": phi.num_clauses,
        "n": g.vertex_count,
        "m": g.edge_count,
        "s": inst.s,
        "t": inst.t,
        "lambda": 6 * inst.m,
        "colors": inst.coloring.num_colors,
        "wrote": list(outputs),
        "check": None,
    }
    code = 0
    if args.check:
        rep = check_equivalence(inst, node_budget=args.node_budget)
        if rep.consistent is None:
            lines.append("check inconclusive (node budget exhausted)")
            code = 3
        elif rep.consistent:
            lines.append(
                f"check consistent satisfiable={_bool(rep.satisfiable)} "
                f"cut-found={_bool(rep.cut_found)}"
            )
        else:
            lines.append("check INCONSISTENT: " + rep.detail)
            code = 1
        payload["check"] = {
            "consistent": rep.consistent,
            "satisfiable": rep.satisfiable,
            "cut_found": rep.cut_found,
            "detail": rep.detail,
        }
    # written only now, so a check that stops on an error leaves no files
    for path, text in outputs.items():
        Path(path).write_text(text)
    return code, lines, payload


def _cmd_export_dot(args):
    g = _load_graph(args.graph)
    coloring = None
    if args.coloring:
        coloring = parse_coloring(_read(args.coloring), g.edge_count)
    vertex_labels = color_labels = None
    if args.roles:
        vertex_labels, color_labels = {}, {}
        for lineno, raw in enumerate(_read(args.roles).splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                if (
                    len(parts) != 3
                    or parts[0] not in ("vertex", "color")
                    or not parts[1].isdecimal()
                ):
                    raise ValueError
                key = _int(parts[1])  # also ValueError past int()'s digit limit
            except ValueError:
                raise _UsageError(f"bad roles line {lineno}: {raw!r}") from None
            table = vertex_labels if parts[0] == "vertex" else color_labels
            table[key] = parts[2]
    text = export_dot(
        g, coloring, vertex_labels=vertex_labels, color_labels=color_labels
    )
    return 0, text.splitlines(), {"graph": args.graph, "dot": text}


_HANDLERS = {
    "lambda": _cmd_lambda,
    "blocks": _cmd_blocks,
    "color": _cmd_color,
    "verify": _cmd_verify,
    "solve": _cmd_solve,
    "scan": _cmd_scan,
    "reduce-3sat": _cmd_reduce,
    "export-dot": _cmd_export_dot,
}


def run(argv) -> tuple:
    """Execute one CLI invocation; returns (exit code, report text)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage or help
        return (0 if exc.code in (0, None) else 2), ""

    if args.jobs < 1:
        return 2, "error: --jobs must be at least 1\n"

    try:
        code, lines, payload = _HANDLERS[args.command](args)
    except _UsageError as exc:
        return 2, f"error: {exc}\n"
    except BudgetExceededError as exc:
        return 3, f"error: {exc}\n"
    except (SrdKitError, OSError) as exc:
        return 2, f"error: {exc}\n"
    except Exception as exc:
        # a crash is not a verdict: exit 4, traceback on stderr
        traceback.print_exc()
        return 4, f"error: internal error: {type(exc).__name__}: {exc}\n"

    if args.json:
        body = {"command": args.command, "seed": args.seed, **payload}
        return code, json.dumps(body, sort_keys=True, indent=2) + "\n"
    comment = "//" if args.command == "export-dot" else "#"
    header = f"{comment} srdkit {args.command} seed={args.seed}"
    return code, "\n".join([header, *lines]) + "\n"


def main(argv=None) -> int:
    code, text = run(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
