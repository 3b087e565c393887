"""The benchmark's four workloads: seeded input files, the CLI invocations
that use them, and the check of each answer against bench/reference.json.

Every workload is a fixed list of items; an item is one ``srdkit`` command
line, run in-process through ``srdkit.cli.run`` with ``--jobs 1``.  The seed
only relabels or generates inputs, and the program sees only the files.

Relabelling keeps the edge order of each graph file.  The canonical search
walks colorings over edge positions, so a seed mostly moves the order in
which the verifier visits vertex pairs, and with it the verifier's DFS
nodes and flow calls.  It can also move a construction's upper bound: with
seed 4, graph g073 of exact-search gets the bound 3 instead of 4 and needs
no search, so one relabelling of every graph tests 81,228 candidates where
seeds 1, 2, 3 and 5 test 86,670, and visits 324,000 DFS nodes against
363,000 to 378,000.  To even out such differences, an untraced run uses
three variants of each seeded input (``copies`` of ``build``).
Shuffling the edges too would move the point where the search stops: one
pass of exact-search then takes from 9 s to 130 s depending on the seed
(2-core x86 machine).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("exact-search", "srd-refute", "verify-families", "reduce-check")

# Families generated by the CLI itself: (item label, color arguments).
_GENERATED_FAMILIES = (
    [(f"K{n}", ["--family", "complete", "--n", str(n)]) for n in (8, 12, 16, 20, 24)]
    + [
        (f"multi{s.replace(',', '-')}", ["--family", "multipartite", "--sizes", s])
        for s in ("2,3,4", "3,3,3,3", "2,2,2,2,2", "1,1,4,5")
    ]
    + [
        (f"grid{r}x{c}", ["--family", "grid", "--rows", str(r), "--cols", str(c)])
        for r, c in ((4, 5), (6, 6), (8, 8))
    ]
)
_TREE_ORDERS = (12, 30)
_GENERAL_SIZES = ((8, 12), (10, 16), (12, 20), (14, 22))


@dataclass(frozen=True)
class Item:
    """One CLI invocation and the answer it must give.

    ``check(code, text)`` returns None for a correct answer, else the
    reason it is wrong.  ``budget`` marks an item whose correct answer is a
    budget verdict (exit 3).
    """

    name: str
    argv: tuple
    check: Callable[[int, str], str | None]
    budget: bool = False


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def build(workload: str, seed: int, workdir: Path, reference: dict, copies: int = 1) -> list:
    """The workload's items, with their input files written to workdir.

    Each seeded input comes in ``copies`` variants, one block per variant
    (names end in -r<block>); the first block is the same for every number
    of copies.
    """
    rng = random.Random(f"{workload}/{seed}")
    if workload == "exact-search":
        return _exact_search(rng, workdir, reference["exact_search"], copies)
    if workload == "srd-refute":
        return _srd_refute(rng, workdir, reference["srd_refute"])
    if workload == "verify-families":
        return _verify_families(rng, workdir, reference["petersen"], copies)
    if workload == "reduce-check":
        return _reduce_check(rng, workdir, reference["reduce_check"], copies)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# input files


def _write_graph(path: Path, n: int, edges) -> str:
    path.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    return str(path)


def _relabel(rng, n: int, edges) -> list:
    """Endpoints renamed by a seeded permutation; edge order kept."""
    perm = rng.sample(range(n), n)
    return [tuple(sorted((perm[u], perm[v]))) for u, v in edges]


def _random_tree(rng, n: int) -> list:
    return [(rng.randrange(v), v) for v in range(1, n)]


def _random_connected(rng, n: int, m: int) -> list:
    """A random spanning tree plus random extra edges, m simple edges."""
    edges = {tuple(sorted(e)) for e in _random_tree(rng, n)}
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return sorted(edges)


# ---------------------------------------------------------------------------
# answer checks


def _expect_line(index: int, want: str):
    def check(code, text):
        lines = text.splitlines()
        got = lines[index] if len(lines) > index else "<missing>"
        return None if got == want else f"line {index} is {got!r}, want {want!r}"

    return check


def _expect(code_want: int, check_text):
    def check(code, text):
        if code != code_want:
            first = text.splitlines()[:1]
            return f"exit {code}, want {code_want} {first}"
        return check_text(code, text)

    return check


def _has_line(want: str):
    def check(code, text):
        return None if want in text.splitlines() else f"no line {want!r}"

    return check


def _colors_line(code, text):
    lines = text.splitlines()
    ok = len(lines) > 2 and lines[2].startswith("# n=") and " colors=" in lines[2]
    return None if ok else "no coloring summary line"


# ---------------------------------------------------------------------------
# workloads


def _exact_search(rng, workdir, graphs, copies: int) -> list:
    """solve --mode both --max-edges 11 on every connected 6-vertex graph,
    each under ``copies`` seeded relabellings."""
    items = []
    for r in range(copies):
        for i, rec in enumerate(graphs):
            edges = _relabel(rng, 6, rec["edges"])
            path = _write_graph(workdir / f"g{i:03d}-r{r}.txt", 6, edges)
            shown = ["?" if rec[k] is None else rec[k] for k in ("rd", "srd")]
            want = f"rd={shown[0]} srd={shown[1]}"
            items.append(
                Item(
                    name=f"exact-search/g{i:03d}-r{r}",
                    argv=("solve", path, "--mode", "both", "--max-edges", "11", "--jobs", "1"),
                    check=_expect(rec["exit"], _expect_line(2, want)),
                    budget=rec["exit"] == 3,
                )
            )
    return items


def _srd_refute(rng, workdir, graphs) -> list:
    """solve --mode srd --max-edges 15: every level below srd is refuted."""
    items = []
    for rec in graphs:
        edges = _relabel(rng, rec["n"], rec["edges"])
        path = _write_graph(workdir / f"{rec['name']}.txt", rec["n"], edges)
        items.append(
            Item(
                name=f"srd-refute/{rec['name']}",
                argv=("solve", path, "--mode", "srd", "--max-edges", "15", "--jobs", "1"),
                check=_expect(0, _expect_line(2, f"srd={rec['srd']}")),
            )
        )
    return items


def _verify_families(rng, workdir, petersen, copies: int) -> list:
    """color, then verify --mode srd and --mode rd: every verdict is true.
    The families the CLI generates come once; the seeded graphs (Petersen
    relabelled, random trees and connected graphs) in ``copies`` variants."""
    graphs = []  # (label, color arguments)
    for label, args in _GENERATED_FAMILIES:
        graphs.append((label, args + ["--graph-out", str(workdir / f"{label}.txt")]))
    inputs = []
    for r in range(copies):
        n = petersen["n"]
        inputs += [(f"petersen-r{r}", "regular", n, _relabel(rng, n, petersen["edges"]))]
        inputs += [(f"tree{n}-r{r}", "tree", n, _random_tree(rng, n)) for n in _TREE_ORDERS]
        inputs += [
            (f"general{n}-{m}-r{r}", "general", n, _random_connected(rng, n, m))
            for n, m in _GENERAL_SIZES
        ]
    for label, family, n, edges in inputs:
        path = _write_graph(workdir / f"{label}.txt", n, edges)
        graphs.append((label, ["--family", family, "--graph", path]))

    items = []
    for label, args in graphs:
        graph = str(workdir / f"{label}.txt")
        coloring = str(workdir / f"{label}.col")
        items.append(
            Item(
                name=f"verify-families/{label}/color",
                argv=("color", *args, "--out", coloring, "--jobs", "1"),
                check=_expect(0, _colors_line),
            )
        )
        for mode in ("srd", "rd"):
            items.append(
                Item(
                    name=f"verify-families/{label}/verify-{mode}",
                    argv=("verify", graph, coloring, "--mode", mode, "--jobs", "1"),
                    check=_expect(0, _has_line("verdict true")),
                )
            )
    return items


def _reduce_check(rng, workdir, formulas, copies: int) -> list:
    """reduce-3sat --check on the exhaustive small-formula family, each
    formula under ``copies`` seeded renamings and clause orders."""
    items = []
    for r in range(copies):
        for i, rec in enumerate(formulas):
            n = rec["vars"]
            perm = rng.sample(range(1, n + 1), n)
            clauses = [
                [perm[abs(l) - 1] * (1 if l > 0 else -1) for l in c] for c in rec["clauses"]
            ]
            rng.shuffle(clauses)
            path = workdir / f"f{i:03d}-r{r}.cnf"
            lines = [f"p cnf {n} {len(clauses)}"]
            lines += [" ".join(map(str, c)) + " 0" for c in clauses]
            path.write_text("\n".join(lines) + "\n")
            sat = "true" if rec["satisfiable"] else "false"
            want = f"check consistent satisfiable={sat} cut-found={sat}"
            items.append(
                Item(
                    name=f"reduce-check/f{i:03d}-r{r}",
                    argv=("reduce-3sat", str(path), "--check", "--jobs", "1"),
                    check=_expect(0, _has_line(want)),
                )
            )
    return items
