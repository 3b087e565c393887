"""Record bench/reference.json: the inputs of the seeded workloads in their
canonical labelling, with the answers srdkit gives for them.

    python3 bench/make_reference.py

The benchmark relabels these inputs per seed and requires the same answers
(rd and srd values do not change under relabelling; satisfiability does not
change under renaming variables or reordering clauses).  Run this only to
extend the inputs: the answers in the committed file are the gate every
later version of srdkit is held to.  It takes about 10 s.
"""

from __future__ import annotations

import json
import sys
from itertools import product
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import srdkit  # noqa: E402

EXACT_MAX_EDGES = 11
REFUTE_MAX_EDGES = 15


def _canonical_form(clauses):
    """Sort literals and clauses, rename variables by first appearance and
    flip signs so that each variable first occurs positive."""
    cl = sorted(tuple(sorted(c, key=lambda l: (abs(l), l < 0))) for c in clauses)
    order, flip = {}, {}
    for clause in cl:
        for lit in clause:
            v = abs(lit)
            if v not in order:
                order[v] = len(order) + 1
                flip[v] = 1 if lit > 0 else -1
    out = sorted(
        tuple(sorted(flip[abs(l)] * (1 if l > 0 else -1) * order[abs(l)] for l in c))
        for c in cl
    )
    return len(order), tuple(out)


def exhaustive_family():
    """All 3-literal-clause formulas with at most 3 variables and at most 2
    clauses, up to renaming, sign flips and literal or clause order (236)."""
    lits = [l for v in (1, 2, 3) for l in (v, -v)]
    raw = list(product(lits, repeat=3))
    family = {_canonical_form([c]) for c in raw}
    family.update(_canonical_form([c1, c2]) for c1 in raw for c2 in raw)
    return sorted(family)


def main() -> int:
    exact = []
    for g in srdkit.all_connected_graphs(6):
        rd = srdkit.rd_number(g, max_edges=EXACT_MAX_EDGES)
        srd = srdkit.srd_number(g, max_edges=EXACT_MAX_EDGES)
        exact.append(
            {
                "edges": [list(e) for e in g.edges],
                "rd": rd.value,
                "srd": srd.value,
                "exit": 0 if rd.complete and srd.complete else 3,
            }
        )
    refute = []
    twelve = (g for g in srdkit.all_connected_graphs(6) if g.edge_count == 12)
    for i, g in enumerate(twelve):
        res = srdkit.srd_number(g, max_edges=REFUTE_MAX_EDGES)
        refute.append(
            {
                "name": f"six-12-{i}",
                "n": g.vertex_count,
                "edges": [list(e) for e in g.edges],
                "srd": res.value,
            }
        )
    reduce = []
    for n, clauses in exhaustive_family():
        phi = srdkit.CnfFormula(n, clauses)
        reduce.append(
            {
                "vars": n,
                "clauses": [list(c) for c in clauses],
                "satisfiable": srdkit.sat_brute_force(phi) is not None,
            }
        )
    reference = {
        "srdkit_version": srdkit.__version__,
        "exact_search": exact,
        "srd_refute": refute,
        "petersen": {"n": 10, "edges": [list(e) for e in srdkit.petersen_graph().edges]},
        "reduce_check": reduce,
    }
    text = json.dumps(reference, separators=(",", ":"))
    (BENCH / "reference.json").write_text(text.replace("},{", "},\n{") + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
