"""3-SAT instances as rainbow-min-cut questions.

For a 3-CNF formula the builder emits an edge-colored graph with
terminals s and t whose minimum s-t cuts have size 6m (m clauses), such
that a *rainbow* minimum s-t cut exists exactly when the formula is
satisfiable.  Each variable occurrence contributes a two-path gadget
whose four edges share one private color (so a rainbow cut can block only
one side: the chosen truth value), and each clause contributes three
entry/exit paths whose exit edges share just two colors, so at most two
of the three literals can be false.  A large uniformly-colored clique
pads the t side to pin the minimum cut value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .colorings import EdgeColoring
from .errors import BudgetExceededError, ExtractionError, ReductionError
from .graph import Graph, _bfs, _int, _open_arcs
from .verifier import find_rainbow_min_cut, is_rainbow

DEFAULT_NODE_BUDGET = 2_000_000


@dataclass(frozen=True)
class CnfFormula:
    """A 3-CNF formula: clauses of exactly three signed 1-based variable
    indexes (DIMACS convention, -2 means "not x2")."""

    variable_count: int
    clauses: tuple

    def __post_init__(self):
        if self.variable_count < 1:
            raise ReductionError("formula needs at least one variable")
        if not self.clauses:
            raise ReductionError("formula needs at least one clause")
        for clause in self.clauses:
            if len(clause) != 3:
                raise ReductionError(f"clause {clause} does not have 3 literals")
            for lit in clause:
                if lit == 0 or abs(lit) > self.variable_count:
                    raise ReductionError(f"literal {lit} out of range in {clause}")

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def occurrences(self) -> tuple:
        """How often each variable appears, counted per literal slot."""
        counts = [0] * self.variable_count
        for clause in self.clauses:
            for lit in clause:
                counts[abs(lit) - 1] += 1
        return tuple(counts)

    def evaluate(self, assignment) -> bool:
        """True when every clause has a satisfied literal; assignment[j-1]
        is the value of variable j."""
        return all(
            any(assignment[abs(lit) - 1] == (lit > 0) for lit in clause)
            for clause in self.clauses
        )


def parse_dimacs_cnf(text: str) -> CnfFormula:
    """Standard DIMACS CNF restricted to 3-literal clauses."""
    header = None
    tokens = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise ReductionError("duplicate DIMACS header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ReductionError(f"malformed header: {line!r}")
            try:
                header = (_int(parts[2]), _int(parts[3]))
            except ValueError:
                raise ReductionError(f"malformed header: {line!r}") from None
            continue
        tokens.extend(line.split())
    if header is None:
        raise ReductionError("missing 'p cnf' header")
    n, m = header

    clauses = []
    current = []
    for tok in tokens:
        try:
            lit = _int(tok)
        except ValueError:
            raise ReductionError(f"non-integer token {tok!r}") from None
        if lit == 0:
            if len(current) != 3:
                raise ReductionError(
                    f"clause {tuple(current)} has {len(current)} literals, need 3"
                )
            clauses.append(tuple(current))
            current = []
        else:
            current.append(lit)
    if current:
        raise ReductionError("trailing literals without a terminating 0")
    if len(clauses) != m:
        raise ReductionError(f"header promises {m} clauses, found {len(clauses)}")
    formula = CnfFormula(n, tuple(clauses))
    return formula


class ReductionInstance:
    """The gadget graph for ``phi``, as build_reduction returns it.

    ``graph``, ``coloring``, the terminals ``s`` and ``t``, the clause count
    ``m``, ``vertex_roles`` (vertex id -> "s" | "t" | "x[j,b]" | "c[i,k]" |
    "p[j,l]" | "q[j,l]" | "y[a]"), ``color_roles`` (color -> "r0[j,l]" |
    "r[i,k]" | "r_0") and ``formula``.  The ids cut_from_assignment and
    extract_assignment name afterwards ride along: ``ell`` (occurrences per
    variable), ``slots`` (clause i, position k -> (variable j, positive,
    occurrence l)), the value vertices ``x`` and the edge maps ``sp``,
    ``sq``, ``entry``, ``middle`` and ``exit``.  Ids are deterministic.
    """

    def __init__(self, phi: CnfFormula):
        n, m = phi.variable_count, phi.num_clauses
        ell = phi.occurrences()
        for j, count in enumerate(ell, start=1):
            if count == 0:
                raise ReductionError(
                    f"variable x{j} never occurs; its gadget would be degenerate"
                )
        self.formula, self.m, self.ell = phi, m, ell

        seen = [0] * (n + 1)
        self.slots = []
        for clause in phi.clauses:
            row = []
            for lit in clause:
                j = abs(lit)
                seen[j] += 1
                row.append((j, lit > 0, seen[j]))
            self.slots.append(tuple(row))

        self.s, self.t = 0, 1
        vertex_roles = ["s", "t"]

        def new_vertex(role):
            vertex_roles.append(role)
            return len(vertex_roles) - 1

        self.x = {
            (j, b): new_vertex(f"x[{j},{b}]") for j in range(1, n + 1) for b in (0, 1)
        }
        c = {
            (i, k): new_vertex(f"c[{i},{k}]") for i in range(1, m + 1) for k in range(4)
        }
        p, q = {}, {}
        for j in range(1, n + 1):
            for l in range(1, ell[j - 1] + 1):
                p[(j, l)] = new_vertex(f"p[{j},{l}]")
                q[(j, l)] = new_vertex(f"q[{j},{l}]")
        pad = [new_vertex(f"y[{a}]") for a in range(1, 5 * m + 2)]

        color_roles = []

        def new_color(role):
            color_roles.append(role)
            return len(color_roles)

        edges, colors = [], []

        def add(a, b, color):
            edges.append((a, b))
            colors.append(color)
            return len(edges) - 1

        # variable gadgets: both s-x paths of every occurrence share one
        # color; these colors r0[j,l] come first, the clause colors after
        self.sp, self.sq = {}, {}
        for (j, l), pv in p.items():
            shade = new_color(f"r0[{j},{l}]")
            self.sp[(j, l)] = add(self.s, pv, shade)
            add(pv, self.x[(j, 0)], shade)
            self.sq[(j, l)] = add(self.s, q[(j, l)], shade)
            add(q[(j, l)], self.x[(j, 1)], shade)

        r = {}
        for i in range(1, m + 1):
            for k in (1, 2, 3):
                r[(i, k)] = new_color(f"r[{i},{k}]")
        for k in (4, 5):
            for i in range(1, m + 1):
                r[(i, k)] = new_color(f"r[{i},{k}]")
        plain = new_color("r_0")

        # clause gadgets: entry into the hub from the literal's false-side
        # vertex, satellite path back to the true-side vertex
        self.entry, self.middle, self.exit = {}, {}, {}
        for i, row in enumerate(self.slots, start=1):
            hub = c[(i, 0)]
            for k, (j, positive, _l) in enumerate(row, start=1):
                near = self.x[(j, 0)] if positive else self.x[(j, 1)]
                far = self.x[(j, 1)] if positive else self.x[(j, 0)]
                self.entry[(i, k)] = add(near, hub, r[(i, k)])
                self.middle[(i, k)] = add(hub, c[(i, k)], r[(i, 5)])
                self.exit[(i, k)] = add(c[(i, k)], far, r[(i, 4)])

        # t-side clique on the hubs, the padding vertices and t itself
        members = [c[(i, 0)] for i in range(1, m + 1)] + pad + [self.t]
        for a, b in itertools.combinations(members, 2):
            add(a, b, plain)

        self.vertex_roles = dict(enumerate(vertex_roles))
        self.color_roles = dict(enumerate(color_roles, start=1))
        self.graph = Graph(len(vertex_roles), edges)
        self.coloring = EdgeColoring(tuple(colors))


def build_reduction(phi: CnfFormula) -> ReductionInstance:
    """The gadget graph, its coloring and the terminal pair for ``phi``.

    Raises ReductionError when some variable never occurs (its gadget
    would leave the truth value unconstrained and the cut size wrong).
    It runs no max flow: λ(s, t) = 6m holds by construction, and the cut
    search of ``check_equivalence`` runs the one flow it needs.
    """
    return ReductionInstance(phi)


def sat_brute_force(phi: CnfFormula):
    """First satisfying assignment in binary counting order (x1 is the
    low bit), or None.  Exhaustive, so past 20 variables it raises
    BudgetExceededError."""
    n = phi.variable_count
    if n > 20:
        raise BudgetExceededError(f"{n} variables is past the brute-force cap of 20")
    for mask in range(1 << n):
        assignment = tuple(bool(mask >> j & 1) for j in range(n))
        if phi.evaluate(assignment):
            return assignment
    return None


def cut_from_assignment(inst: ReductionInstance, assignment) -> frozenset:
    """The rainbow minimum s-t cut a satisfying assignment prescribes.

    Block the s-side of the false truth value for every variable (one
    edge per occurrence color), cut every true literal's hub entry on its
    private color, and spend the two shared exit colors on the at most
    two false literals per clause.
    """
    n = inst.formula.variable_count
    if len(assignment) != n:
        raise ReductionError("assignment length does not match variable count")
    if not inst.formula.evaluate(assignment):
        raise ReductionError("assignment does not satisfy the formula")
    cut = []
    for j in range(1, n + 1):
        side = inst.sq if assignment[j - 1] else inst.sp
        cut.extend(side[(j, l)] for l in range(1, inst.ell[j - 1] + 1))
    for i, row in enumerate(inst.slots, start=1):
        false_ks = [
            k
            for k, (j, positive, _l) in enumerate(row, start=1)
            if assignment[j - 1] != positive
        ]
        for k, (j, positive, _l) in enumerate(row, start=1):
            if k not in false_ks:
                cut.append(inst.entry[(i, k)])
        if false_ks:
            cut.append(inst.exit[(i, false_ks[0])])
        if len(false_ks) > 1:
            cut.append(inst.middle[(i, false_ks[1])])
    return frozenset(cut)


def extract_assignment(inst: ReductionInstance, cut) -> tuple:
    """Read a satisfying assignment off a rainbow minimum s-t cut.

    A variable whose false-value vertex is severed from s takes that
    value.  A variable with both sides still reachable is genuinely
    unconstrained (its occurrences were cut at both the hub entry and the
    exit path instead): any value works because each clause can afford at
    most two exit-colored edges, forcing a decided true literal; False is
    used.  Both sides severed would need two same-colored edges and
    signals the cut was not rainbow-minimum after all.
    """
    cut = frozenset(cut)
    if len(cut) != 6 * inst.m:
        raise ExtractionError(f"cut has {len(cut)} edges, expected {6 * inst.m}")
    if not is_rainbow(inst.coloring, cut):
        raise ExtractionError("cut repeats a color")

    reachable = _bfs(inst.graph, inst.s, _open_arcs(inst.graph, cut))
    if reachable[inst.t] is not None:
        raise ExtractionError("edge set does not separate s from t")

    assignment = []
    for j in range(1, inst.formula.variable_count + 1):
        zero_side = reachable[inst.x[(j, 0)]] is not None
        one_side = reachable[inst.x[(j, 1)]] is not None
        if not zero_side and not one_side:
            raise ExtractionError(
                f"both value vertices of x{j} are severed; "
                "such a cut cannot be rainbow"
            )
        assignment.append(zero_side and not one_side)
    assignment = tuple(assignment)
    if not inst.formula.evaluate(assignment):
        raise ExtractionError("extracted assignment fails the formula")
    return assignment


@dataclass(frozen=True)
class EquivalenceReport:
    """Agreement between the SAT oracle and the rainbow-cut search.

    ``consistent`` is None when the cut search ran out of budget: that is
    an inconclusive run, never a verdict.
    """

    consistent: bool | None
    satisfiable: bool
    cut_found: bool | None
    assignment: tuple | None
    detail: str


def check_equivalence(
    inst: ReductionInstance, node_budget: int = DEFAULT_NODE_BUDGET
) -> EquivalenceReport:
    """Run the SAT oracle on ``inst.formula`` and the rainbow-cut search
    on ``inst``, as build_reduction made it, and compare.

    The cut search is the verifier's exhaustive walk search, which never
    lists the minimum cuts: the clique makes their number astronomically
    large.  Its candidates stop at the sink side of its flow, which holds t,
    the clique and the hubs, and ``node_budget`` counts its states.  On
    agreement with a satisfiable formula the witness cut is round-tripped
    through extract_assignment.
    """
    model = sat_brute_force(inst.formula)
    try:
        cert = find_rainbow_min_cut(
            inst.graph, inst.coloring, inst.s, inst.t, node_budget=node_budget
        )
    except BudgetExceededError as exc:
        return EquivalenceReport(
            consistent=None,
            satisfiable=model is not None,
            cut_found=None,
            assignment=None,
            detail=str(exc),
        )
    satisfiable = model is not None
    cut_found = cert is not None
    if satisfiable != cut_found:
        return EquivalenceReport(
            consistent=False,
            satisfiable=satisfiable,
            cut_found=cut_found,
            assignment=None,
            detail="oracles disagree: rainbow cut and satisfiability differ",
        )
    assignment = None
    if cut_found:
        assignment = extract_assignment(inst, cert.cut)
    return EquivalenceReport(
        consistent=True,
        satisfiable=satisfiable,
        cut_found=cut_found,
        assignment=assignment,
        detail="",
    )
