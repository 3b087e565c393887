"""Span tracing of srdkit's public functions, from outside the program.

The tracer replaces every public plain function of the traced modules with
a wrapper, both as the module attribute and under every name another srdkit
module imported it as, so calls between layers pass through the wrappers
too.  Each call records a span (name, start, end, parent) in flat arrays
kept in memory; ``write_spans`` dumps them when the run ends.  Self time
(duration minus the time covered by child spans) and the per-layer
counters are accumulated as the spans close.

A wrapper's own bookkeeping (span arrays, stack, counters) runs outside the
span it records.  It is measured with two more clock readings per call and
taken out of the caller's self time: ``wrapper_s`` books it to the module
that made the call.  What is left in a caller's self time is the Python
call of the wrapper itself, before its first clock reading and after its
last.

Generator functions are left alone: a wrapper would time only the creation
of the generator, and none of them run inside the benchmark's workloads.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter

TRACED_MODULES = ("cli", "solver", "verifier", "connectivity", "colorings", "reduction", "graph")

# Function groups whose outermost calls are counted and timed inclusively:
# a call made inside another call of the same group (count_min_cuts calling
# enumerate_min_cuts, color_general_upper calling color_tree) is part of the
# outer call and is not counted again.
GROUPS = {
    "solver.solve": ("srd_number", "rd_number", "srd_by_blocks", "conjecture_scan"),
    "verifier.verify": ("is_srd_coloring", "is_rd_coloring"),
    "verifier.pair": ("find_rainbow_min_cut", "find_rainbow_cut"),
    "connectivity.flow": ("local_edge_connectivity", "min_edge_cut"),
    "connectivity.enum": ("enumerate_min_cuts", "count_min_cuts"),
    "connectivity.allpairs": ("upper_edge_connectivity", "edge_connectivity"),
    "colorings.construct": (
        "color_tree",
        "color_cactus",
        "color_complete",
        "color_complete_multipartite",
        "color_grid",
        "color_regular",
        "color_general_upper",
        "color_by_blocks",
    ),
    "reduction.check": ("check_equivalence", "check_equivalence_batch"),
    "reduction.build": ("build_reduction",),
    "reduction.oracle": ("sat_brute_force",),
    "reduction.extract": ("extract_assignment",),
    "graph.parse": ("parse_graph",),
    "graph.connected": ("is_connected",),
}
_GROUP_OF = {fn: group for group, fns in GROUPS.items() for fn in fns}


class Tracer:
    """Installs span-recording wrappers on srdkit and undoes them on close."""

    def __init__(self, package):
        self.package = package
        self.modules = {name: getattr(package, name) for name in TRACED_MODULES}
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_time: Counter = Counter()  # module -> seconds
        self.wrapper_time: Counter = Counter()  # module of the caller -> seconds
        self.group_calls: Counter = Counter()
        self.group_time: Counter = Counter()  # inclusive, outermost calls only
        self.counts: Counter = Counter()
        # [span index, child seconds, module] per open span
        self._stack: list[list] = []
        self._group_depth: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ install

    def install(self):
        replaced = {}
        for mod_name, mod in self.modules.items():
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                replaced[fn] = self._wrap(fn, mod_name, attr)
        srdkit_modules = [
            m
            for name, m in sys.modules.items()
            if m is not None
            and (name == self.package.__name__ or name.startswith(self.package.__name__ + "."))
        ]
        for mod in srdkit_modules:
            for attr, value in list(vars(mod).items()):
                wrapper = replaced.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        return self

    def close(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------ wrapping

    def _wrap(self, fn, mod_name, attr):
        name_id = len(self.names)
        self.names.append(f"{mod_name}.{attr}")
        group = _GROUP_OF.get(attr)
        after = getattr(self, "_after_" + attr, None)
        # Where the caller passes no SearchStats, the wrapper supplies one so
        # that DFS nodes and enumerated cuts get counted.
        params = list(inspect.signature(fn).parameters)
        stats_index = params.index("stats") if "stats" in params else None
        new_stats = self.modules["verifier"].SearchStats
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        self_time, group_depth = self.self_time, self._group_depth
        wrapper_time = self.wrapper_time
        group_calls, group_time = self.group_calls, self.group_time
        counts = self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            entry = clock()
            injected = None
            if stats_index is not None and len(args) <= stats_index:
                if kwargs.get("stats") is None:
                    injected = kwargs["stats"] = new_stats()
            index = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1][0] if stack else -1)
            span_end.append(0.0)
            frame = [index, 0.0, mod_name]
            stack.append(frame)
            if group is not None:
                group_depth[group] += 1
            start = clock()
            span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span_end[index] = end
                duration = end - start
                self_time[mod_name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if group is not None:
                    group_depth[group] -= 1
                    if group_depth[group] == 0:
                        group_calls[group] += 1
                        group_time[group] += duration
            if injected is not None:
                counts["verifier.dfs_nodes"] += injected.nodes
                counts["verifier.cuts_enumerated"] += injected.enumerated
            if after is not None and (group is None or group_depth[group] == 0):
                after(result)
            if stack:
                # The parent's self time leaves out this wrapper's own
                # bookkeeping too; it is booked as wrapper time of the
                # parent's module instead.
                extra = clock() - entry - duration
                stack[-1][1] += extra
                wrapper_time[stack[-1][2]] += extra
            return result

        return functools.update_wrapper(wrapper, fn)

    # Counters read from return values.  Each runs after the outermost call
    # of its group, so nested calls of the same group are not counted twice.

    def _after_srd_number(self, result):
        self.counts["solver.candidates"] += result.colorings_tested
        self.counts["solver.budget_stops"] += not result.complete

    _after_rd_number = _after_srd_by_blocks = _after_srd_number

    def _after_find_rainbow_min_cut(self, result):
        self.counts["verifier.pair_found"] += result is not None

    _after_find_rainbow_cut = _after_find_rainbow_min_cut

    def _after_enumerate_min_cuts(self, result):
        self.counts["connectivity.cuts_listed"] += len(result)

    def _after_count_min_cuts(self, result):
        self.counts["connectivity.cuts_listed"] += result

    def _after_build_reduction(self, result):
        self.counts["reduction.instance_edges"] += result.graph.edge_count

    def _construct(self, result):
        coloring = result[1] if isinstance(result, tuple) else result
        self.counts["colorings.colors_used"] += coloring.num_colors

    _after_color_tree = _after_color_cactus = _after_color_complete = _construct
    _after_color_complete_multipartite = _after_color_grid = _construct
    _after_color_regular = _after_color_general_upper = _after_color_by_blocks = _construct

    # ------------------------------------------------------------------ results

    @property
    def span_count(self) -> int:
        return len(self.span_name)

    def layer_metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        calls, secs, counts = self.group_calls, self.group_time, self.counts
        solve_s = secs["solver.solve"]
        pairs = calls["verifier.pair"]
        out = {
            "cli.self_s": (self.self_time["cli"], "s"),
            "solver.calls": (calls["solver.solve"], "count"),
            "solver.self_s": (self.self_time["solver"], "s"),
            "solver.candidates": (counts["solver.candidates"], "count"),
            "solver.candidates_per_s": (
                counts["solver.candidates"] / solve_s if solve_s else 0.0,
                "1/s",
            ),
            "solver.budget_stops": (counts["solver.budget_stops"], "count"),
            "verifier.verify_calls": (calls["verifier.verify"], "count"),
            "verifier.pair_searches": (pairs, "count"),
            "verifier.self_s": (self.self_time["verifier"], "s"),
            "verifier.dfs_nodes": (counts["verifier.dfs_nodes"], "count"),
            "verifier.cuts_enumerated": (counts["verifier.cuts_enumerated"], "count"),
            "verifier.found_ratio": (
                counts["verifier.pair_found"] / pairs if pairs else 0.0,
                "ratio",
            ),
            "connectivity.flow_calls": (calls["connectivity.flow"], "count"),
            "connectivity.flow_s": (secs["connectivity.flow"], "s"),
            "connectivity.enum_calls": (calls["connectivity.enum"], "count"),
            "connectivity.enum_s": (secs["connectivity.enum"], "s"),
            "connectivity.cuts_listed": (counts["connectivity.cuts_listed"], "count"),
            "connectivity.allpairs_calls": (calls["connectivity.allpairs"], "count"),
            "connectivity.allpairs_s": (secs["connectivity.allpairs"], "s"),
            "connectivity.self_s": (self.self_time["connectivity"], "s"),
            "colorings.construct_calls": (calls["colorings.construct"], "count"),
            "colorings.construct_s": (secs["colorings.construct"], "s"),
            "colorings.colors_used": (counts["colorings.colors_used"], "count"),
            "colorings.self_s": (self.self_time["colorings"], "s"),
            "reduction.check_calls": (calls["reduction.check"], "count"),
            "reduction.build_s": (secs["reduction.build"], "s"),
            "reduction.instance_edges": (counts["reduction.instance_edges"], "count"),
            "reduction.oracle_s": (secs["reduction.oracle"], "s"),
            "reduction.extract_s": (secs["reduction.extract"], "s"),
            "reduction.self_s": (self.self_time["reduction"], "s"),
            "graph.parse_s": (secs["graph.parse"], "s"),
            "graph.connected_s": (secs["graph.connected"], "s"),
            "graph.self_s": (self.self_time["graph"], "s"),
        }
        for module in TRACED_MODULES:
            out[f"trace.{module}.wrapper_s"] = (self.wrapper_time[module], "s")
        return out

    def exact_counters(self) -> dict:
        """The counts that must repeat exactly for the same code and inputs."""
        return {
            "solver.candidates": self.counts["solver.candidates"],
            "verifier.dfs_nodes": self.counts["verifier.dfs_nodes"],
            "verifier.pair_searches": self.group_calls["verifier.pair"],
            "connectivity.flow_calls": self.group_calls["connectivity.flow"],
            "connectivity.cuts_listed": self.counts["connectivity.cuts_listed"],
            "colorings.colors_used": self.counts["colorings.colors_used"],
            "reduction.instance_edges": self.counts["reduction.instance_edges"],
            "spans": self.span_count,
        }

    def write_spans(self, path):
        """Spans as a JSON header (names, count) followed by the four raw
        arrays in native byte order: name id (int32), parent span index
        (int64, -1 for a root), start and end (float64 perf_counter
        seconds)."""
        header = json.dumps(
            {
                "names": self.names,
                "spans": self.span_count,
                "arrays": [
                    ["name", self.span_name.typecode, self.span_name.itemsize],
                    ["parent", self.span_parent.typecode, self.span_parent.itemsize],
                    ["start", "d", 8],
                    ["end", "d", 8],
                ],
                "byteorder": sys.byteorder,
            }
        ).encode()
        with open(path, "wb") as fh:
            fh.write(header + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
