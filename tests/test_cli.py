"""End-to-end tests for the command-line interface.

Everything goes through ``srdkit.cli.run`` in-process, so exit codes and
report bytes are asserted directly without spawning an interpreter.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srdkit import (
    Graph,
    SrdKitError,
    all_connected_graphs,
    grid_graph,
    parse_coloring,
    parse_dimacs_cnf,
    parse_graph,
    petersen_graph,
    serialize_graph,
)
from srdkit import cli, connectivity, reduction, solver, verifier
from srdkit.cli import main, run
from srdkit.verifier import is_srd_coloring

K4 = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
PATH5 = "5 4\n0 1\n1 2\n2 3\n3 4\n"
BOWTIE = "5 6\n0 1\n1 2\n2 0\n2 3\n3 4\n4 2\n"
MULTI = "3 5\n0 1\n0 1\n1 2\n2 0\n1 2\n"
FIG_CNF = "c one clause\np cnf 3 1\n1 -2 3 0\n"


@pytest.fixture
def k4_file(tmp_path):
    p = tmp_path / "k4.txt"
    p.write_text(K4)
    return str(p)


@pytest.fixture
def path5_file(tmp_path):
    p = tmp_path / "p5.txt"
    p.write_text(PATH5)
    return str(p)


def _grid_reports(rows, cols) -> bytes:
    """The grid's coloring by ``color``, then ``verify`` in srd and rd mode,
    in text and with --json: each report after a "# <argv> exit <code>"
    line.  Runs in the current directory."""
    code, _ = run(
        ["color", "--family", "grid", "--rows", str(rows), "--cols", str(cols),
         "--graph-out", "grid.graph", "--out", "grid.col"]
    )
    assert code == 0
    chunks = []
    for mode in ("srd", "rd"):
        for extra in ([], ["--json"]):
            argv = ["verify", "grid.graph", "grid.col", "--mode", mode, *extra]
            code, text = run(argv)
            chunks.append(f"# {' '.join(argv)} exit {code}\n{text}")
    return "".join(chunks).encode()


class TestPlumbing:
    def test_help_exits_zero(self):
        code, _ = run(["--help"])
        assert code == 0

    def test_missing_subcommand_is_usage_error(self):
        code, _ = run([])
        assert code == 2

    def test_unknown_subcommand_is_usage_error(self):
        code, _ = run(["frobnicate"])
        assert code == 2

    def test_missing_file_is_exit_2(self, tmp_path):
        code, text = run(["solve", str(tmp_path / "absent.txt")])
        assert code == 2
        assert text.startswith("error:")

    def test_non_utf8_graph_is_exit_2(self, tmp_path):
        p = tmp_path / "bin.txt"
        p.write_bytes(b"\xff\xfe\x00")
        code, text = run(["lambda", str(p)])
        assert code == 2
        assert text.startswith("error:")
        assert "UTF-8" in text

    def test_non_utf8_coloring_is_exit_2(self, k4_file, tmp_path):
        p = tmp_path / "bin.txt"
        p.write_bytes(b"\xff\xfe\x00")
        code, text = run(["verify", k4_file, str(p)])
        assert code == 2
        assert text.startswith("error:")
        assert "UTF-8" in text

    def test_malformed_graph_is_exit_2(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2 1\n0 0\n")  # self-loop
        code, text = run(["lambda", str(p)])
        assert code == 2
        assert "error:" in text

    def test_byte_identical_reports(self, k4_file):
        first = run(["solve", "--mode", "both", k4_file])
        second = run(["solve", "--mode", "both", k4_file])
        assert first == second

    def test_seed_recorded_in_header(self, k4_file):
        _, text = run(["lambda", "--seed", "7", k4_file])
        assert text.splitlines()[0] == "# srdkit lambda seed=7"

    def test_main_prints_report(self, k4_file, capsys):
        code = main(["lambda", k4_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "lambda=3 lambda+=3" in out

    def test_jobs_env_default(self, k4_file, monkeypatch):
        monkeypatch.setenv("SRD_KIT_JOBS", "2")
        code, text = run(["solve", k4_file])
        assert code == 0
        assert "srd=3" in text

    def test_jobs_must_be_positive(self, k4_file):
        code, _ = run(["solve", "--jobs", "0", k4_file])
        assert code == 2

    def test_no_parsed_state_leaks_between_runs(self, k4_file):
        code, text = run(["solve", "--json", "--seed", "7", k4_file])
        assert code == 0 and json.loads(text)["seed"] == 7
        code, text = run(["lambda", k4_file])
        assert code == 0
        assert text.splitlines()[0] == "# srdkit lambda seed=0"
        assert "lambda=3 lambda+=3" in text

    def test_handler_crash_is_exit_4(self, k4_file, monkeypatch, capsys):
        def crash(cfg):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setitem(cli._HANDLERS, "lambda", crash)
        code, text = run(["lambda", k4_file])
        assert code == 4
        assert text == "error: internal error: RecursionError: maximum recursion depth exceeded\n"
        assert "Traceback" in capsys.readouterr().err


class TestLambdaAndBlocks:
    def test_lambda_summary(self, k4_file):
        code, text = run(["lambda", k4_file])
        assert code == 0
        assert "lambda=3 lambda+=3" in text

    def test_lambda_summary_runs_one_flow_per_tree_edge(self, k4_file):
        flow = connectivity._max_flow
        with mock.patch.object(connectivity, "_max_flow", wraps=flow) as spy:
            code, text = run(["lambda", k4_file])
        assert code == 0 and "lambda=3 lambda+=3" in text
        assert spy.call_count == 3

    def test_lambda_pair(self, k4_file):
        code, text = run(["lambda", k4_file, "--pair", "1", "3"])
        assert code == 0
        assert "lambda(1,3)=3" in text

    def test_lambda_pair_out_of_range(self, k4_file):
        code, _ = run(["lambda", k4_file, "--pair", "0", "9"])
        assert code == 2

    def test_blocks_report(self, tmp_path):
        p = tmp_path / "bowtie.txt"
        p.write_text(BOWTIE)
        code, text = run(["blocks", str(p)])
        assert code == 0
        lines = text.splitlines()
        assert "blocks=2 cut-vertices=1" in lines[2]
        assert "cut-vertex 2" in lines
        assert sum(1 for ln in lines if ln.startswith("block ")) == 2


class TestColor:
    def test_stdout_is_a_parseable_coloring(self, k4_file):
        code, text = run(["color", "--family", "general", "--graph", k4_file])
        assert code == 0
        c = parse_coloring(text, edge_count=6)
        assert is_srd_coloring(parse_graph(K4), c).verdict

    def test_tree_family_uses_one_color(self, path5_file):
        _, text = run(["color", "--family", "tree", "--graph", path5_file])
        assert parse_coloring(text).num_colors == 1

    @pytest.mark.parametrize(
        "argv, n, m",
        [
            (["--family", "complete", "--n", "5"], 5, 10),
            (["--family", "multipartite", "--sizes", "1,2,2"], 5, 8),
            (["--family", "grid", "--rows", "2", "--cols", "3"], 6, 7),
        ],
    )
    def test_generated_families_round_trip(self, tmp_path, argv, n, m):
        gout = tmp_path / "g.txt"
        cout = tmp_path / "c.txt"
        code, _ = run(
            ["color", *argv, "--graph-out", str(gout), "--out", str(cout)]
        )
        assert code == 0
        g = parse_graph(gout.read_text())
        assert (g.vertex_count, g.edge_count) == (n, m)
        vcode, vtext = run(["verify", str(gout), str(cout)])
        assert vcode == 0
        assert "verdict true" in vtext

    def test_long_cycle_regular_family(self, tmp_path):
        # the chromatic-index search once recursed once per edge
        p = tmp_path / "c1200.txt"
        edges = "".join(f"{v} {(v + 1) % 1200}\n" for v in range(1200))
        p.write_text("1200 1200\n" + edges)
        code, text = run(["color", "--family", "regular", "--graph", str(p)])
        assert code == 0
        assert parse_coloring(text, edge_count=1200).num_colors == 2

    def test_general_reports_are_the_recorded_ones(self, tmp_path, monkeypatch):
        # the general construction colors around the least nontrivial
        # minimum cut over all pairs, and most pairs' cut lists there come
        # from cuts listed for other pairs.  color_general.txt holds
        # "# <argv> exit <code>" and then the text report, coloring body
        # included, for seeded connected graphs on 8-14 vertices (a random
        # spanning tree plus distinct random edges) and for Petersen.
        monkeypatch.chdir(tmp_path)
        rng = random.Random(2020)
        graphs = []
        for n in (8, 10, 12, 14):
            for m in (n + n // 2, 2 * n):
                edges = {(rng.randrange(v), v) for v in range(1, n)}
                while len(edges) < m:
                    edges.add(tuple(sorted(rng.sample(range(n), 2))))
                graphs.append((f"g{n}-{m}.graph", Graph(n, sorted(edges))))
        graphs.append(("petersen.graph", petersen_graph()))
        chunks = []
        for name, g in graphs:
            Path(name).write_text(serialize_graph(g))
            argv = ["color", "--family", "general", "--graph", name]
            code, text = run(argv)
            chunks.append(f"# {' '.join(argv)} exit {code}\n{text}")
        recorded = (Path(__file__).parent / "color_general.txt").read_bytes()
        assert "".join(chunks).encode() == recorded

    @pytest.mark.parametrize(
        "text, m", [("2 1\n0 1\n", 1), ("2 3\n0 1\n1 0\n0 1\n", 3)]
    )
    def test_auto_on_two_vertices_colors_all_edges_apart(self, tmp_path, text, m):
        # K2, and a 3-fold parallel edge
        g = tmp_path / "g.txt"
        g.write_text(text)
        out = tmp_path / "c.txt"
        code, _ = run(
            ["color", "--family", "auto", "--graph", str(g), "--out", str(out)]
        )
        assert code == 0
        assert parse_coloring(out.read_text(), edge_count=m).num_colors == m
        for mode in ("srd", "rd"):
            vcode, vtext = run(["verify", "--mode", mode, str(g), str(out)])
            assert vcode == 0
            assert "verdict true" in vtext
        # general keeps its n >= 3 requirement
        code, text = run(["color", "--family", "general", "--graph", str(g)])
        assert code == 2
        assert "at least 3 vertices" in text

    def test_auto_on_two_unjoined_vertices_is_exit_2(self, tmp_path):
        g = tmp_path / "g.txt"
        g.write_text("2 0\n")
        code, text = run(["color", "--family", "auto", "--graph", str(g)])
        assert code == 2
        assert "connected" in text

    @pytest.mark.parametrize("text", ["0 0\n", "1 0\n"])
    def test_auto_below_two_vertices_says_what_auto_needs(self, tmp_path, text):
        g = tmp_path / "g.txt"
        g.write_text(text)
        code, report = run(["color", "--family", "auto", "--graph", str(g)])
        assert (code, report) == (
            2,
            "error: --family auto needs a connected graph on at least 2 vertices\n",
        )
        # general keeps its own n >= 3 message
        code, report = run(["color", "--family", "general", "--graph", str(g)])
        assert code == 2
        assert "at least 3 vertices" in report

    def test_family_without_graph_is_usage_error(self):
        code, text = run(["color", "--family", "cactus"])
        assert code == 2
        assert "--graph" in text

    def test_bad_sizes_is_usage_error(self):
        code, _ = run(["color", "--family", "multipartite", "--sizes", "a,b"])
        assert code == 2

    @pytest.mark.parametrize("sizes", ["1_1,2_2", "1,2_2", "1_0"])
    def test_sizes_with_digit_group_underscores_are_usage_errors(self, sizes):
        # int() reads "1_1,2_2" as parts 11 and 22
        code, text = run(["color", "--family", "multipartite", "--sizes", sizes])
        assert code == 2
        assert f"bad --sizes value {sizes!r}" in text

    def test_sizes_with_non_ascii_digits_are_usage_errors(self):
        # int() reads the Arabic-Indic digit "\u0662" as 2
        sizes = "\u0662,\u0662"
        code, text = run(["color", "--family", "multipartite", "--sizes", sizes])
        assert code == 2
        assert f"bad --sizes value {sizes!r}" in text


class TestVerify:
    def test_tree_all_one_color_passes(self, path5_file, tmp_path):
        c = tmp_path / "c.txt"
        c.write_text("colors 1\n1\n1\n1\n1\n")
        code, text = run(["verify", "--mode", "srd", path5_file, str(c)])
        assert code == 0
        assert "verdict true" in text
        # one certificate line per pair: "u v : size edgeIds..."
        certs = [ln for ln in text.splitlines() if " : " in ln]
        assert len(certs) == 10
        assert certs[0] == "0 1 : 1 0"

    def test_failing_pair_reported_on_exit_1(self, k4_file, tmp_path):
        c = tmp_path / "mono.txt"
        c.write_text("1\n1\n1\n1\n1\n1\n")
        code, text = run(["verify", k4_file, str(c)])
        assert code == 1
        assert "verdict false" in text
        assert "failing 0 1" in text

    def test_rd_mode(self, k4_file, tmp_path):
        c = tmp_path / "c.txt"
        c.write_text("1\n2\n3\n3\n2\n1\n")
        code, text = run(["verify", "--mode", "rd", k4_file, str(c)])
        assert code == 0
        assert "mode rd" in text

    @pytest.mark.parametrize("mode", ["srd", "rd"])
    def test_empty_graph_passes(self, tmp_path, mode):
        # no pair to check; the cut tree of no vertices has no cuts
        g, c = tmp_path / "g.txt", tmp_path / "c.txt"
        g.write_text("0 0\n")
        c.write_text("colors 0\n")
        code, text = run(["verify", "--mode", mode, str(g), str(c)])
        assert code == 0
        assert text.splitlines()[1:] == [f"graph {g} n=0 m=0", f"mode {mode}", "verdict true"]

    def test_rd_report_below_flowed_states_is_the_recorded_one(
        self, tmp_path, monkeypatch
    ):
        # the cut tree settles three pairs; the other three have λ below the
        # cap of 3 colors, so the path DFS runs, with no flow, in 12 states.
        # verify_rd_flowed.json is the report recorded while states below
        # one that took G's flow still repaired that flow.
        monkeypatch.chdir(tmp_path)
        Path("g4.graph").write_text("4 5\n1 2\n0 2\n0 3\n2 3\n1 3\n")
        Path("g4.col").write_text("1\n3\n3\n2\n1\n")
        code, text = run(["verify", "--mode", "rd", "--json", "g4.graph", "g4.col"])
        recorded = (Path(__file__).parent / "verify_rd_flowed.json").read_bytes()
        assert code == 0
        assert text.encode() == recorded

    def test_grid_reports_are_the_recorded_ones(self, tmp_path, monkeypatch):
        # 190 pairs share 19 distinct witness cuts of 3 sizes, so a report
        # that mixed up two cuts' rendered text would differ.
        # verify_grid_4x5.txt holds "# <argv> exit <code>" and then the
        # report, for srd and rd, in text and with --json, recorded while
        # every pair's cut was rendered on its own.
        monkeypatch.chdir(tmp_path)
        recorded = (Path(__file__).parent / "verify_grid_4x5.txt").read_bytes()
        assert _grid_reports(4, 5) == recorded

    def test_grid_3x5_reports_are_the_recorded_ones(self, tmp_path, monkeypatch):
        # the tree settles 101 of the 105 pairs in each mode; srd settles
        # the other four with two endpoint stars and two walk searches, rd
        # with four walk searches at λ = 3 colors.  verify_grid_3x5.txt
        # was recorded while the search chose its path state by state.
        monkeypatch.chdir(tmp_path)
        recorded = (Path(__file__).parent / "verify_grid_3x5.txt").read_bytes()
        assert _grid_reports(3, 5) == recorded

    @pytest.mark.parametrize("colors", ["1\n2\n3\n3\n2\n1\n", "1\n1\n1\n1\n1\n1\n"])
    def test_each_report_form_is_built_alone(self, k4_file, tmp_path, colors):
        # run prints the payload under --json and the lines otherwise, so
        # the handler builds only the one that is printed
        c = tmp_path / "c.txt"
        c.write_text(colors)
        parser = cli._build_parser()
        _, lines, payload = cli._cmd_verify(parser.parse_args(["verify", k4_file, str(c)]))
        assert lines and payload == {}
        args = parser.parse_args(["verify", "--json", k4_file, str(c)])
        _, lines, payload = cli._cmd_verify(args)
        assert lines == [] and payload

    def test_wrong_length_coloring_is_exit_2(self, k4_file, tmp_path):
        c = tmp_path / "short.txt"
        c.write_text("1\n2\n")
        code, _ = run(["verify", k4_file, str(c)])
        assert code == 2

    def test_threshold_is_not_a_verify_option(self, k4_file, tmp_path):
        # every srd pair runs the one rainbow-cut search: nothing to pick
        c = tmp_path / "c.txt"
        c.write_text("1\n2\n3\n3\n2\n1\n")
        assert run(["verify", k4_file, str(c), "--threshold", "0"]) == (2, "")

    @pytest.mark.parametrize(
        "text, line",
        [("colorsfoo 3\n1\n", "line 1"), ("colors 3\n1\n1_0\n", "line 3")],
    )
    def test_coloring_parse_errors_name_the_line(self, k4_file, tmp_path, text, line):
        c = tmp_path / "c.txt"
        c.write_text(text)
        code, out = run(["verify", k4_file, str(c)])
        assert code == 2 and line in out


class TestSolve:
    def test_both_modes_on_k4(self, k4_file):
        code, text = run(["solve", "--mode", "both", k4_file])
        assert code == 0
        assert "rd=3 srd=3" in text

    def test_both_modes_share_one_bound_stage(self, tmp_path, monkeypatch):
        # the upper witness is built and verified once, not once per mode
        calls = Counter()
        for name in ("_general_upper", "is_srd_coloring"):

            def counted(*args, _name=name, _real=getattr(solver, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(solver, name, counted)
        grid = tmp_path / "grid.txt"
        grid.write_text(serialize_graph(grid_graph(2, 3)))
        code, text = run(["solve", "--mode", "both", str(grid)])
        assert code == 0
        assert "rd=3 srd=3" in text
        assert calls == {"_general_upper": 1, "is_srd_coloring": 1}

    @pytest.mark.parametrize(
        "graph, extra",
        [
            (K4, []),
            (BOWTIE, []),
            (PATH5, []),
            (K4, ["--max-edges", "3"]),
            (MULTI, []),
        ],
    )
    def test_both_merges_the_single_mode_reports(self, tmp_path, graph, extra):
        self.check_both_merges(tmp_path, graph, extra)

    @pytest.mark.parametrize("graph", [K4, BOWTIE, MULTI])
    def test_both_merges_without_the_tables(self, tmp_path, monkeypatch, graph):
        # no pair fits a table cap of 0: every candidate goes to the verifier
        monkeypatch.setattr(solver, "DEFAULT_THRESHOLD", 0)
        self.check_both_merges(tmp_path, graph, [])

    @staticmethod
    def check_both_merges(tmp_path, graph, extra):
        path = tmp_path / "g.txt"
        path.write_text(graph)
        argv = ["solve", str(path), *extra]
        rd_code, rd_text = run([*argv, "--mode", "rd"])
        srd_code, srd_text = run([*argv, "--mode", "srd"])
        code, text = run([*argv, "--mode", "both"])
        assert code == max(rd_code, srd_code)
        header, graph_line, rd_values, rd_stats = rd_text.splitlines()
        srd_values, srd_stats = srd_text.splitlines()[2:]
        merged = [header, graph_line, f"{rd_values} {srd_values}", rd_stats, srd_stats]
        assert text == "\n".join(merged) + "\n"

        _, rd_json = run([*argv, "--mode", "rd", "--json"])
        _, srd_json = run([*argv, "--mode", "srd", "--json"])
        _, both_json = run([*argv, "--mode", "both", "--json"])
        want = json.loads(rd_json)
        want["results"].update(json.loads(srd_json)["results"])
        assert json.loads(both_json) == want

    def test_threshold_is_not_a_solve_option(self, k4_file):
        # the threshold picked a strategy, never an answer
        assert run(["solve", k4_file, "--threshold", "0"]) == (2, "")

    def test_witness_out_verifies(self, k4_file, tmp_path):
        w = tmp_path / "w.txt"
        code, _ = run(["solve", k4_file, "--witness-out", str(w)])
        assert code == 0
        vcode, _ = run(["verify", k4_file, str(w)])
        assert vcode == 0

    def test_witness_out_needs_single_mode(self, k4_file, tmp_path):
        code, _ = run(
            ["solve", "--mode", "both", k4_file, "--witness-out", str(tmp_path / "w")]
        )
        assert code == 2

    def test_budget_exhaustion_is_exit_3(self, k4_file):
        code, text = run(["solve", k4_file, "--max-edges", "3"])
        assert code == 3
        assert "srd=?" in text
        assert "complete=false" in text

    def test_jobs_flag_changes_nothing(self, k4_file):
        seq = run(["solve", k4_file])
        par = run(["solve", k4_file, "--jobs", "2"])
        assert seq == par


class TestScan:
    def test_order_four_all_equal(self):
        code, text = run(["scan", "--n", "4"])
        assert code == 0
        lines = text.splitlines()
        assert lines[-1] == "summary graphs=6 equal=6 budget=0 counterexamples=0"
        assert all(ln.endswith(" equal") for ln in lines[1:-1])

    def test_budget_flag_gives_exit_3(self):
        code, text = run(["scan", "--n", "4", "--max-edges", "4"])
        assert code == 3
        assert "budget" in text

    def test_order_six_completes_with_no_budget_stop(self):
        code, text = run(["scan", "--n", "6", "--max-edges", "15"])
        assert code == 0
        assert (
            text.splitlines()[-1]
            == "summary graphs=112 equal=112 budget=0 counterexamples=0"
        )

    def test_census_solve_reports_are_the_recorded_ones(self, tmp_path, monkeypatch):
        # census_solve.txt holds, for every connected graph on 2-6 vertices,
        # "# <file> exit <code>" and then the report of
        # solve --mode both --json --max-edges 11 on that file
        monkeypatch.chdir(tmp_path)
        chunks = []
        for n in range(2, 7):
            for i, g in enumerate(all_connected_graphs(n)):
                name = f"n{n}-{i:03d}.graph"
                (tmp_path / name).write_text(serialize_graph(g))
                code, text = run(
                    ["solve", name, "--mode", "both", "--json", "--max-edges", "11"]
                )
                chunks.append(f"# {name} exit {code}\n{text}")
        recorded = (Path(__file__).parent / "census_solve.txt").read_bytes()
        assert "".join(chunks).encode() == recorded

    def test_out_file_matches_stdout(self, tmp_path):
        out = tmp_path / "report.txt"
        _, text = run(["scan", "--n", "3", "--out", str(out)])
        assert out.read_text() == text

    def test_negative_max_edges_is_usage_error(self):
        code, text = run(["scan", "--n", "3", "--max-edges", "-1"])
        assert code == 2
        assert text == "error: --max-edges must be non-negative\n"

    def test_solve_negative_max_edges_says_the_flag(self, k4_file):
        # the same wording as scan's
        code, text = run(["solve", k4_file, "--max-edges", "-1"])
        assert (code, text) == (2, "error: --max-edges must be non-negative\n")

    def test_eight_vertices_is_exit_3(self, monkeypatch):
        # refused before the 8! relabellings and the 2^28-byte orbit marks
        def no_relabellings(*args):
            raise AssertionError("relabellings built past the census cap")

        monkeypatch.setattr(solver.itertools, "permutations", no_relabellings)
        code, text = run(["scan", "--n", "8"])
        assert code == 3
        assert text == (
            "error: 8 vertices is past the census cap of 7 "
            "(its marks would take 2^28 bytes)\n"
        )


class TestReduce:
    def test_emits_three_files_and_verify_parses_them(self, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(FIG_CNF)
        prefix = tmp_path / "inst"
        code, text = run(["reduce-3sat", str(cnf), "--out-prefix", str(prefix)])
        assert code == 0
        assert "instance n=24 m=49 s=0 t=1 lambda=6 colors=9" in text
        g = parse_graph((tmp_path / "inst.graph").read_text())
        c = parse_coloring((tmp_path / "inst.colors").read_text(), g.edge_count)
        assert g.edge_count == len(c.colors) == 49
        # the instance coloring is an adversarial gadget, not an srd-coloring
        vcode, vtext = run(
            ["verify", str(tmp_path / "inst.graph"), str(tmp_path / "inst.colors")]
        )
        assert vcode == 1
        assert "verdict false" in vtext

    def test_roles_sidecar_format(self, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(FIG_CNF)
        run(["reduce-3sat", str(cnf), "--out-prefix", str(tmp_path / "i")])
        lines = (tmp_path / "i.roles").read_text().splitlines()
        assert lines[0] == "vertex 0 s"
        assert lines[1] == "vertex 1 t"
        vertex_lines = [ln for ln in lines if ln.startswith("vertex ")]
        color_lines = [ln for ln in lines if ln.startswith("color ")]
        assert len(vertex_lines) == 24
        assert len(color_lines) == 9
        assert all(len(ln.split()) == 3 for ln in lines)

    def test_default_prefix_is_cnf_stem(self, tmp_path):
        cnf = tmp_path / "phi.cnf"
        cnf.write_text(FIG_CNF)
        code, _ = run(["reduce-3sat", str(cnf)])
        assert code == 0
        assert (tmp_path / "phi.graph").exists()
        assert (tmp_path / "phi.roles").exists()

    @pytest.mark.parametrize(
        "name, prefix", [("phi.graph", None), ("phi.roles", None), ("in.colors", "sub/../in")]
    )
    def test_refuses_to_overwrite_the_cnf(self, tmp_path, monkeypatch, name, prefix):
        # the default prefix of phi.graph is phi, so its .graph output would
        # replace the formula; --out-prefix sub/../in names in.colors once
        # normalized.  Nothing is written, and the check does not run.
        monkeypatch.chdir(tmp_path)
        Path(name).write_text(FIG_CNF)
        argv = ["reduce-3sat", name, "--check"]
        if prefix is not None:
            argv += ["--out-prefix", prefix]
        code, text = run(argv)
        assert (code, text) == (2, f"error: an output file would overwrite the CNF file {name}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]
        assert Path(name).read_text() == FIG_CNF

    def test_check_consistent(self, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(FIG_CNF)
        code, text = run(
            ["reduce-3sat", str(cnf), "--out-prefix", str(tmp_path / "i"), "--check"]
        )
        assert code == 0
        assert "check consistent satisfiable=true cut-found=true" in text

    def test_check_budget_is_exit_3(self, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(FIG_CNF)
        code, text = run(
            [
                "reduce-3sat",
                str(cnf),
                "--out-prefix",
                str(tmp_path / "i"),
                "--check",
                "--node-budget",
                "1",
            ]
        )
        assert code == 3
        assert "inconclusive" in text

    def test_check_builds_one_instance(self, tmp_path, monkeypatch):
        # the instance written out is the one checked: one gadget graph and
        # one max flow, the cut search's, which gives lambda = 6m
        calls = Counter()
        for module, name in (
            (reduction, "Graph"),
            (connectivity, "_max_flow"),
            (verifier, "_max_flow"),
        ):

            def counted(*args, _name=name, _real=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        cnf = tmp_path / "f.cnf"
        cnf.write_text(FIG_CNF)
        code, text = run(
            ["reduce-3sat", str(cnf), "--out-prefix", str(tmp_path / "i"), "--check"]
        )
        assert code == 0
        assert "check consistent satisfiable=true cut-found=true" in text
        assert calls == {"Graph": 1, "_max_flow": 1}

    def test_brute_force_cap_is_exit_3(self, tmp_path):
        cnf = tmp_path / "wide.cnf"
        clauses = "".join(f"{3 * i + 1} -{3 * i + 2} {3 * i + 3} 0\n" for i in range(7))
        cnf.write_text("p cnf 21 7\n" + clauses)
        code, text = run(
            ["reduce-3sat", str(cnf), "--out-prefix", str(tmp_path / "i"), "--check"]
        )
        assert (code, text) == (3, "error: 21 variables is past the brute-force cap of 20\n")

    def test_check_error_leaves_no_files(self, tmp_path):
        # the files are written once the check has returned, so an error
        # line never leaves unnamed files behind
        cnf = tmp_path / "wide.cnf"
        clauses = "".join(f"{3 * i + 1} -{3 * i + 2} {3 * i + 3} 0\n" for i in range(7))
        cnf.write_text("p cnf 21 7\n" + clauses)
        code, _ = run(["reduce-3sat", str(cnf), "--check"])
        assert code == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["wide.cnf"]

    def test_bad_cnf_is_exit_2(self, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 2 1\n1 2 0\n")  # arity two
        code, text = run(["reduce-3sat", str(cnf)])
        assert code == 2
        assert "error:" in text


class TestExportDot:
    def test_plain_graph(self, k4_file):
        code, text = run(["export-dot", k4_file])
        assert code == 0
        assert text.splitlines()[0] == "// srdkit export-dot seed=0"
        assert "graph srdkit {" in text
        assert text.count(" -- ") == 6

    def test_roles_become_labels(self, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(FIG_CNF)
        run(["reduce-3sat", str(cnf), "--out-prefix", str(tmp_path / "i")])
        code, text = run(
            [
                "export-dot",
                str(tmp_path / "i.graph"),
                "--coloring",
                str(tmp_path / "i.colors"),
                "--roles",
                str(tmp_path / "i.roles"),
            ]
        )
        assert code == 0
        assert '[label="s"]' in text
        assert 'label="r_0"' in text

    def test_bad_roles_line_is_usage_error(self, k4_file, tmp_path):
        roles = tmp_path / "r.txt"
        roles.write_text("vertex zero oops extra\n")
        code, _ = run(["export-dot", k4_file, "--roles", str(roles)])
        assert code == 2

    def test_non_integer_roles_id_is_usage_error(self, k4_file, tmp_path):
        roles = tmp_path / "r.txt"
        roles.write_text("vertex 0 a\nvertex x foo\n")
        code, text = run(["export-dot", k4_file, "--roles", str(roles)])
        assert code == 2
        assert text == "error: bad roles line 2: 'vertex x foo'\n"

    def test_non_ascii_roles_id_is_usage_error(self, k4_file, tmp_path):
        # int() reads the Arabic-Indic digit "\u0662" as 2
        roles = tmp_path / "r.txt"
        roles.write_text("vertex \u0662 X\n", encoding="utf-8")
        code, text = run(["export-dot", k4_file, "--roles", str(roles)])
        assert code == 2
        assert text == "error: bad roles line 1: 'vertex \u0662 X'\n"

    def test_overlong_roles_id_is_usage_error(self, k4_file, tmp_path):
        # more digits than int() converts
        roles = tmp_path / "r.txt"
        roles.write_text(f"vertex {'1' * 5000} a\n")
        code, text = run(["export-dot", k4_file, "--roles", str(roles)])
        assert code == 2
        assert text.startswith("error: bad roles line 1: ")

    def test_quotes_and_backslashes_in_labels_are_escaped(self, k4_file, tmp_path):
        colors = tmp_path / "c.txt"
        colors.write_text("1\n2\n3\n3\n2\n1\n")
        roles = tmp_path / "r.txt"
        roles.write_text('vertex 0 a"b\ncolor 1 c\\d\n')
        code, text = run(
            ["export-dot", k4_file, "--coloring", str(colors), "--roles", str(roles)]
        )
        assert code == 0
        assert '0 [label="a\\"b"];' in text
        assert 'label="c\\\\d"' in text

    def test_ids_missing_from_roles_keep_raw_labels(self, k4_file, tmp_path):
        colors = tmp_path / "c.txt"
        colors.write_text("1\n2\n3\n3\n2\n1\n")
        roles = tmp_path / "r.txt"
        roles.write_text("vertex 0 hub\ncolor 2 blue\n")
        code, text = run(
            ["export-dot", k4_file, "--coloring", str(colors), "--roles", str(roles)]
        )
        assert code == 0
        assert '  0 [label="hub"];' in text
        assert '  3 [label="3"];' in text
        assert '  0 -- 1 [label="1", color="#e41a1c"];' in text
        assert '  0 -- 2 [label="blue", color="#377eb8"];' in text


class TestJsonMirror:
    def test_solve_payload(self, k4_file):
        code, text = run(["solve", "--json", "--mode", "both", k4_file])
        assert code == 0
        body = json.loads(text)
        assert body["command"] == "solve"
        assert body["results"]["srd"]["value"] == 3
        assert body["results"]["rd"]["value"] == 3
        assert body["results"]["srd"]["complete"] is True

    def test_verify_payload_round_trips_verdict(self, k4_file, tmp_path):
        c = tmp_path / "mono.txt"
        c.write_text("1\n1\n1\n1\n1\n1\n")
        code, text = run(["verify", "--json", k4_file, str(c)])
        assert code == 1
        body = json.loads(text)
        assert body["verdict"] is False
        assert body["failing"] == [0, 1]

    def test_scan_payload(self):
        _, text = run(["scan", "--n", "3", "--json"])
        body = json.loads(text)
        assert body["summary"] == {
            "graphs": 2,
            "equal": 2,
            "budget": 0,
            "counterexamples": 0,
        }

    def test_partial_solve_value_is_null(self, k4_file):
        code, text = run(["solve", "--json", k4_file, "--max-edges", "3"])
        assert code == 3
        assert json.loads(text)["results"]["srd"]["value"] is None

    def test_json_is_deterministic(self, k4_file):
        assert run(["lambda", "--json", k4_file]) == run(["lambda", "--json", k4_file])


# Text without decimal digits, and lines of a keyword and a few words that
# keep every integer small (a header may declare as many vertices as it
# likes, and the graph then holds that many adjacency lists), apart from one
# number too long for int() to convert.
_NO_DIGITS = st.text(st.characters(blacklist_categories=("Nd",)), max_size=6)
_WORD = st.sampled_from(
    ["0", "1", "2", "3", "-1", "+2", "1_0", "\u0663", "\u00b2", "9" * 5000]
) | _NO_DIGITS
_LINE = st.builds(
    lambda keyword, words: " ".join([keyword, *words]),
    st.sampled_from(["", "p cnf", "colors", "p", "c", "#"]),
    st.lists(_WORD, max_size=4),
)
_TEXT = st.text(st.characters(blacklist_categories=("Nd",)), max_size=60) | st.builds(
    lambda lines, sep: sep.join(lines),
    st.lists(_LINE, max_size=8),
    st.sampled_from(["\n", "\r\n", "\x0c", "\u2028"]),
)


class TestParsersFuzz:
    """Every input file the CLI reads goes through one of these parsers:
    any text gives a value or an SrdKitError, never another exception."""

    @pytest.mark.parametrize("parse", [parse_graph, parse_coloring, parse_dimacs_cnf])
    @settings(max_examples=300, deadline=None)
    @given(text=_TEXT)
    @example(text="colors \u00b2")  # a digit that int() rejects
    @example(text="colors " + "9" * 5000)  # beyond int()'s digit limit
    def test_any_text_parses_or_raises_srdkit_error(self, parse, text):
        try:
            parse(text)
        except SrdKitError:
            pass
