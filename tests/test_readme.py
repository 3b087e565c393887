"""The README's "Library in one minute" block runs as written and gives
the values its comments state."""

from pathlib import Path

from srdkit import local_edge_connectivity

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    section = README.read_text().split("## Library in one minute", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_in_one_minute():
    block = _library_block()
    comments = {}
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        comments[code.strip()] = comment.strip()
    ns: dict = {}
    exec(compile(block, "README.md", "exec"), ns)

    assert comments["res.value"] == "3"
    assert ns["res"].value == 3

    assert comments["g, c = color_complete(7)"].startswith("constructive: 6 colors")
    g, c = ns["g"], ns["c"]
    assert c.num_colors == 6
    assert comments["is_srd_coloring(g, c).verdict"].startswith("True")
    assert ns["is_srd_coloring"](g, c).verdict is True

    assert comments["inst = build_reduction(phi)"] == "24 vertices, 49 edges, λ(s,t)=6"
    inst = ns["inst"]
    assert (inst.graph.vertex_count, inst.graph.edge_count) == (24, 49)
    assert local_edge_connectivity(inst.graph, inst.s, inst.t) == 6
    assert comments["check_equivalence(inst).consistent"].startswith("True")
    assert ns["check_equivalence"](inst).consistent is True
