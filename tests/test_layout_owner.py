"""A link's quadrature layout and its root rule have one owner, fading.LinkRule.

LinkRule decides a link's panel edges, its unit rule on [0, 1] and its Gauss
rule in sqrt(eta).  The checks read each module's syntax tree: only fading
refers to the panel rule builder panel_nodes, to the truncation D_MAX_SIGMAS,
to the grading of a cut table's last panel (_GRADED points at _GRADING_RATIO),
to the root rule's size _ROOT_NODES or to the QR and eigen solvers that build a
root rule, and only fading, numerics (which validates a QuadratureSpec) and cli
(which builds one) read a spec's nodes_1d or subdivisions.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cvsat"

OWNED_NAMES = {"panel_nodes", "D_MAX_SIGMAS", "_GRADED", "_GRADING_RATIO", "_ROOT_NODES", "qr", "eigh"}
SPEC_FIELDS = {"nodes_1d", "subdivisions"}


def layout_reads(source: str) -> tuple[set[str], set[str]]:
    """(owned names the source refers to, spec fields it reads as attributes)."""
    names, fields = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names |= {node.name, node.asname}
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            if isinstance(node.ctx, ast.Load):
                fields.add(node.attr)
    return names & OWNED_NAMES, fields & SPEC_FIELDS


def test_only_fading_lays_out_a_link():
    found = {path.stem: layout_reads(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {module for module, (names, _) in found.items() if names} == {"fading"}
    spec_readers = {module for module, (_, fields) in found.items() if fields}
    assert "fading" in spec_readers and spec_readers <= {"fading", "numerics", "cli"}


def test_only_fading_builds_panel_edges():
    # besides LinkRule's edges and unit rule, np.linspace lays out only cli's scenario axes
    def calls_linspace(path):
        return any(isinstance(node, ast.Attribute) and node.attr == "linspace"
                   for node in ast.walk(ast.parse(path.read_text())))
    assert {path.stem for path in SRC.glob("*.py") if calls_linspace(path)} == {"fading", "cli"}


def test_check_flags_an_injected_read():
    source = (SRC / "effective.py").read_text()
    assert layout_reads(source) == (set(), set())
    injected = source + "\nfrom .fading import D_MAX_SIGMAS as cap\npanels = rules[1].quad.subdivisions\n"
    assert layout_reads(injected) == ({"D_MAX_SIGMAS"}, {"subdivisions"})


def test_check_flags_an_injected_root_rule():
    source = (SRC / "postselect.py").read_text()
    assert layout_reads(source)[0] == set()
    injected = source + "\nfrom .fading import _ROOT_NODES\nq, _ = np.linalg.qr(basis)\nnp.linalg.eigh(q)\n"
    assert layout_reads(injected)[0] == {"_ROOT_NODES", "qr", "eigh"}
