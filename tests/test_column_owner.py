"""A sigma_b column's links have one builder in cli, and the swap root-rule pass one owner in schemes.

cli._links expands a column's geometry into its four LinkRules, which every
subcommand's schemes, reports and audits of that sigma_b read; no other cli
function calls expand_links or builds a LinkRule.  The swap ensemble and the
effective report's cosh(2 r'') average share one pair sum on the links' root
rules, schemes.swap_moments: no other function in schemes, and none in
effective, reads LinkRule.root.  The checks read each module's syntax tree.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cvsat"


def functions_that(source: str, uses) -> set[str]:
    """Top-level functions (or "<module>" for other statements) with a node for which uses(node) holds."""
    tree = ast.parse(source)
    found = set()
    for top in tree.body:
        if any(uses(node) for node in ast.walk(top)):
            found.add(top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>")
    return found


def builds_links(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in {"LinkRule", "expand_links"})


def reads_root(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "root"


def test_only_links_builds_a_column():
    assert functions_that((SRC / "cli.py").read_text(), builds_links) == {"_links"}


def test_only_swap_moments_sums_on_root_rules():
    assert functions_that((SRC / "schemes.py").read_text(), reads_root) == {"swap_moments"}
    assert functions_that((SRC / "effective.py").read_text(), reads_root) == set()


def test_checks_flag_injected_code():
    cli = (SRC / "cli.py").read_text() + "\ndef _other(ch, quad):\n    return LinkRule(ch, quad)\n"
    assert functions_that(cli, builds_links) == {"_links", "_other"}
    effective = (SRC / "effective.py").read_text() + "\n(x, w), _ = (rule.root for rule in rules)\n"
    assert functions_that(effective, reads_root) == {"<module>"}
