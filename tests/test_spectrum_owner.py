"""cli reads every row from arrays, and the q/p-block spectrum has one owner in gaussian.

cli constructs no TwoModeCM or StandardFormCM and calls neither
try_effective nor log_negativity: sweep and classical rows are read by
effective.standard_rows, quantum rows by gaussian.block_log_negativity.
No module but gaussian names _squared_spectrum.  The checks read each
module's syntax tree.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cvsat"


def calls(source: str) -> set[str]:
    """Names of the functions and classes a module calls, bare (f(...)) or as attributes (m.f(...))."""
    return {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))}


def names(source: str) -> set[str]:
    """Every name a module loads, imports or defines, and every attribute it reads."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
    return found


FORBIDDEN_IN_CLI = {"TwoModeCM", "StandardFormCM", "try_effective", "log_negativity"}


def test_cli_builds_no_cm_and_reads_none():
    assert calls((SRC / "cli.py").read_text()) & FORBIDDEN_IN_CLI == set()


def test_only_gaussian_names_the_spectrum():
    owners = {path.stem for path in SRC.glob("*.py") if "_squared_spectrum" in names(path.read_text())}
    assert owners == {"gaussian"}


def test_checks_flag_injected_code():
    cli = (SRC / "cli.py").read_text()
    assert calls(cli + "\ncm = TwoModeCM(m)\n") & FORBIDDEN_IN_CLI == {"TwoModeCM"}
    assert calls(cli + "\ne = gaussian.log_negativity(res.cm)\n") & FORBIDDEN_IN_CLI == {"log_negativity"}
    assert "_squared_spectrum" in names("from .gaussian import _squared_spectrum as spectrum\n")
    assert "_squared_spectrum" in names("import cvsat.gaussian as g\nlo = g._squared_spectrum(1, 0, 1, 1, 0, 1)\n")
