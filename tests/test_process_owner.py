"""Worker processes have one owner, cli._map_tasks.

`--workers` forks children of the CLI process itself; no module of cvsat
starts a process pool.  The checks read each module's syntax tree: none
imports multiprocessing or concurrent.futures, and only cli._map_tasks
refers to fork.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cvsat"

POOL_PACKAGES = {"multiprocessing", "concurrent"}


def pool_imports(source: str) -> set[str]:
    """Top-level packages of POOL_PACKAGES that the source imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found.add(node.module.split(".")[0])
    return found & POOL_PACKAGES


def fork_owners(source: str) -> set[str]:
    """Innermost enclosing function (or "<module>") of every reference to fork."""
    owners = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and child.attr == "fork"
                    or isinstance(child, ast.Name) and child.id == "fork"
                    or isinstance(child, ast.alias) and child.name == "fork"):
                owners.add(owner)
            defines = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if defines else owner)

    visit(ast.parse(source), "<module>")
    return owners


def test_no_module_imports_a_process_pool():
    found = {path.stem: pool_imports(path.read_text()) for path in SRC.glob("*.py")}
    assert {module: packages for module, packages in found.items() if packages} == {}


def test_only_map_tasks_forks():
    found = {(path.stem, owner) for path in SRC.glob("*.py") for owner in fork_owners(path.read_text())}
    assert found == {("cli", "_map_tasks")}


def test_check_flags_an_injected_pool():
    source = (SRC / "schemes.py").read_text()
    assert pool_imports(source) == set()
    injected = source + ("\nimport multiprocessing.pool\n"
                         "def _spread():\n    from concurrent.futures import ProcessPoolExecutor\n")
    assert pool_imports(injected) == POOL_PACKAGES


def test_check_flags_an_injected_fork():
    source = (SRC / "effective.py").read_text()
    assert fork_owners(source) == set()
    injected = source + "\nfrom os import fork\ndef _spawn():\n    return os.fork()\n"
    assert fork_owners(injected) == {"<module>", "_spawn"}
