"""Worker processes have one owner, cli._map_tasks, and the collector one, cli.run.

`--workers` forks children of the CLI process itself; no module of cvsat
starts a process pool.  The CLI's process entry freezes the collector on the
way out, and nothing else touches it, so importing cvsat or calling main()
leaves it as found.  The checks read each module's syntax tree: none imports
multiprocessing or concurrent.futures, only cli._map_tasks refers to fork and
only cli.run to gc.
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


def owners_of(source: str, name: str) -> set[str]:
    """Innermost enclosing function (or "<module>") of every reference to name."""
    owners = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and child.attr == name
                    or isinstance(child, ast.Name) and child.id == name
                    or isinstance(child, ast.alias) and child.name == name
                    or isinstance(child, ast.ImportFrom) and child.module == name):
                owners.add(owner)
            defines = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if defines else owner)

    visit(ast.parse(source), "<module>")
    return owners


def test_no_module_imports_a_process_pool():
    found = {path.stem: pool_imports(path.read_text()) for path in SRC.glob("*.py")}
    assert {module: packages for module, packages in found.items() if packages} == {}


def all_owners(name: str) -> set[tuple[str, str]]:
    return {(path.stem, owner) for path in SRC.glob("*.py") for owner in owners_of(path.read_text(), name)}


def test_only_map_tasks_forks():
    assert all_owners("fork") == {("cli", "_map_tasks")}


def test_only_the_process_entry_names_gc():
    assert all_owners("gc") == {("cli", "run")}


def test_check_flags_an_injected_pool():
    source = (SRC / "schemes.py").read_text()
    assert pool_imports(source) == set()
    injected = source + ("\nimport multiprocessing.pool\n"
                         "def _spread():\n    from concurrent.futures import ProcessPoolExecutor\n")
    assert pool_imports(injected) == POOL_PACKAGES


def test_check_flags_an_injected_fork():
    source = (SRC / "effective.py").read_text()
    assert owners_of(source, "fork") == set()
    injected = source + "\nfrom os import fork\ndef _spawn():\n    return os.fork()\n"
    assert owners_of(injected, "fork") == {"<module>", "_spawn"}


def test_check_flags_an_injected_collector_call():
    source = (SRC / "schemes.py").read_text()
    assert owners_of(source, "gc") == set()
    injected = source + ("\nfrom gc import freeze\n"
                         "class _Table:\n    def build(self):\n        import gc\n        gc.disable()\n")
    assert owners_of(injected, "gc") == {"<module>", "build"}
