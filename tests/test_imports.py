"""Every name a cvsat module imports is used in that module.

The check reads each module's syntax tree: a name counts as used when the
module loads it anywhere or lists it in its __all__.  The only exceptions
are the names perfbench/replay.py wraps by attribute lookup in a module
(its WRAPS table), which must stay importable there even where the module
itself no longer calls them.
"""

import ast
import importlib.util
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cvsat"


def replay_wraps() -> set[tuple[str, str]]:
    """(module, name) of every module attribute the replay's WRAPS replaces."""
    spec = importlib.util.spec_from_file_location("perfbench_replay", ROOT / "perfbench" / "replay.py")
    replay = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(replay)
    return {(owner.__name__.rpartition(".")[2], attr)
            for owner, attr, *_ in replay.WRAPS if isinstance(owner, types.ModuleType)}


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return imported - used


def test_no_unused_imports():
    allowed = replay_wraps()
    unused = {(path.stem, name) for path in sorted(SRC.glob("*.py"))
              for name in unused_imports(path.read_text())}
    assert unused - allowed == set()


def test_check_finds_an_unused_import():
    # the check itself: an import only a comment or a string mentions is unused
    source = "import math\nfrom os import path, sep  # path\n__all__ = ['sep']\nx = 'math'\n"
    assert unused_imports(source) == {"math", "path"}
    assert ("cli", "loss_db") in replay_wraps()
