"""perfbench's traced replay binds to library names and parameter names.

perfbench/replay.py wraps the functions listed in its WRAPS table inside the
cvsat modules and reads their arguments by parameter name.  A rename in the
library would break the per-layer benchmark only when it runs, so these tests
load the replay as it stands and check every name it relies on.
"""

import dis
import importlib.util
import inspect
from pathlib import Path

import pytest

REPLAY = Path(__file__).resolve().parents[1] / "perfbench" / "replay.py"


@pytest.fixture(scope="module")
def replay():
    spec = importlib.util.spec_from_file_location("perfbench_replay", REPLAY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def argument_keys(code, name=None) -> set[str]:
    """Constant keys that code, and the functions it defines, subscript its first argument with."""
    name = name or code.co_varnames[0]
    ins = list(dis.get_instructions(code))
    keys = {key.argval for load, key, sub in zip(ins, ins[1:], ins[2:])
            if load.opname.startswith("LOAD_") and load.argval == name
            and key.opname == "LOAD_CONST" and isinstance(key.argval, str)
            and (sub.opname == "BINARY_SUBSCR" or sub.argrepr == "[]")}
    for const in code.co_consts:
        if inspect.iscode(const):
            keys |= argument_keys(const, name)
    return keys


def test_every_wrapped_name_resolves(replay):
    assert len(replay.WRAPS) == 19
    for owner, attr, *_ in replay.WRAPS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
    # the replay swaps cli's json module for one whose dumps is traced
    assert callable(replay.cli.json.dumps)


def test_wrapped_signatures_bind_the_names_the_replay_reads(replay):
    read: dict[str, set[str]] = {}
    for owner, attr, span, _, fields, pairs in replay.WRAPS:
        keys = set().union(*(argument_keys(fn.__code__) for fn in (fields, pairs) if fn))
        params = set(inspect.signature(getattr(owner, attr)).parameters)
        assert keys <= params, f"{span} reads {sorted(keys - params)}, not parameters of {attr}"
        read[span] = read.get(span, set()) | keys
    # reads this test must find, so that a change in how Python compiles them
    # cannot leave it checking nothing
    assert read["schemes.ensemble_cm"] == {"cfg"}
    assert read["postselect.classical"] == read["postselect.quantum"] == {"ch_up", "ch_down", "quad"}
    assert read["effective.ordering_check"] == {"sq", "geometry", "beta", "w", "quad"}
