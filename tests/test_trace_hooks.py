"""The benchmark tracer's hooks name real functions of the library.

perfbench/trace_child.py wraps every function its GROUPS table names, looked
up by name in the given module; a renamed or removed function makes every
traced benchmark run crash. Importing trace_child has no side effects.
"""

from __future__ import annotations

import importlib
import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_trace_groups_name_plain_functions(monkeypatch) -> None:
    monkeypatch.syspath_prepend(str(PERFBENCH))
    trace_child = importlib.import_module("trace_child")
    for group, (module, names) in trace_child.GROUPS.items():
        for name in names:
            fn = vars(module).get(name)
            assert isinstance(fn, types.FunctionType), (group, name)
            assert (fn.__module__, fn.__name__) == (module.__name__, name), (group, name)
