"""The benchmark tracer's hooks name real functions of the library.

perfbench/trace_child.py wraps every function its GROUPS table names, looked
up by name in the given module; a renamed or removed function makes every
traced benchmark run crash. Importing trace_child has no side effects. One
traced `verify` run checks that the wrapped calls still reach the oracle.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
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


def test_traced_verify_runs_and_times_the_oracle(tmp_path) -> None:
    # the tracer reads the surface of each oracle call positionally, so a changed oracle signature shows up here
    root = PERFBENCH.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    with open(tmp_path / "sums.json", "w") as out:
        fd = out.fileno()
        run = subprocess.run(
            [sys.executable, str(PERFBENCH / "trace_child.py"), str(fd), "verify"],
            cwd=root,
            env=env,
            pass_fds=(fd,),
            capture_output=True,
            text=True,
            check=False,
        )
    assert run.returncode == 0, run.stderr
    sums = json.loads((tmp_path / "sums.json").read_text())["sums"]
    # each suite's time is rebuilt from its first public call, so a suite that reads 0 lost its first call
    suites = ("oracle-equivalence", "integrality", "specialization", "table-reproduction")
    for key in ("oracle.identity.calls", "oracle.symmetry.calls", *(f"cli.verify.{suite}.s" for suite in suites)):
        assert sums.get(key, 0) > 0, key
