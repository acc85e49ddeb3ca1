"""The package's exported names."""

from __future__ import annotations

import ast
from pathlib import Path

import cubicmaps
from cubicmaps import exactnum, oracle, orbifolds, rooted_counts


def test_every_exported_name_resolves_once() -> None:
    names = cubicmaps.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(cubicmaps, name), name


def test_star_import_binds_every_exported_name() -> None:
    namespace: dict = {}
    exec("from cubicmaps import *", namespace)
    assert set(cubicmaps.__all__) <= namespace.keys()


def test_removed_pass_through_names_stay_absent() -> None:
    # the census walks the period-2 ranges itself, binomials are math.comb,
    # every integrality check is one exact_quotient, the oracle caches every
    # search in _histogram, and SurfaceClass lives in the oracle
    for name in ("H2OrbifoldClass", "h2_orbifold_family"):
        assert name not in cubicmaps.__all__
        assert not hasattr(cubicmaps, name)
        assert not hasattr(orbifolds, name)
    assert not hasattr(exactnum, "binomial")
    assert not hasattr(exactnum, "require_integer")
    assert not hasattr(oracle, "_identity_histogram")
    assert not hasattr(rooted_counts, "SurfaceClass")
    assert cubicmaps.SurfaceClass is oracle.SurfaceClass


def test_the_oracle_imports_nothing_of_the_closed_forms() -> None:
    # a cross-check that shares no code with the formulas it checks: beside the
    # standard library, the oracle reads only exactnum's remainder-checked division
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    relative = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    imported = [(node.module, [alias.name for alias in node.names]) for node in relative]
    assert imported == [("exactnum", ["exact_quotient"])]
