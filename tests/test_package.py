"""The package's exported names."""

from __future__ import annotations

import cubicmaps
from cubicmaps import exactnum, orbifolds


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
    # and every integrality check is one exact_quotient
    for name in ("H2OrbifoldClass", "h2_orbifold_family"):
        assert name not in cubicmaps.__all__
        assert not hasattr(cubicmaps, name)
        assert not hasattr(orbifolds, name)
    assert not hasattr(exactnum, "binomial")
    assert not hasattr(exactnum, "require_integer")
