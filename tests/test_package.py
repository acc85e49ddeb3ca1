"""The package's exported names."""

from __future__ import annotations

import cubicmaps


def test_every_exported_name_resolves_once() -> None:
    names = cubicmaps.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(cubicmaps, name), name


def test_star_import_binds_every_exported_name() -> None:
    namespace: dict = {}
    exec("from cubicmaps import *", namespace)
    assert set(cubicmaps.__all__) <= namespace.keys()
