"""Rooted closed-form counts: frozen census values and structural properties."""

from __future__ import annotations

from fractions import Fraction

import pytest

from cubicmaps.golden import CUBIC_NONORIENTABLE, CUBIC_ORIENTABLE
from cubicmaps.oracle import SurfaceClass
from cubicmaps.rooted_counts import (
    c_coefficient,
    precubic_nonorientable_by_genus_pair,
    precubic_nonorientable_by_leaves,
    precubic_orientable,
    rooted_cubic_nonorientable,
    rooted_cubic_orientable,
)


def test_surface_class_validation() -> None:
    assert SurfaceClass(True, 0).euler_characteristic() == 2
    assert SurfaceClass(True, 2).euler_characteristic() == -2
    assert SurfaceClass(False, 1).euler_characteristic() == 1
    with pytest.raises(ValueError):
        SurfaceClass(True, -1)
    with pytest.raises(ValueError):
        SurfaceClass(False, 0)


def test_rooted_cubic_orientable_census() -> None:
    for g, (rooted, _, _) in CUBIC_ORIENTABLE.items():
        assert rooted_cubic_orientable(g) == rooted


def test_rooted_cubic_orientable_rejects_nonpositive() -> None:
    with pytest.raises(ValueError):
        rooted_cubic_orientable(0)
    with pytest.raises(ValueError):
        rooted_cubic_orientable(-3)


def test_rooted_cubic_nonorientable_census() -> None:
    for g, (rooted, _) in CUBIC_NONORIENTABLE.items():
        assert rooted_cubic_nonorientable(g) == rooted


def test_rooted_cubic_nonorientable_genus_one() -> None:
    # no cubic graph embeds in the projective plane with one face, but the
    # raw closed form evaluates to 1 there and the census assembly needs it
    assert rooted_cubic_nonorientable(1) == 0
    assert precubic_nonorientable_by_genus_pair(2 * 1, 1) == 1
    with pytest.raises(ValueError):
        rooted_cubic_nonorientable(0)


def test_c_coefficient_values() -> None:
    assert c_coefficient(1) == Fraction(1, 2)
    assert c_coefficient(2) == Fraction(1, 8)
    assert isinstance(c_coefficient(3), Fraction)
    with pytest.raises(ValueError):
        c_coefficient(0)


def test_precubic_orientable_plane_values_are_catalan() -> None:
    # genus 0, e = 2m+1 edges, m+2 leaves: the Catalan numbers
    catalan = [1, 2, 5, 14, 42, 132]
    for m, value in enumerate(catalan):
        assert precubic_orientable(m + 2, 0) == value


def test_precubic_orientable_spot_values() -> None:
    assert precubic_orientable(4, 1) == 1
    assert precubic_orientable(5, 1) == 10
    assert precubic_orientable(8, 2) == 105
    # out-of-range parameters count nothing
    assert precubic_orientable(1, 0) == 0
    assert precubic_orientable(3, 2) == 0


def test_precubic_nonorientable_by_leaves_spot_values() -> None:
    assert precubic_nonorientable_by_leaves(1, 1) == 4
    assert precubic_nonorientable_by_leaves(1, 2) == 16
    assert precubic_nonorientable_by_leaves(1, 3) == 64
    assert precubic_nonorientable_by_leaves(2, 0) == 6
    assert precubic_nonorientable_by_leaves(2, 1) == 60
    assert precubic_nonorientable_by_leaves(3, 0) == 128
    # degenerate parameters: no edges or malformed input
    assert precubic_nonorientable_by_leaves(1, 0) == 0
    assert precubic_nonorientable_by_leaves(0, 3) == 0
    assert precubic_nonorientable_by_leaves(2, -1) == 0


def test_precubic_nonorientable_by_genus_pair_spot_values() -> None:
    assert precubic_nonorientable_by_genus_pair(3, 1) == 4
    assert precubic_nonorientable_by_genus_pair(4, 1) == 16
    assert precubic_nonorientable_by_genus_pair(4, 2) == 6
    assert precubic_nonorientable_by_genus_pair(5, 2) == 60
    # the written form assigns the zero-edge pair (2, 1) the value 1
    assert precubic_nonorientable_by_genus_pair(2, 1) == 1
    assert precubic_nonorientable_by_genus_pair(1, 1) == 0
    assert precubic_nonorientable_by_genus_pair(3, 0) == 0


def test_precubic_parameterizations_agree() -> None:
    # the genus-pair form at (g, gg) and the leaf form at (gg, k) describe
    # the same maps when both are defined with at least one edge
    for gg in range(1, 8):
        for g in range(gg, 26):
            k = g - 2 * gg
            if k < 0 or 2 * g - gg - 3 < 1:
                continue
            assert precubic_nonorientable_by_genus_pair(g, gg) == precubic_nonorientable_by_leaves(gg, k), (g, gg, k)


def test_precubic_orientable_positive_in_range() -> None:
    # every surface genus gg and leaf count k of a map with 2(k + 3gg - 2) + 1 >= 1
    # edges, read through the covering genus k + 4gg
    for gg in range(0, 4):
        for k in range(0, 6):
            if k + 3 * gg >= 2:
                assert precubic_orientable(k + 4 * gg, gg) > 0, (gg, k)
