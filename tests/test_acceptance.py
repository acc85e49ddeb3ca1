"""Acceptance criteria.

One test per criterion. Every expected number is frozen here or in
cubicmaps.golden; each test prints a single CRITERION line on success so a
verbose run reads as a checklist.
"""

from __future__ import annotations

import time

from cubicmaps.census import sensed_cubic_orientable, unsensed_cubic_orientable
from cubicmaps.cli import (
    INTEGRALITY_GENUS_MAX,
    SPECIALIZATION_BOUNDARY_MAX,
    SPECIALIZATION_GENUS_MAX,
    main,
    suite_integrality,
    suite_oracle_equivalence,
    suite_specialization,
)
from cubicmaps.golden import CLOSED_ORBIFOLD_ROWS, CUBIC_NONORIENTABLE, CUBIC_ORIENTABLE
from cubicmaps.oracle import SurfaceClass, count_rooted, count_sensed_orientable, count_unsensed
from cubicmaps.rooted_counts import precubic_nonorientable_by_genus_pair, rooted_cubic_orientable

_CUBIC = frozenset({3})


def test_criterion_1_orientable_table_reproduction(capsys) -> None:
    start = time.perf_counter()
    code = main(["table", "--surface", "orientable", "--gmin", "1", "--gmax", "10", "--format", "csv"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "g,rooted,sensed,unsensed"
    printed = {}
    for line in lines[1:]:
        g, rooted, sensed, unsensed = (int(cell) for cell in line.split(","))
        printed[g] = (rooted, sensed, unsensed)
    assert printed == CUBIC_ORIENTABLE
    assert printed[10][2] == 5189463083084174721816125584
    assert elapsed < 1.0
    print("CRITERION 1: PASS - orientable table genus 1..10, all 30 values exact")


def test_criterion_2_nonorientable_table_reproduction(capsys) -> None:
    start = time.perf_counter()
    code = main(["table", "--surface", "nonorientable", "--gmin", "2", "--gmax", "20", "--format", "csv"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "g,rooted,unsensed"
    printed = {}
    for line in lines[1:]:
        g, rooted, unsensed = (int(cell) for cell in line.split(","))
        printed[g] = (rooted, unsensed)
    assert printed == CUBIC_NONORIENTABLE
    assert printed[20][1] == 26745717365173718867249062116990380
    assert elapsed < 1.0
    print("CRITERION 2: PASS - non-orientable table genus 2..20, all 38 values exact")


def test_criterion_3_orbifold_table_reproduction(capsys) -> None:
    start = time.perf_counter()
    rows = set()
    for g in range(2, 9):
        code = main(["orbifolds", "--genus", str(g), "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        for line in out.splitlines()[1:]:
            row = tuple(int(cell) for cell in line.split(","))
            if row[5] != 0:
                rows.add(row)
    elapsed = time.perf_counter() - start
    assert rows == set(CLOSED_ORBIFOLD_ROWS)
    assert len(rows) == 24
    assert elapsed < 1.0
    print("CRITERION 3: PASS - 24 nonzero orbifold signatures for genus 2..8")


def test_criterion_4_cross_table_identity() -> None:
    start = time.perf_counter()
    for g in range(1, 101):
        left = (
            2 * unsensed_cubic_orientable(g)
            - sensed_cubic_orientable(g)
            - precubic_nonorientable_by_genus_pair(2 * g, g)
        )
        right = rooted_cubic_orientable(g // 2) if g % 2 == 0 else 0
        assert left == right, g
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print("CRITERION 4: PASS - cross-table identity holds for genus <= 100")


def test_criterion_5_oracle_equivalence_orientable() -> None:
    start = time.perf_counter()
    torus = SurfaceClass(True, 1)
    assert count_rooted(3, torus, _CUBIC) == 1
    assert count_sensed_orientable(3, 1, _CUBIC) == 1
    assert count_unsensed(3, torus, _CUBIC) == 1
    genus_two = SurfaceClass(True, 2)
    assert count_rooted(9, genus_two, _CUBIC) == 105
    assert count_sensed_orientable(9, 2, _CUBIC) == 9
    assert count_unsensed(9, genus_two, _CUBIC) == 8
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print("CRITERION 5: PASS - oracle reproduces (1,1,1) at n=3 and (105,9,8) at n=9")


def test_criterion_6_oracle_equivalence_nonorientable() -> None:
    start = time.perf_counter()
    klein = SurfaceClass(False, 2)
    genus_three = SurfaceClass(False, 3)
    assert count_rooted(3, klein, _CUBIC) == 6
    assert count_rooted(6, genus_three, _CUBIC) == 128
    assert count_unsensed(3, klein, _CUBIC) == 2
    assert count_unsensed(6, genus_three, _CUBIC) == 11
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print("CRITERION 6: PASS - oracle reproduces rooted (6,128) and unsensed (2,11)")


def test_criterion_7_precubic_oracle_equivalence() -> None:
    start = time.perf_counter()
    limit = 8
    checks = [check for check in suite_oracle_equivalence(limit, limit) if check.label.startswith("precubic")]
    elapsed = time.perf_counter() - start
    assert len(checks) == 16
    assert [check for check in checks if not check.passed] == []
    assert elapsed < 120.0
    print(f"CRITERION 7: PASS - {len(checks)} precubic surfaces with <= {limit} edges match")


def test_criterion_8_property_suites() -> None:
    start = time.perf_counter()
    assert (INTEGRALITY_GENUS_MAX, SPECIALIZATION_GENUS_MAX, SPECIALIZATION_BOUNDARY_MAX) == (200, 12, 12)
    checks = suite_integrality() + suite_specialization()
    elapsed = time.perf_counter() - start
    assert len(checks) == 4
    assert [check for check in checks if not check.passed] == []
    assert elapsed < 30.0
    print("CRITERION 8: PASS - integrality, sandwich bounds (g <= 200), specialization (g <= 12)")
