"""The period-2 coefficients, the signature solver, and the epimorphism closed forms."""

from __future__ import annotations

import pytest

from cubicmaps.golden import CLOSED_ORBIFOLD_ROWS
from cubicmaps.orbifolds import (
    SignatureSolution,
    _contributing_signatures,
    epi_nonorientable_boundary,
    epi_nonorientable_closed,
    epi_orientable_boundary,
    epi_plus_nonorientable_boundary,
    epi_plus_nonorientable_closed,
    epi_plus_orientable_boundary,
    epsilon_h2_nonorientable,
    epsilon_h2_orientable,
    epsilon_hl,
    solve_closed_orbifolds,
)


def test_epsilon_h2_values() -> None:
    assert epsilon_h2_orientable(0, 2) == 1
    assert epsilon_h2_orientable(0, 0) == 0
    assert epsilon_h2_orientable(2, 1) == 16
    assert epsilon_h2_orientable(2, 0) == 15
    assert epsilon_h2_nonorientable(1, 3) == 2
    assert epsilon_h2_nonorientable(3, 0) == 7
    with pytest.raises(ValueError):
        epsilon_h2_orientable(-1, 0)
    with pytest.raises(ValueError):
        epsilon_h2_nonorientable(0, 1)


def test_signature_solution_fields() -> None:
    sol = SignatureSolution(6, 1, 1, 0, 4)
    assert sol.contributes
    assert sol.branch_indices() == [2, 6]
    assert SignatureSolution(2, 1, 4, 0, 0).contributes is False


def test_solve_closed_orbifolds_small_cases() -> None:
    assert solve_closed_orbifolds(1) == []
    assert solve_closed_orbifolds(2) == [SignatureSolution(2, 1, 1, 0, 2)]
    contributing = [s for s in solve_closed_orbifolds(5) if s.contributes]
    assert contributing == [SignatureSolution(3, 1, 0, 2, 8)]


def test_solve_closed_orbifolds_matches_frozen_rows() -> None:
    got = sorted(
        (g, s.l, s.genus, s.n_s, s.n_v, s.epsilon)
        for g in range(2, 9)
        for s in solve_closed_orbifolds(g)
        if s.contributes
    )
    assert got == sorted(CLOSED_ORBIFOLD_ROWS)


def test_solve_closed_orbifolds_sorted_and_consistent() -> None:
    for g in range(2, 25):
        sols = solve_closed_orbifolds(g)
        keys = [(s.l, s.genus, s.n_s, s.n_v) for s in sols]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        bound = 2 * g - 2 if g % 2 == 0 else 2 * g
        for s in sols:
            assert (6 * g - 6) % s.l == 0
            assert 2 <= s.l <= bound
            # the defining equation of the signature
            assert 6 * g - 6 == s.l * (6 * s.genus - 6 + 3 * s.n_s + 4 * s.n_v)
            assert s.epsilon == epsilon_hl(s.l, s.genus, s.n_s, s.n_v)


def reference_closed_signatures(g: int) -> list:
    """The signature solver as first written: every n_v tried, every gg tried."""
    out = []
    bound = 2 * g - 2 if g % 2 == 0 else 2 * g
    for l in range(2, bound + 1):
        if (6 * g - 6) % l != 0:
            continue
        for gg in range(1, (g + l - 1) // l + 1):
            rest = (6 * g - 6) // l - 6 * gg + 6
            if rest < 0:
                continue
            for n_v in range(rest // 4 + 1):
                if (rest - 4 * n_v) % 3 != 0:
                    continue
                n_s = (rest - 4 * n_v) // 3
                if n_s > 0 and l % 2 != 0:
                    continue
                if n_v > 0 and l % 3 != 0:
                    continue
                out.append((l, gg, n_s, n_v, epsilon_hl(l, gg, n_s, n_v)))
    return sorted(out)


@pytest.mark.parametrize(
    "genera",
    [range(2, 301), range(1150, 1174), (1999, 2000)],
    ids=["2..300", "1150..1173", "1999-2000"],
)
def test_solve_closed_orbifolds_matches_reference_loop(genera) -> None:
    for g in genera:
        got = [(s.l, s.genus, s.n_s, s.n_v, s.epsilon) for s in solve_closed_orbifolds(g)]
        assert got == reference_closed_signatures(g), g


@pytest.mark.parametrize(
    "genera",
    [range(2, 301), range(1150, 1174), (1999, 2000)],
    ids=["2..300", "1150..1173", "1999-2000"],
)
def test_the_stream_holds_exactly_the_contributing_signatures(genera) -> None:
    # whole periods are skipped by the period rule, so the stream is held to the solver's
    # signatures with nonzero epsilon: one list per crosscap count gg = 1..g//2, each in (k, l) order
    for g in genera:
        layers = list(_contributing_signatures(g))
        assert len(layers) == g // 2, g
        want = [[] for _ in layers]
        for s in solve_closed_orbifolds(g):
            if s.epsilon:
                want[s.genus - 1].append((s.n_s + s.n_v, s.l, s.n_s, s.n_v, s.epsilon))
        assert layers == [sorted(layer) for layer in want], g


def test_epsilon_hl_cases() -> None:
    # odd period
    assert epsilon_hl(3, 1, 0, 2) == 8
    assert epsilon_hl(5, 2, 0, 0) == 20
    # even period, even parity: doubled
    assert epsilon_hl(2, 1, 1, 0) == 2
    assert epsilon_hl(10, 1, 1, 0) == 8
    # even period, odd parity: zero
    assert epsilon_hl(2, 1, 4, 0) == 0
    assert epsilon_hl(4, 1, 2, 0) == 0
    with pytest.raises(ValueError):
        epsilon_hl(1, 1, 0, 0)
    with pytest.raises(ValueError):
        epsilon_hl(2, 0, 0, 0)


def test_epi_boundary_validation() -> None:
    with pytest.raises(ValueError):
        epi_orientable_boundary(1, 0, [], 2)
    with pytest.raises(ValueError):
        epi_orientable_boundary(1, 1, [], 3)  # odd period not covered
    with pytest.raises(ValueError):
        epi_plus_orientable_boundary(1, 1, [], 4)  # group order must be 2l, l odd
    with pytest.raises(ValueError):
        epi_nonorientable_boundary(1, 1, [], 5)
    with pytest.raises(ValueError):
        epi_plus_nonorientable_boundary(1, 1, [], 8)


def test_epi_boundary_spot_values() -> None:
    # onto Z_2, one boundary, no branch points
    assert epi_orientable_boundary(1, 1, [], 2) == 4
    assert epi_plus_orientable_boundary(1, 1, [], 2) == 1
    assert epi_nonorientable_boundary(2, 1, [], 2) == 4
    assert epi_plus_nonorientable_boundary(2, 1, [], 2) == 1
    # a branch point of index 2 kills the orientation-preserving count
    assert epi_plus_orientable_boundary(1, 1, [2], 2) == 0
    assert epi_orientable_boundary(1, 1, [2, 2], 2) == 4


def test_epi_boundary_specializes_to_epsilon_h2() -> None:
    for gg in range(0, 9):
        for r in range(0, 9):
            branch = [2] * r
            diff = epi_orientable_boundary(gg, 1, branch, 2) - epi_plus_orientable_boundary(gg, 1, branch, 2)
            assert diff == epsilon_h2_orientable(gg, r), (gg, r)
    for gg in range(1, 9):
        for r in range(0, 9):
            branch = [2] * r
            diff = epi_nonorientable_boundary(gg, 1, branch, 2) - epi_plus_nonorientable_boundary(
                gg, 1, branch, 2
            )
            assert diff == epsilon_h2_nonorientable(gg, r), (gg, r)


def test_epi_closed_validation() -> None:
    with pytest.raises(ValueError):
        epi_nonorientable_closed(0, [], 2)
    with pytest.raises(ValueError):
        epi_nonorientable_closed(1, [], 1)
    with pytest.raises(ValueError):
        epi_plus_nonorientable_closed(0, [], 2)


def test_epi_closed_spot_values() -> None:
    # the genus-2 census signature: one index-2 point and the face point
    assert epi_nonorientable_closed(1, [2, 2], 2) == 2
    assert epi_plus_nonorientable_closed(1, [2, 2], 2) == 0
    # odd period: orientation-preserving count always vanishes
    assert epi_plus_nonorientable_closed(3, [3, 3], 3) == 0
    assert epi_nonorientable_closed(1, [3, 3, 3], 3) == 8


def test_epi_closed_specializes_to_epsilon() -> None:
    for g in range(2, 9):
        for sol in solve_closed_orbifolds(g):
            branch = sol.branch_indices()
            diff = epi_nonorientable_closed(sol.genus, branch, sol.l) - epi_plus_nonorientable_closed(
                sol.genus, branch, sol.l
            )
            assert diff == sol.epsilon, sol
