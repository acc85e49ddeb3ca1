"""The census kernels against the closed forms summed literally, one reduced Fraction per summand.

The library walks the quotient counts behind the correction terms as chains
of exact small-ratio steps, and evaluates each closed form as one exact
integer division. The reference functions below are the formulas as printed,
with the pole convention applied summand by summand; they share no
evaluation code with the kernels, only the cached factorial, the epsilon
coefficients and the signature solver. The period-2 quotient orbifolds are
the literal Riemann-Hurwitz ranges. The orientable references keep the paper's three correction
sums S2, S3 and S4(k); the census splits them into one term per rotation
class, and the tests add its terms up by sum.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import comb
from typing import Dict

import pytest

from cubicmaps.census import (
    h2_term_nonorientable,
    hl_term_nonorientable,
    orientable_census_row,
    orientable_terms,
    sensed_cubic_orientable,
    unsensed_cubic_orientable,
)
from cubicmaps.exactnum import factorial
from cubicmaps.orbifolds import epsilon_h2_nonorientable, epsilon_h2_orientable, solve_closed_orbifolds
from cubicmaps.rooted_counts import (
    c_coefficient,
    precubic_nonorientable_by_genus_pair,
    precubic_nonorientable_by_leaves,
    rooted_cubic_nonorientable,
    rooted_cubic_orientable,
)

GENERA = list(range(1, 81)) + [150, 201, 300]


# ============================================================
# Reference formulas, summed literally
# ============================================================


def require_integer(value: Fraction) -> int:
    assert value.denominator == 1, "a reference formula summed to a non-integer"
    return value.numerator


def factorial_or_zero_reciprocal(n: int) -> Fraction:
    """1/n! for n >= 0, and 0 for n < 0: a negative factorial in a denominator is a pole."""
    if n < 0:
        return Fraction(0)
    return Fraction(1, factorial(n))


def reference_c_coefficient(h: int) -> Fraction:
    partial = sum(Fraction(comb(2 * i, i), 16 ** i) for i in range(h))
    return Fraction(2 ** (2 * h - 2) * factorial(h), 3 ** (h - 1) * factorial(2 * h)) * partial


def reference_rooted_cubic_orientable(g: int) -> int:
    return require_integer(Fraction(2 * factorial(6 * g - 3), 12 ** g * factorial(g) * factorial(3 * g - 2)))


def reference_rooted_cubic_nonorientable(g: int) -> int:
    # the parity-split cubic forms, with the formal value 1 at g = 1
    h = g // 2
    if g % 2 == 0:
        return require_integer(reference_c_coefficient(h) * Fraction(factorial(6 * h - 2), factorial(3 * h - 1)))
    return require_integer(Fraction(2 ** (6 * h) * factorial(3 * h), 3 ** h * factorial(h)))


def reference_precubic_orientable(g: int, gg: int) -> int:
    # 2 (2m+1)! / (12^gg gg! m! k!) with k = g-4gg leaves and m = g-gg-2
    if gg < 0 or g < 4 * gg or g < gg + 2:
        return 0
    k, m = g - 4 * gg, g - gg - 2
    return require_integer(Fraction(2 * factorial(2 * m + 1), 12 ** gg * factorial(gg) * factorial(m) * factorial(k)))


def reference_precubic_by_leaves(gg: int, k: int) -> int:
    if gg < 1 or k < 0:
        return 0
    if gg % 2 == 0:
        h = gg // 2
        if 2 * k + 6 * h - 3 <= 0:
            return 0
        value = (
            2
            * reference_c_coefficient(h)
            * factorial(2 * k + 6 * h - 3)
            * factorial_or_zero_reciprocal(k)
            * factorial_or_zero_reciprocal(k + 3 * h - 2)
        )
    else:
        h = (gg - 1) // 2
        if 2 * k + 6 * h <= 0:
            return 0
        value = Fraction(2 ** (6 * h + 2 * k) * factorial(k + 3 * h), 3 ** h * factorial(h) * factorial(k))
    return require_integer(value)


def reference_precubic_by_genus_pair(g: int, gg: int) -> int:
    if gg < 1:
        return 0
    if gg % 2 == 0:
        h = gg // 2
        if g - h - 2 < 0:
            return 0
        value = (
            2
            * reference_c_coefficient(h)
            * factorial(2 * g - 2 * h - 3)
            * factorial_or_zero_reciprocal(g - h - 2)
            * factorial_or_zero_reciprocal(g - 4 * h)
        )
    else:
        h = (gg - 1) // 2
        if g - h - 2 < 0:
            return 0
        value = (
            Fraction(2 ** (2 * g - 2 * h - 4) * factorial(g - h - 2), 3 ** h * factorial(h))
            * factorial_or_zero_reciprocal(g - 4 * h - 2)
        )
    return require_integer(value)


def reference_sensed_terms(g: int) -> Dict[tuple, Fraction]:
    terms = {("rooted",): Fraction(reference_rooted_cubic_orientable(g), 2 * (6 * g - 3))}
    second = Fraction(0)
    for gg in range(g // 2 + 1):
        second += (
            Fraction(factorial(4 * g - 2 - 2 * gg), 2 * 3 ** gg * factorial(gg) * factorial(2 * g - 1 - gg))
            * factorial_or_zero_reciprocal(2 * g - 4 * gg + 1)
        )
    terms[("S2",)] = second
    third = Fraction(0)
    for gg in range((g + 1) // 3 + 1):
        third += (
            Fraction(3, 4) ** (gg - 1)
            * (2 ** (g + 1 - 3 * gg) + (-1) ** (g - gg))
            * Fraction(1, factorial(gg))
            * factorial_or_zero_reciprocal(g + 1 - 3 * gg)
        )
    terms[("S3",)] = Fraction(factorial(2 * g - 2), 6 * factorial(g - 1)) * third
    for k in range(g // 2, (2 * g - 2) // 3 + 1):
        fourth = Fraction(0)
        for gg in range(k - g // 2 + 1):
            fourth += (
                Fraction(3) ** (gg - 2)
                * (2 ** (2 * g - 1 - 3 * k) + (-1) ** k)
                * Fraction(factorial(2 * k - 2 * gg), factorial(gg) * factorial(k - gg))
                * factorial_or_zero_reciprocal(4 * k + 3 - 2 * g - 4 * gg)
                * factorial_or_zero_reciprocal(2 * g - 1 - 3 * k)
            )
        terms[("S4", k)] = fourth
    return terms


def reference_sensed(g: int) -> int:
    return require_integer(sum(reference_sensed_terms(g).values()))


def reference_unsensed(g: int) -> int:
    halved = reference_rooted_cubic_orientable(g // 2) if g % 2 == 0 else 0
    return require_integer(Fraction(reference_sensed(g) + halved + reference_precubic_by_genus_pair(2 * g, g), 2))


def reference_h2_term(g: int) -> Fraction:
    # orientable quotients of genus gg with g-4gg branch points, non-orientable ones with gg crosscaps and g-2gg
    total = Fraction(0)
    for gg in range(g // 4 + 1):
        total += Fraction(epsilon_h2_orientable(gg, g - 4 * gg) * reference_precubic_orientable(g, gg), 2)
    for gg in range(1, g // 2 + 1):
        total += Fraction(epsilon_h2_nonorientable(gg, g - 2 * gg) * reference_precubic_by_genus_pair(g, gg), 2)
    return total


def reference_hl_term(g: int) -> Fraction:
    total = Fraction(0)
    for sol in solve_closed_orbifolds(g):
        if not sol.contributes:
            continue
        k = sol.n_s + sol.n_v
        total += Fraction(sol.epsilon * comb(k, sol.n_s) * reference_precubic_by_leaves(sol.genus, k)) / Fraction(
            6 * g - 6 + sol.l * sol.n_s, 2
        )
    return total / 4


# ============================================================
# Kernels == references
# ============================================================


def test_factorial_or_zero_reciprocal() -> None:
    assert factorial_or_zero_reciprocal(-3) == 0
    assert factorial_or_zero_reciprocal(-1) == 0
    assert factorial_or_zero_reciprocal(0) == 1
    assert factorial_or_zero_reciprocal(5) == Fraction(1, 120)


@pytest.mark.parametrize("g", GENERA)
def test_orientable_kernels_match_literal_sums(g: int) -> None:
    sensed, unsensed = reference_sensed(g), reference_unsensed(g)
    assert sensed_cubic_orientable(g) == sensed
    assert unsensed_cubic_orientable(g) == unsensed
    row = orientable_census_row(g)
    assert (row.sensed, row.unsensed) == (sensed, unsensed)


def literal_sum_of(g: int, key: tuple) -> tuple:
    """The literal sum a census key belongs to: S2 holds the order-2 classes, S3
    the order-3 ones, and S4(k) the order-6 ones with n_v = 2g-1-3k."""
    if key[0] != "hl":
        return key
    l, n_v = key[1], key[4]
    return ("S2",) if l == 2 else ("S3",) if l == 3 else ("S4", (2 * g - 1 - n_v) // 3)


@pytest.mark.parametrize("g", GENERA)
def test_orientable_terms_match_literal_parts(g: int) -> None:
    terms = [(key, Fraction(num, den)) for key, num, den in orientable_terms(g)]
    assert len(dict(terms)) == len(terms)
    sums: Dict[tuple, Fraction] = defaultdict(Fraction)
    for key, value in terms:
        sums[literal_sum_of(g, key)] += value
    assert sums == {
        **reference_sensed_terms(g),
        ("reflection", "orientable"): reference_rooted_cubic_orientable(g // 2) if g % 2 == 0 else 0,
        ("reflection", "non-orientable"): reference_precubic_by_genus_pair(2 * g, g),
    }


@pytest.mark.parametrize("g", [g for g in GENERA if g >= 2])
def test_nonorientable_terms_match_literal_sums(g: int) -> None:
    assert h2_term_nonorientable(g) == reference_h2_term(g)
    assert hl_term_nonorientable(g) == reference_hl_term(g)


@pytest.mark.parametrize("g", GENERA)
def test_rooted_cubic_counts_match_literal_forms(g: int) -> None:
    assert rooted_cubic_orientable(g) == reference_rooted_cubic_orientable(g)
    assert rooted_cubic_nonorientable(g) == (reference_rooted_cubic_nonorientable(g) if g >= 2 else 0)
    # the reflection term of the unsensed orientable count is the leafless
    # genus-pair quotient, the cubic non-orientable form at genus g
    assert reference_precubic_by_genus_pair(2 * g, g) == reference_rooted_cubic_nonorientable(g)


def test_c_coefficient_matches_literal_sum() -> None:
    for h in range(1, 151):
        assert c_coefficient(h) == reference_c_coefficient(h)


def test_precubic_nonorientable_match_literal_forms() -> None:
    for gg in range(-1, 41):
        for k in range(-1, 41):
            assert precubic_nonorientable_by_leaves(gg, k) == reference_precubic_by_leaves(gg, k), (gg, k)
    for g in range(0, 81):
        for gg in range(-1, g + 2):
            assert precubic_nonorientable_by_genus_pair(g, gg) == reference_precubic_by_genus_pair(g, gg), (g, gg)
    for g in (150, 201, 300):
        for gg in range(1, g // 2 + 1):
            assert precubic_nonorientable_by_genus_pair(g, gg) == reference_precubic_by_genus_pair(g, gg), (g, gg)
