"""Unit tests for the exact arithmetic helpers."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from cubicmaps.exactnum import (
    euler_phi,
    exact_quotient,
    factorial,
    jordan_totient_or_zero,
    lcm_list,
    prime_factorization,
    require_integer,
)


def test_factorial_matches_math() -> None:
    for n in range(0, 25):
        assert factorial(n) == math.factorial(n)


def test_factorial_rejects_negative() -> None:
    with pytest.raises(ValueError):
        factorial(-1)


def test_require_integer() -> None:
    assert require_integer(Fraction(6, 3)) == 2
    assert isinstance(require_integer(Fraction(4, 2)), int)
    with pytest.raises(ArithmeticError):
        require_integer(Fraction(1, 2), "half")
    with pytest.raises(ArithmeticError):
        require_integer(Fraction(10 ** 4400 + 1, 2))


def test_exact_quotient() -> None:
    assert exact_quotient(factorial(10), factorial(7)) == 720
    assert exact_quotient(-12, 4) == -3
    with pytest.raises(ArithmeticError, match="half"):
        exact_quotient(1, 2, "half")
    with pytest.raises(ArithmeticError):
        exact_quotient(factorial(500) + 1, factorial(499))


def test_prime_factorization() -> None:
    assert prime_factorization(1) == []
    assert prime_factorization(12) == [(2, 2), (3, 1)]
    assert prime_factorization(97) == [(97, 1)]
    assert prime_factorization(360) == [(2, 3), (3, 2), (5, 1)]
    with pytest.raises(ValueError):
        prime_factorization(0)


def test_euler_phi_values() -> None:
    known = {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 10: 4, 12: 4, 30: 8, 97: 96}
    for n, value in known.items():
        assert euler_phi(n) == value
    with pytest.raises(ValueError):
        euler_phi(0)


def test_euler_phi_divisor_sum() -> None:
    # sum of phi(d) over divisors d of n is n
    for n in range(1, 60):
        assert sum(euler_phi(d) for d in range(1, n + 1) if n % d == 0) == n


def test_jordan_totient_values() -> None:
    # J_2(n) = n^2 prod (1 - 1/p^2)
    assert jordan_totient_or_zero(2, 4, 1) == 12
    assert jordan_totient_or_zero(2, 6, 1) == 24
    assert jordan_totient_or_zero(3, 2, 1) == 7
    # order zero is the indicator of argument 1
    assert jordan_totient_or_zero(0, 5, 5) == 1
    assert jordan_totient_or_zero(0, 10, 5) == 0


def test_jordan_totient_zero_on_nonintegral_argument() -> None:
    assert jordan_totient_or_zero(2, 1, 2) == 0
    assert jordan_totient_or_zero(1, 7, 3) == 0
    assert jordan_totient_or_zero(1, 6, 3) == euler_phi(2)


def test_jordan_totient_rejects_bad_arguments() -> None:
    with pytest.raises(ValueError):
        jordan_totient_or_zero(-1, 4, 2)
    with pytest.raises(ValueError):
        jordan_totient_or_zero(1, 0, 1)
    with pytest.raises(ValueError):
        jordan_totient_or_zero(1, 4, 0)


def test_jordan_totient_multiplicative() -> None:
    for a, b in ((3, 4), (5, 8), (7, 9)):
        for k in (1, 2, 3):
            left = jordan_totient_or_zero(k, a * b, 1)
            right = jordan_totient_or_zero(k, a, 1) * jordan_totient_or_zero(k, b, 1)
            assert left == right


def test_lcm_list() -> None:
    assert lcm_list([]) == 1
    assert lcm_list([4]) == 4
    assert lcm_list([2, 3, 4]) == 12
    assert lcm_list([6, 10, 15]) == 30
    with pytest.raises(ValueError):
        lcm_list([2, 0])
