"""Exact arithmetic and number-theoretic helpers shared by all counting formulas.

Counts are plain Python ints (arbitrary precision). Intermediate values that
carry fractional prefactors are ``fractions.Fraction``. A Jordan totient
evaluated at a non-integral argument is zero (``jordan_totient_or_zero``),
which makes every epimorphism closed form total. The printed census sums
also read a factorial of a negative integer in a summand denominator as a
pole that kills the summand; only the literal references of the test suite
apply that, as the census chains stop before the first pole. Binomials are
``math.comb``, called with 0 <= k <= n. Every division that must come out
even is one ``exact_quotient``, which raises on a remainder: final
integrality is checked, never assumed.
"""

from __future__ import annotations

import math
from functools import cache
from typing import List, Sequence, Tuple

# ============================================================
# Factorials and exact division
# ============================================================


@cache
def factorial(n: int) -> int:
    """Return n! for n >= 0.

    Memoized: the census formulas reuse the same arguments across genera.
    """
    if n < 0:
        raise ValueError(f"factorial is undefined for negative n (got {n})")
    return math.factorial(n)


def exact_quotient(num: int, den: int, context: str = "value") -> int:
    """Return num / den, which must be an integer; raise ArithmeticError otherwise.

    A remainder means a formula was assembled wrongly, never that rounding
    is wanted. One exact division, where a Fraction would first take the gcd
    of the pair. The message leaves the value out: past 4300 digits,
    formatting it would raise ValueError in place of this error.
    """
    quotient, remainder = divmod(num, den)
    if remainder:
        raise ArithmeticError(f"{context} is not an integer")
    return quotient


# ============================================================
# Totients
# ============================================================


def prime_factorization(n: int) -> List[Tuple[int, int]]:
    """Return the prime factorization of n >= 1 as (prime, exponent) pairs.

    Plain trial division; adequate for the arguments these formulas produce
    (homeomorphism periods, small lcms).
    """
    if n < 1:
        raise ValueError(f"factorization requires n >= 1 (got {n})")
    out: List[Tuple[int, int]] = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            out.append((p, a))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


@cache
def euler_phi(n: int) -> int:
    """Return the Euler totient of n >= 1: the Jordan totient J_1(n).

    Memoized: the solver asks for the few periods and lcms of one genus at
    every signature.
    """
    return jordan_totient_or_zero(1, n, 1)


def jordan_totient_or_zero(k: int, num: int, den: int) -> int:
    """Return the Jordan totient J_k(num/den), or 0 if den does not divide num.

    J_k(m) = prod over p^a || m of (p^{ak} - p^{(a-1)k}); J_k(1) = 1 for all k,
    and J_0(m) is the indicator of m = 1. The zero convention for non-integral
    arguments is what makes the epimorphism closed forms total.
    """
    if k < 0:
        raise ValueError(f"jordan totient order must be >= 0 (got {k})")
    if num < 1 or den < 1:
        raise ValueError(f"jordan totient argument must be positive (got {num}/{den})")
    if num % den != 0:
        return 0
    m = num // den
    if k == 0:
        return 1 if m == 1 else 0
    out = 1
    for p, a in prime_factorization(m):
        out *= p ** (a * k) - p ** ((a - 1) * k)
    return out


def lcm_list(values: Sequence[int]) -> int:
    """Return lcm of the given positive integers; lcm of the empty list is 1."""
    for v in values:
        if v < 1:
            raise ValueError(f"lcm_list requires positive integers (got {v})")
    return math.lcm(*values)
