"""Exact arithmetic and number-theoretic helpers shared by all counting formulas.

Counts are plain Python ints (arbitrary precision). Intermediate values that
carry fractional prefactors are ``fractions.Fraction``. Everything downstream
relies on two conventions fixed here:

  - a factorial of a negative integer appearing in a summand denominator is a
    pole, and the whole summand vanishes (the census kernels end each
    ``hypergeometric_sum`` chain before its first pole);
  - a Jordan totient evaluated at a non-integral argument is zero
    (``jordan_totient_or_zero``).

With these, every summand of every closed-form formula is total, and final
integrality can be asserted instead of assumed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import List, Sequence, Tuple

# ============================================================
# Factorials and binomials
# ============================================================


@cache
def factorial(n: int) -> int:
    """Return n! for n >= 0.

    Memoized: the census formulas reuse the same arguments across genera.
    """
    if n < 0:
        raise ValueError(f"factorial is undefined for negative n (got {n})")
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    """Return C(n, k) for n >= 0, with C(n, k) = 0 when k < 0 or k > n."""
    if n < 0:
        raise ValueError(f"binomial requires n >= 0 (got n={n})")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def require_integer(value: Fraction, context: str = "value") -> int:
    """Convert an exact rational that must be integral into an int.

    Raises ArithmeticError otherwise: a non-integral final count means a
    formula was assembled wrongly, never that rounding is wanted. The message
    leaves the value out: past 4300 digits, formatting it would raise
    ValueError in place of this error.
    """
    if value.denominator != 1:
        raise ArithmeticError(f"{context} is not an integer")
    return int(value)


def exact_quotient(num: int, den: int, context: str = "value") -> int:
    """Return num / den, which must be an integer; raise ArithmeticError otherwise.

    The integer form of require_integer: one exact division instead of the
    gcd a Fraction would take to reduce the pair first.
    """
    quotient, remainder = divmod(num, den)
    if remainder:
        raise ArithmeticError(f"{context} is not an integer")
    return quotient


# ============================================================
# Hypergeometric sums
# ============================================================


def hypergeometric_sum(first_num: int, first_den: int, ratios: Sequence[Tuple[int, int]]) -> Tuple[int, int]:
    """Sum the terms t_0, ..., t_m with t_0 = first_num/first_den and t_{j+1} = t_j * p_j/q_j.

    `ratios` lists the m pairs (p_j, q_j) of small integers. Horner's rule
    from the last term back, t_0 (1 + r_0 (1 + r_1 (... (1 + r_{m-1})))),
    keeps the inner value as an unreduced numerator/denominator pair, so each
    step is a big-by-small product; the sum is that pair, over first_den
    times every q_j, for the caller to reduce once. A zero term ends the
    chain, so callers stop at the last nonzero term instead of a pole.
    """
    num = den = 1
    for p, q in reversed(ratios):
        num, den = q * den + p * num, q * den
    return first_num * num, first_den * den


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


def euler_phi(n: int) -> int:
    """Return the Euler totient of n >= 1: the Jordan totient J_1(n)."""
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
