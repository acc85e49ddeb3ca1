"""Quotient-orbifold families and epimorphism coefficients for the census.

An order-l symmetry of a surface carrying a one-face cubic map descends to a
quotient map on an orbifold. Two families matter here:

  - period-2 symmetries of either surface kind give an orbifold with a single
    boundary component and only index-2 branch points ("h2" family; the
    census walks its two Riemann-Hurwitz ranges itself, so only its epsilon
    coefficients live here);
  - longer periods acting on a non-orientable surface give a closed
    non-orientable orbifold whose signature is gg crosscaps with n_s index-2
    points (at semiedge ends), n_v index-3 points (at vertices), and one
    index-l point in the face.

Each admissible signature carries a coefficient epsilon: the number of
order-preserving epimorphisms from the orbifold fundamental group onto the
cyclic group Z_l minus the orientation-and-order-preserving ones. The solver
below lists the closed signatures for a given genus, which the `orbifolds`
command and `verify` read; the census reads only those with nonzero epsilon,
streamed in its walk order from the same enumeration. The epi_*
operations implement the general closed forms (Jordan-totient expressions)
that the epsilon shortcuts specialize; the test suite holds the two routes
together.

The record SignatureSolution is a plain named tuple: only the solver below
builds it, so it carries no constructor checks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, List, NamedTuple, Sequence, Tuple

from .exactnum import euler_phi, jordan_totient_or_zero, lcm_list


# ============================================================
# Period-2 coefficients
# ============================================================


def epsilon_h2_orientable(gg: int, r: int) -> int:
    """Epimorphism-difference coefficient for an orientable period-2 quotient.

    2^{2gg} with branch points, 2^{2gg} - 1 without.
    """
    if gg < 0 or r < 0:
        raise ValueError("epsilon_h2_orientable requires nonnegative arguments")
    return 2 ** (2 * gg) if r > 0 else 2 ** (2 * gg) - 1


def epsilon_h2_nonorientable(gg: int, r: int) -> int:
    """Epimorphism-difference coefficient for a non-orientable period-2 quotient.

    2^gg with branch points, 2^gg - 1 without.
    """
    if gg < 1 or r < 0:
        raise ValueError("epsilon_h2_nonorientable requires gg >= 1 and r >= 0")
    return 2 ** gg if r > 0 else 2 ** gg - 1


# ============================================================
# Closed-orbifold signature solver (periods l >= 2)
# ============================================================


class SignatureSolution(NamedTuple):
    """A closed non-orientable orbifold signature with its epsilon coefficient.

    Signature: gg crosscaps, n_s index-2 points, n_v index-3 points, plus the
    index-l face point. Solutions with epsilon = 0 are retained; they
    contribute nothing to the census but witness the parity condition.
    """

    l: int
    genus: int
    n_s: int
    n_v: int
    epsilon: int

    @property
    def contributes(self) -> bool:
        return self.epsilon != 0

    def branch_indices(self) -> List[int]:
        """The full branch-index list [2,...,2, 3,...,3, l] of the signature."""
        return [2] * self.n_s + [3] * self.n_v + [self.l]


def _periods(g: int) -> List[int]:
    """The periods l >= 2 of the genus-g signatures: divisors of 6g-6 up to 2g-2 (even g) or 2g (odd g)."""
    bound = 2 * g - 2 if g % 2 == 0 else 2 * g
    return [l for l in range(2, bound + 1) if (6 * g - 6) % l == 0]


def _branch_points(g: int, l: int, gg: int) -> Iterator[Tuple[int, int]]:
    """(n_s, n_v) of each genus-g signature of period l with gg crosscaps, n_v falling, n_s rising.

    Solves 3 n_s + 4 n_v = rest = (6g-6)/l - 6gg + 6 >= 0 (Riemann-Hurwitz)
    with n_s > 0 only for even l and n_v > 0 only for l divisible by 3.
    """
    rest = (6 * g - 6) // l - 6 * gg + 6
    # 4 n_v = rest - 3 n_s forces n_v = rest (mod 3); n_v > 0 needs 3 | l
    for n_v in reversed(range(rest % 3, (rest // 4 if l % 3 == 0 else 0) + 1, 3)):
        n_s = (rest - 4 * n_v) // 3
        if n_s == 0 or l % 2 == 0:
            yield n_s, n_v


def solve_closed_orbifolds(g: int) -> List[SignatureSolution]:
    """All closed-orbifold signatures for period-l symmetries, l >= 2, of genus g.

    Solves 6g-6 = l (6gg - 6 + 3 n_s + 4 n_v) subject to: l divides 6g-6 and
    stays within the period bound (2g-2 for even g, 2g for odd g); gg in
    [1, (g+l-1)//l]; n_s > 0 only for even l, n_v > 0 only for l divisible
    by 3. Epsilon = 0 included; empty for g < 2. The loops emit the list in
    (l, gg, n_s, n_v) order: within one (l, gg), n_v falls and so n_s rises.
    """
    if g < 2:
        return []
    out: List[SignatureSolution] = []
    for l in _periods(g):
        # gg <= (g + l - 1) / l keeps rest >= 0
        for gg in range(1, (g + l - 1) // l + 1):
            for n_s, n_v in _branch_points(g, l, gg):
                out.append(SignatureSolution(l, gg, n_s, n_v, epsilon_hl(l, gg, n_s, n_v)))
    return out


def _contributing_signatures(g: int) -> Iterator[List[Tuple[int, int, int, int, int, int]]]:
    """The genus-g signatures with nonzero epsilon, one list per gg = 1, 2, ..., in the census's walk order.

    Each list holds (gg, k, l, n_s, n_v, epsilon) with k = n_s+n_v, sorted
    by (k, l): the signatures of solve_closed_orbifolds(g) with nonzero
    epsilon, with no record built for the others and one epsilon_hl call
    per contributing (l, gg).
    Whole periods are decided at once: with q = (6g-6)/l, n_s = rest = q
    (mod 2), and l/3 is even whenever 6 | l, so epsilon_hl's parity test
    reads (l/2) q + 1. An odd period always contributes (with n_s = 0), an
    even one exactly when l = 2 (mod 4) and q is odd; at odd g, where
    4 | 6g-6, no even period does. So no contributing signature has more
    than g//2 crosscaps (odd l >= 3; even l only at even g). The stream stops
    after the last gg that any contributing period reaches.
    """
    # rising l, so the periods that reach gg, those with (g+l-1)//l >= gg, are a prefix
    periods = [l for l in _periods(g) if l % 2 or (l % 4 == 2 and (6 * g - 6) // l % 2)]
    for gg in range(1, g // 2 + 1):
        while periods and (g + periods[-1] - 1) // periods[-1] < gg:
            periods.pop()
        if not periods:
            return
        found: List[Tuple[int, int, int, int, int, int]] = []
        for l in periods:
            # n_s = q (mod 2) throughout the period, and epsilon_hl reads n_s only through
            # that parity and n_v only through the factor 2^{n_v}
            epsilon = epsilon_hl(l, gg, (6 * g - 6) // l % 2, 0)
            found.extend((gg, n_s + n_v, l, n_s, n_v, epsilon << n_v) for n_s, n_v in _branch_points(g, l, gg))
        found.sort()
        yield found


def epsilon_hl(l: int, gg: int, n_s: int, n_v: int) -> int:
    """Epimorphism-difference coefficient of a closed signature.

    l^{gg-1} phi(l) 2^{n_v} for odd l; twice that for even l when
    (l/2) n_s + (l/3) n_v + 1 is even (a zero-count term contributes 0 even
    if its divisor condition fails); 0 otherwise.
    """
    if l < 2 or gg < 1 or n_s < 0 or n_v < 0:
        raise ValueError("epsilon_hl arguments out of range")
    # The parity test is decided first. Over the signatures of one genus g it depends on the
    # period only: at odd g every even period fails it, at even g those with l = 0 (mod 4)
    # or (6g-6)/l even (see _contributing_signatures).
    if l % 2 == 0 and ((l // 2) * n_s + (l // 3) * n_v + 1) % 2 != 0:
        return 0
    base = l ** (gg - 1) * euler_phi(l) * 2 ** n_v
    return base if l % 2 != 0 else 2 * base


# ============================================================
# General epimorphism counts (cross-check route)
# ============================================================
#
# The shortcuts above are specializations of the closed forms below, which
# count order-preserving (epi) and orientation-and-order-preserving
# (epi_plus) epimorphisms onto a cyclic group. They are implemented as
# printed, for the stated parities only, and exercised by cross-check tests.
# The boundary forms see the orbifold only through a rank: 2gg+h-1 for an
# orientable orbifold with h >= 1 boundaries, gg+h-1 for a non-orientable one.


def _epi_term(rank: int, order: int, m: int, branch_indices: Sequence[int]) -> int:
    """m^rank J_rank(order/m) prod phi(m_i): every count below is built from terms of this shape.

    J(l/(2m)) is read as J((l/2)/m), which agrees for the even l it is used with.
    """
    out = m ** rank * jordan_totient_or_zero(rank, order, m)
    for m_i in branch_indices:
        out *= euler_phi(m_i)
    return out


def _epi_boundary(rank: int, h: int, branch_indices: Sequence[int], l: int) -> int:
    """Order-preserving epimorphisms onto Z_l, even l, from a bordered orbifold group of that rank.

    (m')^rank J_rank(l/m') prod phi(m_i) with m' = lcm(2, m_1..m_r).
    """
    if h < 1:
        raise ValueError("the boundary form requires h >= 1")
    if l % 2 != 0:
        raise ValueError("the order-preserving boundary form is stated for even l")
    return _epi_term(rank, l, lcm_list([2, *branch_indices]), branch_indices)


def _epi_plus_boundary(rank: int, h: int, branch_indices: Sequence[int], group_order: int) -> int:
    """Orientation-and-order-preserving epimorphisms onto Z_{2l}, l odd, from a bordered orbifold group.

    `group_order` is 2l. Count: m^rank J_rank(l/m) prod phi(m_i) with
    m = lcm(m_1..m_r).
    """
    if h < 1:
        raise ValueError("the boundary form requires h >= 1")
    if group_order % 2 != 0 or (group_order // 2) % 2 != 1:
        raise ValueError("the orientation-preserving boundary form is stated for group order 2l, l odd")
    return _epi_term(rank, group_order // 2, lcm_list(branch_indices), branch_indices)


def epi_orientable_boundary(gg: int, h: int, branch_indices: Sequence[int], l: int) -> int:
    """Order-preserving epimorphisms onto Z_l, even l, orientable orbifold with h >= 1 boundaries."""
    return _epi_boundary(2 * gg + h - 1, h, branch_indices, l)


def epi_plus_orientable_boundary(gg: int, h: int, branch_indices: Sequence[int], group_order: int) -> int:
    """Orientation-and-order-preserving epimorphisms onto Z_{2l}, l odd, orientable orbifold."""
    return _epi_plus_boundary(2 * gg + h - 1, h, branch_indices, group_order)


def epi_nonorientable_boundary(gg: int, h: int, branch_indices: Sequence[int], l: int) -> int:
    """Order-preserving epimorphisms onto Z_l, even l, non-orientable orbifold with h >= 1 boundaries."""
    return _epi_boundary(gg + h - 1, h, branch_indices, l)


def epi_plus_nonorientable_boundary(gg: int, h: int, branch_indices: Sequence[int], group_order: int) -> int:
    """Orientation-and-order-preserving epimorphisms onto Z_{2l}, l odd, non-orientable orbifold."""
    return _epi_plus_boundary(gg + h - 1, h, branch_indices, group_order)


def epi_nonorientable_closed(gg: int, branch_indices: Sequence[int], l: int) -> int:
    """Order-preserving epimorphisms onto Z_l for a closed non-orientable orbifold.

    Three printed cases: odd l uses m = lcm(m_i); l = 2^q k with q > 1 uses
    m' = lcm(2, b, m_i) where b is the reduced denominator of sum 1/(2 m_i);
    l = 2k with k odd is the difference of the previous form and the
    nested-subgroup term m^{gg-1} J_{gg-1}(l/(2m)) prod phi(m_i).
    """
    if gg < 1:
        raise ValueError("a non-orientable orbifold needs gg >= 1")
    if l < 2:
        raise ValueError(f"period must be >= 2 (got {l})")
    k = gg - 1
    m = lcm_list(branch_indices)
    if l % 2 != 0:
        return _epi_term(k, l, m, branch_indices)
    b = sum(Fraction(1, 2 * index) for index in branch_indices).denominator
    doubled = 2 * _epi_term(k, l, lcm_list([2, b, *branch_indices]), branch_indices)
    if l % 4 == 0:
        return doubled
    return doubled - _epi_term(k, l // 2, m, branch_indices)


def epi_plus_nonorientable_closed(gg: int, branch_indices: Sequence[int], l: int) -> int:
    """Orientation-and-order-preserving epimorphisms onto Z_l, closed non-orientable orbifold.

    0 for odd l; m^{gg-1} J_{gg-1}(l/(2m)) prod phi(m_i) for l = 2k with k
    odd; 2 (m')^{gg-1} J_{gg-1}(l/(2m')) prod phi(m_i) with m' = lcm(2, m_i)
    when 4 divides l. For every census signature the face point forces
    J(1/2) = 0, so these vanish there.
    """
    if gg < 1:
        raise ValueError("a non-orientable orbifold needs gg >= 1")
    if l < 2:
        raise ValueError(f"period must be >= 2 (got {l})")
    if l % 2 != 0:
        return 0
    if l % 4 == 0:
        return 2 * _epi_term(gg - 1, l // 2, lcm_list([2, *branch_indices]), branch_indices)
    return _epi_term(gg - 1, l // 2, lcm_list(branch_indices), branch_indices)
