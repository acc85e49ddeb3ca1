"""Assembly of rooted counts and orbifold data into sensed and unsensed censuses.

Sensed counts identify maps up to orientation-preserving homeomorphism,
unsensed counts up to all homeomorphisms. Both are assembled from rooted
counts by orbit counting: a symmetry of period l contributes quotient maps on
an orbifold, weighted by an epimorphism coefficient, and the weighted
contributions average out over the possible rootings.

The correction sums are integer Horner chains (hypergeometric_sum), and each
prefactor (1/2, 1/4, 1/(4(3g-3))) is divided out by exact_quotient or
require_integer, which raise on a remainder: a free correctness check.

Both non-orientable correction terms come from one walk over their precubic
quotient counts, sorted by (crosscaps, leaves) and holding one live count:
neighbouring counts differ by a ratio of small integers, so each closed form
is evaluated once per chain of consecutive leaf counts and every other count
is an exact big-by-small step from the previous one.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .exactnum import (
    binomial,
    exact_quotient,
    factorial,
    hypergeometric_sum,
    require_integer,
)
from .orbifolds import (
    _closed_signatures,
    epsilon_h2_nonorientable,
    epsilon_h2_orientable,
    epsilon_hl,
    h2_orbifold_family,
)
from .rooted_counts import (
    _nonorientable_leaf_step,
    _orientable_gg_step,
    precubic_nonorientable_by_genus_pair,
    precubic_orientable,
    rooted_cubic_nonorientable,
    rooted_cubic_orientable,
)


# ============================================================
# Census rows
# ============================================================


@dataclass(frozen=True)
class CensusRow:
    """Counts for one genus: rooted, sensed (orientable rows only), unsensed.

    A row with `sensed` present is an orientable-surface row (edge count
    6g-3), otherwise non-orientable (3g-3). Every unsensed map admits at most
    4n rootings and every sensed map at most 2n, which gives the sandwich
    bounds validated here: rooted/(4n) <= unsensed <= rooted, and for
    orientable rows rooted/(2n) <= sensed <= rooted as well.
    """

    genus: int
    rooted: int
    sensed: Optional[int]
    unsensed: int

    def __post_init__(self) -> None:
        if self.genus < 1:
            raise ValueError(f"genus must be >= 1 (got {self.genus})")
        if min(self.rooted, self.unsensed) < 0 or (self.sensed is not None and self.sensed < 0):
            raise ValueError("counts must be nonnegative")
        if self.sensed is not None and not (self.unsensed <= self.sensed <= self.rooted):
            raise ValueError(f"expected unsensed <= sensed <= rooted at g={self.genus}")
        if self.unsensed > self.rooted:
            raise ValueError(f"expected unsensed <= rooted at g={self.genus}")
        n = 6 * self.genus - 3 if self.sensed is not None else 3 * self.genus - 3
        if self.rooted > 4 * n * self.unsensed:
            raise ValueError(f"rooted count exceeds 4n rootings per unsensed map at g={self.genus}")
        if self.sensed is not None and self.rooted > 2 * n * self.sensed:
            raise ValueError(f"rooted count exceeds 2n rootings per sensed map at g={self.genus}")


def orientable_census_row(g: int) -> CensusRow:
    """The (rooted, sensed, unsensed) row for the orientable genus-g surface."""
    sensed = sensed_cubic_orientable(g)
    return CensusRow(
        genus=g,
        rooted=rooted_cubic_orientable(g),
        sensed=sensed,
        unsensed=_unsensed_from_sensed(g, sensed),
    )


def nonorientable_census_row(g: int) -> CensusRow:
    """The (rooted, unsensed) row for the non-orientable genus-g surface."""
    return CensusRow(
        genus=g,
        rooted=rooted_cubic_nonorientable(g),
        sensed=None,
        unsensed=unsensed_cubic_nonorientable(g),
    )


# ============================================================
# Orientable surfaces
# ============================================================


def sensed_cubic_orientable(g: int) -> int:
    """Count cubic one-face maps on the orientable genus-g surface up to rotation.

    Four-term assembly: the rooted count averaged over the 2(6g-3) rootings,
    plus three correction sums for the maps fixed by nontrivial rotations
    (quotient maps on orbifolds of genus gg below g):

      S2 = sum_gg (4g-2-2gg)! / (2 3^gg gg! (2g-1-gg)! (2g-4gg+1)!),
      S3 = (2g-2)! / (6 (g-1)!) sum_gg (3/4)^{gg-1} (2^{g+1-3gg} + (-1)^{g-gg}) / (gg! (g+1-3gg)!),
      S4 = sum_k sum_gg 3^{gg-2} (2^{2g-1-3k} + (-1)^k) (2k-2gg)!
           / (gg! (k-gg)! (4k+3-2g-4gg)! (2g-1-3k)!),

    with k from g//2 to (2g-2)//3 and gg from 0 to k-g//2. A negative
    factorial in a denominator is a pole that zeroes its summand.

    Consecutive summands in gg differ by a ratio of small integers, so each
    sum is a hypergeometric chain evaluated by Horner's rule: S2 is one
    chain, S3 two (its 2^{...} part and its (-1)^{...} part), S4 one chain
    per k, ending at its last summand before a pole.
    """
    if g < 1:
        raise ValueError(f"orientable genus must be >= 1 (got {g})")
    total = Fraction(rooted_cubic_orientable(g), 2 * (6 * g - 3))
    # S2: 2g-4gg+1 >= 1 for every gg <= g//2, so no summand is a pole.
    total += hypergeometric_sum(
        factorial(4 * g - 2),
        2 * factorial(2 * g - 1) * factorial(2 * g + 1),
        [
            (
                (2 * g - 1 - gg)
                * (2 * g - 4 * gg + 1) * (2 * g - 4 * gg) * (2 * g - 4 * gg - 1) * (2 * g - 4 * gg - 2),
                3 * (gg + 1) * (4 * g - 2 - 2 * gg) * (4 * g - 3 - 2 * gg),
            )
            for gg in range(g // 2)
        ],
    )
    # S3, prefactor folded into the first summands; g+1-3gg >= 0 up to (g+1)//3.
    falling = [(g + 1 - 3 * gg) * (g - 3 * gg) * (g - 1 - 3 * gg) for gg in range((g + 1) // 3)]
    den = 18 * factorial(g - 1) * factorial(g + 1)
    total += hypergeometric_sum(
        2 ** (g + 3) * factorial(2 * g - 2), den, [(3 * f, 32 * (gg + 1)) for gg, f in enumerate(falling)]
    )
    total += hypergeometric_sum(
        (-1) ** g * 4 * factorial(2 * g - 2), den, [(-3 * f, 4 * (gg + 1)) for gg, f in enumerate(falling)]
    )
    # S4: 2g-1-3k >= 1 throughout, and 4k+3-2g-4gg >= 0 ends each chain.
    for k in range(g // 2, (2 * g - 2) // 3 + 1):
        top = 4 * k + 3 - 2 * g
        total += hypergeometric_sum(
            (2 ** (2 * g - 1 - 3 * k) + (-1) ** k) * factorial(2 * k),
            9 * factorial(k) * factorial(top) * factorial(2 * g - 1 - 3 * k),
            [
                (
                    3 * (top - 4 * gg) * (top - 4 * gg - 1) * (top - 4 * gg - 2) * (top - 4 * gg - 3),
                    2 * (2 * k - 2 * gg - 1) * (gg + 1),
                )
                for gg in range(min(k - g // 2, top // 4))
            ],
        )
    return require_integer(total, f"sensed orientable count at g={g}")


def unsensed_cubic_orientable(g: int) -> int:
    """Count cubic one-face maps on the orientable genus-g surface up to all homeomorphisms.

    Half of (sensed count + two reflection-quotient terms): the orientable
    quotient contributes the rooted count at genus g/2 (zero for odd g). The
    non-orientable one is the period-2 quotient without branch points of a
    surface of Euler characteristic 2-2g, in covering-genus form
    precubic_nonorientable_by_genus_pair(2g, g): a leafless map on g
    crosscaps. At g=1 that is the formal value 1: the edgeless quotient still
    represents one reflection class there.
    """
    if g < 1:
        raise ValueError(f"orientable genus must be >= 1 (got {g})")
    return _unsensed_from_sensed(g, sensed_cubic_orientable(g))


def _unsensed_from_sensed(g: int, sensed: int) -> int:
    """The unsensed orientable count at genus g >= 1, given the sensed count there."""
    halved = rooted_cubic_orientable(g // 2) if g % 2 == 0 else 0
    reflected = precubic_nonorientable_by_genus_pair(2 * g, g)
    return exact_quotient(sensed + halved + reflected, 2, f"unsensed orientable count at g={g}")


# ============================================================
# Non-orientable surfaces
# ============================================================


def h2_term_nonorientable(g: int) -> Fraction:
    """Period-2 contribution to the unsensed non-orientable count at genus g.

    Half the epsilon-weighted sum of precubic quotient counts over the
    period-2 orbifold family. Exact rational: integrality holds only for the
    full assembly, not per term. Read from the walk that yields both
    correction terms (_nonorientable_corrections).
    """
    if g < 2:
        raise ValueError(f"non-orientable census needs g >= 2 (got {g})")
    return _nonorientable_corrections(g)[0]


def hl_term_nonorientable(g: int) -> Fraction:
    """Period-l (l >= 2) closed-orbifold contribution to the unsensed count at genus g.

    Quarter of the sum over signature solutions of
    epsilon * C(n_s+n_v, n_s) * (precubic count with n_s+n_v leaves),
    re-rooted by the dart ratio: divided by 3g-3 + l*n_s/2, evaluated as the
    exact rational (6g-6 + l*n_s)/2.

    Summands sharing a dart count 6g-6 + l*n_s share their denominator, so
    their integer numerators are added first and each distinct denominator
    costs one reduction. The precubic counts come from the walk that yields
    both correction terms (_nonorientable_corrections), one live value at a
    time.
    """
    if g < 2:
        raise ValueError(f"non-orientable census needs g >= 2 (got {g})")
    return _nonorientable_corrections(g)[1]


def _nonorientable_corrections(g: int) -> Tuple[Fraction, Fraction]:
    """The period-2 and period-l terms at genus g >= 2 from one walk over the precubic counts.

    Orientable period-2 quotients (gg, k = g-4gg) form one chain in gg.
    Every non-orientable quotient count, period-2 (gg, g-2gg) or closed
    signature (gg, n_s+n_v) with nonzero epsilon, is a key (gg, k). The keys
    are walked in (gg, k) order holding one live count: a repeated key reuses
    it, a key one leaf past the last is one exact small-ratio step from it,
    and any other key starts a new chain with one public precubic count. Each
    contribution is added as soon as its count is known.

    The edgeless key (1, 0) has the formal value 1, read by the period-2 term
    at g = 2. It never occurs among the signatures: at gg = 1 they have
    3 n_s + 4 n_v = (6g-6)/l > 0.
    """
    h2 = 0
    keys: List[Tuple[int, int, int, int]] = []  # (gg, k, dart count or 0 for the period-2 term, weight)
    quotients = 0
    for orb in h2_orbifold_family(g):
        if orb.orientable:
            quotients = precubic_orientable(g, 0) if orb.genus == 0 else _orientable_gg_step(g, orb.genus, quotients)
            h2 += epsilon_h2_orientable(orb.genus, orb.branch_points) * quotients
        else:
            keys.append((orb.genus, orb.branch_points, 0, epsilon_h2_nonorientable(orb.genus, orb.branch_points)))
    for l, gg, n_s, n_v in _closed_signatures(g):
        eps = epsilon_hl(l, gg, n_s, n_v)
        if eps:
            keys.append((gg, n_s + n_v, 6 * g - 6 + l * n_s, eps * binomial(n_s + n_v, n_s)))
    keys.sort()
    by_darts: Dict[int, int] = defaultdict(int)
    live_gg, live_k, value = 0, 0, 0
    for gg, k, darts, weight in keys:
        if (gg, k) != (live_gg, live_k):
            if gg == live_gg and k == live_k + 1:
                value = _nonorientable_leaf_step(gg, live_k, value)
            else:
                value = precubic_nonorientable_by_genus_pair(2 * gg + k, gg)
            live_gg, live_k = gg, k
        if darts:
            by_darts[darts] += weight * value
        else:
            h2 += weight * value
    hl = sum((Fraction(num, 2 * darts) for darts, num in by_darts.items()), Fraction(0))
    return Fraction(h2, 2), hl


def unsensed_cubic_nonorientable(g: int) -> int:
    """Count cubic one-face maps on the non-orientable genus-g surface up to all homeomorphisms.

    Rooted count averaged over 4(3g-3) rootings, plus the period-2 and
    period-l correction terms, both from one walk (_nonorientable_corrections).
    """
    if g < 2:
        raise ValueError(f"non-orientable census needs g >= 2 (got {g})")
    h2, hl = _nonorientable_corrections(g)
    total = Fraction(rooted_cubic_nonorientable(g), 4 * (3 * g - 3)) + h2 + hl
    return require_integer(total, f"unsensed non-orientable count at g={g}")
