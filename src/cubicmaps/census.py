"""Assembly of rooted counts and orbifold data into sensed and unsensed censuses.

Sensed counts identify maps up to orientation-preserving homeomorphism,
unsensed counts up to all homeomorphisms. Both are assembled from rooted
counts by orbit counting: a symmetry of period l contributes quotient maps on
an orbifold, weighted by an epimorphism coefficient, and the weighted
contributions average out over the possible rootings.

Every count is the sum of one list of named exact terms (key, numerator,
denominator) from orientable_terms(g) or nonorientable_terms(g): the rooted
average, on orientable surfaces the two reflection terms of the unsensed
count, then one term per period-2 quotient orbifold, rotation class or
signature. A rotation class of order l on either surface is one
("hl", l, gg, n_s, n_v) term: epsilon times C(n_s+n_v, n_s) rooted quotient
maps with n_s+n_v leaves on genus gg, over 12g-6 + l*n_s (orientable) or
2(6g-6 + l*n_s) (non-orientable). One rule
adds a list up (_assemble): numerators sharing a denominator are added as
integers and the sums are joined over the lcm of their denominators. Each
row and correction term is one pass over one list, and each public count
reads its row, so every count passes the row's sandwich checks.

The quotient counts are walked in rooted_counts by exact small-ratio steps,
and each count is its total divided out once by exact_quotient, which
raises on a remainder: a free correctness check. The correction terms are
exact rationals, reduced once as a Fraction.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import comb, gcd
from typing import Dict, Iterable, Iterator, Optional, Tuple

from .exactnum import exact_quotient
from .orbifolds import epsilon_h2_nonorientable, epsilon_h2_orientable, solve_closed_orbifolds
from .rooted_counts import (
    _nonorientable_walk,
    _orientable_period_two,
    _orientable_rotations,
    rooted_cubic_nonorientable,
    rooted_cubic_orientable,
)

# (key, numerator, denominator) of one exact summand
Term = Tuple[tuple, int, int]


# ============================================================
# Census rows
# ============================================================


@dataclass(frozen=True)
class CensusRow:
    """Counts for one genus: rooted, sensed (orientable rows only), unsensed.

    A row with `sensed` present is an orientable-surface row (edge count
    6g-3), otherwise non-orientable (3g-3, so g >= 2). Every unsensed map
    admits at most 4n rootings and every sensed map at most 2n, which gives
    the sandwich bounds validated here: rooted/(4n) <= unsensed <= rooted,
    and for orientable rows rooted/(2n) <= sensed <= rooted as well.
    """

    genus: int
    rooted: int
    sensed: Optional[int]
    unsensed: int

    def __post_init__(self) -> None:
        if self.genus < 1:
            raise ValueError(f"genus must be >= 1 (got {self.genus})")
        if self.sensed is None and self.genus < 2:
            raise ValueError(f"non-orientable census needs g >= 2 (got {self.genus})")
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


def _assemble(terms: Iterable[Term]) -> Tuple[int, int]:
    """The exact sum of a term list: one integer sum per distinct denominator, joined over their lcm.

    Each sum is first cut to lowest terms (a big-by-small gcd), which keeps
    the lcm small. The pair (numerator, denominator) comes back unreduced.
    """
    by_den: Dict[int, int] = defaultdict(int)
    for _, num, den in terms:
        by_den[den] += num
    total, common = 0, 1
    for den, num in by_den.items():
        shared = gcd(num, den)
        num, den = num // shared, den // shared
        shared = gcd(common, den)
        total, common = total * (den // shared) + num * (common // shared), common // shared * den
    return total, common


# ============================================================
# Orientable surfaces
# ============================================================


def orientable_terms(g: int) -> Iterator[Term]:
    """The named exact terms of the orientable genus-g census, as (key, numerator, denominator).

      ("rooted",)                       the rooted count averaged over the 2(6g-3) rootings;
      ("reflection", "orientable")      the rooted count at genus g/2 (0 for odd g);
      ("reflection", "non-orientable")  the rooted non-orientable count at genus g;
      ("hl", l, gg, n_s, n_v)           one per rotation class of order l in {2, 3, 6} with
                                        nonzero weight (rooted_counts._orientable_rotations):
                                        eps * C(n_s+n_v, n_s) * (precubic count with n_s+n_v
                                        leaves on genus gg) over 12g-6 + l*n_s, with
                                        eps = l^{2gg} b_l, b_2 = 1, b_3 = b_6 = 2 (2^{n_v} - (-1)^{n_v}) / 3.
    The sensed count is the sum of every term but the two reflections. The
    unsensed count is half the sensed count plus the two integer reflection
    terms; the non-orientable one is the period-2 quotient without branch
    points of a surface of Euler characteristic 2-2g: a leafless map on g
    crosscaps. At g=1 that is the formal value 1: the edgeless quotient still
    represents one reflection class there.
    """
    if g < 1:
        raise ValueError(f"orientable genus must be >= 1 (got {g})")
    yield ("rooted",), rooted_cubic_orientable(g), 2 * (6 * g - 3)
    yield ("reflection", "orientable"), rooted_cubic_orientable(g // 2) if g % 2 == 0 else 0, 1
    yield ("reflection", "non-orientable"), 1 if g == 1 else rooted_cubic_nonorientable(g), 1
    for l, gg, n_s, n_v, count in _orientable_rotations(g):
        yield ("hl", l, gg, n_s, n_v), count, 12 * g - 6 + l * n_s


def orientable_census_row(g: int) -> CensusRow:
    """The (rooted, sensed, unsensed) row for the orientable genus-g surface, from one pass over its terms.

    The first three terms are the rooted one and the two reflections; the
    rotation terms after them stream into _assemble.
    """
    terms = orientable_terms(g)
    rooted, orientable, nonorientable = next(terms), next(terms), next(terms)
    sensed = exact_quotient(*_assemble(chain([rooted], terms)), f"sensed orientable count at g={g}")
    unsensed = exact_quotient(sensed + orientable[1] + nonorientable[1], 2, f"unsensed orientable count at g={g}")
    return CensusRow(g, rooted[1], sensed, unsensed)


def sensed_cubic_orientable(g: int) -> int:
    """Count cubic one-face maps on the orientable genus-g surface up to rotation.

    The sum of orientable_terms(g) without its two reflection terms: the
    rooted average plus one correction term per class of rotations of order
    2, 3 or 6 (quotient maps on orbifolds of genus gg below g).
    """
    return orientable_census_row(g).sensed


def unsensed_cubic_orientable(g: int) -> int:
    """Count cubic one-face maps on the orientable genus-g surface up to all homeomorphisms.

    Half of (sensed count + the two reflection terms of orientable_terms(g)).
    """
    return orientable_census_row(g).unsensed


# ============================================================
# Non-orientable surfaces
# ============================================================


def nonorientable_terms(g: int) -> Iterator[Term]:
    """The named exact terms of the non-orientable genus-g census, as (key, numerator, denominator).

      ("rooted",)                the rooted count averaged over the 4(3g-3) rootings;
      ("h2", orientable, gg, r)  one per period-2 quotient orbifold: orientable of genus
                                 gg = 0..g//4 with r = g-4gg index-2 branch points, or
                                 non-orientable with gg = 1..g//2 crosscaps and r = g-2gg
                                 (Riemann-Hurwitz); half its epsilon times its precubic
                                 quotient count with r leaves;
      ("hl", l, gg, n_s, n_v)    one per signature of solve_closed_orbifolds(g) with nonzero
                                 epsilon: a quarter of epsilon * C(n_s+n_v, n_s) * (precubic
                                 count with n_s+n_v leaves), divided by 3g-3 + l*n_s/2, that
                                 is over the denominator 2(6g-6 + l*n_s).
    Each term is exact but rational; only the whole sum is an integer.

    Every quotient count comes from a chain of exact small-ratio steps in
    rooted_counts: the orientable period-2 quotients (gg, k = g-4gg) from
    _orientable_period_two, and every non-orientable quotient count,
    period-2 (gg, g-2gg) or closed signature (gg, n_s+n_v), from
    _nonorientable_walk over those keys in (gg, k) order. Each term is
    yielded as soon as its count is known.

    The edgeless key (1, 0) has the formal value 1, read by the period-2 term
    at g = 2. It never occurs among the signatures: at gg = 1 they have
    3 n_s + 4 n_v = (6g-6)/l > 0.
    """
    if g < 2:
        raise ValueError(f"non-orientable census needs g >= 2 (got {g})")
    yield ("rooted",), rooted_cubic_nonorientable(g), 4 * (3 * g - 3)
    for gg, quotients in enumerate(_orientable_period_two(g)):
        yield ("h2", True, gg, g - 4 * gg), epsilon_h2_orientable(gg, g - 4 * gg) * quotients, 2
    # (gg, k, 0, None) for a period-2 key or (gg, k, 1, signature): the 0 sorts
    # period 2 first within a key and keeps None from being compared, and the
    # signature records themselves then sort in (l, n_s) order. Each term is
    # built only when the walk reaches it.
    walk = [(gg, g - 2 * gg, 0, None) for gg in range(1, g // 2 + 1)]
    walk += ((s.genus, s.n_s + s.n_v, 1, s) for s in solve_closed_orbifolds(g) if s.epsilon)
    walk.sort()
    for (gg, k, _, signature), value in zip(walk, _nonorientable_walk(g, (entry[:2] for entry in walk))):
        if signature is None:
            yield ("h2", False, gg, k), epsilon_h2_nonorientable(gg, k) * value, 2
        else:
            l, _, n_s, n_v, eps = signature
            yield ("hl", l, gg, n_s, n_v), eps * comb(k, n_s) * value, 2 * (6 * g - 6 + l * n_s)


def h2_term_nonorientable(g: int) -> Fraction:
    """Period-2 contribution to the unsensed non-orientable count at genus g.

    The sum of the ("h2", ...) terms of nonorientable_terms(g), one per
    period-2 quotient orbifold. Exact rational: integrality holds only for the
    full assembly, not per term.
    """
    return Fraction(*_assemble(term for term in nonorientable_terms(g) if term[0][0] == "h2"))


def hl_term_nonorientable(g: int) -> Fraction:
    """Period-l (l >= 2) closed-orbifold contribution to the unsensed count at genus g.

    The sum of the ("hl", ...) terms of nonorientable_terms(g), one per
    contributing closed signature. Summands sharing a dart count 6g-6 + l*n_s
    share their denominator, so each distinct one costs one reduction.
    """
    return Fraction(*_assemble(term for term in nonorientable_terms(g) if term[0][0] == "hl"))


def nonorientable_census_row(g: int) -> CensusRow:
    """The (rooted, unsensed) row for the non-orientable genus-g surface, from one pass over its terms."""
    terms = nonorientable_terms(g)
    rooted = next(terms)  # ("rooted",), whose numerator is the rooted count
    unsensed = exact_quotient(*_assemble(chain([rooted], terms)), f"unsensed non-orientable count at g={g}")
    return CensusRow(g, rooted[1], None, unsensed)


def unsensed_cubic_nonorientable(g: int) -> int:
    """Count cubic one-face maps on the non-orientable genus-g surface up to all homeomorphisms.

    The sum of nonorientable_terms(g): the rooted count averaged over
    4(3g-3) rootings, plus the period-2 and period-l correction terms.
    """
    return nonorientable_census_row(g).unsensed
