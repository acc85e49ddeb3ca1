"""Closed-form counts of rooted cubic and precubic one-face maps.

A one-face map is a connected graph embedded in a closed surface so that the
complement is a single open disk. "Cubic" means every vertex has degree 3;
"precubic" allows degrees 1 and 3. On an orientable surface of genus g a
cubic one-face map has n = 6g-3 edges and 4g-2 vertices; on a non-orientable
surface of genus g (g crosscaps) it has n = 3g-3 edges and 2g-2 vertices.

These rooted counts are the raw material for the census module: the sensed
and unsensed totals are assembled from them via orbit counting, with the
precubic families appearing as quotient maps on orbifolds. Each closed form
is evaluated as one integer numerator over one integer denominator and
divided with a remainder check (exact_quotient), so a wrong transcription
raises instead of rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exactnum import BigCount, ExactRational, exact_quotient, factorial


# ============================================================
# Surfaces
# ============================================================


@dataclass(frozen=True)
class SurfaceClass:
    """A closed surface: orientable with `genus` handles, or not, with `genus` crosscaps."""

    orientable: bool
    genus: int

    def __post_init__(self) -> None:
        if self.genus < 0:
            raise ValueError(f"genus must be >= 0 (got {self.genus})")
        if not self.orientable and self.genus < 1:
            raise ValueError("a non-orientable surface needs at least one crosscap")

    def euler_characteristic(self) -> int:
        return 2 - 2 * self.genus if self.orientable else 2 - self.genus

    def cubic_edges(self) -> int:
        """Edge count of a cubic one-face map on this surface."""
        return 6 * self.genus - 3 if self.orientable else 3 * self.genus - 3


# ============================================================
# Rooted cubic counts
# ============================================================


def rooted_cubic_orientable(g: int) -> BigCount:
    """Count rooted cubic one-face maps with 6g-3 edges on the orientable genus-g surface.

    Closed form: 2 (6g-3)! / (12^g g! (3g-2)!).
    """
    if g <= 0:
        raise ValueError(f"orientable genus must be >= 1 (got {g})")
    return exact_quotient(
        2 * factorial(6 * g - 3),
        12 ** g * factorial(g) * factorial(3 * g - 2),
        f"rooted cubic orientable count at g={g}",
    )


def _cubic_nonorientable_formula(g: int) -> BigCount:
    """Raw closed form behind rooted_cubic_nonorientable, valid for g >= 1.

    At g=1 it evaluates to the formal value 1; the unsensed orientable
    assembly in the census needs exactly this value, while the public count
    below reports 0 there (the projective plane carries no cubic map).
    """
    context = f"rooted cubic non-orientable count at g={g}"
    if g % 2 == 0:
        h = g // 2
        c = c_coefficient(h)
        return exact_quotient(c.numerator * factorial(6 * h - 2), c.denominator * factorial(3 * h - 1), context)
    h = (g - 1) // 2
    return exact_quotient(2 ** (6 * h) * factorial(3 * h), 3 ** h * factorial(h), context)


def rooted_cubic_nonorientable(g: int) -> BigCount:
    """Count rooted cubic one-face maps with 3g-3 edges on the non-orientable genus-g surface.

    Two closed forms, split on the parity of g (h = g/2 or h = (g-1)/2).
    Returns 0 for g=1: no cubic one-face map exists on the projective plane.
    """
    if g <= 0:
        raise ValueError(f"non-orientable genus must be >= 1 (got {g})")
    if g == 1:
        return 0
    return _cubic_nonorientable_formula(g)


def c_coefficient(h: int) -> ExactRational:
    """The rational constant c_h appearing in the even-genus non-orientable counts.

    c_h = 2^{2h-2} h! / (3^{h-1} (2h)!) * sum_{i=0}^{h-1} C(2i, i) 16^{-i}.
    c_1 = 1/2, c_2 = 1/8.

    The partial sum is N_h / 16^{h-1} with the integer
    N_h = sum_{i<h} C(2i, i) 16^{h-1-i}, built by Horner's rule
    N <- 16 N + C(2i, i) while C(2i+2, i+1) = C(2i, i) 2(2i+1)/(i+1), so
    c_h = h! N_h / (12^{h-1} (2h)!) takes a single reduction.
    """
    if h <= 0:
        raise ValueError(f"c_coefficient requires h >= 1 (got {h})")
    partial, central = 0, 1
    for i in range(h):
        partial = 16 * partial + central
        central = central * 2 * (2 * i + 1) // (i + 1)
    return Fraction(factorial(h) * partial, 12 ** (h - 1) * factorial(2 * h))


# ============================================================
# Rooted precubic counts
# ============================================================
#
# Precubic maps enter as quotient maps: halving a cubic one-face map by a
# symmetry leaves a one-face map whose branch points become leaves. The two
# non-orientable parameterizations below describe the same family, keyed
# either by (surface genus, leaf count) or by (covering genus, surface genus);
# the edge/leaf translation is centralized in the helpers that follow.


def precubic_orientable(g: int, gg: int) -> BigCount:
    """Count rooted precubic one-face maps on the orientable genus-gg surface.

    Parameterized by the covering genus g: the map has 2m+1 edges and m+2-3gg
    leaves, where m = g-gg-2. Closed form 2 (2m+1)! / (12^gg gg! (m+2-3gg)! m!).
    Out-of-range parameters (m < 0 or g-4gg < 0) give 0.
    """
    if gg < 0:
        return 0
    m = g - gg - 2
    if m < 0 or m + 2 - 3 * gg < 0:
        return 0
    return exact_quotient(
        2 * factorial(2 * m + 1),
        12 ** gg * factorial(gg) * factorial(m) * factorial(m + 2 - 3 * gg),
        f"precubic orientable count at (g={g}, gg={gg})",
    )


def precubic_nonorientable_by_leaves(gg: int, k: int) -> BigCount:
    """Count rooted precubic one-face maps with k leaves on the non-orientable genus-gg surface.

    Even gg = 2h: e = 2k+6h-3 edges, count 2 c_h (2k+6h-3)! / (k! (k+3h-2)!).
    Odd gg = 2h+1: e = 2k+6h edges, count 2^{6h+2k} (k+3h)! / (3^h h! k!).
    Parameter combinations implying e <= 0 give 0.
    """
    if gg < 1 or k < 0:
        return 0
    e = precubic_edges_nonorientable(gg, k)
    if e <= 0:
        return 0
    context = f"precubic non-orientable count at (gg={gg}, k={k})"
    if gg % 2 == 0:
        h = gg // 2
        c = c_coefficient(h)
        return exact_quotient(
            2 * c.numerator * factorial(2 * k + 6 * h - 3),
            c.denominator * factorial(k) * factorial(k + 3 * h - 2),
            context,
        )
    h = (gg - 1) // 2
    return exact_quotient(2 ** (6 * h + 2 * k) * factorial(k + 3 * h), 3 ** h * factorial(h) * factorial(k), context)


def precubic_nonorientable_by_genus_pair(g: int, gg: int) -> BigCount:
    """The precubic non-orientable count in covering-genus form: nn = 2g-gg-3 edges.

    Even gg = 2h: 2 c_h (2g-2h-3)! / ((g-h-2)! (g-4h)!).
    Odd gg = 2h+1: 2^{2g-2h-4} (g-h-2)! / (3^h h! (g-4h-2)!).
    Negative factorial arguments are poles and give 0. Note the formula is
    evaluated literally, so (g, gg) = (2, 1) yields the formal value 1 for the
    edgeless quotient; the census relies on it.
    """
    if gg < 1:
        return 0
    context = f"precubic non-orientable count at (g={g}, gg={gg})"
    h = gg // 2
    if g - h - 2 < 0:
        return 0
    if gg % 2 == 0:
        if g - 4 * h < 0:
            return 0
        c = c_coefficient(h)
        return exact_quotient(
            2 * c.numerator * factorial(2 * g - 2 * h - 3),
            c.denominator * factorial(g - h - 2) * factorial(g - 4 * h),
            context,
        )
    if g - 4 * h - 2 < 0:
        return 0
    return exact_quotient(
        2 ** (2 * g - 2 * h - 4) * factorial(g - h - 2), 3 ** h * factorial(h) * factorial(g - 4 * h - 2), context
    )


# ============================================================
# Edge / leaf translation
# ============================================================
#
# One place for the parity bookkeeping so the two precubic parameterizations
# cannot drift apart: even genus gives odd edge counts, odd genus even ones.


def precubic_edges_nonorientable(gg: int, k: int) -> int:
    """Edge count of a non-orientable precubic one-face map with k leaves on genus gg."""
    if gg % 2 == 0:
        return 2 * k + 3 * gg - 3
    return 2 * k + 3 * (gg - 1)


def precubic_leaves_nonorientable(gg: int, e: int) -> Optional[int]:
    """Leaf count forced by an edge count on non-orientable genus gg, or None.

    None when the parity does not match (even gg needs odd e, odd gg even e)
    or the implied leaf count is negative.
    """
    if gg < 1 or e < 1:
        return None
    if (e + 3 * gg) % 2 != 1:
        return None
    k = (e + 3 - 3 * gg) // 2
    return k if k >= 0 else None


def precubic_leaves_orientable(gg: int, e: int) -> Optional[int]:
    """Leaf count forced by an edge count on orientable genus gg, or None.

    Orientable precubic one-face maps have odd edge counts e = 2m+1 and
    k = m+2-3gg leaves.
    """
    if gg < 0 or e < 1 or e % 2 == 0:
        return None
    m = (e - 1) // 2
    k = m + 2 - 3 * gg
    return k if k >= 0 else None


def covering_genus_orientable(gg: int, e: int) -> int:
    """The covering genus g with precubic_orientable(g, gg) counting e-edge maps."""
    return (e - 1) // 2 + gg + 2
