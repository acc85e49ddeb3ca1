"""Closed-form counts of rooted cubic and precubic one-face maps.

A one-face map is a connected graph embedded in a closed surface so that the
complement is a single open disk. "Precubic" means every vertex has degree 1
or 3; a cubic map is the precubic map without leaves (degree-1 vertices). By
Euler's relation a one-face map with k leaves on a surface of Euler
characteristic chi has e = 2k + 3 - 3 chi edges: a cubic map has 6g-3 edges
on the orientable genus-g surface and 3g-3 on the one with g crosscaps.

Each surface kind has one closed form keyed by (surface genus, leaves), the
classical one for orientable surfaces and Bernardi-Chapuy's for
non-orientable ones, and every public count is a range guard plus one call
to it. The census reads the forms for the quotient maps of symmetries,
whose branch points become leaves. Each form is one integer numerator over
one integer denominator, divided with a remainder check (exact_quotient),
so a wrong transcription raises instead of rounding. Private generators
give the census every quotient count it reads, each from a neighbouring one
by an exact ratio, again with a remainder check: _orientable_handles trades
four index-2 branch points for one handle at a time (the chains of
_orientable_period_two and of the order-2 and order-6 classes of
_orientable_rotations, which walks the rotation classes of order 2, 3 and 6
with their epimorphism weights), and _nonorientable_walk walks the
non-orientable quotient keys in (crosscaps, leaves) order, the period-2 keys
two crosscaps at a time (one chain per parity of the crosscaps) and every
other key one leaf at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Iterator, Tuple

from .exactnum import exact_quotient, factorial


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


# ============================================================
# The two closed forms, keyed by (surface genus, leaves)
# ============================================================


def _orientable_form(gg: int, k: int) -> int:
    """Rooted precubic one-face maps with k leaves on the orientable genus-gg surface.

    2 (2m+1)! / (12^gg gg! m! k!) with m = k+3gg-2, so the map has 2m+1
    edges. Defined for gg, k, m >= 0.
    """
    m = k + 3 * gg - 2
    return exact_quotient(
        2 * factorial(2 * m + 1),
        12 ** gg * factorial(gg) * factorial(m) * factorial(k),
        f"precubic orientable count at (gg={gg}, k={k})",
    )


def _nonorientable_form(gg: int, k: int) -> int:
    """Rooted precubic one-face maps with k leaves on the non-orientable genus-gg surface.

    Even gg = 2h: 2 c_h (2k+6h-3)! / (k! (k+3h-2)!).
    Odd gg = 2h+1: 2^{6h+2k} (k+3h)! / (3^h h! k!).
    Defined for gg >= 1 and k >= 0. Evaluated literally, so the edgeless
    (gg, k) = (1, 0) gets the formal value 1.
    """
    context = f"precubic non-orientable count at (gg={gg}, k={k})"
    h = gg // 2
    if gg % 2 == 0:
        c = c_coefficient(h)
        return exact_quotient(
            2 * c.numerator * factorial(2 * k + 6 * h - 3),
            c.denominator * factorial(k) * factorial(k + 3 * h - 2),
            context,
        )
    return exact_quotient(2 ** (6 * h + 2 * k) * factorial(k + 3 * h), 3 ** h * factorial(h) * factorial(k), context)


def c_coefficient(h: int) -> Fraction:
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
# Public counts: a range guard and one closed form each
# ============================================================


def rooted_cubic_orientable(g: int) -> int:
    """Count rooted cubic one-face maps with 6g-3 edges on the orientable genus-g surface.

    Closed form: 2 (6g-3)! / (12^g g! (3g-2)!).
    """
    if g <= 0:
        raise ValueError(f"orientable genus must be >= 1 (got {g})")
    return _orientable_form(g, 0)


def rooted_cubic_nonorientable(g: int) -> int:
    """Count rooted cubic one-face maps with 3g-3 edges on the non-orientable genus-g surface.

    Returns 0 for g=1: no cubic one-face map exists on the projective plane.
    """
    if g <= 0:
        raise ValueError(f"non-orientable genus must be >= 1 (got {g})")
    return 0 if g == 1 else _nonorientable_form(g, 0)


def precubic_orientable(g: int, gg: int) -> int:
    """Count rooted precubic one-face maps on the orientable genus-gg surface.

    Parameterized by the covering genus g: k = g-4gg leaves and 2m+1 edges,
    where m = g-gg-2. Out-of-range parameters (gg, k or m negative) give 0.
    """
    if gg < 0 or g < 4 * gg or g < gg + 2:
        return 0
    return _orientable_form(gg, g - 4 * gg)


def precubic_nonorientable_by_leaves(gg: int, k: int) -> int:
    """Count rooted precubic one-face maps with k leaves on the non-orientable genus-gg surface.

    Even gg = 2h: e = 2k+6h-3 edges; odd gg = 2h+1: e = 2k+6h edges.
    Parameters with gg < 1, k < 0 or no edge (gg = 1, k = 0) give 0.
    """
    if gg < 1 or k < 0 or (gg, k) == (1, 0):
        return 0
    return _nonorientable_form(gg, k)


def precubic_nonorientable_by_genus_pair(g: int, gg: int) -> int:
    """The precubic non-orientable count in covering-genus form: k = g-2gg leaves.

    The map has 2g-gg-3 edges. Parameters with gg < 1 or k < 0 give 0. The
    edgeless (g, gg) = (2, 1) keeps the formal value 1: the census reads it
    as the reflection quotient of the orientable genus-1 surface.
    """
    if gg < 1 or g < 2 * gg:
        return 0
    return _nonorientable_form(gg, g - 2 * gg)


# ============================================================
# Chains of quotient counts for the census
# ============================================================


def _orientable_handles(value: int, n_s: int, n_v: int, square: int) -> Iterator[int]:
    """square^gg C(n_s'+n_v, n_s') P(gg, n_s'+n_v), n_s' = n_s-4gg, for gg = 0..n_s//4 from `value` at gg = 0.

    P(gg, K) is precubic_orientable(K+4gg, gg). A handle takes four index-2
    branch points: K drops by 4 and m = n_s'+n_v+3gg-2 by 1, so the step from
    gg-1 to gg is square (n_s'+1)(n_s'+2)(n_s'+3)(n_s'+4) / (24 gg (2m+3)), exactly.
    """
    context = f"orientable quotient count stepped from (gg=0, n_s={n_s}, n_v={n_v})"
    yield value
    for gg in range(1, n_s // 4 + 1):
        n_s -= 4
        m = n_s + n_v + 3 * gg - 2
        num = value * (square * (n_s + 1) * (n_s + 2) * (n_s + 3) * (n_s + 4))
        value = exact_quotient(num, 24 * gg * (2 * m + 3), context)
        yield value


def _orientable_period_two(g: int) -> Iterator[int]:
    """precubic_orientable(g, gg) for gg = 0, 1, ..., g//4: one handle chain from the public count at gg = 0."""
    return _orientable_handles(precubic_orientable(g, 0), g, 0, 1)


def _orientable_rotations(g: int) -> Iterator[Tuple[int, int, int, int, int]]:
    """(l, gg, n_s, n_v, count) for every orientable rotation class of the genus-g census with nonzero count.

    The count is l^{2gg} b_l C(n_s+n_v, n_s) P(gg, n_s+n_v), where P(gg, K) is
    precubic_orientable(K+4gg, gg), l^{2gg} the handle factor of the
    epimorphism count and b_l its branch factor: b_2 = 1, and
    b_3 = b_6 = 2 (2^{n_v} - (-1)^{n_v}) / 3 order-3 branch assignments
    summing to 0. The classes, each a chain of exact steps (where n_s drops
    by 4 per handle, the steps of _orientable_handles with square l^2):
      l = 2: n_s = 2g+1-4gg, n_v = 0 for gg = 0..g//2, one handle chain from
             precubic_orientable(2g+1, 0);
      l = 3: n_s = 0, n_v = g+1-3gg >= 1, so m = n_v+3gg-2 = g-1 throughout,
             stepped from gg to gg+1 by 9 K(K-1)(K-2) / (12 (gg+1)) with K = n_v;
      l = 6: n_v = 2g-1-3k, n_s = 4k+3-2g-4gg >= 0 for k = g//2..(2g-2)//3,
             so K = k+2-4gg and m = k-gg. The start at gg = 0 is stepped across k
             by 2(2k+3) n_v(n_v-1)(n_v-2) / ((n_s+1)(n_s+2)(n_s+3)(n_s+4)), and
             each k is one handle chain from b_6 times its start.
    C(n_s+n_v, n_s), l^2 per handle and b_l ride in the chain values, and each
    step is a big-by-small product and an exact division, so a wrong ratio raises.
    """
    context = f"orientable rotation class count at g={g}"

    def branched(value: int, n_v: int) -> int:
        return exact_quotient(2 * ((value << n_v) - (-1) ** n_v * value), 3, context)

    for gg, value in enumerate(_orientable_handles(precubic_orientable(2 * g + 1, 0), 2 * g + 1, 0, 4)):
        yield 2, gg, 2 * g + 1 - 4 * gg, 0, value
    value = precubic_orientable(g + 1, 0)
    for gg in range(g // 3 + 1):
        n_v = g + 1 - 3 * gg
        if gg:
            value = exact_quotient(value * (3 * (n_v + 3) * (n_v + 2) * (n_v + 1)), 4 * gg, context)
        yield 3, gg, 0, n_v, branched(value, n_v)
    first = g // 2
    start = precubic_orientable(first + 2, 0) * comb(first + 2, 4 * first + 3 - 2 * g)
    for k in range(first, (2 * g - 2) // 3 + 1):
        top, n_v = 4 * k + 3 - 2 * g, 2 * g - 1 - 3 * k
        if k > first:  # from k-1, where n_v was 3 more and n_s 4 less
            num = start * (2 * (2 * k + 1) * (n_v + 3) * (n_v + 2) * (n_v + 1))
            start = exact_quotient(num, (top - 3) * (top - 2) * (top - 1) * top, context)
        for gg, value in enumerate(_orientable_handles(branched(start, n_v), top, n_v, 36)):
            yield 6, gg, top - 4 * gg, n_v, value


def _nonorientable_walk(g: int, keys: Iterable[Tuple[int, int]]) -> Iterator[int]:
    """The non-orientable precubic count at each key (gg, k) the genus-g census reads, in order.

    The keys come in (gg, k) order, repeats allowed, and include every
    period-2 key (gg, g-2gg), gg = 1..g//2. Those form two chains in h, one
    per parity of gg, stepped two crosscaps at a time. Odd gg = 2h+1 starts at
    gg = 1 from 4^{g-2} (the formal value 1 at the edgeless (1, 0) when g = 2);
    even gg = 2h starts at gg = 2 from the public count and carries N_h of
    c_coefficient by N_{h+1} = 16 N_h + C(2h, h). With h and k = g-2gg+4
    those of gg-2, the ratios are k(k-1)(k-2)(k-3) / (12 (h+1)(g-h-2)) (odd)
    and N_{h+1} k(k-1)(k-2)(k-3)(g-h-2) / (24 (2h+1) N_h (2g-2h-3)(2g-2h-4)).

    Any other key repeating the last key reuses its count, one leaf past it
    on the same surface steps that count (from k to k+1 leaves by
    4(k+1+3h) / (k+1) for odd gg = 2h+1, (2k+6h-1)(2k+6h-2) / ((k+1)(k+3h-1))
    for even gg = 2h), and otherwise starts a new chain from the public count.
    Every step is a big-by-small product and an exact division, so a wrong
    ratio raises.
    """
    counts = [0, 0]  # the count at the last period-2 key of each parity of gg
    partial = 1  # N_h of the even chain's last key: N_1 = 1 at gg = 2
    live, value = None, 0
    for gg, k in keys:
        context = f"precubic non-orientable count at (gg={gg}, k={k})"
        if (gg, k) == live:
            pass
        elif 2 * gg + k == g:
            # h and k(k-1)(k-2)(k-3) of the chain's previous key: gg-2 crosscaps, k+4 leaves
            h, falling = gg // 2 - 1, (k + 4) * (k + 3) * (k + 2) * (k + 1)
            if gg == 1:
                counts[1] = 4 ** (g - 2)
            elif gg == 2:
                counts[0] = precubic_nonorientable_by_leaves(2, k)
            elif gg % 2:
                counts[1] = exact_quotient(counts[1] * falling, 12 * (h + 1) * (g - h - 2), context)
            else:
                stepped = 16 * partial + comb(2 * h, h)
                num = counts[0] * (stepped * falling * (g - h - 2))
                den = 24 * (2 * h + 1) * partial * (2 * g - 2 * h - 3) * (2 * g - 2 * h - 4)
                counts[0], partial = exact_quotient(num, den, context), stepped
            value = counts[gg % 2]
        elif live == (gg, k - 1):
            h = gg // 2
            if gg % 2 == 0:
                num, den = (2 * k + 6 * h - 3) * (2 * k + 6 * h - 4), k * (k + 3 * h - 2)
            else:
                num, den = 4 * (k + 3 * h), k
            value = exact_quotient(value * num, den, context)
        else:
            value = precubic_nonorientable_by_leaves(gg, k)
        live = (gg, k)
        yield value
