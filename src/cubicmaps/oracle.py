"""Brute-force oracle: one-face maps enumerated as edge gluings of a polygon.

Model
-----
A one-face map with n edges is a 2n-gon with its boundary sides glued in
pairs. Sides are labelled 0..2n-1 counterclockwise; corner c is the polygon
vertex between sides c-1 and c. A gluing is a perfect matching on the sides
plus one twist bit per matched pair:

  - untwisted (i, j): head-to-tail identification, as in a chord diagram;
    corners i+1 ~ j and i ~ j+1 become one map vertex;
  - twisted (i, j): head-to-head identification (a crosscap gluing);
    corners i+1 ~ j+1 and i ~ j become one map vertex.

Map invariants are read off the corner classes: vertices are the classes,
vertex degrees the class sizes, the surface is orientable iff no pair is
twisted, and the genus follows from the Euler relation v - n + 1 = chi.

Every gluing is one rooted map (the polygon carries the root). Relabelling
the sides by a rotation re-roots the same map along its face; a reflection
additionally reverses orientation. Burnside counting over the 2n rotations
therefore yields sensed counts, and over the dihedral group of order 4n
unsensed counts. Twist bits ride along unchanged under both kinds of
relabelling. That convention, and the one-gluing-one-rooted-map
correspondence, are confirmed by the unsensed and rooted checks of the
`verify` oracle-equivalence suite against the closed forms.

Search
------
Matchings are enumerated by always extending the smallest unmatched side, so
the search order is canonical and the space partitions deterministically by
the first placed pair. Every corner flanks two sides, and each glued side
links one corner at each of its ends, so a partial corner class is a path
of corners until a link joins its two ends and closes it into a cycle: a
finished vertex whose degree is the cycle length. Links only join path
ends, so a path is known by its ends alone. Each search node copies the
side partners, path ends and path sizes once, with the number of closed
cycles, and restores that copy in place after every branch; twist bits
need no copy, since a twist is read only on a glued side. Branches die
early when a cycle closes with a size outside the degree set or a path
outgrows the largest degree in it.

A path of the largest degree can only close. Each of its ends has one free
flanking side, and any other partner for either side adds a corner, so
every completion glues those two sides to each other, with the one twist
that joins the ends. After every placement the search glues that pair for
each such path at once, as a forced move, and branches again only on the
smallest unmatched side; a forced move drops no gluing.

The search roots its tree at a pair of least gap. The
gap of a pair (a, b) is min(|a - b|, 2n - |a - b|). A gluing G has a least
gap d(G) and a set S(G) of the sides that lie in pairs of gap d(G). A
rotation re-roots the same map and keeps the invariants, d and |S|, so
counting the pairs (gluing, side in S) two ways gives: the gluings with
given invariants number the sum of 2n / |S(G)| over those with side 0 in
S(G). Every search branches first on side 0, so the root branch 0 ~ j sets
d = j, every later placement of a pair of smaller gap, branched or forced,
is cut, and a complete gluing counts 2n / |S|. The mirror s -> -s (mod 2n),
twist bits unchanged, keeps side 0 and every gap, and maps the gluings with
0 ~ j one to one onto those with 0 ~ 2n - j, invariants and |S| kept, so
the root walks j = 1..n and counts each gluing under j < n twice. The
weights stay integers: every |S| <= 2n divides ties = lcm(1..2n), fixed once
per search, so a gluing adds weight * (ties / |S|) under its invariants, and
each invariant's sum times 2n is divided by ties once, exactly. On the
twisted n = 8, degrees {1, 3} tree the forced moves bring the glue calls
from 913,646 to 48,867, the mirror to 24,365 and the least-gap root to
7,463.

Burnside's sum of |Fix(g)| over the symmetries g is the sum over the
gluings of the number of symmetries fixing each. So a complete gluing adds
its weight once for each symmetry fixing it, under (invariants, kind): kind
1 is the identity, l > 1 the rotations of order l, "reflection" the
reflections. Conjugation keeps a kind, so the least-gap and mirror weights
hold for each. Side s reads as chr(2 * ((partner[s] - s) % 2n) + twist[s]):
the rotations fixing G are those by the multiples of its word's least
period, and s -> c - s fixes G iff its word is the word of its mirror image
rotated by c. Fixing reflections, if any, are as many as fixing rotations.

A search returns the histogram of (invariants, kind), the invariants being
(orientable, genus, degrees). It depends only on (n, twist mode, degree
set), so one bounded cache serves every query of one tree: rooted and
precubic counts read kind 1, sensed counts every rotation and unsensed
counts every kind.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import AbstractSet, FrozenSet, List, Optional, Sequence, Tuple

from .exactnum import exact_quotient

# Enumeration limits: full twisted enumeration visits (2n-1)!! 2^n gluings,
# orientable-only (2n-1)!!, so the affordable n differ. Callers may raise the
# ceiling explicitly through the max_edges arguments.
DEFAULT_MAX_EDGES_ORIENTABLE = 9
DEFAULT_MAX_EDGES_FULL = 6

class EnumerationLimitError(ValueError):
    """Raised when a requested edge count exceeds the configured search limit."""


# ============================================================
# Gluings and their invariants
# ============================================================


@dataclass(frozen=True)
class PolygonGluing:
    """A side pairing of the 2n-gon: pairs (i, j) with i < j, one twist bit each."""

    n: int
    pairs: Tuple[Tuple[int, int], ...]
    twists: Tuple[bool, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1 (got {self.n})")
        if len(self.pairs) != self.n or len(self.twists) != self.n:
            raise ValueError(f"expected {self.n} pairs and twist bits")
        seen = set()
        for (i, j) in self.pairs:
            if not (0 <= i < j < 2 * self.n):
                raise ValueError(f"pair ({i}, {j}) is not an ordered pair of distinct sides")
            seen.update((i, j))
        if len(seen) != 2 * self.n:
            raise ValueError("pairs must partition the sides (fixed-point-free involution)")


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


@dataclass(frozen=True)
class MapInvariants(SurfaceClass):
    """Classification of a glued polygon: its surface plus the sorted vertex degrees."""

    degrees: Tuple[int, ...]


# (invariants, kind) -> number of (gluing, symmetry of that kind fixing it); kind 1 is the identity,
# l > 1 the rotations of order l and "reflection" the reflections s -> c - s (see Search)
InvariantHistogram = Counter[Tuple[MapInvariants, object]]


class _PartialGluing:
    """Side partners, twist bits and corner classes of a partial gluing.

    A corner path is stored at its ends: end[c] is the other end, size[c] the
    corner count. `degrees` lists the sizes of the closed cycles, and `full`
    one end of each path that grew to exactly `max_degree` corners, for the
    search to close. twist[s] is meaningful once side s is glued and only
    read then, so a search backtracks by restoring partner, end, size and the
    lengths of degrees and full, never twist. A gluing fails when a cycle
    closes with a size outside `allowed` (any size if None) or a path
    outgrows it.
    """

    def __init__(self, n: int, allowed: Optional[AbstractSet[int]] = None):
        self.n = n
        self.allowed = range(1, 2 * n + 1) if allowed is None else allowed
        self.max_degree = max(self.allowed, default=0)
        self.partner = [-1] * (2 * n)
        self.twist = [False] * (2 * n)
        self.end = list(range(2 * n))
        self.size = [1] * (2 * n)
        self.degrees: List[int] = []
        self.full: List[int] = []

    def glue(self, a: int, b: int, twist: bool) -> bool:
        """Glue the free sides a and b; False if a corner class leaves the degree set.

        The search branches and forces only free sides, and classify's pairs
        partition them. On False the gluing may be half done: restore a copy
        of partner, end, size and the lengths of degrees and full taken before.
        """
        partner, end, size = self.partner, self.end, self.size
        partner[a], partner[b] = b, a
        self.twist[a] = self.twist[b] = twist
        # the corner links of the Model above: a+1 ~ b and a ~ b+1 untwisted, a+1 ~ b+1 and a ~ b twisted
        a1, b1 = (a + 1) % len(partner), (b + 1) % len(partner)
        for (u, v) in ((a1, b1), (a, b)) if twist else ((a1, b), (a, b1)):
            if end[u] == v:
                s = size[u]
                self.degrees.append(s)
                if s not in self.allowed:
                    return False
            else:
                x, y = end[u], end[v]
                s = size[u] + size[v]
                end[x], end[y] = y, x
                size[x] = size[y] = s
                if s > self.max_degree:
                    return False
                if s == self.max_degree:
                    self.full.append(x)
        return True

    def invariants(self) -> MapInvariants:
        """The invariants of the complete gluing: its cycles are the vertices, v - n + 1 = chi pins the genus."""
        orientable = not any(self.twist)
        chi = len(self.degrees) - self.n + 1
        genus = (2 - chi) // 2 if orientable else 2 - chi
        return MapInvariants(orientable=orientable, genus=genus, degrees=tuple(sorted(self.degrees)))


def classify(gluing: PolygonGluing) -> MapInvariants:
    """Compute the surface and vertex degrees of a glued polygon."""
    state = _PartialGluing(gluing.n)
    for (i, j), twist in zip(gluing.pairs, gluing.twists):
        state.glue(i, j, twist)
    return state.invariants()


# ============================================================
# Search engine
# ============================================================


def _stabilizer(partner: Sequence[int], twist: Sequence[bool]) -> List[object]:
    """The kind of each symmetry of the 2n-gon that fixes a complete gluing, read from its words (see Search)."""
    two_n = len(partner)
    word = "".join([chr(2 * ((p - s) % two_n) + t) for s, (p, t) in enumerate(zip(partner, twist))])
    period = (word + word).find(word, 1)
    kinds: List[object] = [two_n // math.gcd(r, two_n) for r in range(0, two_n, period)]
    mirror = "".join([chr(2 * ((-partner[-s] - s) % two_n) + twist[-s]) for s in range(two_n)])
    if word in mirror + mirror:
        kinds += ["reflection"] * len(kinds)
    return kinds


def _count_search(n: int, allow_twists: bool, degrees: Optional[AbstractSet[int]]) -> InvariantHistogram:
    """Histogram of (invariants, kind) over the gluings of the 2n-gon and the symmetries fixing each.

    degrees is a pruning set: gluings with a vertex degree outside it are
    not reached.

    After every placement, each open corner path of the largest allowed
    degree is closed at once. Each end x of such a path has one free
    flanking side: side x, which x starts, or side x - 1, which x ends. Any
    other partner for either free side adds a corner to the path, so every
    completion glues the two free sides to each other, twisted when both
    ends start their free sides or both end them: the forced pair drops no
    gluing. The branch dies when the forced pair has a gap below the least
    gap (gap 0: the two free sides are one side) or fails to glue. Without
    twists the pair is always untwisted: an untwisted link joins a corner
    through the side it ends to a corner through the side it starts, each
    inner corner of a path uses one of each, so one end of a path starts its
    free side and the other ends it.

    The root branches only on 0~j for j <= n, and j is the least gap: no
    pair below it is placed. A complete gluing takes its mirror weight (2
    for j < n, for its mirror under 0~2n-j; 1 for j = n) times ties / |S|,
    S the sides in pairs of gap j and ties = lcm(1..2n), once for each
    symmetry fixing it; each entry counts 2n / ties times its sum (see Search).
    """
    two_n = 2 * n
    state = _PartialGluing(n, degrees)
    partner, end, size, cycles, full = state.partner, state.end, state.size, state.degrees, state.full
    twist_options = (False, True) if allow_twists else (False,)

    def place(i: int, j: int, twist: bool) -> bool:
        # the pair, then the forced pair of every path it filled, until none is left open
        if not state.glue(i, j, twist):
            return False
        while full:
            x = full.pop()
            x_side = x if partner[x] == -1 else x - 1
            if partner[x_side] != -1:
                continue  # a later placement closed the path
            y = end[x]
            y_side = y if partner[y] == -1 else y - 1
            twisted = (x_side == x) == (y_side == y)
            gap = (y_side - x_side) % two_n
            if min(gap, two_n - gap) < least or not state.glue(x_side % two_n, y_side % two_n, twisted):
                return False
        return True

    histogram: InvariantHistogram = Counter()
    ties = math.lcm(*range(1, two_n + 1))  # divisible by every |S| <= 2n

    def search(weight: int) -> None:
        if -1 not in partner:
            weight *= ties // sum((p - s) % two_n in (least, two_n - least) for s, p in enumerate(partner))
            invariants = state.invariants()
            for kind in _stabilizer(partner, state.twist):
                histogram[invariants, kind] += weight
            return
        first = partner.index(-1)
        saved_partner, saved_end, saved_size, closed = partner[:], end[:], size[:], len(cycles)
        for j in range(first + least, min(two_n, first + two_n + 1 - least)):
            if partner[j] != -1:
                continue
            for twist in twist_options:
                if place(first, j, twist):
                    search(weight)
                partner[:], end[:], size[:] = saved_partner, saved_end, saved_size
                del cycles[closed:]
                full.clear()

    fresh = partner[:], end[:], size[:]
    for least in range(1, n + 1):
        for twist in twist_options:
            if place(0, least, twist):
                search(2 if least < n else 1)
            partner[:], end[:], size[:] = fresh
            cycles.clear()
            full.clear()
    return Counter(
        {key: exact_quotient(two_n * total, ties, "Burnside fixed count") for key, total in histogram.items()}
    )


@functools.lru_cache(maxsize=16)
def _histogram(n: int, allow_twists: bool, degrees: Optional[FrozenSet[int]]) -> InvariantHistogram:
    """The search of one key, cached; every caller passes all three arguments, hashable, and only reads the result.

    `verify` asks for each tree's queries one after another (16 trees at
    --max-edges-full 8, 26 at the caps), so 16 entries bound the memory and
    walk no tree twice.
    """
    return _count_search(n, allow_twists, degrees)


# ============================================================
# Counting operations
# ============================================================


def _check_limit(n: int, full_mode: bool, max_edges: Optional[int]) -> None:
    if n < 1:
        raise ValueError(f"need n >= 1 edges (got {n})")
    limit = max_edges
    if limit is None:
        limit = DEFAULT_MAX_EDGES_FULL if full_mode else DEFAULT_MAX_EDGES_ORIENTABLE
    if n > limit:
        mode = "full twisted" if full_mode else "orientable-only"
        raise EnumerationLimitError(
            f"n={n} exceeds the {mode} enumeration limit {limit}; "
            f"pass max_edges explicitly to raise it"
        )


def _fixed_counts(
    n: int,
    surface: SurfaceClass,
    degrees: Optional[AbstractSet[int]],
    max_edges: Optional[int],
) -> Counter[object]:
    """kind -> the gluings on `surface` fixed by each symmetry of that kind, summed; kind 1 is the rooted count."""
    # No degree filter: the search checks each class as it closes, and a
    # complete gluing has every class closed, so all its degrees are in the set.
    full_mode = not surface.orientable
    _check_limit(n, full_mode, max_edges)
    fixed: Counter[object] = Counter()
    for (invariants, kind), count in _histogram(n, full_mode, None if degrees is None else frozenset(degrees)).items():
        if invariants.orientable == surface.orientable and invariants.genus == surface.genus:
            fixed[kind] += count
    return fixed


def count_rooted(
    n: int,
    surface: SurfaceClass,
    degrees: Optional[AbstractSet[int]] = None,
    max_edges: Optional[int] = None,
) -> int:
    """Count rooted one-face maps with n edges on `surface` via direct enumeration.

    One gluing is one rooted map. Orientable surfaces enumerate matchings
    only; non-orientable surfaces enumerate matchings with twist bits.
    With a `degrees` set, only maps whose vertex degrees all lie in it count.
    """
    return _fixed_counts(n, surface, degrees, max_edges)[1]


def _burnside(
    n: int,
    surface: SurfaceClass,
    degrees: Optional[AbstractSet[int]],
    max_edges: Optional[int],
    with_reflections: bool,
) -> int:
    """Average the fixed gluings over the 2n rotations, and the 2n reflections s -> c - s if asked."""
    fixed = _fixed_counts(n, surface, degrees, max_edges)
    total = sum(count for kind, count in fixed.items() if with_reflections or kind != "reflection")
    order = 4 * n if with_reflections else 2 * n
    return exact_quotient(total, order, f"Burnside sum over a group of order {order}")


def count_sensed_orientable(
    n: int,
    genus: int,
    degrees: Optional[AbstractSet[int]] = None,
    max_edges: Optional[int] = None,
) -> int:
    """Count orientable one-face maps with n edges up to rotation (Burnside over Z_2n)."""
    return _burnside(n, SurfaceClass(orientable=True, genus=genus), degrees, max_edges, False)


def count_unsensed(
    n: int,
    surface: SurfaceClass,
    degrees: Optional[AbstractSet[int]] = None,
    max_edges: Optional[int] = None,
) -> int:
    """Count one-face maps with n edges on `surface` up to all homeomorphisms.

    Burnside over the dihedral group of order 4n: the 2n rotations plus the
    2n reflections s -> c - s, twist bits carried unchanged.
    """
    return _burnside(n, surface, degrees, max_edges, True)


def count_precubic(
    n: int,
    surface: SurfaceClass,
    leaves: int,
    max_edges: Optional[int] = None,
) -> int:
    """Count rooted one-face maps with n edges, `leaves` degree-1 vertices, rest degree 3.

    By Euler's relation a surface allows one {1, 3} profile, with
    2 leaves = n - 3 + 3 chi; any other leaf count gives 0.
    """
    _check_limit(n, not surface.orientable, max_edges)
    if 2 * leaves != n - 3 + 3 * surface.euler_characteristic():
        return 0
    return _fixed_counts(n, surface, {1, 3}, max_edges)[1]
