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
outgrows the largest degree in it. Counts fixed by a symmetry reuse the
same search, forcing the whole symmetry orbit of every placed pair at once.

A search returns the histogram of the invariants (orientable, genus,
degrees) of the gluings it reaches. Each count sums the histogram entries on
its surface, and a precubic count reads the one entry of its degree profile.
The tree depends only on (n, twist mode, degree set), so the identity tree
of such a triple is walked once per process and cached: rooted, precubic and
Burnside-identity queries all read the same histogram.

A Burnside sum searches once per class of symmetries with equal fixed counts
and weights each result by the class size: one class of rotations by d per
value of gcd(d, 2n), and two of reflections s -> c - s by the parity of c.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import AbstractSet, FrozenSet, List, Optional, Sequence, Tuple

from .exactnum import exact_quotient
from .rooted_counts import SurfaceClass

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
class MapInvariants(SurfaceClass):
    """Classification of a glued polygon: its surface plus the sorted vertex degrees."""

    degrees: Tuple[int, ...]


# invariants -> number of gluings with them
InvariantHistogram = Counter[MapInvariants]


class _PartialGluing:
    """Side partners, twist bits and corner classes of a partial gluing.

    A corner path is stored at its ends: end[c] is the other end, size[c] the
    corner count. `degrees` lists the sizes of the closed cycles. twist[s]
    is meaningful once side s is glued and only read then, so a search
    backtracks by restoring partner, end, size and the length of degrees,
    never twist. A gluing fails when a cycle closes with a size outside
    `allowed` (any size if None) or a path outgrows it.
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

    def glue(self, a: int, b: int, twist: bool) -> bool:
        """Glue sides a and b; False if either is glued otherwise or a corner class leaves the degree set.

        A pair already glued the same way is accepted as it is. On False the
        gluing may be half done: restore a copy of partner, end, size and
        the length of degrees taken before.
        """
        partner, end, size = self.partner, self.end, self.size
        if partner[a] != -1 or partner[b] != -1:
            return partner[a] == b and self.twist[a] == twist
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


def _count_search(
    n: int,
    allow_twists: bool,
    degrees: Optional[AbstractSet[int]],
    symmetry: Optional[Sequence[int]] = None,
) -> InvariantHistogram:
    """Histogram of (orientable, genus, degrees) over the gluings of the 2n-gon, optionally fixed by a symmetry.

    degrees is a pruning set: gluings with a vertex degree outside it are
    not reached. symmetry is a side permutation; a reached gluing
    must be fixed by it, twist bits carried unchanged.
    """
    two_n = 2 * n
    state = _PartialGluing(n, degrees)
    partner, end, size, cycles = state.partner, state.end, state.size, state.degrees
    twist_options = (False, True) if allow_twists else (False,)

    def place_orbit(i: int, j: int, twist: bool) -> bool:
        # the pair and each image under the symmetry until the orbit returns to it
        if not state.glue(i, j, twist):
            return False
        if symmetry is None:
            return True
        a, b = i, j
        while True:
            a, b = symmetry[a], symmetry[b]
            if (a, b) in ((i, j), (j, i)):
                return True
            if not state.glue(a, b, twist):
                return False

    histogram: InvariantHistogram = Counter()

    def search() -> None:
        if -1 not in partner:
            histogram[state.invariants()] += 1
            return
        first = partner.index(-1)
        saved_partner, saved_end, saved_size, closed = partner[:], end[:], size[:], len(cycles)
        for j in range(first + 1, two_n):
            if partner[j] != -1:
                continue
            for twist in twist_options:
                if place_orbit(first, j, twist):
                    search()
                partner[:], end[:], size[:] = saved_partner, saved_end, saved_size
                del cycles[closed:]

    search()
    return histogram


@functools.lru_cache(maxsize=16)
def _identity_histogram(n: int, allow_twists: bool, degrees: Optional[FrozenSet[int]]) -> InvariantHistogram:
    """The search without a symmetry of one (n, twist mode, degree set), walked once per process.

    Callers only read the shared result. 16 entries hold every identity tree
    of `verify --max-edges-full 8`, and the queries of one tree come one
    after another, so the bound costs no walk while keeping memory bounded.
    """
    return _count_search(n, allow_twists, degrees)


def _histogram(
    n: int,
    allow_twists: bool,
    degrees: Optional[AbstractSet[int]],
    symmetry: Optional[Sequence[int]] = None,
) -> InvariantHistogram:
    """The invariant histogram of one search; the identity (symmetry None) is read from the per-process cache."""
    if symmetry is None:
        return _identity_histogram(n, allow_twists, None if degrees is None else frozenset(degrees))
    return _count_search(n, allow_twists, degrees, symmetry)


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


def _tally(histogram: InvariantHistogram, surface: SurfaceClass) -> int:
    """The number of gluings in `histogram` on `surface`."""
    # No degree filter: the search checks each class as it closes, and a
    # complete gluing has every class closed, so all its degrees are in the set.
    return sum(
        count
        for invariants, count in histogram.items()
        if invariants.orientable == surface.orientable and invariants.genus == surface.genus
    )


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
    full_mode = not surface.orientable
    _check_limit(n, full_mode, max_edges)
    return _tally(_histogram(n, full_mode, degrees), surface)


def _burnside(
    n: int,
    surface: SurfaceClass,
    degrees: Optional[AbstractSet[int]],
    max_edges: Optional[int],
    with_reflections: bool,
) -> int:
    """Average the fixed gluings over the 2n rotations, and the 2n reflections s -> c - s if asked.

    One search per class of equal fixed counts, weighted by the class size:
    rotations by d with the same gcd(d, 2n) generate the same group, and a
    rotation by e conjugates the reflection at c into the one at c + 2e.
    The identity (None) reads the cached identity tree that rooted counts share.
    """
    full_mode = not surface.orientable
    _check_limit(n, full_mode, max_edges)
    two_n = 2 * n
    rotations = Counter(math.gcd(d, two_n) for d in range(1, two_n))
    classes = [(1, None)] + [(size, [(s + step) % two_n for s in range(two_n)]) for step, size in rotations.items()]
    if with_reflections:
        classes += [(n, [(c - s) % two_n for s in range(two_n)]) for c in (0, 1)]
    order = 4 * n if with_reflections else two_n
    fixed_total = sum(size * _tally(_histogram(n, full_mode, degrees, symmetry), surface) for size, symmetry in classes)
    return exact_quotient(fixed_total, order, f"Burnside sum over a group of order {order}")


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
    """Count rooted one-face maps with n edges, `leaves` degree-1 vertices, rest degree 3."""
    _check_limit(n, not surface.orientable, max_edges)
    if leaves < 0:
        return 0
    cubic_vertices, remainder = divmod(2 * n - leaves, 3)
    if remainder != 0 or cubic_vertices < 0:
        return 0
    histogram = _histogram(n, not surface.orientable, frozenset({1, 3}))
    return histogram[MapInvariants(surface.orientable, surface.genus, (1,) * leaves + (3,) * cubic_vertices)]
