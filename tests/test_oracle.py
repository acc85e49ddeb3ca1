"""Brute-force oracle: classification, completeness, and known small counts."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from math import prod

import pytest

from cubicmaps import oracle
from cubicmaps.oracle import (
    EnumerationLimitError,
    MapInvariants,
    PolygonGluing,
    classify,
    count_precubic,
    count_rooted,
    count_sensed_orientable,
    count_unsensed,
)
from cubicmaps.rooted_counts import SurfaceClass

_CUBIC = frozenset({3})


def _double_factorial_odd(n: int) -> int:
    return prod(range(1, 2 * n, 2))


def test_polygon_gluing_validation() -> None:
    PolygonGluing(2, ((0, 1), (2, 3)), (False, True))
    with pytest.raises(ValueError):
        PolygonGluing(0, (), ())
    with pytest.raises(ValueError):
        PolygonGluing(1, ((1, 0),), (False,))  # pair not ordered
    with pytest.raises(ValueError):
        PolygonGluing(2, ((0, 1), (1, 3)), (False, False))  # side reused
    with pytest.raises(ValueError):
        PolygonGluing(2, ((0, 1),), (False,))  # wrong pair count


def test_classify_single_edge() -> None:
    plane_edge = classify(PolygonGluing(1, ((0, 1),), (False,)))
    assert plane_edge == MapInvariants(True, 0, (1, 1))
    assert plane_edge.euler_characteristic() == 2
    crosscap_loop = classify(PolygonGluing(1, ((0, 1),), (True,)))
    assert crosscap_loop == MapInvariants(False, 1, (2,))
    assert crosscap_loop.euler_characteristic() == 1


def test_classify_cubic_torus_diagram() -> None:
    invariants = classify(PolygonGluing(3, ((0, 3), (1, 4), (2, 5)), (False,) * 3))
    assert invariants == MapInvariants(True, 1, (3, 3))


def test_classify_klein_bottle_example() -> None:
    # two crosscap loops sharing the single vertex
    invariants = classify(PolygonGluing(2, ((0, 1), (2, 3)), (True, True)))
    assert invariants.orientable is False
    assert invariants.genus == 2
    assert invariants.euler_characteristic() == 0


def _matchings(sides):
    if not sides:
        yield ()
        return
    first, rest = sides[0], sides[1:]
    for k, partner in enumerate(rest):
        for tail in _matchings(rest[:k] + rest[k + 1 :]):
            yield ((first, partner),) + tail


def _all_gluings(n: int):
    for pairs in _matchings(tuple(range(2 * n))):
        for twists in itertools.product((False, True), repeat=n):
            yield PolygonGluing(n, pairs, twists)


def _reference_invariants(gluing: PolygonGluing) -> MapInvariants:
    # vertices from the two corner links of each pair, merged in a plain dict union-find
    two_n = 2 * gluing.n
    parent = {c: c for c in range(two_n)}

    def find(c):
        while parent[c] != c:
            c = parent[c]
        return c

    for (i, j), twist in zip(gluing.pairs, gluing.twists):
        if twist:
            links = [((i + 1) % two_n, (j + 1) % two_n), (i, j)]
        else:
            links = [((i + 1) % two_n, j), (i, (j + 1) % two_n)]
        for u, v in links:
            parent[find(u)] = find(v)
    degrees = tuple(sorted(Counter(find(c) for c in range(two_n)).values()))
    orientable = not any(gluing.twists)
    chi = len(degrees) - gluing.n + 1
    return MapInvariants(orientable, (2 - chi) // 2 if orientable else 2 - chi, degrees)


def _random_gluing(n: int, rng: random.Random) -> PolygonGluing:
    sides = list(range(2 * n))
    rng.shuffle(sides)
    pairs = tuple(sorted(tuple(sorted(sides[k : k + 2])) for k in range(0, 2 * n, 2)))
    return PolygonGluing(n, pairs, tuple(rng.random() < 0.5 for _ in range(n)))


def test_classify_agrees_with_a_union_find_reference() -> None:
    gluings = [g for n in range(1, 5) for g in _all_gluings(n)]
    assert len(gluings) == 1814
    rng = random.Random(20240607)
    gluings += [_random_gluing(n, rng) for n in (6, 7, 8) for _ in range(200)]
    for gluing in gluings:
        assert classify(gluing) == _reference_invariants(gluing), gluing


def test_classify_agrees_with_the_search() -> None:
    # each gluing classified on its own, against the histogram of the unpruned search
    total = 0
    for n in range(1, 5):
        histogram = Counter(classify(gluing) for gluing in _all_gluings(n))
        total += sum(histogram.values())
        assert histogram == oracle._count_search(n, True, None)
    assert total == 1814


def _is_fixed(gluing: PolygonGluing, symmetry) -> bool:
    # pairs mapped setwise, twist bits carried unchanged
    glued = {(frozenset(pair), twist) for pair, twist in zip(gluing.pairs, gluing.twists)}
    return {(frozenset(symmetry[s] for s in pair), twist) for pair, twist in glued} == glued


@pytest.mark.parametrize("degrees", [None, frozenset({1, 3}), frozenset({3})])
def test_fixed_searches_match_brute_force(degrees) -> None:
    for n in range(1, 5):
        two_n = 2 * n
        classified = [(g, classify(g)) for g in _all_gluings(n)]
        rotations = [[(s + d) % two_n for s in range(two_n)] for d in range(two_n)]
        reflections = [[(c - s) % two_n for s in range(two_n)] for c in range(two_n)]
        for symmetry in rotations + reflections:
            expected = Counter(
                invariants
                for gluing, invariants in classified
                if _is_fixed(gluing, symmetry) and (degrees is None or set(invariants.degrees) <= degrees)
            )
            assert oracle._count_search(n, True, degrees, symmetry) == expected, (n, symmetry)


def test_completeness_partition_by_surface() -> None:
    # orientable matchings: (2n-1)!!; gluings with at least one twist:
    # (2n-1)!! (2^n - 1); each partitioned exactly by the classified surface
    for n in range(1, 5):
        orientable_total = sum(
            count_rooted(n, SurfaceClass(True, g)) for g in range(0, n // 2 + 1)
        )
        assert orientable_total == _double_factorial_odd(n)
        nonorientable_total = sum(
            count_rooted(n, SurfaceClass(False, g)) for g in range(1, n + 1)
        )
        assert nonorientable_total == _double_factorial_odd(n) * (2 ** n - 1)


def test_count_rooted_cubic_anchors() -> None:
    assert count_rooted(3, SurfaceClass(True, 1), _CUBIC) == 1
    assert count_rooted(3, SurfaceClass(False, 2), _CUBIC) == 6
    assert count_rooted(6, SurfaceClass(False, 3), _CUBIC) == 128


def test_count_sensed_orientable_anchors() -> None:
    assert count_sensed_orientable(3, 1, _CUBIC) == 1


def test_count_unsensed_anchors() -> None:
    assert count_unsensed(3, SurfaceClass(True, 1), _CUBIC) == 1
    assert count_unsensed(3, SurfaceClass(False, 2), _CUBIC) == 2
    assert count_unsensed(6, SurfaceClass(False, 3), _CUBIC) == 11


def test_count_unsensed_below_rooted() -> None:
    for n in range(2, 5):
        for g in range(1, n + 1):
            surface = SurfaceClass(False, g)
            rooted = count_rooted(n, surface)
            unsensed = count_unsensed(n, surface)
            assert unsensed <= rooted <= 4 * n * unsensed


def test_count_precubic_examples() -> None:
    assert count_precubic(2, SurfaceClass(False, 1), 1) == 4
    assert count_precubic(5, SurfaceClass(False, 2), 1) == 60
    assert count_precubic(5, SurfaceClass(True, 0), 4) == 5
    # leaf counts that do not fit any degree profile
    assert count_precubic(2, SurfaceClass(True, 0), 0) == 0
    assert count_precubic(3, SurfaceClass(True, 0), -1) == 0


def test_enumeration_limits() -> None:
    with pytest.raises(EnumerationLimitError):
        count_rooted(10, SurfaceClass(True, 1))
    with pytest.raises(EnumerationLimitError):
        count_rooted(7, SurfaceClass(False, 2))
    with pytest.raises(EnumerationLimitError):
        count_unsensed(8, SurfaceClass(False, 2))
    with pytest.raises(EnumerationLimitError):
        count_rooted(4, SurfaceClass(True, 1), max_edges=3)
    # an explicit limit opens the door
    assert count_rooted(4, SurfaceClass(True, 1), max_edges=4) > 0


def test_limit_message_names_the_limit() -> None:
    with pytest.raises(EnumerationLimitError, match="limit 6"):
        count_rooted(7, SurfaceClass(False, 2))
    with pytest.raises(EnumerationLimitError, match="max_edges"):
        count_rooted(10, SurfaceClass(True, 1))


@pytest.mark.parametrize(
    "count",
    [
        lambda n: count_rooted(n, SurfaceClass(True, 0)),
        lambda n: count_sensed_orientable(n, 0),
        lambda n: count_unsensed(n, SurfaceClass(False, 1)),
        lambda n: count_precubic(n, SurfaceClass(True, 0), 0),
    ],
    ids=["count_rooted", "count_sensed_orientable", "count_unsensed", "count_precubic"],
)
@pytest.mark.parametrize("n", [0, -1, -2])
def test_counts_reject_fewer_than_one_edge(count, n: int) -> None:
    # the empty polygon is no map: without the check it counts 1, divides by zero or names a negative genus
    with pytest.raises(ValueError, match="n >= 1"):
        count(n)


def test_sensed_counts_sandwiched() -> None:
    from fractions import Fraction

    for n in (3, 5):
        for g in range(0, n // 2 + 1):
            rooted = count_rooted(n, SurfaceClass(True, g))
            sensed = count_sensed_orientable(n, g)
            assert Fraction(rooted, 2 * n) <= sensed <= rooted


def _precubic_queries():
    # every (n, surface, leaves) the precubic count can be asked about, n <= 6 twisted and n <= 7 orientable
    queries = [(n, SurfaceClass(False, g), k) for n in range(1, 7) for g in range(1, n + 1) for k in range(2 * n + 1)]
    queries += [(n, SurfaceClass(True, g), k) for n in range(1, 8) for g in range(n // 2 + 1) for k in range(2 * n + 1)]
    return queries


def test_shared_identity_search_is_order_independent() -> None:
    queries = _precubic_queries()
    oracle._identity_histogram.cache_clear()
    forward = [count_precubic(n, surface, k, max_edges=7) for n, surface, k in queries]
    oracle._identity_histogram.cache_clear()
    backward = [count_precubic(n, surface, k, max_edges=7) for n, surface, k in reversed(queries)]
    assert forward == backward[::-1]
    assert sum(forward) > 0


def test_rooted_and_burnside_identity_walk_one_tree() -> None:
    oracle._identity_histogram.cache_clear()
    surface = SurfaceClass(False, 3)
    assert count_rooted(6, surface, _CUBIC) == 128
    assert count_unsensed(6, surface, _CUBIC) == 11
    info = oracle._identity_histogram.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_limit_holds_on_a_warm_cache() -> None:
    surface = SurfaceClass(False, 2)
    assert count_rooted(7, surface, _CUBIC, max_edges=7) == 0
    with pytest.raises(EnumerationLimitError):
        count_rooted(7, surface, _CUBIC)
    with pytest.raises(EnumerationLimitError):
        count_unsensed(7, surface, _CUBIC)


def test_allowed_degrees_may_be_a_plain_set() -> None:
    surface = SurfaceClass(True, 2)
    assert count_rooted(9, surface, {3}) == count_rooted(9, surface, frozenset({3})) == 105


def _exact(total: int, order: int) -> int:
    quotient, remainder = divmod(total, order)
    assert remainder == 0
    return quotient


def _on(histogram, surface: SurfaceClass) -> int:
    return sum(c for inv, c in histogram.items() if (inv.orientable, inv.genus) == (surface.orientable, surface.genus))


@pytest.mark.parametrize("degrees", [None, _CUBIC])
def test_class_weighted_burnside_matches_per_element_burnside(degrees) -> None:
    # the reference searches every one of the 2n rotations and 2n reflections on its own
    cases = [(n, True) for n in range(1, 6)] + [(n, False) for n in range(1, 8)]
    for n, twisted in cases:
        two_n = 2 * n
        rotations: Counter = Counter()
        reflections: Counter = Counter()
        for d in range(two_n):
            rotations.update(oracle._count_search(n, twisted, degrees, [(s + d) % two_n for s in range(two_n)]))
            reflections.update(oracle._count_search(n, twisted, degrees, [(d - s) % two_n for s in range(two_n)]))
        if twisted:
            surfaces = [SurfaceClass(False, g) for g in range(1, n + 1)]
        else:
            surfaces = [SurfaceClass(True, g) for g in range(n // 2 + 1)]
        for surface in surfaces:
            rotated, reflected = _on(rotations, surface), _on(reflections, surface)
            unsensed = _exact(rotated + reflected, 4 * n)
            assert count_unsensed(n, surface, degrees, max_edges=7) == unsensed, (n, surface)
            if surface.orientable:
                sensed = _exact(rotated, two_n)
                assert count_sensed_orientable(n, surface.genus, degrees, max_edges=7) == sensed, (n, surface)


@pytest.mark.parametrize("n", [6, 9])
def test_burnside_searches_once_per_symmetry_class(monkeypatch, n) -> None:
    symmetric_searches = []
    search = oracle._count_search

    def counting_search(n, allow_twists, degrees, symmetry=None):
        if symmetry is not None:
            symmetric_searches.append(symmetry)
        return search(n, allow_twists, degrees, symmetry)

    monkeypatch.setattr(oracle, "_count_search", counting_search)
    divisors = sum(1 for d in range(1, 2 * n + 1) if 2 * n % d == 0)
    count_sensed_orientable(n, 2, _CUBIC)
    assert len(symmetric_searches) == divisors - 1
    symmetric_searches.clear()
    count_unsensed(n, SurfaceClass(True, 2), _CUBIC)
    assert len(symmetric_searches) == divisors + 1
