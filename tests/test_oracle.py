"""Brute-force oracle: classification, completeness, and known small counts."""

from __future__ import annotations

import functools
import itertools
import random
from collections import Counter
from math import gcd, prod

import pytest

from cubicmaps import cli, oracle
from cubicmaps.oracle import (
    EnumerationLimitError,
    MapInvariants,
    PolygonGluing,
    SurfaceClass,
    classify,
    count_precubic,
    count_rooted,
    count_sensed_orientable,
    count_unsensed,
)

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


def _all_gluings(n: int, allow_twists: bool = True):
    for pairs in _matchings(tuple(range(2 * n))):
        for twists in itertools.product((False, True) if allow_twists else (False,), repeat=n):
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
        rooted = Counter({inv: c for (inv, kind), c in oracle._count_search(n, True, None).items() if kind == 1})
        assert histogram == rooted
    assert total == 1814


def _is_fixed(gluing: PolygonGluing, symmetry) -> bool:
    # pairs mapped setwise, twist bits carried unchanged
    glued = {(frozenset(pair), twist) for pair, twist in zip(gluing.pairs, gluing.twists)}
    return {(frozenset(symmetry[s] for s in pair), twist) for pair, twist in glued} == glued


def _symmetries(n: int):
    # (kind, side permutation) for each of the 2n rotations, by their order, and the 2n reflections s -> c - s
    two_n = 2 * n
    rotations = [(two_n // gcd(d, two_n), [(s + d) % two_n for s in range(two_n)]) for d in range(two_n)]
    return rotations + [("reflection", [(c - s) % two_n for s in range(two_n)]) for c in range(two_n)]


@functools.lru_cache(maxsize=None)
def _brute_force_fixed(n: int, allow_twists: bool) -> Counter:
    # (invariants, kind) -> the (gluing, symmetry of that kind fixing it) pairs, every symmetry tried on every gluing
    symmetries = _symmetries(n)
    fixed: Counter = Counter()
    for gluing in _all_gluings(n, allow_twists):
        invariants = _reference_invariants(gluing)
        fixed.update((invariants, kind) for kind, symmetry in symmetries if _is_fixed(gluing, symmetry))
    return fixed


# the empty set, top degrees 1 and 2 and gapped sets are where a wrongly forced side or twist would show
@pytest.mark.parametrize(
    "degrees",
    [None, frozenset({1, 3}), frozenset({3}), frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2}), frozenset({2, 4}), frozenset({1, 2, 3})],
)
def test_fixed_searches_match_brute_force(degrees) -> None:
    # twisted n <= 4 and orientable n <= 6: both parities of n past 4, where the gap prune cuts deeper
    for n, allow_twists in [(n, twists) for n in range(1, 5) for twists in (True, False)] + [(5, False), (6, False)]:
        expected = Counter(
            {
                (invariants, kind): count
                for (invariants, kind), count in _brute_force_fixed(n, allow_twists).items()
                if degrees is None or set(invariants.degrees) <= degrees
            }
        )
        assert oracle._count_search(n, allow_twists, degrees) == expected, (n, allow_twists)


def _lifted(gluing: PolygonGluing, k: int) -> PolygonGluing:
    # the gluing repeated k times around a k times larger polygon, fixed by the rotation by its 2n sides
    two_n = 2 * gluing.n
    pairs = tuple((i + two_n * a, j + two_n * a) for a in range(k) for i, j in gluing.pairs)
    return PolygonGluing(gluing.n * k, pairs, gluing.twists * k)


def test_the_stabilizer_matches_each_symmetry_tried_in_turn() -> None:
    # random gluings past the brute-force sizes, and lifts, whose stabilizers hold rotations and often reflections
    rng = random.Random(20261020)
    for n in (6, 7, 8):
        gluings = [_random_gluing(n, rng) for _ in range(100)]
        gluings += [_lifted(_random_gluing(m, rng), n // m) for m in range(1, n) if n % m == 0 for _ in range(30)]
        for gluing in gluings:
            partner, twist = [0] * (2 * n), [False] * (2 * n)
            for (i, j), twisted in zip(gluing.pairs, gluing.twists):
                partner[i], partner[j], twist[i], twist[j] = j, i, twisted, twisted
            expected = Counter(kind for kind, symmetry in _symmetries(n) if _is_fixed(gluing, symmetry))
            assert Counter(oracle._stabilizer(partner, twist)) == expected, gluing


def test_forced_closures_cut_the_work_of_a_deep_tree(monkeypatch) -> None:
    # branching alone makes 913,646 glue calls on this tree; closing every full path as a forced move 48,867;
    # walking only the root branches 0~j with j <= n, each j < n counted for its mirror too, 24,365;
    # and cutting every pair of gap below the root pair's, 7,463
    calls = 0
    glue = oracle._PartialGluing.glue

    def counting_glue(self, a, b, twist):
        nonlocal calls
        calls += 1
        return glue(self, a, b, twist)

    monkeypatch.setattr(oracle._PartialGluing, "glue", counting_glue)
    histogram = oracle._count_search(8, True, frozenset({1, 3}))
    assert sum(c for (_, kind), c in histogram.items() if kind == 1) == 2304
    assert calls < 7_500


def test_the_search_glues_only_free_sides(monkeypatch) -> None:
    # glue has no rule for a side that is already glued: the search branches only on free sides, and a
    # forced pair is the two free flanking sides of a full path's ends
    calls = 0
    glue = oracle._PartialGluing.glue

    def checked_glue(self, a, b, twist):
        nonlocal calls
        calls += 1
        assert self.partner[a] == self.partner[b] == -1, (a, b)
        return glue(self, a, b, twist)

    monkeypatch.setattr(oracle._PartialGluing, "glue", checked_glue)
    oracle._count_search(8, True, frozenset({1, 3}))
    for n in range(1, 5):
        for allow_twists in (False, True):
            oracle._count_search(n, allow_twists, None)
    assert calls > 7_000


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
    oracle._histogram.cache_clear()
    forward = [count_precubic(n, surface, k, max_edges=7) for n, surface, k in queries]
    oracle._histogram.cache_clear()
    backward = [count_precubic(n, surface, k, max_edges=7) for n, surface, k in reversed(queries)]
    assert forward == backward[::-1]
    assert sum(forward) > 0


def test_rooted_and_burnside_identity_walk_one_tree() -> None:
    # the unsensed count reads every symmetry kind from the rooted count's tree and searches nothing more
    oracle._histogram.cache_clear()
    surface = SurfaceClass(False, 3)
    assert count_rooted(6, surface, _CUBIC) == 128
    assert count_unsensed(6, surface, _CUBIC) == 11
    info = oracle._histogram.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize("max_f, trees", [(6, 14), (8, 16)])
def test_the_queries_of_one_identity_tree_arrive_together(monkeypatch, max_f: int, trees: int) -> None:
    # the 16-entry cache costs no re-walk of a tree only while each tree's queries are consecutive
    cached = oracle._histogram
    keys = []

    def recording(*key):
        keys.append(key)
        return cached(*key)

    cached.cache_clear()
    monkeypatch.setattr(oracle, "_histogram", recording)
    cli.suite_oracle_equivalence(9, max_f)
    runs = [key for key, _ in itertools.groupby(keys)]
    assert len(runs) == len(set(runs)) == trees
    assert cached.cache_info().misses == trees


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
