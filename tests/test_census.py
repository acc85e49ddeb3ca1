"""Census assembly: sensed/unsensed closed forms against the frozen tables."""

from __future__ import annotations

import math
import tracemalloc
from collections import defaultdict
from fractions import Fraction
from itertools import chain
from typing import Dict

import pytest

from cubicmaps import census, oracle, rooted_counts
from cubicmaps.census import (
    CensusRow,
    h2_term_nonorientable,
    hl_term_nonorientable,
    nonorientable_census_row,
    nonorientable_terms,
    orientable_census_row,
    orientable_terms,
    sensed_cubic_orientable,
    unsensed_cubic_nonorientable,
    unsensed_cubic_orientable,
)
from cubicmaps.exactnum import exact_quotient
from cubicmaps.golden import CLOSED_ORBIFOLD_ROWS, CUBIC_NONORIENTABLE, CUBIC_ORIENTABLE
from cubicmaps.orbifolds import (
    epsilon_h2_nonorientable,
    epsilon_h2_orientable,
    epsilon_hl,
    solve_closed_orbifolds,
)
from cubicmaps.oracle import SurfaceClass
from cubicmaps.rooted_counts import (
    precubic_nonorientable_by_genus_pair,
    precubic_nonorientable_by_leaves,
    precubic_orientable,
    rooted_cubic_nonorientable,
    rooted_cubic_orientable,
)


def test_census_row_validation() -> None:
    CensusRow(2, 105, 9, 8)
    CensusRow(2, 6, None, 2)
    with pytest.raises(ValueError):
        CensusRow(2, 105, 106, 8)  # sensed above rooted
    with pytest.raises(ValueError):
        CensusRow(2, 105, 9, 10)  # unsensed above sensed
    with pytest.raises(ValueError):
        CensusRow(2, 105, 5, 3)  # rooted above 2n * sensed
    with pytest.raises(ValueError):
        CensusRow(0, 1, 1, 1)
    # a row without `sensed` is non-orientable, and 3g-3 edges need g >= 2
    with pytest.raises(ValueError, match="non-orientable census needs g >= 2"):
        CensusRow(1, 0, None, 0)
    with pytest.raises(ValueError, match="non-orientable census needs g >= 2"):
        CensusRow(1, 1, None, 1)
    # a negative count fails a sandwich check: with n >= 3, unsensed <= rooted <= 4n unsensed forces unsensed >= 0
    for rooted, sensed, unsensed in ((-1, None, 0), (0, None, -1), (5, -1, -2)):
        with pytest.raises(ValueError):
            CensusRow(2, rooted, sensed, unsensed)


def test_census_row_is_an_immutable_checked_tuple() -> None:
    row = orientable_census_row(2)
    assert row == CensusRow(2, 105, 9, 8) == (2, 105, 9, 8)
    assert repr(row) == "CensusRow(genus=2, rooted=105, sensed=9, unsensed=8)"
    with pytest.raises(AttributeError):
        row.unsensed = 7
    assert row._replace(unsensed=9) == (2, 105, 9, 9)
    # a copy with new fields is checked like a new row
    with pytest.raises(ValueError, match="expected unsensed <= sensed <= rooted"):
        row._replace(unsensed=10)


def test_orientable_rows_match_frozen_table() -> None:
    for g, (rooted, sensed, unsensed) in CUBIC_ORIENTABLE.items():
        row = orientable_census_row(g)
        assert (row.rooted, row.sensed, row.unsensed) == (rooted, sensed, unsensed)


def test_nonorientable_rows_match_frozen_table() -> None:
    for g, (rooted, unsensed) in CUBIC_NONORIENTABLE.items():
        row = nonorientable_census_row(g)
        assert row.sensed is None
        assert (row.rooted, row.unsensed) == (rooted, unsensed)


def test_sensed_cubic_orientable_anchors() -> None:
    assert sensed_cubic_orientable(1) == 1
    assert sensed_cubic_orientable(2) == 9
    assert sensed_cubic_orientable(3) == 1726
    with pytest.raises(ValueError):
        sensed_cubic_orientable(0)


def test_unsensed_cubic_orientable_anchors() -> None:
    assert unsensed_cubic_orientable(1) == 1
    assert unsensed_cubic_orientable(2) == 8
    assert unsensed_cubic_orientable(10) == 5189463083084174721816125584
    with pytest.raises(ValueError):
        unsensed_cubic_orientable(0)


def test_unsensed_cubic_nonorientable_anchors() -> None:
    assert unsensed_cubic_nonorientable(2) == 2
    assert unsensed_cubic_nonorientable(3) == 11
    assert unsensed_cubic_nonorientable(20) == 26745717365173718867249062116990380
    with pytest.raises(ValueError):
        unsensed_cubic_nonorientable(1)


def test_symmetric_map_terms_small_genus() -> None:
    # contributions of the period-2 and longer-period symmetric maps
    assert h2_term_nonorientable(2) == Fraction(1)
    assert hl_term_nonorientable(2) == Fraction(1, 2)
    assert h2_term_nonorientable(3) == Fraction(5)
    assert hl_term_nonorientable(3) == Fraction(2, 3)


def per_summand_h2_term(g: int) -> Dict[tuple, Fraction]:
    # Riemann-Hurwitz: orientable quotients of genus gg with g-4gg branch points,
    # non-orientable ones with gg crosscaps and g-2gg
    terms = {}
    for gg in range(g // 4 + 1):
        eps = epsilon_h2_orientable(gg, g - 4 * gg)
        terms[("h2", True, gg, g - 4 * gg)] = Fraction(eps * precubic_orientable(g, gg), 2)
    for gg in range(1, g // 2 + 1):
        eps = epsilon_h2_nonorientable(gg, g - 2 * gg)
        terms[("h2", False, gg, g - 2 * gg)] = Fraction(eps * precubic_nonorientable_by_genus_pair(g, gg), 2)
    return terms


def per_summand_hl_term(g: int) -> Dict[tuple, Fraction]:
    terms = {}
    for sol in solve_closed_orbifolds(g):
        eps = epsilon_hl(sol.l, sol.genus, sol.n_s, sol.n_v)
        if eps:
            k = sol.n_s + sol.n_v
            quotients = precubic_nonorientable_by_leaves(sol.genus, k)
            weighted = eps * math.comb(k, sol.n_s) * quotients
            terms[("hl", sol.l, sol.genus, sol.n_s, sol.n_v)] = Fraction(weighted, 2 * (6 * g - 6 + sol.l * sol.n_s))
    return terms


@pytest.mark.parametrize("g", list(range(2, 61)) + [1160, 1161])
def test_walked_terms_match_one_precubic_count_per_summand(g: int) -> None:
    # The census walks the quotient counts as chains of exact small-ratio
    # steps; these genera reach repeated keys, leaf steps, chain starts, the
    # formal value at (1, 0) (g = 2) and both crosscap parities.
    h2, hl = per_summand_h2_term(g), per_summand_hl_term(g)
    assert h2_term_nonorientable(g) == sum(h2.values())
    assert hl_term_nonorientable(g) == sum(hl.values())
    terms = [(key, Fraction(num, den)) for key, num, den in nonorientable_terms(g)]
    assert len(dict(terms)) == len(terms)
    assert dict(terms) == {("rooted",): Fraction(rooted_cubic_nonorientable(g), 4 * (3 * g - 3)), **h2, **hl}


def per_class_rotation_terms(g: int) -> Dict[tuple, Fraction]:
    """One closed form per orientable rotation class, keyed like orientable_terms(g).

    The classes of order l in {2, 3, 6} solve Riemann-Hurwitz,
    2g-2 = l(2gg-2) + (l-1) + n_s l/2 + n_v 2l/3: the face centre, n_s
    branch points of order 2 and n_v of order 3. Only those with nonzero
    weight are kept.
    """
    terms = {}
    for l in (2, 3, 6):
        for gg in range(g + 1):
            for n_v in range(g + 2) if l % 3 == 0 else [0]:
                n_s, rest = divmod(12 * g - 12 - 12 * l * gg + 6 * l + 6 - 4 * l * n_v, 3 * l)
                if rest or n_s < 0 or (n_s and l % 2):
                    continue
                branch = 1 if l == 2 else exact_quotient(2 * (2 ** n_v - (-1) ** n_v), 3)
                k = n_s + n_v
                weight = l ** (2 * gg) * branch * math.comb(k, n_s) * precubic_orientable(k + 4 * gg, gg)
                if weight:
                    terms[("hl", l, gg, n_s, n_v)] = Fraction(weight, 12 * g - 6 + l * n_s)
    return terms


@pytest.mark.parametrize("g", list(range(1, 61)) + [627, 631])
def test_walked_rotation_terms_match_one_precubic_count_per_summand(g: int) -> None:
    # The census walks the order-2 counts in one chain, the order-3 counts in
    # another, and the order-6 counts one chain per n_v from a start stepped
    # across n_v; at g = 1 every class sits on genus 0.
    terms = [(key, Fraction(num, den)) for key, num, den in orientable_terms(g)]
    assert len(dict(terms)) == len(terms)
    # the rooted term and the two reflections come first, every rotation class after them
    reflections = [("reflection", "orientable"), ("reflection", "non-orientable")]
    assert [key for key, _ in terms[:3]] == [("rooted",), *reflections]
    assert all(key[0] == "hl" for key, _ in terms[3:])
    rotations = dict(terms[3:])
    assert rotations == per_class_rotation_terms(g)
    assert sensed_cubic_orientable(g) == terms[0][1] + sum(rotations.values())


@pytest.mark.parametrize(
    "surface",
    [SurfaceClass(True, g) for g in (1, 2, 3)] + [SurfaceClass(False, g) for g in (2, 3, 4, 5)],
    ids=lambda surface: str(surface.genus) if surface.orientable else f"nonorientable-{surface.genus}",
)
def test_rotations_of_each_order_fix_2n_times_their_terms(surface: SurfaceClass) -> None:
    # Burnside one symmetry kind at a time, w = 2n on orientable surfaces (the
    # terms average over 2n rootings) and 4n on non-orientable ones. The
    # gluings the oracle finds fixed by each kind, summed over its symmetries,
    # are w times its terms: the identity (kind 1) the rooted term, the
    # rotations of order l the ("hl", l, ...) terms and the reflections the
    # reflection terms (orientable) or the h2 terms. A kind missing on one
    # side counts 0 there.
    g, orientable = surface.genus, surface.orientable
    n = 6 * g - 3 if orientable else 3 * g - 3
    weight = 2 * n if orientable else 4 * n
    fixed = oracle._fixed_counts(n, surface, frozenset({3}), n)
    by_kind: Dict[object, Fraction] = defaultdict(Fraction)
    for key, num, den in (orientable_terms if orientable else nonorientable_terms)(g):
        by_kind[1 if key[0] == "rooted" else key[1] if key[0] == "hl" else "reflection"] += Fraction(num, den)
    kinds = {**by_kind, **fixed}
    assert {kind: fixed[kind] for kind in kinds} == {kind: weight * by_kind[kind] for kind in kinds}


@pytest.mark.parametrize(
    "name, count, rooted, factor",
    [
        ("orientable_terms", sensed_cubic_orientable, rooted_cubic_orientable, 2),
        ("nonorientable_terms", unsensed_cubic_nonorientable, rooted_cubic_nonorientable, 1),
    ],
    ids=["orientable", "nonorientable"],
)
def test_a_count_gets_its_rows_checks(monkeypatch, name: str, count, rooted, factor: int) -> None:
    # an extra term worth factor times the rooted count (2 keeps the unsensed
    # halving exact) lifts the count above the rooted one, which its row refuses
    terms = getattr(census, name)
    monkeypatch.setattr(census, name, lambda g: chain(terms(g), [(("extra",), factor * rooted(g), 1)]))
    with pytest.raises(ValueError, match="<= rooted at g=3"):
        count(3)


def walked_period_two_values(monkeypatch, g: int) -> Dict[int, int]:
    """The non-orientable period-2 quotient counts the walk reads at genus g, by crosscaps."""
    # The two parity chains in h never read a signature, so the walk runs without them.
    monkeypatch.setattr(census, "_contributing_signatures", lambda g: iter(()))
    return {
        key[2]: exact_quotient(num, epsilon_h2_nonorientable(key[2], key[3]))
        for key, num, _ in nonorientable_terms(g)
        if key[:2] == ("h2", False)
    }


@pytest.mark.parametrize("g", range(2, 201))
def test_period_two_chains_match_the_closed_form(monkeypatch, g: int) -> None:
    # g = 2, 3 have no even-crosscap key and g = 4, 5 only its start
    want = {gg: precubic_nonorientable_by_genus_pair(g, gg) for gg in range(1, g // 2 + 1)}
    assert walked_period_two_values(monkeypatch, g) == want


def one_leaf_further(gg: int, k: int, value: int) -> int:
    """The precubic count at (gg, k+1) from value, the count at (gg, k): one ratio of Bernardi-Chapuy's form."""
    h = gg // 2
    if gg % 2:
        return exact_quotient(value * 4 * (k + 1 + 3 * h), k + 1)
    return exact_quotient(value * (2 * k + 6 * h - 1) * (2 * k + 6 * h - 2), (k + 1) * (k + 3 * h - 1))


@pytest.mark.parametrize("first, last", [(1150, 1173), (1999, 2000)])
def test_period_two_chains_match_the_closed_form_at_deep_genera(monkeypatch, first: int, last: int) -> None:
    # The closed form at the first genus, then one exact leaf step per genus:
    # the key (gg, g-2gg) gains one leaf when g grows by one, and the new
    # leafless key at even g is one closed form.
    want = {gg: precubic_nonorientable_by_genus_pair(first, gg) for gg in range(1, first // 2 + 1)}
    for g in range(first, last + 1):
        if g > first:
            want = {gg: one_leaf_further(gg, g - 1 - 2 * gg, value) for gg, value in want.items()}
            want.setdefault(g // 2, precubic_nonorientable_by_genus_pair(g, g // 2))
        assert walked_period_two_values(monkeypatch, g) == want


def counted_forms(monkeypatch) -> list:
    """The (gg, k) of every closed-form start of the non-orientable precubic count, recorded as it is made."""
    calls = []
    form = rooted_counts._nonorientable_form

    def counted(gg: int, k: int, central=None) -> int:
        calls.append((gg, k))
        return form(gg, k, central)

    monkeypatch.setattr(rooted_counts, "_nonorientable_form", counted)
    return calls


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6, 57, 1161])
def test_period_two_keys_start_from_the_closed_form_only_at_two_crosscaps(monkeypatch, g: int) -> None:
    calls = counted_forms(monkeypatch)
    list(nonorientable_terms(g))
    # a period-2 key (gg, g-2gg) is the one key with covering genus 2gg+k = g
    assert [gg for gg, k in calls if 2 * gg + k == g] == ([1, 2] if g >= 4 else [1])


@pytest.mark.parametrize("g, starts", [(57, 16), (200, 71), (1162, 604), (2000, 671)])
def test_a_count_makes_a_fixed_number_of_closed_form_starts(monkeypatch, g: int, starts: int) -> None:
    # the rooted count, the two period-2 chain starts and one start per run of
    # consecutive leaf counts; a walk that stopped stepping would start more
    calls = counted_forms(monkeypatch)
    unsensed_cubic_nonorientable(g)
    assert len(calls) == starts


@pytest.mark.parametrize("g", [3, 4, 16, 100])
def test_the_walked_terms_come_in_walk_order(g: int) -> None:
    # after the rooted and orientable period-2 terms, one crosscap count gg at a
    # time: its period-2 term, then its signatures in (k, l) order; a signature
    # shares its (gg, k) with a period-2 term at g = 3, 4, with another
    # signature at g = 16, 100
    terms = [key for key, _, _ in nonorientable_terms(g) if key[0] == "hl" or key[:2] == ("h2", False)]
    order = [(key[2], -1, 0) if key[0] == "h2" else (key[2], key[3] + key[4], key[1]) for key in terms]
    assert order == sorted(order)
    quotients = [(key[2], key[3] if key[0] == "h2" else key[3] + key[4]) for key in terms]
    assert len(set(quotients)) < len(quotients)  # some (gg, k) is shared


@pytest.mark.parametrize("g", [200, 1162])
def test_the_walk_takes_even_starts_from_its_chain(monkeypatch, g: int) -> None:
    # every even-crosscap start writes c_h through N_h, carried by the walk or
    # computed by the closed form, so no count calls c_coefficient: neither the
    # non-orientable one nor the orientable row's non-orientable reflection term
    def refused(h: int) -> Fraction:
        raise AssertionError(f"c_coefficient({h}) called by a count")

    monkeypatch.setattr(rooted_counts, "c_coefficient", refused)
    assert unsensed_cubic_nonorientable(g) > 0
    assert orientable_census_row(g).unsensed > 0


def test_signature_terms_are_the_closed_orbifold_rows() -> None:
    keys = [(g,) + key[1:] for g in range(2, 9) for key, _, _ in nonorientable_terms(g) if key[0] == "hl"]
    assert sorted(keys) == [row[:5] for row in CLOSED_ORBIFOLD_ROWS]


def test_census_assembly_small_genus() -> None:
    for g in (2, 3, 4):
        assembled = (
            Fraction(rooted_cubic_nonorientable(g), 4 * (3 * g - 3))
            + h2_term_nonorientable(g)
            + hl_term_nonorientable(g)
        )
        assert assembled == unsensed_cubic_nonorientable(g)


def test_an_orientable_count_streams_its_rotation_terms() -> None:
    # at genus 400 a count that holds the whole term list peaks at 0.8-1.1 MB (62.8 MB at genus 2000);
    # streamed, at 0.13 MB
    tracemalloc.start()
    try:
        census.unsensed_cubic_orientable(400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def test_a_nonorientable_count_streams_its_signatures() -> None:
    # at genus 600 a count that lists every signature and sorts the walk peaks at 0.9 MB
    # (10.7 MB at genus 2000); streamed one crosscap count at a time, at 0.2 MB
    tracemalloc.start()
    try:
        census.unsensed_cubic_nonorientable(600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000
