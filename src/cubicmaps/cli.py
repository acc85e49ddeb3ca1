"""Command-line front end.

Four subcommands: `count` prints one exact census value, `table` prints a
census table over a genus range, `orbifolds` lists the closed quotient
signatures with their epsilon coefficients, and `verify` runs the
self-verification suites (formula vs. oracle vs. frozen data).

Output is deterministic. JSON serializes every number as a decimal string
so arbitrarily large counts round-trip; CSV uses no quoting and ends with a
newline. `table` writes each row as soon as it is computed. Counts are
printed in full at any size: Python's int-to-str digit limit is lifted while
a command converts its counts to text, and restored afterwards. Exit codes:
0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import textwrap
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from .census import (
    CensusRow,
    nonorientable_census_row,
    orientable_census_row,
    sensed_cubic_orientable,
    unsensed_cubic_nonorientable,
    unsensed_cubic_orientable,
)
from .golden import CLOSED_ORBIFOLD_ROWS, CUBIC_NONORIENTABLE, CUBIC_ORIENTABLE
from .oracle import (
    DEFAULT_MAX_EDGES_FULL,
    DEFAULT_MAX_EDGES_ORIENTABLE,
    count_precubic,
    count_rooted,
    count_sensed_orientable,
    count_unsensed,
)
from .orbifolds import (
    epi_nonorientable_boundary,
    epi_nonorientable_closed,
    epi_orientable_boundary,
    epi_plus_nonorientable_boundary,
    epi_plus_nonorientable_closed,
    epi_plus_orientable_boundary,
    epsilon_h2_nonorientable,
    epsilon_h2_orientable,
    solve_closed_orbifolds,
)
from .rooted_counts import (
    SurfaceClass,
    covering_genus_orientable,
    precubic_leaves_nonorientable,
    precubic_leaves_orientable,
    precubic_nonorientable_by_leaves,
    precubic_orientable,
    rooted_cubic_nonorientable,
    rooted_cubic_orientable,
)

_CUBIC_DEGREES = frozenset({3})


def _is_cubic(degrees: Tuple[int, ...]) -> bool:
    return set(degrees) == {3}


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# ============================================================
# Rendering
# ============================================================


@contextlib.contextmanager
def _full_int_str() -> Iterator[None]:
    """Lift the int-to-str digit limit (4300 digits by default) for the duration.

    Counts pass that limit at orientable genus 626 and non-orientable genus
    1161. The limit guards parsers against untrusted digit strings; here it
    is only lifted while the CLI renders counts it computed itself. Python
    versions without the limit (before 3.10.7) need no lifting.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def _render(
    fmt: str, headers: Sequence[str], rows: Iterable[Sequence[str]], json_rows: Optional[Iterable[dict]] = None
) -> Iterator[str]:
    """Yield a table as text: the header first, then one piece per row, as `rows` yields it.

    The pieces join to the whole document, JSON included (the indent=2 dump
    of the list of row objects), so a caller can write each row as soon as
    it exists.
    """
    if fmt == "csv":
        yield ",".join(headers) + "\n"
        for row in rows:
            yield ",".join(row) + "\n"
        return
    if fmt == "json":
        records = json_rows if json_rows is not None else (dict(zip(headers, row)) for row in rows)
        opening = "[\n"
        for record in records:
            yield opening + textwrap.indent(json.dumps(record, indent=2), "  ")
            opening = ",\n"
        yield "[]\n" if opening == "[\n" else "\n]\n"
        return
    yield "| " + " | ".join(headers) + " |\n" + "| " + " | ".join(["---"] * len(headers)) + " |\n"
    for row in rows:
        yield "| " + " | ".join(row) + " |\n"


# ============================================================
# count / table / orbifolds
# ============================================================


def cmd_count(args: argparse.Namespace) -> int:
    g = args.genus
    if args.surface == "orientable":
        if g < 1:
            return _usage_error("orientable counts require --genus >= 1")
        value = {
            "rooted": rooted_cubic_orientable,
            "sensed": sensed_cubic_orientable,
            "unsensed": unsensed_cubic_orientable,
        }[args.kind](g)
    else:
        if args.kind == "sensed":
            return _usage_error("sensed counts are defined for orientable surfaces only")
        if g < 2:
            return _usage_error("non-orientable counts require --genus >= 2")
        value = rooted_cubic_nonorientable(g) if args.kind == "rooted" else unsensed_cubic_nonorientable(g)
    with _full_int_str():
        print(value)
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    if not (1 <= args.gmin <= args.gmax <= 10000):
        return _usage_error("need 1 <= gmin <= gmax <= 10000")
    if args.surface == "nonorientable" and args.gmin < 2:
        return _usage_error("non-orientable tables start at genus 2")
    if args.surface == "orientable":
        headers: Tuple[str, ...] = ("g", "rooted", "sensed", "unsensed")
        census_row = orientable_census_row
    else:
        headers = ("g", "rooted", "unsensed")
        census_row = nonorientable_census_row

    def rows() -> Iterator[Tuple[str, ...]]:
        for g in range(args.gmin, args.gmax + 1):
            row = census_row(g)
            with _full_int_str():
                cells = tuple(str(v) for v in (g, row.rooted, row.sensed, row.unsensed) if v is not None)
            yield cells

    for piece in _render(args.format, headers, rows()):
        sys.stdout.write(piece)
        sys.stdout.flush()
    return 0


def cmd_orbifolds(args: argparse.Namespace) -> int:
    if args.genus < 2:
        return _usage_error("orbifold signatures require --genus >= 2")
    solutions = solve_closed_orbifolds(args.genus)
    headers = ("g", "l", "genus", "ns", "nv", "epsilon")
    rows = [
        (str(args.genus), str(s.l), str(s.genus), str(s.n_s), str(s.n_v), str(s.epsilon))
        for s in solutions
    ]
    if args.format == "json":
        json_rows = [
            {**dict(zip(headers, row)), "contributes": sol.contributes}
            for sol, row in zip(solutions, rows)
        ]
        out = "".join(_render("json", headers, rows, json_rows=json_rows))
    elif args.format == "csv":
        out = "".join(_render("csv", headers, rows))
    else:
        marked = [
            row if sol.contributes else row[:-1] + (row[-1] + " *",)
            for sol, row in zip(solutions, rows)
        ]
        out = "".join(_render("markdown", headers, marked))
        if any(not sol.contributes for sol in solutions):
            out += "\n* epsilon = 0: contributes nothing to the census\n"
    sys.stdout.write(out)
    return 0


# ============================================================
# verify
# ============================================================


@dataclass
class _Check:
    label: str
    got: str
    want: str
    passed: bool


def _eq(label: str, got, want) -> _Check:
    return _Check(label, str(got), str(want), got == want)


def _suite_calibration(max_o: int, max_f: int) -> Tuple[List[_Check], Optional[bool]]:
    """Pin the two enumeration conventions before trusting the oracle.

    The rooting constant (gluings per rooted map, expected 1) is checked on
    the non-orientable anchors; the reflection twist action is fixed by
    whichever candidate reproduces the unsensed anchors.
    """
    checks: List[_Check] = []
    anchors = [(3, 2)]
    if max_f >= 6:
        anchors.append((6, 3))
    for n, g in anchors:
        got = count_rooted(n, SurfaceClass(False, g), _is_cubic, _CUBIC_DEGREES, max_edges=max_f)
        ratio = Fraction(got, rooted_cubic_nonorientable(g))
        checks.append(_eq(f"rooting constant at n={n} (non-orientable genus {g})", ratio, 1))
    adopted: Optional[bool] = None
    for flips in (False, True):
        if all(
            count_unsensed(
                n,
                SurfaceClass(False, g),
                _is_cubic,
                _CUBIC_DEGREES,
                max_edges=max_f,
                reflection_flips_twists=flips,
            )
            == unsensed_cubic_nonorientable(g)
            for n, g in anchors
        ):
            adopted = flips
            break
    if adopted is None:
        checks.append(
            _Check(
                "reflection twist action",
                "neither candidate action reproduces the unsensed anchors",
                "one candidate action calibrates",
                False,
            )
        )
    else:
        name = "twists flipped on reflection" if adopted else "twists invariant under reflection"
        checks.append(_Check("reflection twist action", name, name, True))
    return checks, adopted


def _suite_oracle_equivalence(max_o: int, max_f: int, reflection_flips: bool) -> List[_Check]:
    """Every formula the oracle can reach within the limits, compared exactly."""
    checks: List[_Check] = []

    def push(label: str, thunk: Callable[[], int], want: Callable[[], int]) -> None:
        expected: object = "a value"
        try:
            expected = want()
            got = thunk()
        except (ArithmeticError, ValueError) as exc:
            checks.append(_Check(label, f"error: {exc}", str(expected), False))
            return
        checks.append(_eq(label, got, expected))

    g = 1
    while 6 * g - 3 <= max_o:
        n, surface = 6 * g - 3, SurfaceClass(True, g)
        push(
            f"cubic orientable genus {g} rooted (n={n})",
            lambda n=n, s=surface: count_rooted(n, s, _is_cubic, _CUBIC_DEGREES, max_edges=max_o),
            lambda g=g: rooted_cubic_orientable(g),
        )
        push(
            f"cubic orientable genus {g} sensed (n={n})",
            lambda n=n, g=g: count_sensed_orientable(n, g, _is_cubic, _CUBIC_DEGREES, max_edges=max_o),
            lambda g=g: sensed_cubic_orientable(g),
        )
        push(
            f"cubic orientable genus {g} unsensed (n={n})",
            lambda n=n, s=surface: count_unsensed(
                n, s, _is_cubic, _CUBIC_DEGREES, max_edges=max_o, reflection_flips_twists=reflection_flips
            ),
            lambda g=g: unsensed_cubic_orientable(g),
        )
        g += 1
    g = 2
    while 3 * g - 3 <= max_f:
        n, surface = 3 * g - 3, SurfaceClass(False, g)
        push(
            f"cubic non-orientable genus {g} rooted (n={n})",
            lambda n=n, s=surface: count_rooted(n, s, _is_cubic, _CUBIC_DEGREES, max_edges=max_f),
            lambda g=g: rooted_cubic_nonorientable(g),
        )
        push(
            f"cubic non-orientable genus {g} unsensed (n={n})",
            lambda n=n, s=surface: count_unsensed(
                n, s, _is_cubic, _CUBIC_DEGREES, max_edges=max_f, reflection_flips_twists=reflection_flips
            ),
            lambda g=g: unsensed_cubic_nonorientable(g),
        )
        g += 1
    for e in range(1, max_o + 1, 2):
        gg = 0
        while True:
            k = precubic_leaves_orientable(gg, e)
            if k is None:
                break
            push(
                f"precubic orientable genus {gg}, {e} edges, {k} leaves",
                lambda e=e, gg=gg, k=k: count_precubic(e, SurfaceClass(True, gg), k, max_edges=max_o),
                lambda e=e, gg=gg: precubic_orientable(covering_genus_orientable(gg, e), gg),
            )
            gg += 1
    for e in range(1, max_f + 1):
        for gg in range(1, (e + 3) // 3 + 1):
            k = precubic_leaves_nonorientable(gg, e)
            if k is None:
                continue
            push(
                f"precubic non-orientable genus {gg}, {e} edges, {k} leaves",
                lambda e=e, gg=gg, k=k: count_precubic(e, SurfaceClass(False, gg), k, max_edges=max_f),
                lambda gg=gg, k=k: precubic_nonorientable_by_leaves(gg, k),
            )
    return checks


def _suite_integrality(g_max: int = 200) -> Tuple[List[_Check], List[CensusRow], List[CensusRow]]:
    checks: List[_Check] = []
    rows_o: List[CensusRow] = []
    rows_n: List[CensusRow] = []
    want = "every count an exact integer"
    try:
        for g in range(1, g_max + 1):
            rows_o.append(orientable_census_row(g))
        for g in range(2, g_max + 1):
            rows_n.append(nonorientable_census_row(g))
    except (ArithmeticError, ValueError) as exc:
        # ArithmeticError: a non-integral count; ValueError: a row outside its sandwich bounds
        checks.append(_Check(f"census integrality through genus {g_max}", f"error: {exc}", want, False))
        return checks, rows_o, rows_n
    ok = all(
        isinstance(v, int)
        for row in rows_o
        for v in (row.rooted, row.sensed, row.unsensed)
    ) and all(isinstance(v, int) for row in rows_n for v in (row.rooted, row.unsensed))
    checks.append(_Check(f"census integrality through genus {g_max}", want if ok else "a non-integer leaked", want, ok))
    return checks, rows_o, rows_n


def _suite_sandwich(rows_o: List[CensusRow], rows_n: List[CensusRow]) -> List[_Check]:
    """rooted/(2n) <= sensed <= rooted and rooted/(4n) <= unsensed <= rooted."""
    checks: List[_Check] = []
    if not rows_o or not rows_n:
        return [_Check("sandwich bounds", "census rows unavailable", "holds", False)]
    bad: Optional[str] = None
    for row in rows_o:
        n = 6 * row.genus - 3
        if not (Fraction(row.rooted, 2 * n) <= row.sensed <= row.rooted):
            bad = f"sensed bound fails at genus {row.genus}"
            break
        if not (Fraction(row.rooted, 4 * n) <= row.unsensed <= row.rooted):
            bad = f"unsensed bound fails at genus {row.genus}"
            break
    checks.append(_Check(f"orientable sandwich bounds through genus {rows_o[-1].genus}", bad or "holds", "holds", bad is None))
    bad = None
    for row in rows_n:
        n = 3 * row.genus - 3
        if not (Fraction(row.rooted, 4 * n) <= row.unsensed <= row.rooted):
            bad = f"unsensed bound fails at genus {row.genus}"
            break
    checks.append(_Check(f"non-orientable sandwich bounds through genus {rows_n[-1].genus}", bad or "holds", "holds", bad is None))
    return checks


def _suite_specialization(g_max: int = 12, boundary_max: int = 10) -> List[_Check]:
    """The general epimorphism closed forms agree with the epsilon shortcuts."""
    checks: List[_Check] = []
    bad: Optional[str] = None
    signatures = 0
    for g in range(2, g_max + 1):
        for sol in solve_closed_orbifolds(g):
            branch = sol.branch_indices()
            diff = epi_nonorientable_closed(sol.genus, branch, sol.l) - epi_plus_nonorientable_closed(
                sol.genus, branch, sol.l
            )
            signatures += 1
            if diff != sol.epsilon:
                bad = (
                    f"signature (g={g}, l={sol.l}, genus={sol.genus}, ns={sol.n_s}, nv={sol.n_v}): "
                    f"difference {diff} != epsilon {sol.epsilon}"
                )
                break
        if bad:
            break
    checks.append(
        _Check(
            f"closed signatures: epi - epi_plus = epsilon ({signatures} signatures, genus <= {g_max})",
            bad or "equal",
            "equal",
            bad is None,
        )
    )
    bad = None
    for gg in range(boundary_max + 1):
        for r in range(boundary_max + 1):
            branch = [2] * r
            diff = epi_orientable_boundary(gg, 1, branch, 2) - epi_plus_orientable_boundary(gg, 1, branch, 2)
            if diff != epsilon_h2_orientable(gg, r):
                bad = f"orientable boundary quotient (genus {gg}, {r} branch points)"
                break
        if bad:
            break
    checks.append(
        _Check(
            f"orientable boundary quotients: epi - epi_plus = epsilon (genus, branch <= {boundary_max})",
            bad or "equal",
            "equal",
            bad is None,
        )
    )
    bad = None
    for gg in range(1, boundary_max + 1):
        for r in range(boundary_max + 1):
            branch = [2] * r
            diff = epi_nonorientable_boundary(gg, 1, branch, 2) - epi_plus_nonorientable_boundary(
                gg, 1, branch, 2
            )
            if diff != epsilon_h2_nonorientable(gg, r):
                bad = f"non-orientable boundary quotient (genus {gg}, {r} branch points)"
                break
        if bad:
            break
    checks.append(
        _Check(
            f"non-orientable boundary quotients: epi - epi_plus = epsilon (genus, branch <= {boundary_max})",
            bad or "equal",
            "equal",
            bad is None,
        )
    )
    return checks


def _suite_tables() -> List[_Check]:
    checks: List[_Check] = []
    bad: Optional[str] = None
    for g, triple in sorted(CUBIC_ORIENTABLE.items()):
        got = (rooted_cubic_orientable(g), sensed_cubic_orientable(g), unsensed_cubic_orientable(g))
        if got != triple:
            bad = f"orientable genus {g}: {got} != {triple}"
            break
    checks.append(
        _Check("orientable census values, genus 1..10", bad or "all 30 values reproduced", "all 30 values reproduced", bad is None)
    )
    bad = None
    for g, pair in sorted(CUBIC_NONORIENTABLE.items()):
        got = (rooted_cubic_nonorientable(g), unsensed_cubic_nonorientable(g))
        if got != pair:
            bad = f"non-orientable genus {g}: {got} != {pair}"
            break
    checks.append(
        _Check("non-orientable census values, genus 2..20", bad or "all 38 values reproduced", "all 38 values reproduced", bad is None)
    )
    got_rows = sorted(
        (g, s.l, s.genus, s.n_s, s.n_v, s.epsilon)
        for g in range(2, 9)
        for s in solve_closed_orbifolds(g)
        if s.contributes
    )
    ok = got_rows == sorted(CLOSED_ORBIFOLD_ROWS)
    checks.append(
        _Check(
            "closed signatures with nonzero epsilon, genus 2..8",
            "all 24 rows reproduced" if ok else "row set differs",
            "all 24 rows reproduced",
            ok,
        )
    )
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    max_o, max_f = args.max_edges_orientable, args.max_edges_full
    if max_o < 3 or max_f < 3:
        return _usage_error("calibration needs --max-edges-orientable >= 3 and --max-edges-full >= 3")

    suites: List[Tuple[str, List[_Check]]] = []
    calibration_checks, adopted = _suite_calibration(max_o, max_f)
    suites.append(("calibration", calibration_checks))
    suites.append(("oracle-equivalence", _suite_oracle_equivalence(max_o, max_f, bool(adopted))))
    integrality_checks, rows_o, rows_n = _suite_integrality()
    suites.append(("integrality", integrality_checks))
    suites.append(("sandwich-bounds", _suite_sandwich(rows_o, rows_n)))
    suites.append(("specialization", _suite_specialization()))
    suites.append(("table-reproduction", _suite_tables()))

    first_failure: Optional[_Check] = None
    for name, checks in suites:
        ok = all(c.passed for c in checks)
        unit = "check" if len(checks) == 1 else "checks"
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({len(checks)} {unit})")
        if not ok and first_failure is None:
            first_failure = next(c for c in checks if not c.passed)

    if args.report:
        report = {
            "max_edges_orientable": str(max_o),
            "max_edges_full": str(max_f),
            "all_pass": first_failure is None,
            "suites": [
                {
                    "name": name,
                    "status": "PASS" if all(c.passed for c in checks) else "FAIL",
                    "checks": [
                        {"label": c.label, "got": c.got, "want": c.want, "passed": c.passed}
                        for c in checks
                    ],
                }
                for name, checks in suites
            ],
        }
        try:
            with open(args.report, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2)
                handle.write("\n")
        except OSError as exc:
            return _usage_error(f"cannot write report: {exc}")

    if first_failure is not None:
        print(f"FIRST FAILURE: {first_failure.label}: got {first_failure.got}, want {first_failure.want}")
        return 1
    print("all verification suites passed")
    return 0


# ============================================================
# Entry point
# ============================================================


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubicmaps",
        description="Exact counts of 3-regular one-face maps on orientable and non-orientable surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="print one exact count")
    count.add_argument("--surface", choices=("orientable", "nonorientable"), required=True)
    count.add_argument("--genus", type=int, required=True)
    count.add_argument("--kind", choices=("rooted", "sensed", "unsensed"), required=True)
    count.set_defaults(handler=cmd_count)

    table = sub.add_parser("table", help="print a census table over a genus range")
    table.add_argument("--surface", choices=("orientable", "nonorientable"), required=True)
    table.add_argument("--gmin", type=int, required=True)
    table.add_argument("--gmax", type=int, required=True)
    table.add_argument("--format", choices=("json", "csv", "markdown"), default="markdown")
    table.set_defaults(handler=cmd_table)

    orbifolds = sub.add_parser("orbifolds", help="list closed quotient signatures with epsilon coefficients")
    orbifolds.add_argument("--genus", type=int, required=True)
    orbifolds.add_argument("--format", choices=("json", "csv", "markdown"), default="markdown")
    orbifolds.set_defaults(handler=cmd_orbifolds)

    verify = sub.add_parser("verify", help="run the self-verification suites")
    verify.add_argument("--max-edges-orientable", type=int, default=DEFAULT_MAX_EDGES_ORIENTABLE)
    verify.add_argument("--max-edges-full", type=int, default=DEFAULT_MAX_EDGES_FULL)
    verify.add_argument("--report", metavar="FILE", default=None, help="write a JSON report to FILE")
    verify.set_defaults(handler=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    return args.handler(args)
