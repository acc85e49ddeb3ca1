"""Command-line front end.

Four subcommands: `count` prints one exact census value, `table` prints a
census table over a genus range, `orbifolds` lists the closed quotient
signatures with their epsilon coefficients, and `verify` runs the
self-verification suites (formula vs. oracle vs. frozen data).

The suites are the public `suite_*` functions below, each returning a list
of `Check` records; `verify`, the acceptance tests and the oracle demo all
call them, and each fact is checked by exactly one suite. Every check is one
guarded comparison, so a computation that raises an arithmetic or value
error fails its check instead of ending the run. `verify` prints each
suite's line as soon as that suite returns. With `--report` it first opens
the file for appending and writes nothing, removing it again if the probe
created it, so an unwritable path fails before any suite runs. It writes
the whole report once, after the last suite; until then an existing report
is left as it was and a missing one stays missing. `count`, `table`
and `orbifolds` accept genera up to MAX_GENUS, and `verify` edge limits up
to MAX_EDGES_ORIENTABLE and MAX_EDGES_FULL.

Output is deterministic. JSON serializes every number as a decimal string
so arbitrarily large counts round-trip; CSV uses no quoting and ends with a
newline. `table` writes each row as soon as it is computed. Counts are
printed in full at any size: Python's int-to-str digit limit is lifted while
a command converts its counts to text, and restored afterwards. Exit codes:
0 success, 1 verification failure, 2 usage error or unwritable output.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
import textwrap
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from .census import (
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
    precubic_nonorientable_by_leaves,
    precubic_orientable,
    rooted_cubic_nonorientable,
    rooted_cubic_orientable,
)

_CUBIC_DEGREES = frozenset({3})

# The non-orientable unsensed count takes 0.6-1.0 s at genus 2000 on a 2-vCPU host.
MAX_GENUS = 2000
# Oracle searches grow factorially in the edge count: on a 2-vCPU host `verify`
# takes about 6.1 s at --max-edges-full 12 and 6.6 s at --max-edges-orientable 15.
MAX_EDGES_FULL = 12
MAX_EDGES_ORIENTABLE = 15
# The ranges of the census suites of `verify`.
INTEGRALITY_GENUS_MAX = 200
SPECIALIZATION_GENUS_MAX = 12
SPECIALIZATION_BOUNDARY_MAX = 12


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
    1161. The limit guards parsers against untrusted digit strings; main
    lifts it only while a command runs, after its arguments are parsed, so
    it renders only integers the command computed itself. Python versions
    without the limit (before 3.10.7) need no lifting.
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


def _render(fmt: str, headers: Sequence[str], rows: Iterable[Sequence[object]]) -> Iterator[str]:
    """Yield a table as text: the header first, then one piece per row, as `rows` yields it.

    The pieces join to the whole document, JSON included (the indent=2 dump
    of the list of row objects), so a caller can write each row as soon as
    it exists. Cells are strings; a JSON cell may be any value json.dumps takes.
    """
    if fmt == "csv":
        yield ",".join(headers) + "\n"
        for row in rows:
            yield ",".join(row) + "\n"
        return
    if fmt == "json":
        opening = "[\n"
        for row in rows:
            yield opening + textwrap.indent(json.dumps(dict(zip(headers, row)), indent=2), "  ")
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
    if g > MAX_GENUS:
        return _usage_error(f"--genus is capped at {MAX_GENUS}")
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
    print(value)
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    if not (1 <= args.gmin <= args.gmax <= MAX_GENUS):
        return _usage_error(f"need 1 <= gmin <= gmax <= {MAX_GENUS}")
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
            yield tuple(str(v) for v in (g, row.rooted, row.sensed, row.unsensed) if v is not None)

    for piece in _render(args.format, headers, rows()):
        sys.stdout.write(piece)
        sys.stdout.flush()
    return 0


def cmd_orbifolds(args: argparse.Namespace) -> int:
    if args.genus < 2:
        return _usage_error("orbifold signatures require --genus >= 2")
    if args.genus > MAX_GENUS:
        return _usage_error(f"--genus is capped at {MAX_GENUS}")
    solutions = solve_closed_orbifolds(args.genus)
    headers: Tuple[str, ...] = ("g", "l", "genus", "ns", "nv", "epsilon")
    rows = [
        (str(args.genus), str(s.l), str(s.genus), str(s.n_s), str(s.n_v), str(s.epsilon))
        for s in solutions
    ]
    if args.format == "json":
        headers += ("contributes",)
        rows = [row + (sol.contributes,) for sol, row in zip(solutions, rows)]
    elif args.format == "markdown":
        rows = [row if sol.contributes else row[:-1] + (row[-1] + " *",) for sol, row in zip(solutions, rows)]
    out = "".join(_render(args.format, headers, rows))
    if args.format == "markdown" and not all(sol.contributes for sol in solutions):
        out += "\n* epsilon = 0: contributes nothing to the census\n"
    sys.stdout.write(out)
    return 0


# ============================================================
# verify
# ============================================================


@dataclass
class Check:
    """One verified fact: what was computed (`got`), what it must equal (`want`), and whether it does."""

    label: str
    got: str
    want: str
    passed: bool


def _check(label: str, got: Callable[[], object], want: Callable[[], object]) -> Check:
    """Compare got() with want(), the one guard of every suite.

    `want` runs first, so a check whose computation fails still shows what it
    should have equalled. An ArithmeticError or ValueError from either fails
    the check with its message in place of a traceback.
    """
    expected: object = "a value"
    try:
        expected = want()
        value = got()
    except (ArithmeticError, ValueError) as exc:
        return Check(label, f"error: {exc}", str(expected), False)
    return Check(label, str(value), str(expected), value == expected)


def _first_mismatch(label: str, cases: Iterable[Tuple[str, object, object]], ok: str = "equal") -> Check:
    """One check over many (description, got, want) comparisons, naming the first that differs.

    `cases` is read inside the guard of `_check`, so it must build each case
    lazily. A `{}` in `label` is filled with the number of comparisons made.
    """
    made = 0

    def first() -> str:
        nonlocal made
        for made, (description, got, want) in enumerate(cases, 1):
            if got != want:
                return f"{description}: {got} != {want}"
        return ok

    check = _check(label, first, partial(str, ok))
    check.label = label.format(made)
    return check


def suite_oracle_equivalence(max_o: int, max_f: int) -> List[Check]:
    """Every formula the oracle can reach within the limits, compared exactly.

    Cubic counts first, then one precubic count per edge count n and surface,
    orientable surfaces first, with the k >= 0 leaves that the Euler relation
    n = 2k + 3 - 3 chi gives on a surface of Euler characteristic chi.
    """
    cases: List[Tuple[str, Callable[[], int], Callable[[], int]]] = []
    for g in range(1, (max_o + 3) // 6 + 1):
        n, s, cubic = 6 * g - 3, SurfaceClass(True, g), {"degrees": _CUBIC_DEGREES, "max_edges": max_o}
        for count, search, form in (
            ("rooted", partial(count_rooted, n, s, **cubic), rooted_cubic_orientable),
            ("sensed", partial(count_sensed_orientable, n, g, **cubic), sensed_cubic_orientable),
            ("unsensed", partial(count_unsensed, n, s, **cubic), unsensed_cubic_orientable),
        ):
            cases.append((f"cubic orientable genus {g} {count} (n={n})", search, partial(form, g)))
    for g in range(2, (max_f + 3) // 3 + 1):
        n, s, cubic = 3 * g - 3, SurfaceClass(False, g), {"degrees": _CUBIC_DEGREES, "max_edges": max_f}
        for count, search, form in (
            ("rooted", partial(count_rooted, n, s, **cubic), rooted_cubic_nonorientable),
            ("unsensed", partial(count_unsensed, n, s, **cubic), unsensed_cubic_nonorientable),
        ):
            cases.append((f"cubic non-orientable genus {g} {count} (n={n})", search, partial(form, g)))
    precubic_forms = (
        ("orientable", max_o, lambda gg, k: precubic_orientable(k + 4 * gg, gg)),
        ("non-orientable", max_f, precubic_nonorientable_by_leaves),
    )
    for kind, max_edges, form in precubic_forms:
        for n in range(1, max_edges + 1):
            for gg in itertools.count(0 if kind == "orientable" else 1):
                surface = SurfaceClass(kind == "orientable", gg)
                k, odd = divmod(n - 3 + 3 * surface.euler_characteristic(), 2)
                if k < 0:
                    break
                if not odd:
                    search = partial(count_precubic, n, surface, k, max_edges=max_edges)
                    cases.append((f"precubic {kind} genus {gg}, {n} edges, {k} leaves", search, partial(form, gg, k)))
    return [_check(*case) for case in cases]


def suite_integrality() -> List[Check]:
    """Every census row through INTEGRALITY_GENUS_MAX is exact and within the bounds CensusRow enforces."""
    want = "every count an exact integer"

    def every_row() -> str:
        # a non-integral count raises ArithmeticError, a row outside its sandwich bounds ValueError
        for g in range(1, INTEGRALITY_GENUS_MAX + 1):
            orientable_census_row(g)
        for g in range(2, INTEGRALITY_GENUS_MAX + 1):
            nonorientable_census_row(g)
        return want

    return [_check(f"census integrality through genus {INTEGRALITY_GENUS_MAX}", every_row, partial(str, want))]


def suite_specialization() -> List[Check]:
    """The general epimorphism closed forms agree with the epsilon shortcuts.

    Closed signatures through genus SPECIALIZATION_GENUS_MAX; boundary
    quotients with genus and branch count up to SPECIALIZATION_BOUNDARY_MAX.
    """
    checks = [
        _first_mismatch(
            f"closed signatures: epi - epi_plus = epsilon ({{}} signatures, genus <= {SPECIALIZATION_GENUS_MAX})",
            (
                (
                    f"signature (g={g}, l={sol.l}, genus={sol.genus}, ns={sol.n_s}, nv={sol.n_v})",
                    epi_nonorientable_closed(sol.genus, sol.branch_indices(), sol.l)
                    - epi_plus_nonorientable_closed(sol.genus, sol.branch_indices(), sol.l),
                    sol.epsilon,
                )
                for g in range(2, SPECIALIZATION_GENUS_MAX + 1)
                for sol in solve_closed_orbifolds(g)
            ),
        )
    ]
    boundary_forms = (
        ("orientable", 0, epi_orientable_boundary, epi_plus_orientable_boundary, epsilon_h2_orientable),
        ("non-orientable", 1, epi_nonorientable_boundary, epi_plus_nonorientable_boundary, epsilon_h2_nonorientable),
    )
    for kind, lowest_genus, epi, epi_plus, epsilon in boundary_forms:
        checks.append(
            _first_mismatch(
                f"{kind} boundary quotients: epi - epi_plus = epsilon (genus, branch <= {SPECIALIZATION_BOUNDARY_MAX})",
                (
                    (
                        f"{kind} boundary quotient (genus {gg}, {r} branch points)",
                        epi(gg, 1, [2] * r, 2) - epi_plus(gg, 1, [2] * r, 2),
                        epsilon(gg, r),
                    )
                    for gg in range(lowest_genus, SPECIALIZATION_BOUNDARY_MAX + 1)
                    for r in range(SPECIALIZATION_BOUNDARY_MAX + 1)
                ),
            )
        )
    return checks


def suite_tables() -> List[Check]:
    """The frozen golden tables are reproduced value for value."""
    return [
        _first_mismatch(
            "orientable census values, genus 1..10",
            (
                (
                    f"orientable genus {g}",
                    (rooted_cubic_orientable(g), sensed_cubic_orientable(g), unsensed_cubic_orientable(g)),
                    triple,
                )
                for g, triple in sorted(CUBIC_ORIENTABLE.items())
            ),
            "all 30 values reproduced",
        ),
        _first_mismatch(
            "non-orientable census values, genus 2..20",
            (
                (f"non-orientable genus {g}", (rooted_cubic_nonorientable(g), unsensed_cubic_nonorientable(g)), pair)
                for g, pair in sorted(CUBIC_NONORIENTABLE.items())
            ),
            "all 38 values reproduced",
        ),
        _first_mismatch(
            "closed signatures with nonzero epsilon, genus 2..8",
            (
                ("row (g, l, genus, ns, nv, epsilon)", row, frozen)
                for row, frozen in itertools.zip_longest(
                    ((g, *s) for g in range(2, 9) for s in solve_closed_orbifolds(g) if s.contributes),
                    sorted(CLOSED_ORBIFOLD_ROWS),
                )
            ),
            "all 24 rows reproduced",
        ),
    ]


def cmd_verify(args: argparse.Namespace) -> int:
    max_o, max_f = args.max_edges_orientable, args.max_edges_full
    if max_o < 3 or max_f < 3:
        # n = 3 is the smallest cubic map on either kind of surface
        return _usage_error("the oracle needs --max-edges-orientable >= 3 and --max-edges-full >= 3")
    if max_o > MAX_EDGES_ORIENTABLE or max_f > MAX_EDGES_FULL:
        caps = f"--max-edges-orientable at {MAX_EDGES_ORIENTABLE} and --max-edges-full at {MAX_EDGES_FULL}"
        return _usage_error(f"the oracle caps {caps}")

    runs: Tuple[Tuple[str, Callable[[], List[Check]]], ...] = (
        ("oracle-equivalence", lambda: suite_oracle_equivalence(max_o, max_f)),
        ("integrality", suite_integrality),
        ("specialization", suite_specialization),
        ("table-reproduction", suite_tables),
    )

    if args.report:
        # a probe that writes nothing: an unwritable path fails before any suite runs,
        # and a run that stops early leaves no empty report behind
        created = not os.path.exists(args.report)
        try:
            open(args.report, "a", encoding="utf-8").close()
            if created:
                os.remove(args.report)
        except OSError as exc:
            return _usage_error(f"cannot write report: {exc}")

    suites: List[dict] = []
    first_failure: Optional[Check] = None
    for name, run in runs:
        checks = run()
        status = "PASS" if all(c.passed for c in checks) else "FAIL"
        suites.append({"name": name, "status": status, "checks": [asdict(c) for c in checks]})
        print(f"{name}: {status} ({len(checks)} {'check' if len(checks) == 1 else 'checks'})", flush=True)
        if first_failure is None:
            first_failure = next((c for c in checks if not c.passed), None)

    if args.report:
        report = {
            "max_edges_orientable": str(max_o),
            "max_edges_full": str(max_f),
            "all_pass": first_failure is None,
            "suites": suites,
        }
        try:
            with open(args.report, "w", encoding="utf-8") as out:
                out.write(json.dumps(report, indent=2) + "\n")
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
    try:
        with _full_int_str():
            code = args.handler(args)
            sys.stdout.flush()
    except OSError as exc:
        # stdout is closed or full: what is still buffered, and the
        # interpreter's flush at exit, go to the null device instead. A
        # stdout with no descriptor (a StringIO) raises io.UnsupportedOperation,
        # a ValueError, and is left as it is.
        with contextlib.suppress(ValueError):
            stdout_fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stdout_fd)
            os.close(devnull)
        return _usage_error(f"cannot write output: {exc}")
    return code
