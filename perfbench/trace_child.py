"""Run one cubicmaps CLI request with the public functions of each module timed.

Usage, from the repository root with src/ on PYTHONPATH:

    python3 perfbench/trace_child.py FD ARG...

Wraps the functions listed in GROUPS wherever a cubicmaps module namespace
holds them (including names other modules imported), runs
cubicmaps.cli.main(ARG...), and writes one JSON object of per-layer sums to
file descriptor FD, also when the request raises. A group's time is self
time: its spans minus the spans of wrapped calls made inside them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

import cubicmaps
from cubicmaps import census, cli, exactnum, oracle, orbifolds, rooted_counts
from run import SUITES

MODULES = (cubicmaps, census, cli, exactnum, oracle, orbifolds, rooted_counts)

GROUPS = {
    "census.sensed_cubic_orientable": (census, ("sensed_cubic_orientable",)),
    "census.unsensed_cubic_orientable": (census, ("unsensed_cubic_orientable",)),
    "census.unsensed_cubic_nonorientable": (census, ("unsensed_cubic_nonorientable",)),
    "census.h2_term_nonorientable": (census, ("h2_term_nonorientable",)),
    "census.hl_term_nonorientable": (census, ("hl_term_nonorientable",)),
    "census.row": (census, ("orientable_census_row", "nonorientable_census_row")),
    "rooted_counts.rooted_cubic": (rooted_counts, ("rooted_cubic_orientable", "rooted_cubic_nonorientable")),
    "rooted_counts.precubic": (
        rooted_counts,
        ("precubic_orientable", "precubic_nonorientable_by_leaves", "precubic_nonorientable_by_genus_pair"),
    ),
    "rooted_counts.c_coefficient": (rooted_counts, ("c_coefficient",)),
    "orbifolds.solve_closed_orbifolds": (orbifolds, ("solve_closed_orbifolds",)),
    "orbifolds.epi": (
        orbifolds,
        (
            "epsilon_h2_orientable",
            "epsilon_h2_nonorientable",
            "epsilon_hl",
            "epi_orientable_boundary",
            "epi_plus_orientable_boundary",
            "epi_nonorientable_boundary",
            "epi_plus_nonorientable_boundary",
            "epi_nonorientable_closed",
            "epi_plus_nonorientable_closed",
        ),
    ),
    "oracle.identity": (oracle, ("count_rooted", "count_precubic")),
    "oracle.symmetry": (oracle, ("count_sensed_orientable", "count_unsensed")),
}

Span = Tuple[str, float, float, Optional[bool]]


def _bits(result) -> int:
    if isinstance(result, census.CensusRow):
        return sum(v.bit_length() for v in (result.rooted, result.sensed, result.unsensed) if v is not None)
    return result.bit_length()


def suite_times(top: Sequence[Span]) -> Dict[str, float]:
    """Per-suite wall time of a `verify` run, rebuilt from its top-level public calls.

    The suites run in a fixed order and each starts with a call that no
    earlier suite makes: calibration searches non-orientable surfaces only,
    oracle-equivalence starts with an orientable search, integrality with
    orientable_census_row, specialization with solve_closed_orbifolds and
    table-reproduction with rooted_cubic_orientable. A suite lasts from its
    first call's start to its last call's end. sandwich-bounds makes no
    public call: its time is the gap between integrality and specialization.
    """
    phase = 0
    spans: Dict[str, List[Tuple[float, float]]] = {suite: [] for suite in SUITES}
    for name, start, end, orientable_search in top:
        if phase < 1 and orientable_search:
            phase = 1
        if phase < 2 and name == "orientable_census_row":
            phase = 2
        if phase < 4 and name == "solve_closed_orbifolds":
            phase = 4
        if phase == 4 and name == "rooted_cubic_orientable":
            phase = 5
        spans[SUITES[phase]].append((start, end))
    out = {suite: s[-1][1] - s[0][0] if s else 0.0 for suite, s in spans.items()}
    if spans["integrality"] and spans["specialization"]:
        out["sandwich-bounds"] = spans["specialization"][0][0] - spans["integrality"][-1][1]
    return out


class Tracer:
    """Spans and counters of one process, kept in memory until the request ends."""

    def __init__(self) -> None:
        self.stack: List[list] = []  # [group, seconds spent in wrapped callees]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.top: List[Span] = []
        self.parser_s = 0.0

    def install(self) -> None:
        for group, (module, names) in GROUPS.items():
            for name in names:
                original = getattr(module, name)
                timed = self._wrap(group, original)
                for namespace in MODULES:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, attr, timed)
        build_parser = cli.build_parser

        @functools.wraps(build_parser)
        def timed_build_parser():
            start = time.perf_counter()
            try:
                return build_parser()
            finally:
                self.parser_s += time.perf_counter() - start

        cli.build_parser = timed_build_parser

    def _wrap(self, group: str, fn):
        stack = self.stack
        name = fn.__name__

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            caller = stack[-1][0] if stack else None
            frame = [group, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.self_s[group] += elapsed - frame[1]
                if caller != group:
                    self.calls[group] += 1
                if stack:
                    stack[-1][1] += elapsed
                else:
                    orientable_search = None
                    if group.startswith("oracle."):
                        orientable_search = name == "count_sensed_orientable" or args[1].orientable
                    self.top.append((name, start, start + elapsed, orientable_search))
            self._count(group, name, caller, result)
            return result

        return timed

    def _count(self, group: str, name: str, caller: Optional[str], result) -> None:
        if group.startswith("census.") and not (caller or "").startswith("census."):
            self.counts["census.result_bits"] += _bits(result)
        elif name == "solve_closed_orbifolds":
            self.counts["orbifolds.signatures"] += len(result)
            self.counts["orbifolds.contributing"] += sum(s.contributes for s in result)
        elif name == "count_rooted":
            self.counts["oracle.gluings_accepted"] += result

    def summary(self, command: str, main_s: float) -> dict:
        sums: Dict[str, float] = {f"{group}.s": seconds for group, seconds in self.self_s.items()}
        sums.update((f"{group}.calls", n) for group, n in self.calls.items())
        sums.update(self.counts)
        if command == "verify":
            sums.update((f"cli.verify.{suite}.s", s) for suite, s in suite_times(self.top).items())
        sums["cli.residual_s"] = main_s - self.parser_s - sum(end - start for _, start, end, _ in self.top)
        info = exactnum.factorial.cache_info()
        sums["exactnum.factorial.hits"] = info.hits
        sums["exactnum.factorial.misses"] = info.misses
        return {"sums": sums, "factorial_entries": info.currsize}


def main(argv: Sequence[str]) -> int:
    fd, request = int(argv[0]), list(argv[1:])
    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        return cli.main(request)
    finally:
        summary = tracer.summary(request[0], time.perf_counter() - start)
        with os.fdopen(fd, "w") as out:
            json.dump(summary, out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
