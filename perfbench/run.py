"""End-to-end and per-layer benchmark of the cubicmaps command line.

Run from the repository root:

    python3 perfbench/run.py --workload census-sweep --seed 1 --seconds 40 --trace 0

A workload is a list of CLI requests generated from the seed. The harness
runs the list as one pass, one child process at a time, and repeats passes
for about --seconds seconds. It checks every output against the digests in
digests.json and the frozen tables in cubicmaps.golden, prints a stamp line,
and prints one JSON result as its last line: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. README.md defines them.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import pty
import random
import selectors
import statistics
import subprocess
import sys
import time
import tty
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")
TRACE_CHILD = os.path.join(HERE, "trace_child.py")
SRC = "src"

WORKLOADS = ("census-sweep", "census-deep", "verify-deep")

# census-sweep: the top genus of each table is drawn from this band. Table
# time grows like top**4.7, so the band is narrow enough that the seed moves
# a pass by a few percent only.
SWEEP_TOP_BAND = (152, 155)

# census-deep: (surface, kind, lowest genus, first genus whose count has more
# than 4300 decimal digits, highest genus). The bands straddle the genera
# where printing a count exceeds Python's default int-to-str limit. One
# genus is drawn on each side of the split, so every pass holds the same
# number of requests past the limit. The two have opposite parities: an even
# non-orientable genus takes the c_coefficient route and costs about three
# times an odd one, so each pass holds one of each.
DEEP_BANDS = (
    ("orientable", "sensed", 615, 627, 638),
    ("orientable", "unsensed", 615, 627, 638),
    ("nonorientable", "unsensed", 1150, 1162, 1173),
)

VERIFY_REQUEST = ("verify", "--max-edges-full", "8")
VERIFY_PASS_LINE = "all verification suites passed"

SETUP_SAMPLES = 11
SETUP_CODE = "import sys, cubicmaps.cli as cli; cli.build_parser(); print(sys.get_int_max_str_digits())"

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("first_output_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("ops_ok_frac", "ratio"),
)

SUITES = (
    "calibration",
    "oracle-equivalence",
    "integrality",
    "sandwich-bounds",
    "specialization",
    "table-reproduction",
)

# Per-layer metrics that are plain sums over the traced children of a pass.
LAYER_SUMS = (
    ("census.sensed_cubic_orientable.s", "s"),
    ("census.unsensed_cubic_orientable.s", "s"),
    ("census.unsensed_cubic_nonorientable.s", "s"),
    ("census.h2_term_nonorientable.s", "s"),
    ("census.hl_term_nonorientable.s", "s"),
    ("census.result_bits", "bit"),
    ("rooted_counts.rooted_cubic.s", "s"),
    ("rooted_counts.precubic.s", "s"),
    ("rooted_counts.precubic.calls", "count"),
    ("rooted_counts.c_coefficient.s", "s"),
    ("rooted_counts.c_coefficient.calls", "count"),
    ("orbifolds.solve_closed_orbifolds.s", "s"),
    ("orbifolds.signatures", "count"),
    ("orbifolds.epi.s", "s"),
    ("oracle.identity.s", "s"),
    ("oracle.identity.calls", "count"),
    ("oracle.symmetry.s", "s"),
    ("oracle.symmetry.calls", "count"),
    ("oracle.gluings_accepted", "count"),
    *((f"cli.verify.{suite}.s", "s") for suite in SUITES),
    ("cli.residual_s", "s"),
)

PER_LAYER = LAYER_SUMS + (
    ("orbifolds.contributing_ratio", "ratio"),
    ("exactnum.factorial.hit_ratio", "ratio"),
    ("exactnum.factorial.entries", "count"),
    ("trace_overhead_frac", "ratio"),
)


class HarnessError(Exception):
    """The benchmark itself cannot run, for example outside a repository checkout."""


# ============================================================
# Requests
# ============================================================


def requests_for(workload: str, seed: int) -> List[Tuple[str, ...]]:
    """The CLI arguments of one pass of `workload`; the same seed gives the same list."""
    rng = random.Random(seed)
    if workload == "census-sweep":
        return [
            ("table", "--surface", "orientable", "--gmin", "1", "--gmax", str(rng.randint(*SWEEP_TOP_BAND))),
            ("table", "--surface", "nonorientable", "--gmin", "2", "--gmax", str(rng.randint(*SWEEP_TOP_BAND))),
        ]
    if workload == "census-deep":
        requests = []
        for surface, kind, lo, split, hi in DEEP_BANDS:
            below = rng.randint(lo, split - 1)
            above = rng.choice([g for g in range(split, hi + 1) if (g - below) % 2])
            for genus in (below, above):
                requests.append(("count", "--surface", surface, "--genus", str(genus), "--kind", kind))
        return requests
    if workload == "verify-deep":
        return [VERIFY_REQUEST]
    raise ValueError(f"unknown workload {workload!r}")


# ============================================================
# Reference data and output checks
# ============================================================


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def load_digests() -> Dict[str, str]:
    """digests.json as {"surface/kind/genus": sha256 of the decimal count}."""
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        entries = json.load(handle)["counts"]
    return {key: digest for key, (_, digest) in entries.items()}


def load_golden() -> Dict[str, str]:
    """The frozen census tables of cubicmaps.golden, keyed like the digests."""
    path = os.path.join(SRC, "cubicmaps", "golden.py")
    spec = importlib.util.spec_from_file_location("cubicmaps_golden", path)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    out = {}
    for genus, values in golden.CUBIC_ORIENTABLE.items():
        for kind, value in zip(("rooted", "sensed", "unsensed"), values):
            out[f"orientable/{kind}/{genus}"] = str(value)
    for genus, values in golden.CUBIC_NONORIENTABLE.items():
        for kind, value in zip(("rooted", "unsensed"), values):
            out[f"nonorientable/{kind}/{genus}"] = str(value)
    return out


def _markdown_cells(line: str) -> List[str]:
    return [cell.strip() for cell in line.strip().strip("|").split("|")]


def _printed_counts(request: Sequence[str], stdout: str) -> Dict[str, str]:
    """The counts a `count` or `table` request printed, keyed like the digests."""
    options = dict(zip(request[1::2], request[2::2]))
    surface = options["--surface"]
    if request[0] == "count":
        return {f"{surface}/{options['--kind']}/{options['--genus']}": stdout.strip()}
    lines = stdout.splitlines()
    kinds = _markdown_cells(lines[0])[1:]
    counts = {}
    genera = []
    for line in lines[2:]:
        cells = _markdown_cells(line)
        if len(cells) != len(kinds) + 1:
            raise ValueError(f"row has {len(cells)} cells: {line[:60]!r}")
        genera.append(int(cells[0]))
        for kind, value in zip(kinds, cells[1:]):
            counts[f"{surface}/{kind}/{cells[0]}"] = value
    if genera != list(range(int(options["--gmin"]), int(options["--gmax"]) + 1)):
        raise ValueError("table rows do not cover the requested genus range")
    return counts


def check_output(
    request: Sequence[str], returncode: int, stdout: str, stderr: str, digests: Dict[str, str], golden: Dict[str, str]
) -> Tuple[Optional[str], bool]:
    """(why the request failed or None, whether its output was wrong rather than missing)."""
    if request[0] == "verify" and returncode == 1 and "FIRST FAILURE" in stdout:
        return "verification reported a failure", True
    if returncode != 0:
        return f"exit code {returncode}", False
    if "Traceback" in stderr:
        return "traceback on stderr", False
    if request[0] == "verify":
        if VERIFY_PASS_LINE not in stdout.splitlines():
            return f"no {VERIFY_PASS_LINE!r} line", True
        return None, False
    try:
        counts = _printed_counts(request, stdout)
    except (ValueError, IndexError, KeyError) as exc:
        return f"malformed output: {exc}", True
    for key, value in counts.items():
        if key not in digests:
            return f"no reference digest for {key}", True
        if sha256_text(value) != digests[key]:
            return f"digest mismatch for {key}", True
        if key in golden and value != golden[key]:
            return f"golden mismatch for {key}", True
    return None, False


# ============================================================
# Children
# ============================================================


def child_env() -> Dict[str, str]:
    """The caller's environment without PYTHON* settings, such as PYTHONUNBUFFERED
    or PYTHONINTMAXSTRDIGITS, that would change buffering, bytecode caching or
    the digit limit; src/ is the only PYTHONPATH entry."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = os.path.abspath(SRC)
    return env


@dataclass
class Child:
    """One finished child process: its outputs and what wait4 reported."""

    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    first_output_s: float
    cpu_s: float
    rss_mb: float
    trace: Optional[dict]


def run_child(request: Sequence[str], traced: bool) -> Child:
    """Run one CLI request with stdout on a pty, as an interactive user sees it.

    First output is the first stdout byte, or the exit when nothing was
    printed. A traced child writes its per-layer sums to a pipe of its own.
    """
    cmd = [sys.executable]
    pass_fds: Tuple[int, ...] = ()
    trace_r = -1
    if traced:
        trace_r, trace_w = os.pipe()
        pass_fds = (trace_w,)
        cmd += [TRACE_CHILD, str(trace_w)]
    else:
        cmd += ["-m", "cubicmaps"]
    cmd += list(request)
    master, slave = pty.openpty()
    tty.setraw(slave)
    readers = [master] + ([trace_r] if traced else [])
    start = time.perf_counter()
    try:
        proc = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=slave, stderr=subprocess.PIPE, env=child_env(), pass_fds=pass_fds
        )
    except BaseException:
        for fd in readers:
            os.close(fd)
        raise
    finally:
        os.close(slave)
        for fd in pass_fds:
            os.close(fd)
    err = proc.stderr.fileno()
    buffers = {fd: bytearray() for fd in readers + [err]}
    first_output = None
    try:
        with selectors.DefaultSelector() as selector:
            for fd in buffers:
                selector.register(fd, selectors.EVENT_READ)
            while selector.get_map():
                for key, _ in selector.select():
                    try:
                        chunk = os.read(key.fd, 1 << 16)
                    except OSError:  # EIO: the pty's last writer has closed it
                        chunk = b""
                    if not chunk:
                        selector.unregister(key.fd)
                        continue
                    if key.fd == master and first_output is None:
                        first_output = time.perf_counter() - start
                    buffers[key.fd] += chunk
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        for fd in readers:
            os.close(fd)
        proc.stderr.close()
    trace = json.loads(buffers[trace_r]) if traced and buffers[trace_r] else None
    return Child(
        returncode=proc.returncode,
        stdout=buffers[master].decode("ascii", "replace"),
        stderr=buffers[err].decode("utf-8", "replace"),
        wall_s=wall,
        first_output_s=wall if first_output is None else first_output,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        trace=trace,
    )


@dataclass
class Pass:
    """One run of every request of the workload, in order."""

    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    first_output_s: float = 0.0
    peak_rss_mb: float = 0.0
    failed: int = 0
    wrong: int = 0
    traces: List[dict] = field(default_factory=list)


def run_pass(requests: Sequence[Sequence[str]], traced: bool, digests, golden) -> Pass:
    result = Pass(traced)
    for request in requests:
        child = run_child(request, traced)
        result.wall_s += child.wall_s
        result.cpu_s += child.cpu_s
        result.first_output_s += child.first_output_s
        result.peak_rss_mb = max(result.peak_rss_mb, child.rss_mb)
        if child.trace is not None:
            result.traces.append(child.trace)
        reason, wrong = check_output(request, child.returncode, child.stdout, child.stderr, digests, golden)
        if reason is not None:
            result.failed += 1
            result.wrong += wrong
            print(f"failed: cubicmaps {' '.join(request)}: {reason}", file=sys.stderr)
    return result


def measure_setup() -> Tuple[float, int]:
    """Median wall time of interpreter start, `import cubicmaps` and parser build.

    The first sample is discarded: it may compile the bytecode cache.
    Also returns the children's int-to-str digit limit.
    """
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=child_env(), capture_output=True, text=True, check=False
        )
        samples.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise HarnessError(f"cannot import cubicmaps from {SRC}/: {done.stderr.strip()[-300:]}")
    return statistics.median(samples[1:]), int(done.stdout)


def measure(requests, seconds: float, trace: bool, digests, golden) -> List[Pass]:
    """Run passes for about `seconds`: a pass starts only if it should end in time.

    With tracing, untraced and traced passes alternate, at least one of each.
    """
    passes: List[Pass] = []
    start = time.perf_counter()
    last: Dict[bool, float] = {}
    traced = False
    while True:
        pass_start = time.perf_counter()
        passes.append(run_pass(requests, traced, digests, golden))
        last[traced] = time.perf_counter() - pass_start
        if trace:
            traced = not traced
        if traced in last and time.perf_counter() - start + last[traced] > seconds:
            return passes


# ============================================================
# Metrics
# ============================================================


def end_to_end_metrics(passes: List[Pass], setup_s: float, attempted: int, failed: int) -> Dict[str, float]:
    plain = [p for p in passes if not p.traced]
    return {
        "wall_s": statistics.median(p.wall_s for p in plain),
        "cpu_s": statistics.median(p.cpu_s for p in plain),
        "first_output_s": statistics.median(p.first_output_s for p in plain),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in plain),
        "setup_s": setup_s,
        "ops_ok_frac": (attempted - failed) / attempted,
    }


def layer_metrics(traces: List[dict]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass from the sums its children wrote."""
    total: Dict[str, float] = {}
    for trace in traces:
        for name, value in trace["sums"].items():
            total[name] = total.get(name, 0) + value
    out = {name: total.get(name, 0) for name, _ in LAYER_SUMS}
    signatures = total.get("orbifolds.signatures", 0)
    out["orbifolds.contributing_ratio"] = total.get("orbifolds.contributing", 0) / signatures if signatures else 0.0
    lookups = total.get("exactnum.factorial.hits", 0) + total.get("exactnum.factorial.misses", 0)
    out["exactnum.factorial.hit_ratio"] = total.get("exactnum.factorial.hits", 0) / lookups if lookups else 0.0
    out["exactnum.factorial.entries"] = max((t["factorial_entries"] for t in traces), default=0)
    return out


def per_layer_metrics(passes: List[Pass]) -> Dict[str, float]:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    per_pass = [layer_metrics(p.traces) for p in traced]
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    out["trace_overhead_frac"] = (
        statistics.median(p.wall_s for p in traced) / statistics.median(p.wall_s for p in plain) - 1
    )
    return out


# ============================================================
# Stamp and entry point
# ============================================================


def source_stamp() -> Dict[str, str]:
    """The git commit when run in a git checkout, and a digest of src/ always."""
    commit = "unavailable: not a git checkout"
    if os.path.isdir(".git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=False)
        if done.returncode == 0:
            commit = done.stdout.strip()
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(root, name)
            digest.update(path.encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Benchmark the cubicmaps CLI.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    try:
        digests, golden = load_digests(), load_golden()
        requests = requests_for(args.workload, args.seed)
        setup_s, max_str_digits = measure_setup()
    except (HarnessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    passes = measure(requests, args.seconds, bool(args.trace), digests, golden)
    attempted = len(requests) * len(passes)
    failed = sum(p.failed for p in passes)
    if args.trace:
        metrics = per_layer_metrics(passes)
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end_metrics(passes, setup_s, attempted, failed)
        units = dict(END_TO_END)
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": args.workload != "verify-deep",
        "python": platform.python_version(),
        "int_max_str_digits": max_str_digits,
        "nproc": len(os.sched_getaffinity(0)),
        **source_stamp(),
        "pass_wall_s": {
            "untraced": [p.wall_s for p in passes if not p.traced],
            "traced": [p.wall_s for p in passes if p.traced],
        },
        "requests": [" ".join(r) for r in requests],
    }
    print(json.dumps({"stamp": stamp}))
    print(
        json.dumps(
            {
                "correct": not any(p.wrong for p in passes),
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
