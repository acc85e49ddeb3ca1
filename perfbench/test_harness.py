"""Self-tests of the benchmark harness.

Run from the repository root:

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

ROOT = os.path.dirname(run.HERE)
SMALL_TABLE = ("table", "--surface", "nonorientable", "--gmin", "2", "--gmax", "12")


@pytest.fixture(autouse=True)
def _at_repository_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_same_seed_same_requests_other_seed_different() -> None:
    for workload in ("census-sweep", "census-deep"):
        assert run.requests_for(workload, 1) == run.requests_for(workload, 1)
        assert run.requests_for(workload, 1) != run.requests_for(workload, 2)
    assert run.requests_for("verify-deep", 1) == run.requests_for("verify-deep", 2) == [run.VERIFY_REQUEST]


def test_deep_bands_split_at_the_digit_limit() -> None:
    with open(run.DIGESTS_PATH, encoding="utf-8") as handle:
        counts = json.load(handle)["counts"]
    limit = sys.int_info.default_max_str_digits
    for surface, kind, lo, split, hi in run.DEEP_BANDS:
        digits = {g: counts[f"{surface}/{kind}/{g}"][0] for g in range(lo, hi + 1)}
        assert all(digits[g] <= limit for g in range(lo, split))
        assert all(digits[g] > limit for g in range(split, hi + 1))


def test_corrupted_digest_counts_as_failure() -> None:
    digests, golden = run.load_digests(), run.load_golden()
    assert (run.run_pass([SMALL_TABLE], False, digests, golden).failed) == 0
    digests["nonorientable/unsensed/7"] = "0" * 64
    result = run.run_pass([SMALL_TABLE], False, digests, golden)
    assert (result.failed, result.wrong) == (1, 1)


def test_golden_mismatch_counts_as_failure() -> None:
    digests, golden = run.load_digests(), run.load_golden()
    child = run.run_child(SMALL_TABLE, traced=False)
    golden["nonorientable/rooted/12"] = "1"
    reason, wrong = run.check_output(SMALL_TABLE, child.returncode, child.stdout, child.stderr, digests, golden)
    assert (reason, wrong) == ("golden mismatch for nonorientable/rooted/12", True)


def test_crash_counts_as_failure_but_not_as_wrong_output() -> None:
    stderr = "Traceback (most recent call last):\nValueError: Exceeds the limit (4300 digits)\n"
    request = ("count", "--surface", "orientable", "--genus", "630", "--kind", "sensed")
    assert run.check_output(request, 1, "", stderr, {}, {}) == ("exit code 1", False)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace: int, section: str) -> None:
    done = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "census-sweep", "--seed", "1"]
        + ["--seconds", "1", "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = {m["name"]: m["unit"] for m in json.load(handle)[section]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert result["correct"] and result["failed"] == 0
