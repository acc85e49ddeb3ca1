"""Command-line interface: formats, exit codes, determinism, verify suites."""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cubicmaps import cli, golden
from cubicmaps.census import nonorientable_census_row, orientable_census_row
from cubicmaps.cli import main


def _run(capsys, *argv: str):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_orientable_unsensed(capsys) -> None:
    code, out, err = _run(capsys, "count", "--surface", "orientable", "--genus", "2", "--kind", "unsensed")
    assert (code, out, err) == (0, "8\n", "")


def test_count_nonorientable_rooted(capsys) -> None:
    code, out, _ = _run(capsys, "count", "--surface", "nonorientable", "--genus", "4", "--kind", "rooted")
    assert (code, out) == (0, "3780\n")


def test_count_large_genus_is_exact(capsys) -> None:
    code, out, _ = _run(capsys, "count", "--surface", "orientable", "--genus", "10", "--kind", "unsensed")
    assert (code, out) == (0, "5189463083084174721816125584\n")


def test_count_rejects_nonorientable_sensed(capsys) -> None:
    code, out, err = _run(capsys, "count", "--surface", "nonorientable", "--genus", "3", "--kind", "sensed")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "sensed" in err


def test_count_rejects_out_of_domain_genus(capsys) -> None:
    assert _run(capsys, "count", "--surface", "orientable", "--genus", "0", "--kind", "rooted")[0] == 2
    assert _run(capsys, "count", "--surface", "nonorientable", "--genus", "1", "--kind", "rooted")[0] == 2
    assert _run(capsys, "count", "--surface", "orientable", "--genus", "2001", "--kind", "rooted")[0] == 2
    assert _run(capsys, "count", "--surface", "nonorientable", "--genus", "2001", "--kind", "rooted")[0] == 2


def test_usage_errors_exit_two(capsys) -> None:
    assert _run(capsys, "nonsense")[0] == 2
    assert _run(capsys, "count", "--surface", "orientable", "--genus", "2")[0] == 2
    assert _run(capsys, "count", "--surface", "klein", "--genus", "2", "--kind", "rooted")[0] == 2


def test_table_markdown_default(capsys) -> None:
    code, out, _ = _run(capsys, "table", "--surface", "orientable", "--gmin", "1", "--gmax", "2")
    assert code == 0
    assert out == (
        "| g | rooted | sensed | unsensed |\n"
        "| --- | --- | --- | --- |\n"
        "| 1 | 1 | 1 | 1 |\n"
        "| 2 | 105 | 9 | 8 |\n"
    )


def test_table_csv_single_row(capsys) -> None:
    code, out, _ = _run(capsys, "table", "--surface", "orientable", "--gmin", "1", "--gmax", "1", "--format", "csv")
    assert code == 0
    assert out == "g,rooted,sensed,unsensed\n1,1,1,1\n"


def test_table_csv_nonorientable_schema(capsys) -> None:
    code, out, _ = _run(capsys, "table", "--surface", "nonorientable", "--gmin", "2", "--gmax", "3", "--format", "csv")
    assert code == 0
    assert out == "g,rooted,unsensed\n2,6,2\n3,128,11\n"


def test_table_json_numbers_are_strings(capsys) -> None:
    code, out, _ = _run(capsys, "table", "--surface", "orientable", "--gmin", "9", "--gmax", "10", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [row["g"] for row in rows] == ["9", "10"]
    assert rows[1]["unsensed"] == "5189463083084174721816125584"
    for row in rows:
        assert all(isinstance(value, str) for value in row.values())


def _reference_render(fmt, headers, rows) -> str:
    """The table rendering as it was before rows were streamed: one string built from every row."""
    if fmt == "csv":
        lines = [",".join(headers)] + [",".join(row) for row in rows]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps([dict(zip(headers, row)) for row in rows], indent=2) + "\n"
    lines = ["| " + " | ".join(headers) + " |", "| " + " | ".join(["---"] * len(headers)) + " |"]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["markdown", "csv", "json"])
def test_streamed_table_matches_whole_rendering(capsys, fmt) -> None:
    rows = [orientable_census_row(g) for g in range(1, 7)]
    cells = [(str(r.genus), str(r.rooted), str(r.sensed), str(r.unsensed)) for r in rows]
    code, out, _ = _run(capsys, "table", "--surface", "orientable", "--gmin", "1", "--gmax", "6", "--format", fmt)
    assert code == 0
    assert out == _reference_render(fmt, ("g", "rooted", "sensed", "unsensed"), cells)
    rows = [nonorientable_census_row(g) for g in range(2, 3)]
    cells = [(str(r.genus), str(r.rooted), str(r.unsensed)) for r in rows]
    code, out, _ = _run(capsys, "table", "--surface", "nonorientable", "--gmin", "2", "--gmax", "2", "--format", fmt)
    assert code == 0
    assert out == _reference_render(fmt, ("g", "rooted", "unsensed"), cells)


def test_table_writes_each_row_before_computing_the_next(monkeypatch) -> None:
    stream = io.StringIO()
    seen = []

    def row(g):
        seen.append(stream.getvalue().count("\n"))
        return orientable_census_row(g)

    monkeypatch.setattr(cli, "orientable_census_row", row)
    monkeypatch.setattr(sys, "stdout", stream)
    assert main(["table", "--surface", "orientable", "--gmin", "1", "--gmax", "4", "--format", "csv"]) == 0
    assert seen == [1, 2, 3, 4]


# SHA-256 of counts whose decimal form passes Python's default 4300-digit
# int-to-str limit, as recorded in perfbench/digests.json; the rooted count
# at orientable genus 626 (4304 digits), which that file does not hold, was
# computed with the same library.
PAST_DIGIT_LIMIT = {
    ("orientable", "rooted", 626): "4a0f168412a8a87016efb7a95e87d214e83a65d7fbca187c0109fa93a6c73ae5",
    ("orientable", "sensed", 626): "446c0f2b525e286e91fd188c6bd011c0e8073940028c791155dc02397f5c2dac",
    ("orientable", "unsensed", 626): "45a55825c1d4b8b3e6131e8c200764caa3ca46cf5d8b481a7d2ccee8c96a34dc",
    ("orientable", "sensed", 627): "93371f953dee628d15b9eb4e1edb0bfd4514703a852b5f4d3b46c0f5bda0fbc0",
    ("orientable", "unsensed", 627): "3b905cb8c9aaad7d2c5c7027a61f58c31fc95468bfba81f6b819e8ff1cec1d0a",
    ("nonorientable", "unsensed", 1162): "aaf13e48fa58d46ce2883d80d05e776f082de512bc11233738d6aa9f02bb3502",
    ("nonorientable", "unsensed", 1163): "e2a4a6f0088c47aee5bf6e8fe90cb7ca61ec2cc45e9374b42a6e1ac318d44b7d",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.mark.parametrize(
    "surface, kind, genus",
    [
        ("orientable", "sensed", 627),
        ("orientable", "unsensed", 627),
        ("nonorientable", "unsensed", 1162),
        ("nonorientable", "unsensed", 1163),
    ],
)
def test_count_prints_past_the_digit_limit(capsys, surface, kind, genus) -> None:
    limit = sys.get_int_max_str_digits()
    code, out, err = _run(capsys, "count", "--surface", surface, "--genus", str(genus), "--kind", kind)
    assert (code, err) == (0, "")
    assert len(out.strip()) > 4300
    assert _sha256(out.strip()) == PAST_DIGIT_LIMIT[surface, kind, genus]
    assert sys.get_int_max_str_digits() == limit


def test_table_prints_past_the_digit_limit(capsys) -> None:
    limit = sys.get_int_max_str_digits()
    code, out, err = _run(capsys, "table", "--surface", "orientable", "--gmin", "626", "--gmax", "626")
    assert (code, err) == (0, "")
    cells = [cell.strip() for cell in out.splitlines()[2].strip("|").split("|")]
    assert cells[0] == "626"
    assert len(cells[1]) > 4300
    for kind, cell in zip(("rooted", "sensed", "unsensed"), cells[1:]):
        assert _sha256(cell) == PAST_DIGIT_LIMIT["orientable", kind, 626]
    assert sys.get_int_max_str_digits() == limit


DIGIT_LIMIT_RUNS = {
    "count": (0, "count", "--surface", "orientable", "--genus", "640", "--kind", "rooted"),
    "table": (0, "table", "--surface", "nonorientable", "--gmin", "2", "--gmax", "5", "--format", "json"),
    "orbifolds": (0, "orbifolds", "--genus", "5", "--format", "csv"),
    "verify": (0, "verify", "--max-edges-orientable", "3", "--max-edges-full", "3"),
    "usage-error": (2, "count", "--surface", "nonorientable", "--genus", "1"),
    "output-error": (2, "verify", "--max-edges-orientable", "3", "--max-edges-full", "3"),
    "huge-genus": (2, "count", "--surface", "orientable", "--genus", "7" * 5000),
}


@pytest.mark.parametrize("run", list(DIGIT_LIMIT_RUNS))
def test_main_restores_the_digit_limit(capsys, monkeypatch, run) -> None:
    # a limit other than the default, so that a restore to the default shows
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4321)
    if run == "output-error":

        def stopped():
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "suite_integrality", stopped)
    want, *argv = DIGIT_LIMIT_RUNS[run]
    try:
        code, out, err = _run(capsys, *argv)
        assert sys.get_int_max_str_digits() == 4321
    finally:
        sys.set_int_max_str_digits(previous)
    assert code == want, err
    if run == "count":
        assert len(out.strip()) > 4321
    if run == "huge-genus":
        # parsed before main lifts the limit, so the digit string is no int
        assert "argument --genus: invalid int value" in err


def test_import_leaves_digit_limit_alone() -> None:
    code = (
        "import sys; before = sys.get_int_max_str_digits(); import cubicmaps.cli; "
        "print(sys.get_int_max_str_digits() == before)"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=False)
    assert (result.returncode, result.stdout) == (0, "True\n")


def test_table_range_validation(capsys) -> None:
    assert _run(capsys, "table", "--surface", "orientable", "--gmin", "0", "--gmax", "3")[0] == 2
    assert _run(capsys, "table", "--surface", "orientable", "--gmin", "5", "--gmax", "3")[0] == 2
    assert _run(capsys, "table", "--surface", "orientable", "--gmin", "1", "--gmax", "10001")[0] == 2
    assert _run(capsys, "table", "--surface", "orientable", "--gmin", "1", "--gmax", "2001")[0] == 2
    assert _run(capsys, "table", "--surface", "nonorientable", "--gmin", "1", "--gmax", "3")[0] == 2


def test_table_output_is_deterministic(capsys) -> None:
    first = _run(capsys, "table", "--surface", "nonorientable", "--gmin", "2", "--gmax", "12")
    second = _run(capsys, "table", "--surface", "nonorientable", "--gmin", "2", "--gmax", "12")
    assert first == second


def test_orbifolds_markdown_single_row(capsys) -> None:
    code, out, _ = _run(capsys, "orbifolds", "--genus", "2")
    assert code == 0
    assert out == (
        "| g | l | genus | ns | nv | epsilon |\n"
        "| --- | --- | --- | --- | --- | --- |\n"
        "| 2 | 2 | 1 | 1 | 0 | 2 |\n"
    )


def test_orbifolds_markdown_marks_zero_rows(capsys) -> None:
    # the README's genus-3 table: three of its four signatures have epsilon = 0
    code, out, _ = _run(capsys, "orbifolds", "--genus", "3")
    assert code == 0
    assert out == (
        "| g | l | genus | ns | nv | epsilon |\n"
        "| --- | --- | --- | --- | --- | --- |\n"
        "| 3 | 2 | 1 | 2 | 0 | 0 * |\n"
        "| 3 | 2 | 2 | 0 | 0 | 0 * |\n"
        "| 3 | 3 | 1 | 0 | 1 | 4 |\n"
        "| 3 | 4 | 1 | 1 | 0 | 0 * |\n"
        "\n"
        "* epsilon = 0: contributes nothing to the census\n"
    )


def test_orbifolds_csv_schema(capsys) -> None:
    code, out, _ = _run(capsys, "orbifolds", "--genus", "2", "--format", "csv")
    assert code == 0
    assert out == "g,l,genus,ns,nv,epsilon\n2,2,1,1,0,2\n"


def test_orbifolds_json_contributes_flag(capsys) -> None:
    # every cell a string but the contributes flag, which is a JSON bool
    code, out, _ = _run(capsys, "orbifolds", "--genus", "3", "--format", "json")
    assert code == 0
    headers = ("g", "l", "genus", "ns", "nv", "epsilon", "contributes")
    rows = [
        ("3", "2", "1", "2", "0", "0", False),
        ("3", "2", "2", "0", "0", "0", False),
        ("3", "3", "1", "0", "1", "4", True),
        ("3", "4", "1", "1", "0", "0", False),
    ]
    assert out == json.dumps([dict(zip(headers, row)) for row in rows], indent=2) + "\n"


def test_orbifolds_rows_sorted(capsys) -> None:
    code, out, _ = _run(capsys, "orbifolds", "--genus", "8", "--format", "csv")
    assert code == 0
    rows = [tuple(map(int, line.split(","))) for line in out.splitlines()[1:]]
    keys = [row[1:5] for row in rows]
    assert keys == sorted(keys)


def test_orbifolds_rejects_small_genus(capsys) -> None:
    assert _run(capsys, "orbifolds", "--genus", "1")[0] == 2


def test_orbifolds_rejects_genus_past_the_cap(capsys) -> None:
    code, out, err = _run(capsys, "orbifolds", "--genus", "2001")
    assert code == 2
    assert out == ""
    assert err == f"error: --genus is capped at {cli.MAX_GENUS}\n"


def test_module_entry_point() -> None:
    result = subprocess.run(
        [sys.executable, "-m", "cubicmaps", "count", "--surface", "orientable", "--genus", "3", "--kind", "rooted"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0
    assert result.stdout == "50050\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--surface", "orientable", "--genus", "5", "--kind", "sensed"),
        ("table", "--surface", "nonorientable", "--gmin", "2", "--gmax", "4"),
        ("orbifolds", "--genus", "30"),
        ("verify", "--max-edges-orientable", "3", "--max-edges-full", "3"),
    ],
)
def test_full_stdout_is_a_one_line_error(argv) -> None:
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "cubicmaps", *argv], stdout=full, stderr=subprocess.PIPE, text=True, check=False
        )
    assert result.returncode == 2
    assert result.stderr.startswith("error: cannot write output: ")
    assert result.stderr.count("\n") == 1


def test_closed_stdout_is_a_one_line_error() -> None:
    # like `table ... | head -c 100`: the reader leaves while rows are still coming
    argv = ("table", "--surface", "orientable", "--gmin", "1", "--gmax", "400")
    with subprocess.Popen(
        [sys.executable, "-m", "cubicmaps", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert code == 2
    assert err.startswith("error: cannot write output: ")
    assert err.count("\n") == 1


def test_demos_run() -> None:
    demos = Path(__file__).resolve().parents[1] / "demos"
    scripts = sorted(demos.glob("*.py"))
    assert len(scripts) == 3
    for script in scripts:
        result = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, check=False)
        assert result.returncode == 0, (script.name, result.stderr)


def test_verify_defaults_pass(capsys, tmp_path) -> None:
    report_path = tmp_path / "report.json"
    code, out, _ = _run(capsys, "verify", "--report", str(report_path))
    assert code == 0
    lines = out.splitlines()
    passes = [line for line in lines if ": PASS" in line]
    assert len(passes) >= 4
    assert lines[-1] == "all verification suites passed"

    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["all_pass"] is True
    assert {suite["name"] for suite in report["suites"]} == {
        "oracle-equivalence",
        "integrality",
        "specialization",
        "table-reproduction",
    }

    def walk(node):
        if isinstance(node, dict):
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)
        else:
            assert isinstance(node, (str, bool)), node

    walk(report)

    # the oracle checks in the order they run: cubic counts, then precubic counts by edges,
    # orientable surfaces first, each with the leaf count the Euler relation gives
    oracle_suite = next(suite for suite in report["suites"] if suite["name"] == "oracle-equivalence")
    assert [check["label"] for check in oracle_suite["checks"]] == [
        "cubic orientable genus 1 rooted (n=3)",
        "cubic orientable genus 1 sensed (n=3)",
        "cubic orientable genus 1 unsensed (n=3)",
        "cubic orientable genus 2 rooted (n=9)",
        "cubic orientable genus 2 sensed (n=9)",
        "cubic orientable genus 2 unsensed (n=9)",
        "cubic non-orientable genus 2 rooted (n=3)",
        "cubic non-orientable genus 2 unsensed (n=3)",
        "cubic non-orientable genus 3 rooted (n=6)",
        "cubic non-orientable genus 3 unsensed (n=6)",
        "precubic orientable genus 0, 1 edges, 2 leaves",
        "precubic orientable genus 0, 3 edges, 3 leaves",
        "precubic orientable genus 1, 3 edges, 0 leaves",
        "precubic orientable genus 0, 5 edges, 4 leaves",
        "precubic orientable genus 1, 5 edges, 1 leaves",
        "precubic orientable genus 0, 7 edges, 5 leaves",
        "precubic orientable genus 1, 7 edges, 2 leaves",
        "precubic orientable genus 0, 9 edges, 6 leaves",
        "precubic orientable genus 1, 9 edges, 3 leaves",
        "precubic orientable genus 2, 9 edges, 0 leaves",
        "precubic non-orientable genus 1, 2 edges, 1 leaves",
        "precubic non-orientable genus 2, 3 edges, 0 leaves",
        "precubic non-orientable genus 1, 4 edges, 2 leaves",
        "precubic non-orientable genus 2, 5 edges, 1 leaves",
        "precubic non-orientable genus 1, 6 edges, 3 leaves",
        "precubic non-orientable genus 3, 6 edges, 0 leaves",
    ]
    values = {check["label"]: (check["got"], check["want"]) for check in oracle_suite["checks"]}
    assert values["cubic orientable genus 1 rooted (n=3)"] == ("1", "1")
    assert values["cubic orientable genus 2 unsensed (n=9)"] == ("8", "8")
    assert values["cubic non-orientable genus 3 rooted (n=6)"] == ("128", "128")
    assert values["precubic orientable genus 1, 9 edges, 3 leaves"] == ("420", "420")
    assert values["precubic non-orientable genus 2, 5 edges, 1 leaves"] == ("60", "60")

    # every census check, label, got and want, as the report carries it
    census_checks = {
        suite["name"]: [(check["label"], check["got"], check["want"]) for check in suite["checks"]]
        for suite in report["suites"]
        if suite["name"] != "oracle-equivalence"
    }
    equal = "equal"
    assert census_checks == {
        "integrality": [
            ("census integrality through genus 200", "every count an exact integer", "every count an exact integer"),
        ],
        "specialization": [
            ("closed signatures: epi - epi_plus = epsilon (98 signatures, genus <= 12)", equal, equal),
            ("orientable boundary quotients: epi - epi_plus = epsilon (genus, branch <= 12)", equal, equal),
            ("non-orientable boundary quotients: epi - epi_plus = epsilon (genus, branch <= 12)", equal, equal),
        ],
        "table-reproduction": [
            ("orientable census values, genus 1..10", "all 30 values reproduced", "all 30 values reproduced"),
            ("non-orientable census values, genus 2..20", "all 38 values reproduced", "all 38 values reproduced"),
            ("closed signatures with nonzero epsilon, genus 2..8", "all 24 rows reproduced", "all 24 rows reproduced"),
        ],
    }


def test_verify_prints_each_suite_line_when_it_finishes(capsys, monkeypatch) -> None:
    printed_before_integrality = []

    def integrality() -> list:
        printed_before_integrality.append(capsys.readouterr().out)
        return [cli.Check("integrality stand-in", "ok", "ok", True)]

    monkeypatch.setattr(cli, "suite_integrality", integrality)
    assert main(["verify", "--max-edges-orientable", "3", "--max-edges-full", "3"]) == 0
    assert printed_before_integrality == ["oracle-equivalence: PASS (10 checks)\n"]
    assert capsys.readouterr().out.splitlines() == [
        "integrality: PASS (1 check)",
        "specialization: PASS (3 checks)",
        "table-reproduction: PASS (3 checks)",
        "all verification suites passed",
    ]


def test_verify_reports_first_failure(capsys, monkeypatch) -> None:
    rows = list(golden.CLOSED_ORBIFOLD_ROWS)
    rows[1] = (3, 3, 1, 0, 1, 5)
    extra = [*golden.CLOSED_ORBIFOLD_ROWS, (9, 2, 1, 1, 0, 2)]
    row = "closed signatures with nonzero epsilon, genus 2..8: got row (g, l, genus, ns, nv, epsilon): "
    corrupted = (
        (
            "CUBIC_ORIENTABLE",
            {**golden.CUBIC_ORIENTABLE, 5: (1, 1, 1)},
            "orientable census values, genus 1..10: got orientable genus 5: ",
        ),
        ("CLOSED_ORBIFOLD_ROWS", rows, f"{row}(3, 3, 1, 0, 1, 4) != (3, 3, 1, 0, 1, 5), want all 24 rows reproduced"),
        # a frozen row that nothing computes is a mismatch too
        ("CLOSED_ORBIFOLD_ROWS", extra, f"{row}None != (9, 2, 1, 1, 0, 2), want all 24 rows reproduced"),
    )
    for name, table, first_failure in corrupted:
        with monkeypatch.context() as patch:
            patch.setattr(cli, name, table)
            code, out, _ = _run(capsys, "verify", "--max-edges-orientable", "3", "--max-edges-full", "3")
        assert code == 1
        assert "table-reproduction: FAIL" in out
        assert out.splitlines()[-1].startswith(f"FIRST FAILURE: {first_failure}")


@pytest.mark.parametrize(
    "name, suite",
    [
        ("orientable_census_row", "integrality"),
        ("count_sensed_orientable", "oracle-equivalence"),
        ("epsilon_h2_orientable", "specialization"),
        ("unsensed_cubic_nonorientable", "table-reproduction"),
        ("solve_closed_orbifolds", "specialization"),
        ("precubic_nonorientable_by_leaves", "oracle-equivalence"),
    ],
)
def test_verify_reports_value_errors_as_failures(capsys, monkeypatch, name, suite) -> None:
    def broken(*args, **kwargs):
        raise ValueError("expected unsensed <= rooted at g=1")

    monkeypatch.setattr(cli, name, broken)
    code, out, _ = _run(capsys, "verify", "--max-edges-orientable", "3", "--max-edges-full", "3")
    assert code == 1
    assert f"{suite}: FAIL" in out
    last = out.splitlines()[-1]
    assert last.startswith("FIRST FAILURE:")
    assert "expected unsensed <= rooted" in last
    # what the failing check must equal is computed first, so a raising oracle search still shows it
    wants = {
        "orientable_census_row": "every count an exact integer",
        "count_sensed_orientable": "1",
        "epsilon_h2_orientable": "equal",
        "unsensed_cubic_nonorientable": "a value",  # the oracle suite's formula fails first
        "solve_closed_orbifolds": "equal",
        "precubic_nonorientable_by_leaves": "a value",
    }
    assert last.endswith(f", want {wants[name]}")


def test_verify_unwritable_report_fails_before_any_suite(capsys, monkeypatch, tmp_path) -> None:
    def never(*args, **kwargs):
        raise AssertionError("a suite ran although the report cannot be written")

    for suite in ("suite_oracle_equivalence", "suite_integrality", "suite_specialization", "suite_tables"):
        monkeypatch.setattr(cli, suite, never)
    code, out, err = _run(capsys, "verify", "--report", str(tmp_path / "missing" / "report.json"))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write report: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_verify_full_report_device_fails_after_every_suite(capsys) -> None:
    argv = ("verify", "--max-edges-orientable", "3", "--max-edges-full", "3", "--report", "/dev/full")
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out.splitlines() == [
        "oracle-equivalence: PASS (10 checks)",
        "integrality: PASS (1 check)",
        "specialization: PASS (3 checks)",
        "table-reproduction: PASS (3 checks)",
    ]
    assert err == "error: cannot write report: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("existing", [True, False], ids=["existing", "missing"])
def test_verify_early_stop_keeps_an_existing_report(tmp_path, existing) -> None:
    # a subprocess, because an OSError sends main() to redirect the real stdout
    script = (
        "import sys, cubicmaps.cli as cli\n"
        "def stopped():\n"
        "    raise OSError(28, 'No space left on device')\n"
        "cli.suite_integrality = stopped\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    report_path = tmp_path / "report.json"
    if existing:
        report_path.write_bytes(b"old report\n")
    argv = ("verify", "--max-edges-orientable", "3", "--max-edges-full", "3", "--report", str(report_path))
    result = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, check=False)
    assert result.returncode == 2
    assert result.stderr == "error: cannot write output: [Errno 28] No space left on device\n"
    if existing:
        assert report_path.read_bytes() == b"old report\n"
    else:
        assert not report_path.exists()


@pytest.mark.parametrize("stdout", ["captured", "stringio"])
def test_output_error_without_a_stdout_descriptor_exits_two(capsys, monkeypatch, stdout) -> None:
    # in-process, sys.stdout has no file descriptor to redirect
    def stopped():
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "suite_integrality", stopped)
    if stdout == "stringio":
        monkeypatch.setattr(sys, "stdout", io.StringIO())
    code, _, err = _run(capsys, "verify", "--max-edges-orientable", "3", "--max-edges-full", "3")
    assert code == 2
    assert err == "error: cannot write output: [Errno 28] No space left on device\n"


def test_verify_rejects_uncalibratable_limits(capsys) -> None:
    assert _run(capsys, "verify", "--max-edges-full", "2")[0] == 2


@pytest.mark.parametrize("flag, value", [("--max-edges-full", "13"), ("--max-edges-orientable", "16")])
def test_verify_rejects_limits_past_the_cap(capsys, flag, value) -> None:
    code, out, err = _run(capsys, "verify", flag, value)
    assert (code, out) == (2, "")
    assert err == "error: the oracle caps --max-edges-orientable at 15 and --max-edges-full at 12\n"


@pytest.mark.parametrize("max_o, max_f", [(15, 12), (9, 8)])
def test_verify_accepts_limits_up_to_the_cap(capsys, monkeypatch, max_o, max_f) -> None:
    limits = []
    monkeypatch.setattr(cli, "suite_oracle_equivalence", lambda o, f: limits.append((o, f)) or [])
    for name in ("suite_integrality", "suite_specialization", "suite_tables"):
        monkeypatch.setattr(cli, name, lambda: [])
    code, _, _ = _run(capsys, "verify", "--max-edges-orientable", str(max_o), "--max-edges-full", str(max_f))
    assert code == 0
    assert limits == [(max_o, max_f)]
