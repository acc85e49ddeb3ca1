"""Write digests.json: the SHA-256 of every census count the benchmark checks.

Run from the repository root (takes about a minute):

    python3 perfbench/make_digests.py

Covers every (surface, kind, genus) of the census-sweep tables and the
census-deep bands, computed with the library. Counts past Python's default
4300-digit int-to-str limit are included: this script lifts the limit for
itself only. Each entry also records the count's decimal length.
"""

from __future__ import annotations

import json
import os
import sys

sys.path[:0] = [os.path.dirname(os.path.abspath(__file__)), "src"]

from cubicmaps import census, rooted_counts  # noqa: E402
from run import DEEP_BANDS, DIGESTS_PATH, SWEEP_TOP_BAND, sha256_text  # noqa: E402

COUNTS = {
    ("orientable", "rooted"): rooted_counts.rooted_cubic_orientable,
    ("orientable", "sensed"): census.sensed_cubic_orientable,
    ("orientable", "unsensed"): census.unsensed_cubic_orientable,
    ("nonorientable", "rooted"): rooted_counts.rooted_cubic_nonorientable,
    ("nonorientable", "unsensed"): census.unsensed_cubic_nonorientable,
}


def main() -> int:
    sys.set_int_max_str_digits(0)
    wanted = []
    top = SWEEP_TOP_BAND[1]
    for kind in ("rooted", "sensed", "unsensed"):
        wanted += [("orientable", kind, g) for g in range(1, top + 1)]
    for kind in ("rooted", "unsensed"):
        wanted += [("nonorientable", kind, g) for g in range(2, top + 1)]
    for surface, kind, lo, _, hi in DEEP_BANDS:
        wanted += [(surface, kind, g) for g in range(lo, hi + 1)]
    counts = {}
    for surface, kind, genus in wanted:
        text = str(COUNTS[surface, kind](genus))
        counts[f"{surface}/{kind}/{genus}"] = [len(text), sha256_text(text)]
    lines = [f"{json.dumps(key)}: {json.dumps(counts[key])}" for key in sorted(counts)]
    with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
        handle.write('{"counts": {\n' + ",\n".join(lines) + "\n}}\n")
    print(f"wrote {len(counts)} digests to {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
