"""Cross-check the closed-form counts against brute-force polygon gluing.

The oracle builds every way to glue the sides of a 2n-gon in pairs (with an
orientation-reversing twist allowed on each pair), classifies the resulting
surface, and counts symmetry classes by Burnside averaging over the polygon's
rotations and reflections. It shares no code path with the formulas, so
agreement at small n is strong evidence for both.
"""

from __future__ import annotations

from cubicmaps import (
    DEFAULT_MAX_EDGES_FULL,
    DEFAULT_MAX_EDGES_ORIENTABLE,
    PolygonGluing,
    classify,
)
from cubicmaps.cli import suite_oracle_equivalence


def _show_single_gluing() -> None:
    # The hexagon with opposite sides identified, no twists: the cubic torus
    # map with two vertices, three edges, one face.
    gluing = PolygonGluing(3, ((0, 3), (1, 4), (2, 5)), (False, False, False))
    inv = classify(gluing)
    print("Hexagon, opposite sides glued untwisted:")
    print(f"  orientable = {inv.orientable}, genus = {inv.genus}")
    print(f"  vertex degrees = {inv.degrees}, Euler characteristic = {inv.euler_characteristic()}")
    print()


def main() -> int:
    _show_single_gluing()
    max_o, max_f = DEFAULT_MAX_EDGES_ORIENTABLE, DEFAULT_MAX_EDGES_FULL
    print(f"Oracle vs closed forms (orientable n <= {max_o}, non-orientable n <= {max_f}):")
    checks = suite_oracle_equivalence(max_o, max_f)
    for check in checks:
        if check.passed:
            print(f"  {check.label}: {check.got} MATCH")
        else:
            print(f"  {check.label}: oracle {check.got}, formula {check.want} MISMATCH")
    print()
    if not all(check.passed for check in checks):
        print("Some oracle counts differ from the closed forms.")
        return 1
    print("All oracle counts match the closed forms.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
