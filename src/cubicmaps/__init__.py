"""Exact enumeration of 3-regular one-face maps on surfaces.

Closed-form census counts (rooted, sensed, unsensed) for orientable and
non-orientable carriers, the quotient-orbifold machinery behind them, and a
brute-force polygon-gluing oracle that verifies everything at small size.
"""

from .census import (
    CensusRow,
    nonorientable_census_row,
    orientable_census_row,
    sensed_cubic_orientable,
    unsensed_cubic_nonorientable,
    unsensed_cubic_orientable,
)
from .oracle import (
    DEFAULT_MAX_EDGES_FULL,
    DEFAULT_MAX_EDGES_ORIENTABLE,
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
from .orbifolds import (
    SignatureSolution,
    epsilon_h2_nonorientable,
    epsilon_h2_orientable,
    epsilon_hl,
    solve_closed_orbifolds,
)
from .rooted_counts import (
    c_coefficient,
    precubic_nonorientable_by_genus_pair,
    precubic_nonorientable_by_leaves,
    precubic_orientable,
    rooted_cubic_nonorientable,
    rooted_cubic_orientable,
)

__version__ = "0.1.0"

__all__ = [
    "CensusRow",
    "DEFAULT_MAX_EDGES_FULL",
    "DEFAULT_MAX_EDGES_ORIENTABLE",
    "EnumerationLimitError",
    "MapInvariants",
    "PolygonGluing",
    "SignatureSolution",
    "SurfaceClass",
    "c_coefficient",
    "classify",
    "count_precubic",
    "count_rooted",
    "count_sensed_orientable",
    "count_unsensed",
    "epsilon_h2_nonorientable",
    "epsilon_h2_orientable",
    "epsilon_hl",
    "nonorientable_census_row",
    "orientable_census_row",
    "precubic_nonorientable_by_genus_pair",
    "precubic_nonorientable_by_leaves",
    "precubic_orientable",
    "rooted_cubic_nonorientable",
    "rooted_cubic_orientable",
    "sensed_cubic_orientable",
    "solve_closed_orbifolds",
    "unsensed_cubic_nonorientable",
    "unsensed_cubic_orientable",
]
