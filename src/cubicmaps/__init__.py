"""Exact enumeration of 3-regular one-face maps on surfaces.

Closed-form census counts (rooted, sensed, unsensed) for orientable and
non-orientable carriers, the quotient-orbifold machinery behind them, and a
brute-force polygon-gluing oracle that verifies everything at small size.

`import cubicmaps` imports no submodule: each exported name imports its
module when it is first read (PEP 562), so a command-line run that counts
never loads the oracle.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "census": (
        "CensusRow",
        "nonorientable_census_row",
        "orientable_census_row",
        "sensed_cubic_orientable",
        "unsensed_cubic_nonorientable",
        "unsensed_cubic_orientable",
    ),
    "oracle": (
        "DEFAULT_MAX_EDGES_FULL",
        "DEFAULT_MAX_EDGES_ORIENTABLE",
        "EnumerationLimitError",
        "MapInvariants",
        "PolygonGluing",
        "SurfaceClass",
        "classify",
        "count_precubic",
        "count_rooted",
        "count_sensed_orientable",
        "count_unsensed",
    ),
    "orbifolds": (
        "SignatureSolution",
        "epsilon_h2_nonorientable",
        "epsilon_h2_orientable",
        "epsilon_hl",
        "solve_closed_orbifolds",
    ),
    "rooted_counts": (
        "c_coefficient",
        "precubic_nonorientable_by_genus_pair",
        "precubic_nonorientable_by_leaves",
        "precubic_orientable",
        "rooted_cubic_nonorientable",
        "rooted_cubic_orientable",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
