"""toricg: exact toric g-vectors of simple polytopes from their
gamma-vectors, together with the lattice-path, permutation, parking-tree
and building-set combinatorics that certify every entry by independent
enumeration at desk scale.
"""

import importlib

from .errors import (
    BuildingSetError,
    CapacityError,
    ChordalityError,
    PreconditionError,
    SeriesIdentityError,
    StructuralError,
    ToricgError,
)
# The closed forms and the oracles load on first use (PEP 562), so that
# ``import toricg.cli`` compiles only what a command runs.
_HOMES = {
    "polyvec": (
        "IntPoly",
        "cnix",
        "f_to_h",
        "g_contrib",
        "gamma_family",
        "gamma_to_h",
        "h_to_f",
        "h_to_gamma",
        "kruskal_katona_ok",
        "narayana",
        "peak_poly",
        "sturm_real_rooted",
        "toric_g_from_gamma",
        "toric_g_from_h",
    ),
    "series": ("TruncSeries", "verify_series"),
    "ints": ("catalan",),
    "words": ("catalan_triangle", "enumerate_words", "factor_count", "motzkin"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__version__ = "0.1.0"

# Each public name is written once: the error classes in the import above,
# the rest in _HOMES.
__all__ = sorted([name for name in dir() if name.endswith("Error")] + list(_HOME))


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
