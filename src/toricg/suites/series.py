"""The ``series`` suite: the generating-function identities, and peak_poly
against its Dyck-word oracle and against g_contrib."""

from __future__ import annotations

from .. import polyvec, series, words
from . import _expect


def _series_identities(order: int) -> dict:
    return {c["name"]: c["cases"] for c in series.verify_series(order)["checks"]}


def _peak_vs_oracle(b: int) -> None:
    for n in range(b + 1):
        for m, oracle in enumerate(words.peak_poly_oracles(n)):
            _expect(polyvec.peak_poly(n, m) == oracle, (n, m))


def _g_equals_peak(b: int) -> None:
    for n in range(b + 1):
        for j in range(n // 2 + 1):
            _expect(polyvec.peak_poly(n - j, n) == polyvec.g_contrib(n, j), (n, j))


CHECKS = (
    ("series_identities", None, _series_identities),
    ("peak_poly_oracle", 8, _peak_vs_oracle),
    ("g_contrib_equals_peak_poly", 10, _g_equals_peak),
)
