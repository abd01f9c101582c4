"""The ``conjectures`` suite (informational): real-rootedness of g_contrib
and of the family rows, and the Kruskal-Katona test of the rows.  It
reports the outcomes and never fails."""

from __future__ import annotations

from .. import polyvec


def _toric_g_rows(families, b: int):
    return [
        (n, polyvec.toric_g_from_gamma(n, polyvec.gamma_family(family, n)))
        for family in families
        for n in range(1, b + 1)
    ]


def _real_rooted(polys) -> dict:
    outcomes = [polyvec.sturm_real_rooted(p) for p in polys]
    return {"all_real_rooted": all(outcomes), "cases": len(outcomes)}


def _kruskal_katona(b: int) -> dict:
    outcomes = [
        polyvec.kruskal_katona_ok([g.coeff(k) for k in range(n // 2 + 1)])
        for n, g in _toric_g_rows(polyvec._FAMILIES[1:], b)
    ]
    return {"all_pass": all(outcomes), "cases": len(outcomes)}


CHECKS = (
    ("g_contrib_real_rooted", 12, lambda b: _real_rooted(
        polyvec.g_contrib(n, j) for n in range(1, b + 1) for j in range(n // 2 + 1)
    )),
    ("toric_g_real_rooted", 8, lambda b: _real_rooted(
        g for _, g in _toric_g_rows(polyvec._FAMILIES, b)
    )),
    ("table_vectors_kruskal_katona", 8, _kruskal_katona),
)
