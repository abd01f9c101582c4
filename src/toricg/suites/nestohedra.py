"""The ``nestohedra`` suite: the named chordal building sets, their
B-permutations, the h/gamma/toric g pipeline, and every direct route (the
B-permutation walk, the parking functions and trees, and the transfer)
against the gamma route."""

from __future__ import annotations

import itertools
from collections import Counter

from .. import nestohedra, parking, perms, polyvec, transfer
from ..polyvec import IntPoly
from . import _expect

# the named chordal building sets without a parameter
_KINDS = ("permutahedron", "stanley_pitman", "associahedron_intervals")


def _is_312_avoiding(p) -> bool:
    n = len(p)
    return not any(
        p[j] < p[k] < p[i]
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
    )


def _is_unimodal(p) -> bool:
    top = p.index(max(p))
    return all(p[i] < p[i + 1] for i in range(top)) and all(
        p[i] > p[i + 1] for i in range(top, len(p) - 1)
    )


def _named_sets(n: int):
    """(label, building set) for each named chordal set on [n+1]: the
    three of _KINDS, then the interpolation family for every r."""
    for kind in _KINDS:
        yield kind, nestohedra.named_family(kind, n)
    for r in range(1, n + 1):
        yield f"interpolation[{r}]", nestohedra.named_family("interpolation", n, r)


def _families_valid(b: int) -> None:
    for n in range(1, b + 1):
        for _, bs in _named_sets(n):
            report = nestohedra.validate(bs)
            _expect(report.connected and report.chordal)
        _expect(
            nestohedra.named_family("interpolation", n, 1)
            == nestohedra.named_family("permutahedron", n)
        )


def _b_perm_shapes(b: int) -> None:
    for n in range(1, b + 1):
        m = n + 1
        everyone = list(itertools.permutations(range(1, m + 1)))
        listed = nestohedra.b_permutations(nestohedra.named_family("permutahedron", n), unsafe=True)
        _expect(listed == everyone)
        interval = nestohedra.b_permutations(
            nestohedra.named_family("associahedron_intervals", n), unsafe=True
        )
        _expect(interval == [p for p in everyone if _is_312_avoiding(p)], n)
        sp = nestohedra.b_permutations(nestohedra.named_family("stanley_pitman", n), unsafe=True)
        _expect(sp == [p for p in everyone if _is_unimodal(p)], n)


def _pipeline(b: int) -> None:
    for n in range(1, b + 1):
        for label, bs in _named_sets(n):
            h = nestohedra.h_chordal(bs, unsafe=True)
            _expect(polyvec.is_palindromic(h), (label, n))
            walk = nestohedra.right_adjusted_b_permutations(bs, unsafe=True)
            gamma = nestohedra.gamma_chordal(bs, unsafe=True)
            _expect(IntPoly.from_counts(Counter(map(perms.des, walk))) == IntPoly(gamma), (label, n))
            toric_g = nestohedra.toric_g_chordal(bs, unsafe=True)
            _expect(toric_g == polyvec.toric_g_from_h(n, h), (label, n))
        _expect(nestohedra.toric_g_chordal(
            nestohedra.named_family("stanley_pitman", n), unsafe=True
        ) == polyvec.g_contrib(n, 0), n)
        _expect(nestohedra.gamma_chordal(
            nestohedra.named_family("associahedron_intervals", n), unsafe=True
        ) == polyvec.gamma_family("associahedron", n), n)
        _expect(nestohedra.gamma_chordal(
            nestohedra.named_family("permutahedron", n), unsafe=True
        ) == polyvec.gamma_family("permutahedron", n), n)


def _gamma_trees(b: int) -> None:
    for n in range(1, b + 1):
        # each tree's right-adjusted in-order, read once for every kind
        trees = [(perms.plane_to_fs(tree).perm, forks)
                 for tree, forks in perms.enumerate_increasing_012(n + 1)]
        for kind in _KINDS:
            bs = nestohedra.named_family(kind, n)
            allowed = set(nestohedra.right_adjusted_b_permutations(bs, unsafe=True))
            hist = Counter(forks for perm, forks in trees if perm in allowed)
            gamma = nestohedra.gamma_chordal(bs, unsafe=True)
            _expect(tuple(hist.get(j, 0) for j in range(n // 2 + 1)) == gamma, (kind, n))


def _direct_routes(b: int) -> None:
    for n in range(1, b + 1):
        for kind in _KINDS:
            bs = nestohedra.named_family(kind, n)
            direct = nestohedra.toric_g_direct(bs, unsafe=True)
            _expect(direct == nestohedra.toric_g_chordal(bs, unsafe=True), (kind, n))


def _dfs_specialization(b: int) -> None:
    for n in range(1, b + 1):
        bs = nestohedra.named_family("permutahedron", n)
        expected = polyvec.toric_g_from_gamma(n, polyvec.gamma_family("associahedron", n))
        _expect(nestohedra.toric_g_direct(bs, dfs_only=True, unsafe=True) == expected, n)


def _against_gamma_and_transfer(family: str, got: IntPoly, n: int) -> None:
    """An enumerated direct row equals the gamma route and the transfer."""
    expected = polyvec.toric_g_from_gamma(n, polyvec.gamma_family(family, n))
    _expect(got == expected, n)
    _expect(transfer.family_row(family, n) == got, ("transfer", n))


def _assoc_parking(b: int) -> None:
    for n in range(1, b + 1):
        functions = parking.iter_123_avoiding_functions(n, parking_only=True)
        _against_gamma_and_transfer("associahedron", parking.ascent_polynomial(functions), n)


def _perm_parking_trees(b: int) -> None:
    for n in range(1, b + 1):
        trees = parking.enumerate_123_parking_trees(n, unsafe=True)
        got = parking.ascent_polynomial(map(parking.tree_to_function, trees))
        _against_gamma_and_transfer("permutahedron", got, n)


def _cyclohedron_functions(b: int) -> None:
    for n in range(1, b + 1):
        functions = parking.iter_123_avoiding_functions(n)
        _against_gamma_and_transfer("cyclohedron", parking.ascent_polynomial(functions), n)


CHECKS = (
    ("named_families_validate", 6, _families_valid),
    ("b_permutation_characterizations", 6, _b_perm_shapes),
    ("h_gamma_pipeline", 6, _pipeline),
    ("gamma_by_tree_forks", 6, _gamma_trees),
    ("direct_route_agreement", 5, _direct_routes),
    ("dfs_tree_specialization", 6, _dfs_specialization),
    ("associahedron_parking_functions", 6, _assoc_parking),
    ("permutahedron_parking_trees", 5, _perm_parking_trees),
    ("cyclohedron_functions", 6, _cyclohedron_functions),
)
