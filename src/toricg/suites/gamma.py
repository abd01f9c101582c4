"""The ``gamma`` suite: the lattice-path lemmas behind the gamma route, the
permutahedron's gamma-vector by descents and by increasing 0-1-2 trees,
and the h-vector identities of the four families."""

from __future__ import annotations

from collections import Counter
from math import comb

from .. import nestohedra, perms, polyvec, words
from ..polyvec import IntPoly
from . import _expect


def _lemma_dyck(b: int) -> None:
    for n in range(b + 1):
        hist: Counter[int] = Counter()
        for w in words.enumerate_words(n, "dyck"):
            if not words.factor_count(w, "UUU"):
                hist[words.factor_count(w, "UU")] += 1
        for j in range(n // 2 + 2):
            _expect(hist.get(j, 0) == comb(n, 2 * j) * words.catalan(j), (n, j))
        _expect(sum(hist.values()) == words.motzkin(n))


def _lemma_balanced(b: int) -> None:
    for n in range(1, b + 1):
        hist: Counter[int] = Counter()
        for w in words.enumerate_words(n, "balanced"):
            if w.endswith("D") and not words.factor_count(w, "UUU"):
                hist[words.factor_count(w, "UU")] += 1
        for j in range(n // 2 + 2):
            _expect(hist.get(j, 0) == comb(n, 2 * j) * comb(2 * j, j), (n, j))


def _cnix_oracle(b: int) -> None:
    for n in range(1, b + 1):
        for i in range(n // 2 + 1):
            hist = Counter(
                words.factor_count(w, "UD")
                for w in words.enumerate_words(n, "nonneg_to_height", height=n - 2 * i)
            )
            _expect(IntPoly.from_counts(hist) == polyvec.cnix(n, i), (n, i))
            _expect(sum(hist.values()) == words.catalan_triangle(n, i))


def _g_peaks(b: int) -> None:
    oracles = [words.peak_poly_oracles(k) for k in range(b + 1)]
    for n in range(b + 1):
        for j in range(n // 2 + 1):
            _expect(oracles[n - j][n] == polyvec.g_contrib(n, j), (n, j))


def _permutahedron_gamma(b: int) -> None:
    for n in range(1, b + 1):
        h = perms.eulerian_hvec(n)
        _expect(polyvec.gamma_to_h(polyvec.gamma_family("permutahedron", n), n) == h, n)
        _expect(polyvec.h_to_gamma(h) == polyvec.gamma_family("permutahedron", n), n)


def _tree_gamma(b: int) -> None:
    for n in range(1, b + 1):
        hist: Counter[int] = Counter()
        for _, forks in perms.enumerate_increasing_012(n + 1):
            hist[forks] += 1
        gamma = polyvec.gamma_family("permutahedron", n)
        _expect(tuple(hist.get(j, 0) for j in range(n // 2 + 1)) == gamma, n)
        everyone = nestohedra.named_family("permutahedron", n)
        walk = nestohedra.right_adjusted_b_permutations(everyone, unsafe=True)
        _expect(Counter(map(perms.des, walk)) == hist, n)


def _h_diff(b: int) -> None:
    for family in polyvec._FAMILIES:
        for n in range(1, b + 1):
            gamma = polyvec.gamma_family(family, n)
            h = polyvec.gamma_to_h(gamma, n)
            for i in range(1, n // 2 + 1):
                expected = sum(
                    words.catalan_triangle(n - 2 * j, i - j) * gamma[j]
                    for j in range(i + 1)
                    if j < len(gamma)
                )
                _expect(h[i] - h[i - 1] == expected, (family, n, i))


def _normalization(b: int) -> None:
    for n in range(b + 1):
        g0 = polyvec.g_contrib(n, 0)
        _expect(g0(1) == words.catalan(n), n)
        _expect(g0(0) == 1, n)


CHECKS = (
    ("uuu_avoiding_by_uu_factors", 8, _lemma_dyck),
    ("balanced_by_uu_factors", 7, _lemma_balanced),
    ("cnix_path_oracle", 10, _cnix_oracle),
    ("g_contrib_peak_oracle", 9, _g_peaks),
    ("permutahedron_gamma_vs_eulerian", 8, _permutahedron_gamma),
    ("increasing_012_fork_counts", 7, _tree_gamma),
    ("h_difference_identity", 8, _h_diff),
    ("g_n0_normalization", 12, _normalization),
)
