"""The ``compat`` suite: the (A,B)-compatible words, their compression, and
the statistics of the noncrossing partitions that count g_contrib."""

from __future__ import annotations

from collections import Counter
from math import comb

from .. import compat, parking, perms, polyvec, transfer, words
from ..polyvec import IntPoly
from . import _expect


def _count_dyck(b: int) -> None:
    for n in range(1, b + 1):
        for (A, B), got in compat.compatible_counts(n, "dyck").items():
            _expect(got == words.catalan(n - len(A) - len(B)), (n, A, B, got))


def _count_balanced(b: int) -> None:
    for n in range(1, b + 1):
        for (A, B), got in compat.compatible_counts(n, "balanced").items():
            k = n - len(A) - len(B)
            _expect(got == comb(2 * k, k), (n, A, B, got))


def _compress_roundtrips(b: int) -> None:
    for n in range(1, b + 1):
        masked = [(w, *compat.factor_masks(w)) for w in words.enumerate_words(n, "dyck")]
        for A, B in compat.sparse_pairs(n):
            k = n - len(A) - len(B)
            a_mask, b_mask = words.set_mask(A), words.set_mask(B)
            images = set()
            for w, alpha, beta in masked:
                if alpha & a_mask == a_mask and beta & b_mask == b_mask:
                    small = compat.compress(w, A, B)
                    _expect(compat.expand(small, n, A, B) == w, (w, A, B))
                    images.add(small)
            _expect(images == set(words.enumerate_words(k, "dyck")), (n, A, B))


def _cube_statistics(b: int) -> None:
    for n in range(b + 1):
        g0 = polyvec.g_contrib(n, 0)
        nonsing: Counter[int] = Counter()
        fill: Counter[int] = Counter()
        for w in words.enumerate_words(n, "dyck"):
            nc = compat.dyck_to_nc(w)
            blocks = nc.nonsingleton_blocks()
            fl = compat.fillers(nc)
            _expect(len(blocks) == words.factor_count(w, "UUD"))
            _expect(len(fl) == words.factor_count(w, "UDD"))
            _expect(words.is_sparse(fl))
            nonsing[len(blocks)] += 1
            fill[len(fl)] += 1
        by_asc = parking.ascent_polynomial(perms.enumerate_123_avoiding(n))
        _expect(by_asc == g0, ("ascents", n))
        _expect(transfer.family_row("cube", n) == by_asc, ("transfer", n))
        _expect(IntPoly.from_counts(nonsing) == g0, ("nonsingleton", n))
        _expect(IntPoly.from_counts(fill) == g0, ("fillers", n))
        faces = IntPoly(compat.nc_complex_faces(n, k) for k in range(g0.degree + 1))
        _expect(faces == g0, ("faces", n))


def _fillers_extension(b: int) -> None:
    for n in range(1, b + 1):
        partitions = list(compat.enumerate_nc(n))
        for J in words.sparse_subsets(n):
            if any(x < 2 for x in J):
                continue
            hist = Counter(
                len(p.nonsingleton_blocks())
                for p in partitions
                if set(J) <= set(compat.fillers(p))
            )
            _expect(IntPoly.from_counts(hist) == polyvec.g_contrib(n, len(J)), (n, J))


def _g_vs_compatible(b: int) -> None:
    for n in range(1, b + 1):
        scanned = [
            (compat.factor_masks(w)[1], words.factor_count(w, "UUD"))
            for w in words.enumerate_words(n, "dyck")
        ]
        for B in words.sparse_subsets(n - 1):
            b_mask = words.set_mask(B)
            hist = Counter(uud for beta, uud in scanned if beta & b_mask == b_mask)
            _expect(IntPoly.from_counts(hist) == polyvec.g_contrib(n, len(B)), (n, B))


CHECKS = (
    ("count_compatible_dyck", 7, _count_dyck),
    ("count_compatible_balanced", 6, _count_balanced),
    ("compress_expand_roundtrip", 7, _compress_roundtrips),
    ("cube_statistics", 8, _cube_statistics),
    ("fillers_extension", 7, _fillers_extension),
    ("g_contrib_vs_compatible", 7, _g_vs_compatible),
)
