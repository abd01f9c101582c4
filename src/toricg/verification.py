"""Named verification suites behind ``toricg verify``.

Each suite is a table of (name, cap, check) rows: check(bound) runs an
exhaustive check up to ``bound`` = min(n_max, cap), raising on a mismatch
(through ``_expect``, never a bare assert, so ``python -O`` cannot pass a
check vacuously) and optionally returning a detail for the report.  The
effective bound appears in the JSON-ready report (pass ``unsafe=True`` /
``--unsafe-max`` to lift the caps).  The ``conjectures`` suite is informational: it reports
outcomes and never fails.

Checks that ask one question of many parameters walk their objects once
per size and keep only the state the statistic needs: the compatible-word
checks scan each word's factor masks once and answer every sparse pair
from them (``compat.compatible_counts``), the peak oracle tallies the UD
factors of every prefix length in one sweep (``peak_poly_oracles``), and
the permutations with no double descent and no final descent, with or
without a building set, come from one walk that builds exactly them
(``nestohedra.right_adjusted_b_permutations``), not from a filter over all
of them.
The parking trees behind the permutahedron theorem come from a walk that
prunes on 123-containment as it labels the edges
(``parking.enumerate_123_parking_trees``), not from the (n!)^2 listing.
Each direct row that a check enumerates (the cube, associahedron,
cyclohedron and permutahedron ones) is also compared with the transfer
walk (``transfer.family_row``), which counts it without listing an object.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from math import comb

from . import compat, nestohedra, parking, perms, polyvec, series, transfer, words
from .errors import ToricgError, require_size
from .polyvec import IntPoly

_FAMILIES = polyvec._FAMILIES
# the named chordal building sets without a parameter
_KINDS = ("permutahedron", "stanley_pitman", "associahedron_intervals")


class _Mismatch(ToricgError):
    """A verification check met a counterexample."""


def _expect(cond, detail="") -> None:
    """Raise _Mismatch(detail) unless cond holds; unlike a bare assert this
    still runs under python -O."""
    if not cond:
        raise _Mismatch(detail)


def _run(suite: str, table, n_max: int, unsafe: bool) -> dict:
    """Run every row of ``table`` at its bound and report.  A cap of None
    marks an uncapped check whose bound is the series order max(n_max, 1)."""
    require_size(f"suite_{suite}", n_max, name="n_max")
    checks = []
    for name, cap, check in table:
        if cap is None:
            bound = max(n_max, 1)
        else:
            bound = n_max if unsafe else min(n_max, cap)
        out = {"name": name, "bound": bound, "ok": True}
        try:
            detail = check(bound)
        except ToricgError as exc:
            out.update(ok=False, detail=str(exc))
        else:
            if detail is not None:
                out["detail"] = detail
        checks.append(out)
    return {
        "suite": suite,
        "n_max": n_max,
        "ok": all(c["ok"] for c in checks),
        "checks": checks,
    }


# ---------------------------------------------------------------------------
# bijections
# ---------------------------------------------------------------------------


def _krattenthaler(b: int) -> None:
    for n in range(b + 1):
        for p in perms.enumerate_123_avoiding(n):
            w = perms.krattenthaler(p)
            _expect(perms.krattenthaler_inv(w) == p, (p, w))
            _expect(perms.asc(perms.inverse(p)) == words.factor_count(w, "UUD"))
            _expect(perms.asc(p) == words.factor_count(w, "UDD"))


def _fs_roundtrip(b: int) -> None:
    for n in range(1, b + 1):
        for p in itertools.permutations(range(1, n + 1)):
            _expect(perms.fs_inorder(perms.fs_tree(p)) == p)


def _lukasiewicz(b: int) -> None:
    for n in range(b + 1):
        for w in words.enumerate_words(n, "dyck"):
            lw = words.dyck_to_lukasiewicz(w)
            _expect(words.is_lukasiewicz(lw))
            _expect(words.lukasiewicz_to_dyck(lw) == w)


def _motzkin(b: int) -> None:
    for n in range(b + 1):
        for w in words.enumerate_words(n, "dyck"):
            if words.factor_count(w, "UUU"):
                continue
            mw = words.dyck_to_motzkin(w)
            _expect(words.is_motzkin(mw))
            _expect(words.motzkin_to_dyck(mw) == w)
            _expect(words.factor_count(w, "UU") == mw.count("U"))


def _garsia_haiman(b: int) -> None:
    for n in range(1, b + 1):
        for f in parking.iter_functions(n):
            pair = parking.garsia_haiman(f)
            _expect(parking.garsia_haiman_inv(*pair) == f)
            _expect(parking.is_parking(f) == words.is_dyck(pair.word))
            _expect(perms.is_123_avoiding(f) == perms.is_123_avoiding(pair.perm))


def _search_order(t: parking.ParkingTree, bfs: bool) -> list[int]:
    """The vertex labels of t in breadth-first or depth-first order, each
    vertex's children (``child`` of its edges) in edge-label order."""
    kids: list[list[int]] = [[] for _ in range(t.n + 2)]
    for v, c in zip(t.parent, t.child):
        kids[v].append(c)
    order, pending = [], deque([1])
    while pending:
        v = pending.popleft() if bfs else pending.pop()
        order.append(v)
        pending.extend(kids[v] if bfs else reversed(kids[v]))
    return order


def _search_trees(b: int) -> None:
    for n in range(1, b + 1):
        labels = list(range(1, n + 2))
        for f in parking.iter_parking_functions(n):
            for build, bfs in ((parking.dfs_tree, False), (parking.bfs_tree, True)):
                t = build(f)
                _expect(parking.ParkingTree(t.parent, t.child) == t)
                _expect(_search_order(t, bfs) == labels, (f, bfs))


def _nc_roundtrip(b: int) -> None:
    for n in range(b + 1):
        for w in words.enumerate_words(n, "dyck"):
            _expect(compat.nc_to_dyck(compat.dyck_to_nc(w)) == w)


_BIJECTIONS = (
    ("krattenthaler_roundtrip", 8, _krattenthaler),
    ("fs_tree_roundtrip", 8, _fs_roundtrip),
    ("lukasiewicz_roundtrip", 8, _lukasiewicz),
    ("motzkin_roundtrip", 8, _motzkin),
    ("garsia_haiman_roundtrip", 6, _garsia_haiman),
    ("search_tree_roundtrip", 6, _search_trees),
    ("noncrossing_roundtrip", 8, _nc_roundtrip),
)


def suite_bijections(n_max: int, unsafe: bool = False) -> dict:
    return _run("bijections", _BIJECTIONS, n_max, unsafe)


# ---------------------------------------------------------------------------
# compat
# ---------------------------------------------------------------------------


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


_COMPAT = (
    ("count_compatible_dyck", 7, _count_dyck),
    ("count_compatible_balanced", 6, _count_balanced),
    ("compress_expand_roundtrip", 7, _compress_roundtrips),
    ("cube_statistics", 8, _cube_statistics),
    ("fillers_extension", 7, _fillers_extension),
    ("g_contrib_vs_compatible", 7, _g_vs_compatible),
)


def suite_compat(n_max: int, unsafe: bool = False) -> dict:
    return _run("compat", _COMPAT, n_max, unsafe)


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def peak_poly_oracles(n: int) -> list[IntPoly]:
    """Brute-force peak weights of every prefix length: entry m sums, over
    the Dyck words of semilength n, x to the number of UD factors inside
    the length-m prefix (m = 0..2n).

    One sweep over the words serves every m.  A word whose i-th UD factor
    (from 0) ends at e_i has i factors in the prefixes of length e_{i-1}
    (e_{-1} = 0) up to e_i - 1, so it adds one range per factor to a
    difference row over m.
    """
    require_size("peak_poly_oracles", n)
    length = 2 * n
    diff = [[0] * (length + 2) for _ in range(n + 1)]  # diff[i][m]: by factor count i
    for w in words.enumerate_words(n, "dyck"):
        i = start = 0
        p = w.find("UD")
        while p >= 0:
            diff[i][start] += 1
            diff[i][p + 2] -= 1
            i, start = i + 1, p + 2
            p = w.find("UD", start)
        diff[i][start] += 1
        diff[i][length + 1] -= 1
    rows = [list(itertools.accumulate(row)) for row in diff]
    return [IntPoly([row[m] for row in rows]) for m in range(length + 1)]


def _series_identities(order: int) -> dict:
    return {c["name"]: c["cases"] for c in series.verify_series(order)["checks"]}


def _peak_vs_oracle(b: int) -> None:
    for n in range(b + 1):
        for m, oracle in enumerate(peak_poly_oracles(n)):
            _expect(polyvec.peak_poly(n, m) == oracle, (n, m))


def _g_equals_peak(b: int) -> None:
    for n in range(b + 1):
        for j in range(n // 2 + 1):
            _expect(polyvec.peak_poly(n - j, n) == polyvec.g_contrib(n, j), (n, j))


_SERIES = (
    ("series_identities", None, _series_identities),
    ("peak_poly_oracle", 8, _peak_vs_oracle),
    ("g_contrib_equals_peak_poly", 10, _g_equals_peak),
)


def suite_series(n_max: int, unsafe: bool = False) -> dict:
    return _run("series", _SERIES, n_max, unsafe)


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------


def eulerian_hvec(n: int) -> tuple[int, ...]:
    """Descent histogram of all permutations of [n+1], by enumeration:
    :func:`toricg.perms.des` of each."""
    require_size("eulerian_hvec", n)
    hist = Counter(map(perms.des, itertools.permutations(range(n + 1))))
    return tuple(hist.get(i, 0) for i in range(n + 1))


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
    oracles = [peak_poly_oracles(k) for k in range(b + 1)]
    for n in range(b + 1):
        for j in range(n // 2 + 1):
            _expect(oracles[n - j][n] == polyvec.g_contrib(n, j), (n, j))


def _permutahedron_gamma(b: int) -> None:
    for n in range(1, b + 1):
        h = eulerian_hvec(n)
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
    for family in _FAMILIES:
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


_GAMMA = (
    ("uuu_avoiding_by_uu_factors", 8, _lemma_dyck),
    ("balanced_by_uu_factors", 7, _lemma_balanced),
    ("cnix_path_oracle", 10, _cnix_oracle),
    ("g_contrib_peak_oracle", 9, _g_peaks),
    ("permutahedron_gamma_vs_eulerian", 8, _permutahedron_gamma),
    ("increasing_012_fork_counts", 7, _tree_gamma),
    ("h_difference_identity", 8, _h_diff),
    ("g_n0_normalization", 12, _normalization),
)


def suite_gamma(n_max: int, unsafe: bool = False) -> dict:
    return _run("gamma", _GAMMA, n_max, unsafe)


# ---------------------------------------------------------------------------
# nestohedra
# ---------------------------------------------------------------------------


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


_NESTOHEDRA = (
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


def suite_nestohedra(n_max: int, unsafe: bool = False) -> dict:
    return _run("nestohedra", _NESTOHEDRA, n_max, unsafe)


# ---------------------------------------------------------------------------
# conjectures (informational)
# ---------------------------------------------------------------------------


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
        for n, g in _toric_g_rows(_FAMILIES[1:], b)
    ]
    return {"all_pass": all(outcomes), "cases": len(outcomes)}


_CONJECTURES = (
    ("g_contrib_real_rooted", 12, lambda b: _real_rooted(
        polyvec.g_contrib(n, j) for n in range(1, b + 1) for j in range(n // 2 + 1)
    )),
    ("toric_g_real_rooted", 8, lambda b: _real_rooted(g for _, g in _toric_g_rows(_FAMILIES, b))),
    ("table_vectors_kruskal_katona", 8, _kruskal_katona),
)


def suite_conjectures(n_max: int, unsafe: bool = False) -> dict:
    return _run("conjectures", _CONJECTURES, n_max, unsafe)


SUITES = {
    "bijections": suite_bijections,
    "compat": suite_compat,
    "series": suite_series,
    "gamma": suite_gamma,
    "nestohedra": suite_nestohedra,
    "conjectures": suite_conjectures,
}
