"""Acceptance suite: every criterion at its stated bound, exact integer
comparisons throughout.  Each test prints one pass/fail line (run with
``pytest -s tests/test_acceptance.py`` to see them).
"""

import math
import time
from collections import Counter

import pytest

from toricg import cli, compat, nestohedra, parking, perms, polyvec, series, words
from toricg.polyvec import IntPoly

TABLE_ASSOCIAHEDRON = {
    1: [1], 2: [1, 2], 3: [1, 10], 4: [1, 37, 10], 5: [1, 126, 105],
    6: [1, 422, 714, 70], 7: [1, 1422, 4032, 1176], 8: [1, 4853, 20628, 11928, 588],
}
TABLE_CYCLOHEDRON = {
    1: [1], 2: [1, 3], 3: [1, 16], 4: [1, 65, 20], 5: [1, 246, 225],
    6: [1, 917, 1659, 175], 7: [1, 3424, 10192, 3136], 8: [1, 12861, 56664, 34104, 1764],
}
TABLE_PERMUTAHEDRON = {
    1: [1], 2: [1, 3], 3: [1, 20], 4: [1, 115, 40], 5: [1, 714, 735],
    6: [1, 5033, 10101, 1225], 7: [1, 40312, 131068, 45304],
    8: [1, 362871, 1723716, 1143996, 67956],
}
TABLES = {
    "associahedron": TABLE_ASSOCIAHEDRON,
    "cyclohedron": TABLE_CYCLOHEDRON,
    "permutahedron": TABLE_PERMUTAHEDRON,
}


def _announce(number: int, label: str, ok: bool) -> None:
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok


def _expected_csv(table: dict) -> str:
    width = max(len(row) for row in table.values())
    lines = [",".join(["n"] + [f"g{k}" for k in range(width)])]
    for n in sorted(table):
        row = table[n]
        lines.append(",".join([str(n)] + [str(v) for v in row] + [""] * (width - len(row))))
    return "\n".join(lines) + "\n"


def test_criterion_1_table_reproduction(capsys):
    started = time.monotonic()
    ok = True
    for family, table in TABLES.items():
        code = cli.main(["table", "--family", family, "--max", "8"])
        out = capsys.readouterr().out
        ok = ok and code == 0 and out == _expected_csv(table)
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 5.0
    with capsys.disabled():
        _announce(1, f"table reproduction, {elapsed:.2f}s", ok)


def test_criterion_2_theorem_routes():
    started = time.monotonic()
    ok = True
    # associahedron: 123-avoiding parking functions by ascents, n <= 6
    for n in range(1, 7):
        got = parking.ascent_polynomial(
            parking.iter_123_avoiding_functions(n, parking_only=True)
        )
        ok = ok and got == IntPoly(TABLE_ASSOCIAHEDRON[n])
    # cyclohedron: all 123-avoiding functions, n <= 7 (7^7 candidates)
    for n in range(1, 8):
        got = parking.ascent_polynomial(parking.iter_123_avoiding_functions(n))
        ok = ok and got == IntPoly(TABLE_CYCLOHEDRON[n])
    # permutahedron: parking trees through the direct route, n <= 5
    for n in range(1, 6):
        got = nestohedra.toric_g_direct(nestohedra.named_family("permutahedron", n))
        ok = ok and got == IntPoly(TABLE_PERMUTAHEDRON[n])
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 60.0
    _announce(2, f"theorem-route agreement, {elapsed:.2f}s", ok)


def test_criterion_3_bijection_round_trips():
    ok = True
    for n in range(9):  # Krattenthaler, n <= 8
        for p in perms.enumerate_123_avoiding(n):
            ok = ok and perms.krattenthaler_inv(perms.krattenthaler(p)) == p
    for n in range(1, 7):  # Garsia-Haiman over all functions, n <= 6
        for f in parking.iter_functions(n):
            ok = ok and parking.garsia_haiman_inv(*parking.garsia_haiman(f)) == f
    for n in range(9):  # Dyck <-> Lukasiewicz, n <= 8
        for w in words.enumerate_words(n, "dyck"):
            ok = ok and words.lukasiewicz_to_dyck(words.dyck_to_lukasiewicz(w)) == w
    for n in range(1, 8):  # compress/expand over every sparse pair, n <= 7
        all_words = list(words.enumerate_words(n, "dyck"))
        for A, B in compat.sparse_pairs(n):
            k = n - len(A) - len(B)
            images = set()
            for w in all_words:
                if compat.is_compatible(w, A, B):
                    small = compat.compress(w, A, B)
                    ok = ok and compat.expand(small, n, A, B) == w
                    images.add(small)
            ok = ok and images == set(words.enumerate_words(k, "dyck"))
    for n in range(9):  # noncrossing partitions, n <= 8
        for w in words.enumerate_words(n, "dyck"):
            ok = ok and compat.nc_to_dyck(compat.dyck_to_nc(w)) == w
    for n in range(1, 7):  # dfs/bfs parking trees, n <= 6
        for f in parking.iter_parking_functions(n):
            ok = ok and parking.tree_to_function(parking.dfs_tree(f)) == f
            ok = ok and parking.tree_to_function(parking.bfs_tree(f)) == f
    _announce(3, "bijection round trips", ok)


def _compatibility_profile(w: str) -> tuple[set, set]:
    """Sets of a with U_a U_{a+1} D a factor and b with U D_b D_{b+1}."""
    ups = compat.u_positions(w)
    dps = compat.d_positions(w)
    a_ok = {
        a
        for a in range(1, len(ups))
        if ups[a] == ups[a - 1] + 1 and w[ups[a] + 1 : ups[a] + 2] == "D"
    }
    b_ok = {
        b
        for b in range(1, len(dps))
        if dps[b] == dps[b - 1] + 1 and dps[b - 1] >= 1 and w[dps[b - 1] - 1] == "U"
    }
    return a_ok, b_ok


def test_criterion_4_counting_theorems():
    ok = True
    for n in range(1, 8):  # compatible word counts over all sparse pairs, n <= 7
        pairs = list(compat.sparse_pairs(n))
        for kind, bound in (("dyck", words.catalan), ("balanced", lambda k: math.comb(2 * k, k))):
            counts: Counter = Counter()
            for w in words.enumerate_words(n, kind):
                a_ok, b_ok = _compatibility_profile(w)
                for A, B in pairs:
                    if set(A) <= a_ok and set(B) <= b_ok:
                        counts[(A, B)] += 1
            for A, B in pairs:
                ok = ok and counts[(A, B)] == bound(n - len(A) - len(B))
    # spot-check that the library counter agrees with the profile sweep
    for A, B in [((1,), ()), ((1, 3), (2,)), ((), (2,))]:
        ok = ok and compat.count_compatible(5, A, B, "dyck") == words.catalan(5 - len(A) - len(B))
        k = 5 - len(A) - len(B)
        ok = ok and compat.count_compatible(5, A, B, "balanced") == math.comb(2 * k, k)
    for n in range(7):  # parking tree count, n <= 6
        ok = ok and sum(1 for _ in parking.enumerate_parking_trees(n)) == math.factorial(n) ** 2
    for n in range(9):  # statistic transfers, n <= 8
        for w in words.enumerate_words(n, "dyck"):
            nc = compat.dyck_to_nc(w)
            ok = ok and len(nc.nonsingleton_blocks()) == words.factor_count(w, "UUD")
            ok = ok and len(compat.fillers(nc)) == words.factor_count(w, "UDD")
    for n in range(1, 9):  # ascents <-> UUD factors via Krattenthaler, n <= 8
        for p in perms.enumerate_123_avoiding(n):
            w = perms.krattenthaler(p)
            ok = ok and perms.asc(perms.inverse(p)) == words.factor_count(w, "UUD")
            ok = ok and perms.asc(p) == words.factor_count(w, "UDD")
    _announce(4, "counting theorems", ok)


def test_criterion_5_series_identities():
    ok = series.verify_series(10)["ok"]
    for n in range(9):  # peak recurrence against the weight oracle, all m, n <= 8
        for m in range(2 * n + 1):
            hist = Counter(
                words.factor_count(w[:m], "UD") for w in words.enumerate_words(n, "dyck")
            )
            got = polyvec.peak_poly(n, m)
            expect = IntPoly([hist.get(k, 0) for k in range(max(hist, default=0) + 1)])
            ok = ok and got == expect
    for n in range(11):  # g_contrib equals prefix peak polynomial, n <= 10
        for j in range(n // 2 + 1):
            ok = ok and polyvec.peak_poly(n - j, n) == polyvec.g_contrib(n, j)
    _announce(5, "generating function identities", ok)


def test_criterion_6_nestohedra_pipeline():
    ok = True
    for n in range(1, 7):
        family_sets = [
            ("stanley_pitman", nestohedra.named_family("stanley_pitman", n)),
            ("intervals", nestohedra.named_family("associahedron_intervals", n)),
            ("permutahedron", nestohedra.named_family("permutahedron", n)),
        ] + [
            (f"interpolation[{r}]", nestohedra.named_family("interpolation", n, r))
            for r in range(1, n + 1)
        ]
        for _, bs in family_sets:
            h = nestohedra.h_chordal(bs)
            ok = ok and polyvec.is_palindromic(h)
            ok = ok and polyvec.h_to_gamma(h) == nestohedra.gamma_chordal(bs)
            ok = ok and nestohedra.toric_g_chordal(bs) == polyvec.toric_g_from_h(n, h)
        ok = ok and nestohedra.toric_g_chordal(
            nestohedra.named_family("stanley_pitman", n)
        ) == polyvec.g_contrib(n, 0)
        ok = ok and nestohedra.gamma_chordal(
            nestohedra.named_family("associahedron_intervals", n)
        ) == polyvec.gamma_family("associahedron", n)
    _announce(6, "nestohedra pipeline", ok)


def test_criterion_7_conjecture_probes():
    ok = True
    outcomes = []
    for n in range(1, 13):  # g_contrib real-rooted, n <= 12
        for j in range(n // 2 + 1):
            outcomes.append(polyvec.sturm_real_rooted(polyvec.g_contrib(n, j)))
    kk = []
    for table in TABLES.values():
        for row in table.values():
            kk.append(polyvec.kruskal_katona_ok(row))
    ok = all(outcomes) and all(kk)
    _announce(
        7,
        f"conjecture probes: {len(outcomes)} Sturm + {len(kk)} Kruskal-Katona",
        ok,
    )
