"""The reference computations against hand-checked values and against
each other; none of these tests imports toricg."""

import itertools
import random
from math import comb

import oracles
import workloads


def test_catalan_and_eulerian_numbers():
    assert [oracles.catalan(n) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]
    assert oracles.eulerian(4) == [1, 11, 11, 1]
    assert oracles.eulerian(5) == [1, 26, 66, 26, 1]


def test_family_gamma_vectors():
    for n in range(1, 12):
        assert oracles.gamma_family("cyclohedron", n) == [
            comb(2 * j, j) * comb(n, 2 * j) for j in range(n // 2 + 1)]
        assert oracles.gamma_family("associahedron", n) == [
            oracles.catalan(j) * comb(n, 2 * j) for j in range(n // 2 + 1)]
    # permutations of [5] with j descents, no double descent, no final descent
    assert oracles.gamma_family("permutahedron", 4) == [1, 22, 16]


def test_known_rows():
    assert oracles.family_row("permutahedron", 4) == [1, 115, 40]
    assert oracles.family_row("cube", 3) == [1, 4]  # 123-avoiding perms of [3] by ascents
    for n in range(13):
        g0 = oracles.g_contrib(n, 0)
        assert sum(g0) == oracles.catalan(n) and g0[0] == 1


def test_rows_match_brute_force_ascent_statistics():
    for family in ("cube", "associahedron", "cyclohedron"):
        for n in range(1, 6):
            assert oracles.brute_force_row(family, n) == oracles.family_row(family, n), (family, n)


def test_h_gamma_round_trip():
    for n in range(1, 9):
        h = oracles.eulerian(n + 1)
        assert oracles.gamma_to_h(oracles.h_to_gamma(h), n) == h
    assert oracles.h_to_gamma([1, 3, 1]) == [1, 1]
    assert oracles.h_to_gamma([1, 2, 3]) is None  # not palindromic


def test_peak_poly_matches_g_contrib():
    for n in range(9):
        assert oracles.peak_poly(n, 0) == [oracles.catalan(n)]
        for j in range(n // 2 + 1):
            assert oracles.peak_poly(n - j, n) == list(oracles.g_contrib(n, j)), (n, j)


def test_kruskal_katona_cascade():
    def linear(m, k):
        total = 0
        while m > 0 and k > 0:
            a = k
            while comb(a + 1, k) <= m:
                a += 1
            total += comb(a, k + 1)
            m -= comb(a, k)
            k -= 1
        return total

    for k in range(1, 6):
        for m in range(0, 300):
            assert oracles.kk_bound(m, k) == linear(m, k), (m, k)
    assert oracles.kruskal_katona_ok([1, 4, 6])
    assert not oracles.kruskal_katona_ok([1, 4, 7])


def test_real_rootedness():
    assert oracles.real_rooted([1, 2, 1])
    assert not oracles.real_rooted([1, 0, 1])
    assert oracles.real_rooted([1, 115, 40])
    assert oracles.real_rooted([0, 6, -5, 1, 0])  # x(x-2)(x-3)


def test_b_permutations_of_named_families():
    for n in range(1, 6):
        m = n + 1
        everything = list(itertools.permutations(range(1, m + 1)))
        assert oracles.b_permutations(m, oracles.named_family("permutahedron", n)) == everything
        intervals = oracles.b_permutations(m, oracles.named_family("associahedron_intervals", n))
        assert len(intervals) == oracles.catalan(m)
        sp = oracles.b_permutations(m, oracles.named_family("stanley_pitman", n))
        assert len(sp) == 2 ** (m - 1)
        assert oracles.named_family("interpolation", n, 1) == oracles.named_family("permutahedron", n)


def test_nestohedron_vectors_of_the_permutahedron():
    vec = oracles.nestohedron_vectors(5, oracles.named_family("permutahedron", 4))
    assert vec["h"] == oracles.eulerian(5)
    assert vec["toric"] == [1, 115, 40]


def test_random_building_sets_are_connected_and_chordal():
    rng = random.Random(7)
    for m in range(3, 9):
        for gens in (1, m):
            sets = workloads.random_chordal_sets(rng, m, gens)
            assert oracles.is_connected_chordal_building_set(m, {oracles.mask(s) for s in sets})
        edges = workloads.random_chordal_graph(rng, m)
        assert oracles.is_connected_chordal_building_set(m, oracles.graphical(m, edges))
    path = [(i, i + 1) for i in range(1, 6)]
    assert oracles.graphical(6, path) == oracles.named_family("associahedron_intervals", 5)


def test_stream_validators():
    assert oracles.is_dyck("UUDD") and not oracles.is_dyck("UDDU")
    assert oracles.is_parking_tree("(v=1 [e=1 (v=2)])", 1)
    assert oracles.is_parking_tree("(v=1 [e=1 (v=2)] [e=2 (v=3)])", 2)
    assert not oracles.is_parking_tree("(v=1 [e=2 (v=2)] [e=1 (v=3)])", 2)
    assert not oracles.is_parking_tree("(v=2 [e=1 (v=1)])", 1)
    assert not oracles.is_parking_tree("(v=1 [e=1 (v=2)", 1)  # unclosed
    assert not oracles.is_parking_tree("(v=1 [e= (v=2)])", 1)  # no edge label
