import copy
import itertools
import os
import pickle
import random
import subprocess
import sys
import types
from collections import Counter

import pytest
from helpers import (
    asc_des,
    b_permutations_filter,
    has_final_descent,
    is_123_parking_tree,
    right_adjusted_filter,
    toric_g_by_parking_trees,
)

from toricg import nestohedra, parking, perms, polyvec, words
from toricg.errors import (
    BuildingSetError,
    CapacityError,
    ChordalityError,
    PreconditionError,
    StructuralError,
)
from toricg.nestohedra import BuildingSet


def powerset_building_set(m: int) -> BuildingSet:
    sets = [
        s for k in range(1, m + 1) for s in itertools.combinations(range(1, m + 1), k)
    ]
    return BuildingSet(m, sets)


def named_and_interpolation_sets(n: int) -> list[BuildingSet]:
    return [
        nestohedra.named_family(kind, n)
        for kind in ("permutahedron", "stanley_pitman", "associahedron_intervals")
    ] + [nestohedra.named_family("interpolation", n, r) for r in range(1, n + 1)]


def test_validate_examples():
    assert nestohedra.validate(powerset_building_set(3)) == (True, True)
    intervals = nestohedra.named_family("associahedron_intervals", 2)
    assert nestohedra.validate(intervals) == (True, True)
    four_cycle = nestohedra.graphical(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    report = nestohedra.validate(four_cycle)
    assert report.connected and not report.chordal


def test_validate_witnesses():
    with pytest.raises(BuildingSetError) as err:
        nestohedra.validate(BuildingSet(3, [[1], [2], [3], [1, 2], [2, 3]]))
    assert err.value.witness == ((1, 2), (2, 3))
    with pytest.raises(BuildingSetError) as err:
        nestohedra.validate(BuildingSet(2, [[1], [1, 2]]))
    assert err.value.witness == (2,)


def test_graphical_examples():
    path = nestohedra.graphical(3, [(1, 2), (2, 3)])
    assert path.members() == ((1,), (2,), (1, 2), (3,), (2, 3), (1, 2, 3))
    complete = nestohedra.graphical(3, [(1, 2), (1, 3), (2, 3)])
    assert complete == powerset_building_set(3)
    empty = nestohedra.graphical(2, [])
    assert empty.members() == ((1,), (2,))
    assert not nestohedra.validate(empty).connected


@pytest.mark.parametrize("edge", [(1, 5), (0, 1), (-1, 2), (1, "a")])
def test_graphical_rejects_endpoints_off_the_ground_set(edge):
    """An endpoint that is not an int in [ground_size] is refused with a
    BuildingSetError (before: IndexError, a negative shift count and a
    TypeError)."""
    with pytest.raises(BuildingSetError):
        nestohedra.graphical(3, [edge])


def test_restrict_and_components():
    full = powerset_building_set(3)
    assert nestohedra.restrict(full, (1, 3)) == ((1,), (3,), (1, 3))
    assert nestohedra.components(full, (1, 3)) == ((1, 3),)
    intervals4 = nestohedra.named_family("associahedron_intervals", 3)
    assert nestohedra.components(intervals4, (1, 3)) == ((1,), (3,))
    assert nestohedra.restrict(full, ()) == ()


def test_b_permutations_examples():
    assert len(nestohedra.b_permutations(nestohedra.named_family("permutahedron", 2))) == 6
    sp = nestohedra.b_permutations(nestohedra.named_family("stanley_pitman", 2))
    assert sp == [(1, 2, 3), (1, 3, 2), (2, 3, 1), (3, 2, 1)]
    iv = nestohedra.b_permutations(nestohedra.named_family("associahedron_intervals", 2))
    assert len(iv) == words.catalan(3) == 5
    assert (3, 1, 2) not in iv


@pytest.mark.parametrize("n", range(1, 6))
def test_b_permutation_characterizations(n):
    m = n + 1
    everyone = list(itertools.permutations(range(1, m + 1)))

    def is_312_avoiding(p):
        return not any(
            p[j] < p[k] < p[i]
            for i in range(m)
            for j in range(i + 1, m)
            for k in range(j + 1, m)
        )

    def is_unimodal(p):
        top = p.index(max(p))
        return all(p[i] < p[i + 1] for i in range(top)) and all(
            p[i] > p[i + 1] for i in range(top, m - 1)
        )

    assert nestohedra.b_permutations(nestohedra.named_family("permutahedron", n)) == everyone
    assert nestohedra.b_permutations(
        nestohedra.named_family("associahedron_intervals", n)
    ) == [p for p in everyone if is_312_avoiding(p)]
    assert nestohedra.b_permutations(
        nestohedra.named_family("stanley_pitman", n)
    ) == [p for p in everyone if is_unimodal(p)]


def test_h_gamma_examples():
    sp2 = nestohedra.named_family("stanley_pitman", 2)
    assert nestohedra.h_chordal(sp2) == (1, 2, 1)
    assert nestohedra.gamma_chordal(sp2) == (1, 0)
    pm2 = nestohedra.named_family("permutahedron", 2)
    assert nestohedra.h_chordal(pm2) == (1, 4, 1)
    assert nestohedra.gamma_chordal(pm2) == (1, 2)
    iv4 = nestohedra.named_family("associahedron_intervals", 4)
    assert nestohedra.gamma_chordal(iv4) == (1, 6, 2)


def test_non_chordal_is_rejected():
    four_cycle = nestohedra.graphical(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    with pytest.raises(ChordalityError):
        nestohedra.h_chordal(four_cycle)
    with pytest.raises(ChordalityError):
        nestohedra.toric_g_direct(four_cycle)


@pytest.mark.parametrize("n", range(1, 6))
def test_pipeline_consistency(n):
    for bs in named_and_interpolation_sets(n):
        h = nestohedra.h_chordal(bs)
        assert polyvec.is_palindromic(h)
        gamma = nestohedra.gamma_chordal(bs)
        assert polyvec.h_to_gamma(h) == gamma
        assert nestohedra.toric_g_chordal(bs) == polyvec.toric_g_from_h(n, h)


def test_toric_g_examples():
    assert nestohedra.toric_g_chordal(
        nestohedra.named_family("permutahedron", 2)
    ) == polyvec.IntPoly([1, 3])
    assert nestohedra.toric_g_direct(
        nestohedra.named_family("stanley_pitman", 3)
    ) == polyvec.g_contrib(3, 0)
    assert nestohedra.toric_g_direct(
        nestohedra.named_family("associahedron_intervals", 4)
    ) == polyvec.IntPoly([1, 37, 10])


@pytest.mark.parametrize("n", range(1, 5))
def test_direct_route_agreement(n):
    for kind in ("permutahedron", "stanley_pitman", "associahedron_intervals"):
        bs = nestohedra.named_family(kind, n)
        assert nestohedra.toric_g_direct(bs) == nestohedra.toric_g_chordal(bs)
    for r in range(1, n + 1):
        bs = nestohedra.named_family("interpolation", n, r)
        assert nestohedra.toric_g_direct(bs) == nestohedra.toric_g_chordal(bs)


def test_toric_g_direct_is_bounded_by_the_b_permutations_key():
    """toric_g_direct answers on ground 8 and refuses ground 9 through the
    b_permutations key alone."""
    bs = nestohedra.named_family("permutahedron", 7)
    assert nestohedra.toric_g_direct(bs) == nestohedra.toric_g_chordal(bs)
    with pytest.raises(CapacityError, match="b_permutations is bounded at n <= 7"):
        nestohedra.toric_g_direct(nestohedra.named_family("permutahedron", 8))


@pytest.mark.parametrize("n", range(1, 6))
def test_gamma_by_tree_forks(n):
    for kind in ("permutahedron", "stanley_pitman", "associahedron_intervals"):
        bs = nestohedra.named_family(kind, n)
        allowed = set(nestohedra.b_permutations(bs))
        hist: Counter = Counter()
        for tree, forks in perms.enumerate_increasing_012(n + 1):
            if perms.fs_inorder(perms.plane_to_fs(tree)) in allowed:
                hist[forks] += 1
        assert tuple(hist.get(j, 0) for j in range(n // 2 + 1)) == nestohedra.gamma_chordal(bs)


@pytest.mark.parametrize("n", range(1, 6))
def test_dfs_restriction_gives_associahedron(n):
    """On the intervals every right-adjusted B-permutation is already read
    in preorder; on the permutahedron the restriction is what cuts the
    count down to the associahedron's (from n = 2 on)."""
    expected = polyvec.toric_g_from_gamma(n, polyvec.gamma_family("associahedron", n))
    for kind in ("associahedron_intervals", "permutahedron"):
        bs = nestohedra.named_family(kind, n)
        assert nestohedra.toric_g_direct(bs, dfs_only=True) == expected, kind
    everyone = nestohedra.named_family("permutahedron", n)
    assert (nestohedra.toric_g_direct(everyone) != expected) == (n >= 2)


def test_permutahedron_brute_force_over_parking_trees():
    """Unpruned oracle: sweep every parking tree and keep those encoding a
    123-avoiding parking function; ascents give the toric g coefficients."""
    for n in range(1, 6):
        hist: Counter = Counter()
        for t in parking.enumerate_parking_trees(n):
            if is_123_parking_tree(t):
                hist[parking.fn_ascents(parking.tree_to_function(t))] += 1
        got = polyvec.IntPoly([hist.get(k, 0) for k in range(max(hist) + 1)])
        expected = polyvec.toric_g_from_gamma(n, polyvec.gamma_family("permutahedron", n))
        assert got == expected


def test_permutahedron_direct_n6():
    bs = nestohedra.named_family("permutahedron", 6)
    expected = polyvec.toric_g_from_gamma(6, polyvec.gamma_family("permutahedron", 6))
    assert nestohedra.toric_g_direct(bs) == expected


@pytest.mark.parametrize("n", range(1, 6))
def test_cyclohedron_function_statistic(n):
    expected = polyvec.toric_g_from_gamma(n, polyvec.gamma_family("cyclohedron", n))
    got = parking.ascent_polynomial(parking.iter_123_avoiding_functions(n))
    assert got == expected


def test_interpolation_family():
    for n in range(1, 6):
        assert nestohedra.named_family("interpolation", n, 1) == nestohedra.named_family(
            "permutahedron", n
        )
    stell = nestohedra.named_family("interpolation", 3, 3)
    assert ((1,) in stell) and ((2,) in stell) and ((3,) in stell)
    assert (1, 2) not in stell
    assert (1, 4) in stell
    report = nestohedra.validate(stell)
    assert report.connected and report.chordal
    with pytest.raises(PreconditionError):
        nestohedra.named_family("interpolation", 3)
    with pytest.raises(PreconditionError):
        nestohedra.named_family("interpolation", 3, 4)


def test_random_chordal_graphical_building_sets():
    """Random graphs on <= 6 vertices whose graphical building set happens
    to be connected and chordal must give palindromic h-vectors agreeing
    with the gamma route."""
    rng = random.Random(20240817)
    tested = 0
    while tested < 12:
        m = rng.randint(2, 6)
        edges = [
            (i, j)
            for i in range(1, m + 1)
            for j in range(i + 1, m + 1)
            if rng.random() < 0.6
        ]
        bs = nestohedra.graphical(m, edges)
        report = nestohedra.validate(bs)
        if not (report.connected and report.chordal):
            continue
        tested += 1
        h = nestohedra.h_chordal(bs)
        assert polyvec.is_palindromic(h)
        assert polyvec.h_to_gamma(h) == nestohedra.gamma_chordal(bs)
        n = m - 1
        assert nestohedra.toric_g_chordal(bs) == polyvec.toric_g_from_h(n, h)


def test_stanley_pitman_members():
    assert nestohedra.named_family("stanley_pitman", 2).members() == (
        (1,), (2,), (3,), (2, 3), (1, 2, 3),
    )


def test_b_permutations_capacity():
    with pytest.raises(CapacityError):
        nestohedra.b_permutations(powerset_building_set(10))


def test_json_round_trip():
    bs = nestohedra.named_family("stanley_pitman", 3)
    data = bs.to_json()
    assert BuildingSet.from_json(data) == bs
    with pytest.raises(BuildingSetError):
        BuildingSet.from_json({"sets": [[1]]})
    with pytest.raises(BuildingSetError):
        BuildingSet(2, [[1], [2], [3]])
    with pytest.raises(BuildingSetError):
        BuildingSet(2, [[1], [2], []])


def test_ground_sets_above_16_are_refused_before_they_are_built(monkeypatch):
    def no_subsets(*args, **kwargs):
        raise AssertionError("subsets were built")

    monkeypatch.setattr(nestohedra.itertools, "combinations", no_subsets)
    monkeypatch.setattr(nestohedra, "_induced_connected", no_subsets)
    for kind in ("permutahedron", "interpolation"):
        with pytest.raises(PreconditionError):
            nestohedra.named_family(kind, 40, 1)
    with pytest.raises(PreconditionError):
        nestohedra.graphical(40, [(i, i + 1) for i in range(1, 40)])


@pytest.mark.parametrize("ground,sets", [
    (2, [[0]]), (2, [["a"]]), (2, [[1.5]]), (2, [[True]]), (True, [[1]]),
    (2, [1, 2]), (2, 5),
])
def test_constructor_rejects_malformed_members(ground, sets):
    """The constructor itself refuses what from_json refuses, with
    BuildingSetError rather than a raw ValueError or TypeError."""
    with pytest.raises(BuildingSetError):
        BuildingSet(ground, sets)


def enumerated_h_gamma(bs: BuildingSet) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """h and gamma as descent histograms over the listed B-permutations,
    the gamma one over those with no double descent and no final descent."""
    n = bs.ground_size - 1
    h: Counter = Counter()
    gamma: Counter = Counter()
    for pi in nestohedra.b_permutations(bs):
        stats = asc_des(pi)
        h[len(stats.des)] += 1
        if not stats.double_descents and not has_final_descent(pi):
            gamma[len(stats.des)] += 1
    return (
        tuple(h.get(i, 0) for i in range(n + 1)),
        tuple(gamma.get(j, 0) for j in range(n // 2 + 1)),
    )


def random_chordal_graphicals(seed: int, count: int, max_ground: int):
    """Graphical building sets of random connected graphs in which
    1, ..., m is a perfect elimination order: each vertex joins a random
    later vertex p and a random part of p's later neighbours, so its later
    neighbours form a clique."""
    rng = random.Random(seed)
    found = []
    for _ in range(count):
        m = rng.randint(2, max_ground)
        later: dict[int, set[int]] = {m: set()}
        edges = []
        for i in range(m - 1, 0, -1):
            p = rng.randint(i + 1, m)
            later[i] = {p} | {q for q in later[p] if rng.random() < 0.5}
            edges += [(i, q) for q in later[i]]
        bs = nestohedra.graphical(m, edges)
        assert nestohedra.validate(bs) == (True, True)
        found.append(bs)
    return found


@pytest.mark.parametrize("n", range(1, 7))
def test_descent_dp_matches_enumeration_on_named_families(n):
    for bs in named_and_interpolation_sets(n):
        assert (nestohedra.h_chordal(bs), nestohedra.gamma_chordal(bs)) == enumerated_h_gamma(bs)


def test_descent_dp_matches_enumeration_on_random_graphicals():
    for bs in random_chordal_graphicals(seed=31, count=30, max_ground=7):
        assert (nestohedra.h_chordal(bs), nestohedra.gamma_chordal(bs)) == enumerated_h_gamma(bs)


def test_component_table_matches_components():
    """comp[T] is the component of max(T) among components(bs, T)."""
    small = [
        nestohedra.named_family(kind, n)
        for n in range(1, 4)
        for kind in ("permutahedron", "stanley_pitman", "associahedron_intervals")
    ] + [nestohedra.named_family("interpolation", 3, r) for r in (1, 2, 3)]
    small += random_chordal_graphicals(seed=7, count=10, max_ground=5)
    small.append(nestohedra.graphical(4, [(1, 2), (2, 3), (3, 4), (1, 4)]))
    small.append(nestohedra.graphical(4, [(1, 3), (2, 4)]))
    for bs in small:
        comp = nestohedra._component_table(bs)
        assert comp[0] == 0
        for t in range(1, 1 << bs.ground_size):
            members = nestohedra._unmask(t)
            (holder,) = [c for c in nestohedra.components(bs, members) if max(members) in c]
            assert comp[t] == nestohedra.set_mask(holder)


def test_capacity_is_checked_before_validation(monkeypatch):
    """Refusing an oversized building set must not first pay for the
    O(|B|^2) axiom check."""
    big = nestohedra.named_family("permutahedron", 12)

    def no_validation(bs):
        raise AssertionError("validate ran before the capacity check")

    monkeypatch.setattr(nestohedra, "validate", no_validation)
    for route in (
        nestohedra.h_chordal,
        nestohedra.gamma_chordal,
        nestohedra.toric_g_chordal,
        nestohedra.toric_g_direct,
    ):
        with pytest.raises(CapacityError):
            route(big)


def test_palindrome_check_survives_optimized_mode():
    """The h-vector palindromicity check is not a bare assert: it still
    fires under python -O."""
    script = (
        "from toricg import nestohedra\n"
        "from toricg.errors import StructuralError\n"
        "assert False, 'asserts are live'\n"
        "nestohedra._descent_counts = lambda bs: [1, 2, 3]\n"
        "try:\n"
        "    nestohedra.h_chordal(nestohedra.named_family('permutahedron', 2))\n"
        "except StructuralError:\n"
        "    print('refused')\n"
    )
    src = os.path.join(os.path.dirname(nestohedra.__file__), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "refused\n"


@pytest.mark.parametrize("dfs_only", [False, True])
@pytest.mark.parametrize("n", range(1, 6))
def test_direct_count_matches_parking_tree_listing_on_named_families(n, dfs_only):
    for bs in named_and_interpolation_sets(n):
        assert nestohedra.toric_g_direct(bs, dfs_only) == toric_g_by_parking_trees(bs, dfs_only)


@pytest.mark.parametrize("dfs_only", [False, True])
def test_direct_count_matches_parking_tree_listing_on_random_graphicals(dfs_only):
    for bs in random_chordal_graphicals(seed=43, count=30, max_ground=6):
        assert nestohedra.toric_g_direct(bs, dfs_only) == toric_g_by_parking_trees(bs, dfs_only)


def test_permutahedron_direct_n7_past_the_cap():
    bs = nestohedra.named_family("permutahedron", 7)
    assert nestohedra.toric_g_direct(bs, unsafe=True) == nestohedra.toric_g_chordal(bs)


@pytest.mark.parametrize("n", range(1, 8))
def test_b_permutations_match_filter_on_named_families(n):
    for bs in named_and_interpolation_sets(n):
        assert nestohedra.b_permutations(bs) == b_permutations_filter(bs)


def test_b_permutations_match_filter_on_random_graphicals():
    for bs in random_chordal_graphicals(seed=59, count=30, max_ground=7):
        assert nestohedra.b_permutations(bs) == b_permutations_filter(bs)


def test_b_permutations_match_filter_on_arbitrary_families():
    """b_permutations does not validate, so it must read any family as the
    filter does, including families missing a singleton or not closed under
    unions."""
    rng = random.Random(71)
    missing_singleton = 0
    for _ in range(200):
        m = rng.randint(1, 6)
        masks = [s for s in range(1, 1 << m) if rng.random() < 0.4]
        missing_singleton += any(1 << i not in masks for i in range(m))
        bs = BuildingSet(m, [nestohedra._unmask(s) for s in masks])
        assert nestohedra.b_permutations(bs) == b_permutations_filter(bs)
    assert missing_singleton > 50
    for bs in (
        BuildingSet(1, []),
        BuildingSet(3, [[1, 2, 3]]),
        BuildingSet(3, [[2], [3], [1, 2, 3]]),
    ):
        assert nestohedra.b_permutations(bs) == b_permutations_filter(bs)


@pytest.mark.parametrize("n", range(1, 8))
def test_right_adjusted_walk_matches_filter_on_named_families(n):
    for bs in named_and_interpolation_sets(n):
        assert nestohedra.right_adjusted_b_permutations(bs) == right_adjusted_filter(bs)


def test_right_adjusted_walk_matches_filter_on_random_graphicals():
    for bs in random_chordal_graphicals(seed=61, count=30, max_ground=7):
        assert nestohedra.right_adjusted_b_permutations(bs) == right_adjusted_filter(bs)


def test_right_adjusted_walk_matches_filter_on_arbitrary_families():
    """Like b_permutations, the walk does not validate: it reads any family
    as the filter does."""
    rng = random.Random(73)
    for _ in range(200):
        m = rng.randint(1, 6)
        masks = [s for s in range(1, 1 << m) if rng.random() < 0.4]
        bs = BuildingSet(m, [nestohedra._unmask(s) for s in masks])
        assert nestohedra.right_adjusted_b_permutations(bs) == right_adjusted_filter(bs)
    for bs in (
        BuildingSet(1, []),
        BuildingSet(1, [[1]]),
        BuildingSet(3, [[1, 2, 3]]),
        BuildingSet(3, [[2], [3], [1, 2, 3]]),
        BuildingSet(4, [[1], [2], [3], [4], [1, 2, 3, 4]]),
    ):
        assert nestohedra.right_adjusted_b_permutations(bs) == right_adjusted_filter(bs)


@pytest.mark.parametrize("listing", [
    nestohedra.b_permutations, nestohedra.right_adjusted_b_permutations,
], ids=lambda listing: listing.__name__)
def test_walk_refuses_before_any_work(listing, monkeypatch):
    def no_table(bs):
        raise AssertionError("component table built past the cap")

    monkeypatch.setattr(nestohedra, "_component_table", no_table)
    with pytest.raises(CapacityError):
        listing(BuildingSet(9, [[i] for i in range(1, 10)]))


def _queries(bs: BuildingSet) -> dict:
    """Every question the pipeline asks of a connected chordal set, by name."""
    return {
        "validate": lambda: nestohedra.validate(bs),
        "table": lambda: list(nestohedra._component_table(bs)),
        "h": lambda: nestohedra.h_chordal(bs),
        "gamma": lambda: nestohedra.gamma_chordal(bs),
        "toric_g": lambda: nestohedra.toric_g_chordal(bs),
        "direct": lambda: nestohedra.toric_g_direct(bs),
        "direct_dfs": lambda: nestohedra.toric_g_direct(bs, dfs_only=True),
        "b_perms": lambda: nestohedra.b_permutations(bs),
        "right_adjusted": lambda: nestohedra.right_adjusted_b_permutations(bs),
        "members": lambda: [m in bs for m in bs.members()],
    }


def test_a_reused_set_answers_as_fresh_ones_in_any_order():
    """The memo changes no answer: each query on a fresh copy equals the
    same query on one instance asked everything in shuffled orders."""
    rng = random.Random(16)
    sets = named_and_interpolation_sets(4) + random_chordal_graphicals(16, 6, 6)
    for bs in sets:
        fresh = {name: _queries(BuildingSet(bs.ground_size, bs.members()))[name]()
                 for name in _queries(bs)}
        reused = BuildingSet(bs.ground_size, bs.members())
        queries = _queries(reused)
        for _ in range(3):
            names = list(queries)
            rng.shuffle(names)
            for name in names:
                assert queries[name]() == fresh[name], (bs, name)
        # only O(2^m) ints and one h-vector are kept, never a listing
        assert set(reused._memo) == {"masks", "report", "comp", "h"}
        assert reused == bs and hash(reused) == hash(bs)
        assert repr(reused) == repr(bs) and reused.to_json() == bs.to_json()


def test_the_memo_never_lifts_the_cap():
    bs9 = nestohedra.named_family("stanley_pitman", 8)
    h = nestohedra.h_chordal(bs9, unsafe=True)
    assert nestohedra.h_chordal(bs9, unsafe=True) == h
    nestohedra.b_permutations(bs9, unsafe=True)
    nestohedra.right_adjusted_b_permutations(bs9, unsafe=True)
    for route in (
        nestohedra.h_chordal, nestohedra.gamma_chordal, nestohedra.toric_g_chordal,
        nestohedra.toric_g_direct, nestohedra.b_permutations,
        nestohedra.right_adjusted_b_permutations,
    ):
        for _ in range(2):
            with pytest.raises(CapacityError):
                route(bs9)


def test_refusals_repeat_on_every_call():
    four_cycle = nestohedra.graphical(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    for _ in range(2):
        for route in (nestohedra.h_chordal, nestohedra.gamma_chordal,
                      nestohedra.toric_g_chordal, nestohedra.toric_g_direct):
            with pytest.raises(ChordalityError):
                route(four_cycle)
    open_family = BuildingSet(3, [[1], [2], [3], [1, 2], [2, 3]])
    for _ in range(2):
        for route in (nestohedra.validate, nestohedra.h_chordal, nestohedra.gamma_chordal,
                      nestohedra.toric_g_chordal, nestohedra.toric_g_direct):
            with pytest.raises(BuildingSetError) as err:
                route(open_family)
            assert err.value.witness == ((1, 2), (2, 3))
    assert set(open_family._memo) == {"masks"}  # a call that raises stores nothing


def test_palindrome_refusal_stores_no_h_vector(monkeypatch):
    bs = nestohedra.named_family("permutahedron", 2)
    monkeypatch.setattr(nestohedra, "_descent_counts", lambda bs: [1, 2, 3])
    for _ in range(2):
        with pytest.raises(StructuralError):
            nestohedra.h_chordal(bs)
    assert "h" not in bs._memo


@pytest.mark.parametrize("name,value", [
    ("ground_size", 3), ("masks", ()), ("_memo", {}), ("extra", 1),
])
def test_building_sets_are_immutable(name, value):
    bs = nestohedra.named_family("permutahedron", 2)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(bs, name, value)
    with pytest.raises(AttributeError, match="immutable"):
        delattr(bs, name)
    assert bs == nestohedra.named_family("permutahedron", 2)
    assert [1, 2] in bs and nestohedra.validate(bs) == (True, True)


def test_copies_and_pickles_rebuild_the_set():
    bs = nestohedra.named_family("associahedron_intervals", 3)
    h = nestohedra.h_chordal(bs)
    for twin in (copy.copy(bs), copy.deepcopy(bs), pickle.loads(pickle.dumps(bs))):
        assert twin == bs and twin is not bs
        assert set(twin._memo) == {"masks"}
        assert nestohedra.h_chordal(twin) == h


@pytest.mark.parametrize("probe", [[0], ["a"], [1.5], [True], [], 5, [1, None]],
                         ids=["zero", "string", "float", "bool", "empty", "int", "none"])
def test_membership_refuses_what_the_constructor_refuses(probe):
    """`[0] in bs` raised a raw ValueError, `['a']` and `[1.5]` a raw
    TypeError, and `[True]` answered True though no member can hold a bool."""
    bs = nestohedra.named_family("permutahedron", 2)
    with pytest.raises(BuildingSetError):
        BuildingSet(3, [probe])
    with pytest.raises(BuildingSetError):
        probe in bs  # noqa: B015


def test_membership_past_the_ground_set_is_false_without_a_mask(monkeypatch):
    """`[2**40] in bs` built a 2^40-bit mask before answering."""
    bs = nestohedra.named_family("permutahedron", 2)

    def no_mask(members):
        raise AssertionError("masked a set past the ground set")

    monkeypatch.setattr(nestohedra, "set_mask", no_mask)
    assert [2 ** 40] not in bs
    assert (1, 4) not in bs
    monkeypatch.undo()
    assert (3, 1) in bs and [2, 2] in bs and (1, 2, 3) in bs
    assert (1, 3) not in nestohedra.named_family("associahedron_intervals", 2)


def test_count_b_permutations_matches_the_listing_on_any_family():
    """The DP's total equals the walk's count on every family, building set
    or not: both start at member singletons and extend alike."""
    rng = random.Random(16)
    for m in range(1, 7):
        subsets = [s for k in range(1, m + 1) for s in itertools.combinations(range(1, m + 1), k)]
        for _ in range(30):
            bs = BuildingSet(m, rng.sample(subsets, rng.randint(0, len(subsets))))
            assert nestohedra.count_b_permutations(bs) == len(nestohedra.b_permutations(bs))
    for bs in named_and_interpolation_sets(6):
        assert nestohedra.count_b_permutations(bs) == len(nestohedra.b_permutations(bs))
    big = BuildingSet(9, [[i] for i in range(1, 10)])
    with pytest.raises(CapacityError):
        nestohedra.count_b_permutations(big)
    assert nestohedra.count_b_permutations(big, unsafe=True) == 1  # the identity
    assert nestohedra.b_permutations(big, unsafe=True) == [tuple(range(1, 10))]


def test_direct_route_sums_only_the_fiber_groups_it_needs():
    """A sparse set at n = 5 needs a few of the 51 groups of 123-avoiding
    functions by fiber sizes; summing all of them made a first call slower
    than rebuilding the table per call had been."""
    nestohedra._ascents_by_fibers.cache_clear()
    bs = nestohedra.named_family("stanley_pitman", 5)
    assert nestohedra.toric_g_direct(bs) == nestohedra.toric_g_chordal(bs)
    needed = {nestohedra._fiber_sizes(pi) for pi in nestohedra.right_adjusted_b_permutations(bs)}
    assert nestohedra._ascents_by_fibers.cache_info().currsize == len(needed) < 51
    assert len(nestohedra._functions_by_fibers(5)) == 51


def test_b_permutations_of_the_permutahedron_at_ground_8_are_every_permutation():
    everyone = list(itertools.permutations(range(1, 9)))
    assert nestohedra.b_permutations(nestohedra.named_family("permutahedron", 7)) == everyone


def dense_random_graphicals(seed: int, count: int, ground: int) -> list[BuildingSet]:
    """Graphical sets of random graphs keeping each edge with probability
    0.7; most are not chordal, which the listings do not check."""
    rng = random.Random(seed)
    return [
        nestohedra.graphical(ground, [e for e in itertools.combinations(range(1, ground + 1), 2)
                                      if rng.random() < 0.7])
        for _ in range(count)
    ]


def test_shared_completions_match_the_filters_at_ground_8():
    """At ground 8 both listings share the completions of each prefix
    state below the split depth."""
    families = dense_random_graphicals(seed=17, count=3, ground=8)
    rng = random.Random(19)
    families += [  # neither closed nor holding every singleton
        BuildingSet(8, [nestohedra._unmask(s) for s in range(1, 256) if rng.random() < 0.6])
        for _ in range(2)
    ]
    for bs in families:
        listed = b_permutations_filter(bs)
        assert nestohedra.b_permutations(bs, unsafe=True) == listed
        assert nestohedra.right_adjusted_b_permutations(bs, unsafe=True) == [
            pi for pi in listed
            if not asc_des(pi).double_descents and not has_final_descent(pi)
        ]


def test_listings_leave_nothing_in_the_memo():
    """A listing is built per call: the memo keeps the component table the
    walk reads and nothing the walk lists."""
    for bs in (nestohedra.named_family("permutahedron", 7),
               nestohedra.named_family("associahedron_intervals", 7),
               *dense_random_graphicals(seed=23, count=2, ground=8)):
        for listing in (nestohedra.b_permutations, nestohedra.right_adjusted_b_permutations):
            listing(bs, unsafe=True)
            assert set(bs._memo) == {"masks", "comp"}


def first_missing_union(bs: BuildingSet):
    """The pairwise oracle: the first pair of members, in member order, that
    meet and whose union is missing, or None."""
    masks = set(bs.masks)
    for a, b in itertools.combinations(bs.masks, 2):
        if a & b and a | b not in masks:
            return nestohedra._unmask(a), nestohedra._unmask(b)
    return None


def test_union_closure_dp_agrees_with_the_pairwise_scan():
    rng = random.Random(29)
    closed = 0
    for _ in range(600):
        m = rng.randint(1, 7)
        density = rng.random()
        masks = {s for s in range(1, 1 << m) if rng.random() < density}
        masks |= {1 << i for i in range(m)}
        bs = BuildingSet(m, [nestohedra._unmask(s) for s in masks])
        expected = first_missing_union(bs)
        assert nestohedra._union_closed(frozenset(masks), m) == (expected is None)
        closed += expected is None
        if expected is None:
            nestohedra.validate(bs)
        else:
            with pytest.raises(BuildingSetError) as err:
                nestohedra.validate(bs)
            assert err.value.witness == expected
    assert 100 < closed < 500


def test_validate_decides_a_dense_family_without_the_pairwise_scan(monkeypatch):
    """The permutahedron at ground 11 has 2047 members: the pairwise scan
    took 0.2 s there and the DP a few ms."""
    bs = nestohedra.named_family("permutahedron", 10)

    def no_scan(*args):
        raise AssertionError("pairwise scan on a closed dense family")

    monkeypatch.setattr(nestohedra, "itertools", types.SimpleNamespace(combinations=no_scan))
    assert nestohedra.validate(bs) == (True, True)


def test_a_dense_family_refused_by_the_dp_keeps_the_pairwise_witness():
    """The DP decides this family and refuses it; the pairwise scan then
    names the first pair in member order, as it did alone."""
    missing = (1, 2, 3, 4, 5, 6)
    sets = [s for k in range(1, 8) for s in itertools.combinations(range(1, 8), k) if s != missing]
    bs = BuildingSet(7, sets)
    with pytest.raises(BuildingSetError, match=r"\(1, 2\) and \(1, 3, 4, 5, 6\) is missing") as err:
        nestohedra.validate(bs)
    assert err.value.witness == first_missing_union(bs) == ((1, 2), (1, 3, 4, 5, 6))


@pytest.mark.parametrize("probe", [[0], ["a"], [1.5], [True], 5, [1, None]],
                         ids=["zero", "string", "float", "bool", "int", "none"])
def test_restrict_and_components_refuse_what_membership_refuses(probe):
    """`restrict(bs, [0])` and `components(bs, [0])` raised a raw
    ValueError (negative shift count)."""
    bs = nestohedra.named_family("permutahedron", 2)
    for query in (nestohedra.restrict, nestohedra.components):
        with pytest.raises(BuildingSetError):
            query(bs, probe)


def test_restrict_and_components_past_the_ground_set_mask_no_more(monkeypatch):
    """An element like 2**40 built a 2^40-bit mask; no member holds it."""
    bs = nestohedra.named_family("associahedron_intervals", 2)
    masked = []
    real_mask = nestohedra.set_mask

    def recording_mask(members):
        members = tuple(members)
        masked.append(members)
        return real_mask(members)

    monkeypatch.setattr(nestohedra, "set_mask", recording_mask)
    assert nestohedra.restrict(bs, [1, 3, 2 ** 40]) == nestohedra.restrict(bs, [1, 3])
    assert nestohedra.components(bs, [3, 2 ** 40, 1]) == ((1,), (3,))
    assert nestohedra.restrict(bs, []) == nestohedra.components(bs, []) == ()
    assert all(max(members, default=0) <= 3 for members in masked)
