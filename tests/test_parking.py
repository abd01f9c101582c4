import itertools

import pytest
from hypothesis import given, strategies as st

from toricg import compat, parking, perms, polyvec, words
from toricg.errors import CapacityError, PreconditionError, StructuralError

from helpers import (
    all_ud_words,
    contains_pattern_123,
    is_123_parking_tree,
    naive_garsia_haiman,
    naive_is_compatible_pair,
    parking_functions_filter,
    parks_by_simulation,
)

FIG_FN = (7, 5, 10, 7, 3, 6, 1, 4, 3, 1)
FIG_PERM = (7, 10, 5, 9, 8, 2, 6, 1, 4, 3)
FIG_GH_WORD = "UUDDUUDUDUDUDUUDDDUD"
FIG_DFS_TEXT = (
    "(v=1 [e=7 (v=2)] [e=10 (v=3 [e=5 (v=4 [e=8 (v=5 [e=2 (v=6 [e=6 "
    "(v=7 [e=1 (v=8)] [e=4 (v=9)])])])])] [e=9 (v=10 [e=3 (v=11)])])])"
)
FIG_BFS_TEXT = (
    "(v=1 [e=7 (v=2)] [e=10 (v=3 [e=5 (v=4 [e=8 (v=6 [e=6 (v=8)])])] "
    "[e=9 (v=5 [e=2 (v=7 [e=1 (v=9)] [e=4 (v=10 [e=3 (v=11)])])])])])"
)


def test_is_parking_examples():
    assert parking.is_parking((1, 1, 1))
    assert not parking.is_parking((2, 2))
    assert parking.is_parking(FIG_FN)
    with pytest.raises(StructuralError):
        parking.is_parking((0, 1))


@pytest.mark.parametrize("n", range(1, 6))
def test_is_parking_matches_simulation(n):
    for f in parking.iter_functions(n):
        assert parking.is_parking(f) == parks_by_simulation(f)


def test_fn_statistics():
    assert perms.is_123_avoiding((3, 2, 1))
    assert parking.fn_ascents((3, 2, 1)) == 0
    assert perms.is_123_avoiding((1, 1))
    assert parking.fn_ascents((1, 1)) == 1
    assert perms.is_123_avoiding(FIG_FN)
    for n in range(1, 6):
        for f in parking.iter_functions(n):
            assert perms.is_123_avoiding(f) == (not contains_pattern_123(f, weak=True))


def test_garsia_haiman_examples():
    pair = parking.garsia_haiman(FIG_FN)
    assert pair.perm == FIG_PERM
    assert pair.word == FIG_GH_WORD
    n = 5
    ident = tuple(range(1, n + 1))
    assert parking.garsia_haiman(ident) == (ident, "UD" * n)
    assert parking.garsia_haiman((1, 1)) == ((1, 2), "UUDD")
    assert parking.garsia_haiman_inv((1, 2), "UUDD") == (1, 1)
    with pytest.raises(PreconditionError):
        parking.garsia_haiman_inv((2, 1), "UUDD")  # descent inside a fiber


@pytest.mark.parametrize("n", range(1, 6))
def test_garsia_haiman_round_trip(n):
    for f in parking.iter_functions(n):
        pair = parking.garsia_haiman(f)
        assert parking.garsia_haiman_inv(*pair) == f
        assert parking.is_parking(f) == words.is_dyck(pair.word)
        assert perms.is_123_avoiding(f) == perms.is_123_avoiding(pair.perm)


@pytest.mark.parametrize("n", range(7))
def test_garsia_haiman_matches_the_fiber_oracle(n):
    """The stable sort of the positions by value and the count per value
    against the fibers read value by value, on all n^n functions."""
    for f in parking.iter_functions(n):
        assert parking.garsia_haiman(f) == naive_garsia_haiman(f)
        assert parking.garsia_haiman(list(f)) == naive_garsia_haiman(f)


@pytest.mark.parametrize("n", range(5))
def test_is_compatible_pair_matches_the_descent_oracle(n):
    """Every permutation against every {U,D} word of length 2n - 1 to
    2n + 1, the balanced ones with n runs among them: the inverse answers
    exactly on the pairs whose every descent is a partial sum of the runs,
    and refuses the others."""
    for perm in itertools.permutations(range(1, n + 1)):
        for length in range(max(0, 2 * n - 1), 2 * n + 2):
            for word in all_ud_words(length):
                if naive_is_compatible_pair(perm, word):
                    f = parking.garsia_haiman_inv(perm, word)
                    assert parking.garsia_haiman(f) == (perm, word)
                else:
                    with pytest.raises(PreconditionError, match="incompatible pair"):
                        parking.garsia_haiman_inv(perm, word)


def test_is_compatible_pair_on_other_inputs():
    """garsia_haiman_inv takes a list and the empty pair, refuses a
    descent inside a run, a letter other than U, D and a word ending
    inside a U run as incompatible, and a repeated value as no
    permutation."""
    assert parking.garsia_haiman_inv([2, 1], "UDUD") == (2, 1)
    assert parking.garsia_haiman_inv((), "") == ()
    for perm, word in [((2, 1), "UUDD"), ((1, 2), "UHDD"), ((1, 2), "UDDU"), ((), "D")]:
        with pytest.raises(PreconditionError, match="incompatible pair"):
            parking.garsia_haiman_inv(perm, word)
    with pytest.raises(StructuralError, match="not a permutation"):
        parking.garsia_haiman_inv((1, 1), "UUDD")


@pytest.mark.parametrize("n", range(7))
def test_iter_parking_functions_matches_the_filter(n):
    """Grown by prefix, the stream is the filter of all n^n functions, in
    the same order."""
    assert list(parking.iter_parking_functions(n)) == parking_functions_filter(n)


def test_iter_parking_functions_lists_no_other_function(monkeypatch):
    """The n = 6 stream calls is_parking on none of the 46,656 functions."""
    monkeypatch.setattr(parking, "is_parking", None)
    assert sum(1 for _ in parking.iter_parking_functions(6)) == 7 ** 5


@pytest.mark.parametrize("n", [2.5, True, -1], ids=["float", "bool", "negative"])
@pytest.mark.parametrize("name", ["iter_functions", "iter_parking_functions"])
def test_function_streams_refuse_at_call_time(name, n):
    """Refused when called, before the first item, under the stream's own
    name.  n = -1 raised a raw ValueError from itertools.product in both,
    and iter_parking_functions named iter_functions for the others."""
    with pytest.raises(PreconditionError, match=name + " "):
        getattr(parking, name)(n)


def test_search_trees_figure():
    dt = parking.dfs_tree(FIG_FN)
    bt = parking.bfs_tree(FIG_FN)
    assert parking.parking_tree_to_text(dt) == FIG_DFS_TEXT
    assert parking.parking_tree_to_text(bt) == FIG_BFS_TEXT
    assert parking.tree_to_function(dt) == FIG_FN
    assert parking.tree_to_function(bt) == FIG_FN
    assert parking.edge_perm(dt) == FIG_PERM
    assert parking.edge_perm(bt) == FIG_PERM
    assert is_123_parking_tree(dt)
    assert parking.parking_tree_from_text(FIG_DFS_TEXT) == dt


def test_search_trees_small():
    one = parking.dfs_tree((1,))
    assert one == parking.bfs_tree((1,))
    assert parking.parking_tree_to_text(one) == "(v=1 [e=1 (v=2)])"
    assert parking.edge_perm(one) == (1,)
    with pytest.raises(PreconditionError):
        parking.dfs_tree((2, 2))


@pytest.mark.parametrize("n", range(1, 6))
def test_search_trees_round_trip(n):
    dfs_seen = set()
    bfs_seen = set()
    for f in parking.iter_parking_functions(n):
        dt = parking.dfs_tree(f)
        bt = parking.bfs_tree(f)
        assert parking.tree_to_function(dt) == f
        assert parking.tree_to_function(bt) == f
        assert parking.edge_perm(dt) == parking.garsia_haiman(f).perm
        dfs_seen.add(dt)
        bfs_seen.add(bt)
        # BFS level bookkeeping: with q_i = |f^{-1}(i)| the running level
        # sum_{k<=i} (q_k - 1) stays nonnegative and ends at 0
        qs = [0] * n
        for v in f:
            qs[v - 1] += 1
        level = 0
        for q in qs:
            level += q - 1
            assert level >= 0
        assert level == 0
        assert words.is_lukasiewicz(tuple(qs) + (0,))
    expected = (n + 1) ** (n - 1)
    assert len(dfs_seen) == expected
    assert len(bfs_seen) == expected


def _chain_text(depth):
    text = f"(v={depth})"
    for v in range(depth - 1, 0, -1):
        text = f"(v={v} [e={v} {text}])"
    return text


@pytest.mark.parametrize("f", [
    tuple(range(1, 1501)),  # a chain of 1,500 edges
    tuple(v for i in range(1, 3000, 2) for v in (i, i)),  # 1,500 forks deep
], ids=["chain", "forks"])
def test_parking_trees_deeper_than_the_recursion_limit(f):
    """Building, checking, reading and rendering a parking tree take no
    recursion per level: 1,500 levels round-trip through both search
    trees."""
    for build in (parking.dfs_tree, parking.bfs_tree):
        t = build(f)
        assert parking.ParkingTree(t.parent, t.child).n == len(f)
        assert parking.tree_to_function(t) == f
        assert parking.edge_perm(t) == parking.garsia_haiman(f).perm
        assert is_123_parking_tree(t) == perms.is_123_avoiding(f)
        text = parking.parking_tree_to_text(t)
        assert text.count("(v=") == len(f) + 1
        if f[0] == 1 and len(set(f)) == len(f):
            assert text == _chain_text(len(f) + 1)


def test_edge_perm_star():
    star = parking.parking_tree_from_text("(v=1 [e=1 (v=2)] [e=2 (v=3)])")
    assert star == parking.ParkingTree((1, 1), (2, 3))
    assert parking.edge_perm(star) == (1, 2)
    assert parking.tree_to_function(star) == (1, 1)


def test_parking_tree_validation():
    """The constructor checks the vertex labels; sibling order and the root
    label exist only in the text, so the reader refuses those."""
    with pytest.raises(StructuralError, match="sibling edge labels"):
        parking.parking_tree_from_text("(v=1 [e=2 (v=3)] [e=1 (v=2)])")  # edges out of order
    with pytest.raises(StructuralError, match="root must be labeled 1"):
        parking.parking_tree_from_text("(v=2 [e=1 (v=3)])")  # root not labeled 1
    with pytest.raises(StructuralError, match="root must be labeled 1"):
        parking.parking_tree_from_text("(v=5)")
    with pytest.raises(StructuralError, match="not a bijection"):
        parking.ParkingTree((2,), (3,))  # root not labeled 1: the children are {3}, not {2}
    with pytest.raises(StructuralError, match="not a bijection"):
        parking.ParkingTree((1,), (3,))  # vertex labels skip 2
    with pytest.raises(StructuralError, match="must increase"):
        parking.ParkingTree((1, 3), (3, 2))  # vertex 3 above vertex 2


def test_is_123_parking_tree():
    assert is_123_parking_tree(parking.dfs_tree((1,)))
    wide = parking.ParkingTree((1, 1, 1), (2, 3, 4))
    assert not is_123_parking_tree(wide)
    for f in parking.iter_parking_functions(4):
        assert is_123_parking_tree(parking.dfs_tree(f)) == perms.is_123_avoiding(f)


@pytest.mark.parametrize("n", range(5))
def test_parking_tree_counts(n):
    import math

    trees = list(parking.enumerate_parking_trees(n))
    assert len(trees) == math.factorial(n) ** 2
    assert len(set(trees)) == len(trees)
    for t in trees:
        f = parking.tree_to_function(t)
        assert parking.is_parking(f)


def test_parking_tree_capacity():
    with pytest.raises(CapacityError):
        next(parking.enumerate_parking_trees(8))


@pytest.mark.parametrize("n", range(6))
def test_tree_texts_match_rendered_trees(n):
    """The texts rendered from one template per shape are the texts of the
    listed trees, in the same order."""
    expected = [parking.parking_tree_to_text(t) for t in parking.enumerate_parking_trees(n)]
    assert list(parking.parking_tree_texts(n)) == expected


def test_tree_texts_capacity():
    with pytest.raises(CapacityError):
        next(parking.parking_tree_texts(8))
    assert next(parking.parking_tree_texts(8, unsafe=True)).startswith("(v=1 [e=1 (v=9)]")


@pytest.mark.parametrize("n", range(6))
def test_123_parking_tree_walk_matches_filtered_listing(n):
    """The pruned walk lists exactly the trees the filter keeps, in order."""
    expected = [t for t in parking.enumerate_parking_trees(n) if is_123_parking_tree(t)]
    assert list(parking.enumerate_123_parking_trees(n)) == expected


@pytest.mark.parametrize("n", range(1, 7))
def test_123_parking_tree_counts_are_toric_g_at_one(n):
    """One tree per unit of the permutahedron's toric g-vector (the main
    theorem at x = 1); past the oracle's sizes every tree is still valid,
    kept by the filter and new."""
    trees = list(parking.enumerate_123_parking_trees(n))
    toric_g = polyvec.toric_g_from_gamma(n, polyvec.gamma_family("permutahedron", n))
    assert len(trees) == toric_g(1)
    assert len(set(trees)) == len(trees)
    for t in trees:
        assert parking.ParkingTree(t.parent, t.child) == t
        assert is_123_parking_tree(t)


def test_123_parking_tree_walk_refuses_before_any_work(monkeypatch):
    def no_shapes(*args, **kwargs):
        raise AssertionError("shapes were listed")

    def no_table(*args, **kwargs):
        raise AssertionError("the function table was built")

    monkeypatch.setattr(perms, "enumerate_increasing_012", no_shapes)
    monkeypatch.setattr(perms, "enumerate_123_avoiding", no_table)
    with pytest.raises(PreconditionError):
        next(parking.enumerate_123_parking_trees(-1))
    with pytest.raises(CapacityError):
        next(parking.enumerate_123_parking_trees(8))


@pytest.mark.parametrize("n", range(7))
def test_avoiding_functions_by_fibers_matches_filtered_functions(n):
    expected: dict = {}
    for f in parking.iter_functions(n):
        if not contains_pattern_123(f, weak=True):
            sizes = tuple(f.count(v) for v in range(1, n + 1))
            expected.setdefault(sizes, []).append(f)
    # iter_functions is lexicographic, so each expected group is too
    assert parking.avoiding_functions_by_fibers(n) == expected


def test_parking_tree_repr_evaluates_to_the_tree():
    t = parking.dfs_tree(FIG_FN)
    assert eval(repr(t), vars(parking)) == t


def test_parking_tree_is_immutable():
    """t.root = u.root was accepted, and t was then lost from its set."""
    t, u = parking.dfs_tree(FIG_FN), parking.bfs_tree(FIG_FN)
    held = {t}
    for name, value in (("parent", u.parent), ("child", u.child), ("n", t.n + 1)):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(t, name, value)
    assert t in held and t != u


@pytest.mark.parametrize("n", ["3", 2.5, True], ids=["str", "float", "bool"])
def test_123_parking_tree_walk_needs_an_int(n):
    """"3" raised a raw TypeError, and 2.5 and True were refused only under
    the name of enumerate_123_avoiding."""
    with pytest.raises(PreconditionError, match="^enumerate_123_parking_trees needs int"):
        next(parking.enumerate_123_parking_trees(n))


def test_every_parking_function_has_trees():
    # dfs and bfs labelings of the same function give the same encoded
    # function through distinct trees (unless the tree is a path shape)
    n = 4
    for f in parking.iter_parking_functions(n):
        dt, bt = parking.dfs_tree(f), parking.bfs_tree(f)
        assert parking.tree_to_function(dt) == parking.tree_to_function(bt) == f


def test_gh_compatibility_criterion():
    """For a 123-avoiding parking function with pair (perm, v) and
    w = krattenthaler(perm): adjacent U_i U_{i+1} in v forces the factor
    U D_i D_{i+1} in w."""
    for n in range(1, 7):
        for f in parking.iter_123_avoiding_functions(n, parking_only=True):
            pi, v = parking.garsia_haiman(f)
            w = perms.krattenthaler(pi)
            ups = compat.u_positions(v)
            for i in range(1, n):
                if ups[i] == ups[i - 1] + 1:
                    assert compat.is_compatible(w, (), {i}), (f, v, w, i)
            # ascents of f match UUD factors of w
            assert parking.fn_ascents(f) == words.factor_count(w, "UUD")


def test_iter_123_avoiding_functions():
    for n in range(1, 6):
        expected = {f for f in parking.iter_functions(n) if not contains_pattern_123(f, weak=True)}
        assert set(parking.iter_123_avoiding_functions(n)) == expected
        expected_parking = {f for f in expected if parks_by_simulation(f)}
        assert set(parking.iter_123_avoiding_functions(n, parking_only=True)) == expected_parking
    assert sum(1 for _ in parking.iter_123_avoiding_functions(3, parking_only=True)) == 11


def test_123_enumerators_reject_negative_n():
    for stream in (
        perms.enumerate_123_avoiding(-1),
        perms.enumerate_123_avoiding(-1, distinct=False),
        parking.iter_123_avoiding_functions(-1),
        parking.iter_123_avoiding_functions(-1, parking_only=True),
    ):
        with pytest.raises(PreconditionError):
            next(stream)


def test_fn_text():
    assert parking.fn_from_text("7 5 10 7 3 6 1 4 3 1") == FIG_FN
    assert parking.fn_to_text(FIG_FN) == "7 5 10 7 3 6 1 4 3 1"


@given(st.integers(1, 5), st.data())
def test_random_parking_round_trip(n, data):
    f = tuple(data.draw(st.integers(1, n)) for _ in range(n))
    pair = parking.garsia_haiman(f)
    assert parking.garsia_haiman_inv(*pair) == f
    if parking.is_parking(f):
        assert parking.tree_to_function(parking.dfs_tree(f)) == f


def test_deep_trees_compare_without_recursion():
    """Two equal 1,500-level trees raised RecursionError on ==."""
    f = tuple(range(1, 1501))
    a, b = parking.dfs_tree(f), parking.dfs_tree(f)
    assert a == b and hash(a) == hash(b) and a is not b
    other = parking.dfs_tree(f[:-1] + (1,))
    assert a != other and other == parking.dfs_tree(f[:-1] + (1,))
    assert parking.dfs_tree((1, 1)) != parking.dfs_tree((1, 2))
