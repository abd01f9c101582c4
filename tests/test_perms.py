import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from toricg import perms, polyvec, words
from toricg.errors import PreconditionError, StructuralError

from helpers import (
    asc_des,
    contains_pattern_123,
    count_forks,
    fs_phi,
    fs_psi,
    has_final_descent,
    increasing_plane_trees_by_rebuild,
    is_right_adjusted,
    restricted_orbit,
    right_adjusted_rep,
)


FIG_PERM = (7, 10, 5, 9, 8, 2, 6, 1, 4, 3)
FIG_WORD = "UUUUDDUUDDDUUUDDUDDD"


def test_asc_des_examples():
    stats = asc_des((1, 2, 3))
    assert stats.asc == (1, 2) and stats.des == ()
    assert asc_des(FIG_PERM).asc == (1, 3, 6, 8)
    assert asc_des((2, 1)).des == (1,)
    s = asc_des((2, 1, 4, 5, 6, 8, 7, 9, 3, 10, 11))
    assert s.valleys == (2, 7, 9)
    assert s.peaks == (6, 8)
    assert s.double_descents == ()


def test_avoidance_examples():
    assert perms.is_123_avoiding((3, 2, 1))
    assert perms.is_123_avoiding(FIG_PERM)
    assert not perms.is_123_avoiding((1, 3, 2, 4))


@pytest.mark.parametrize("n", range(7))
def test_avoidance_matches_bruteforce(n):
    for p in itertools.permutations(range(1, n + 1)):
        expected = not contains_pattern_123(p, weak=False)
        assert perms.is_123_avoiding(p) == expected


def test_krattenthaler_examples():
    assert perms.krattenthaler(FIG_PERM) == FIG_WORD
    assert perms.krattenthaler((1,)) == "UD"
    assert perms.krattenthaler((3, 2, 1)) == "UDUDUD"
    with pytest.raises(PreconditionError):
        perms.krattenthaler((1, 2, 3))
    with pytest.raises(StructuralError):
        perms.krattenthaler_inv("UDD")


@pytest.mark.parametrize("n", range(9))
def test_krattenthaler_bijection(n):
    seen = set()
    for p in perms.enumerate_123_avoiding(n):
        w = perms.krattenthaler(p)
        assert words.is_dyck(w)
        assert perms.krattenthaler_inv(w) == p
        seen.add(w)
        # ascent statistics transfer to UDD / UUD factors
        assert perms.asc(p) == words.factor_count(w, "UDD")
        assert perms.asc(perms.inverse(p)) == words.factor_count(w, "UUD")
    assert len(seen) == words.catalan(n)


def test_enumerate_123_avoiding():
    assert list(perms.enumerate_123_avoiding(1)) == [(1,)]
    threes = list(perms.enumerate_123_avoiding(3))
    assert len(threes) == 5 and (1, 2, 3) not in threes
    assert threes == sorted(threes)
    assert sum(1 for _ in perms.enumerate_123_avoiding(6)) == 132


@pytest.mark.parametrize("n", range(7))
def test_enumerate_123_avoiding_matches_filter(n):
    """Both modes list exactly the pattern-free sequences, in lexicographic
    order: strict patterns over permutations, weak ones over functions."""
    values = range(1, n + 1)
    expected = [p for p in itertools.permutations(values) if not contains_pattern_123(p, weak=False)]
    assert list(perms.enumerate_123_avoiding(n)) == expected
    expected = [
        f for f in itertools.product(values, repeat=n) if not contains_pattern_123(f, weak=True)
    ]
    assert list(perms.enumerate_123_avoiding(n, distinct=False)) == expected


def test_fs_tree_figure():
    tau = (2, 1, 4, 5, 6, 8, 7, 9, 3, 10, 11)
    t = perms.fs_tree(tau)
    assert perms.fs_tree_to_text(t) == "(1 L(2) R(3 L(4 R(5 R(6 R(7 L(8) R(9))))) R(10 R(11))))"
    assert perms.fs_inorder(t) == tau
    assert perms.fs_tree_from_text(perms.fs_tree_to_text(t)) == t
    t5 = fs_phi(t, 5)
    assert perms.fs_inorder(t5) == (2, 1, 4, 6, 8, 7, 9, 5, 3, 10, 11)
    assert perms.fs_inorder(fs_phi(t5, 1)) == (4, 6, 8, 7, 9, 5, 3, 10, 11, 1, 2)


@pytest.mark.parametrize("text", [
    "(1 R(2) R(3))",  # repeated slot: vertex 2 was dropped silently
    "(1 L(2) L(3))",
    "(2 L(1))",  # child label below its parent's
    "(1 L(1))",  # child label equal to its parent's
    "",  # ends before the root
    "(1 L",  # ends inside a slot
    "(1 R(2 R(3)",  # ends before the closing parentheses
    "(1 L(2) R(2))",  # a repeated label: it read as the in-order (2, 1, 2)
    "(1 R(5))",  # labels that skip 2, 3 and 4
])
def test_fs_tree_from_text_rejects_malformed_text(text):
    with pytest.raises(StructuralError):
        perms.fs_tree_from_text(text)


def test_fs_tree_repr_evaluates_to_the_tree():
    t = perms.fs_tree((2, 1, 4, 3, 5))
    assert eval(repr(t), vars(perms)) == t


def test_plane_to_fs_matches_the_recursive_build():
    """Read off the child tuples, it gives what one recursion per vertex
    gives, takes a 3,000-vertex path (which raised RecursionError in the
    nested form) and still refuses a vertex with three children."""

    def by_recursion(tree, v, left, right):
        """Each vertex's slots from its children: an only child on the right."""
        left[v], right[v] = ([0, 0] + list(tree[v]))[-2:]
        for kid in tree[v]:
            by_recursion(tree, kid, left, right)

    for count in range(7):
        for tree, _ in perms.enumerate_increasing_012(count):
            left, right = [0] * (count + 1), [0] * (count + 1)
            by_recursion(tree, 1, left, right)
            t = perms.plane_to_fs(tree)
            assert (t.left, t.right) == (tuple(left), tuple(right))
            assert t == perms.fs_tree(t.perm)
    path = ((),) + tuple((v + 1,) for v in range(1, 3000)) + ((),)
    t = perms.plane_to_fs(path)
    assert perms.fs_preorder(t) == perms.fs_inorder(t) == t.perm == tuple(range(1, 3001))
    with pytest.raises(StructuralError, match="more than two children"):
        perms.plane_to_fs(((), (2, 3), (), (4, 5, 6), (), (), ()))


@pytest.mark.parametrize("tree", [
    ((), (1,)),  # a vertex its own child: the in-order walk never ended
    ((), (3,), (), ()),  # label 2 is no vertex's child
    ((), (2, 2), ()),  # label 2 twice
    ((2,), ()),  # children under the unused entry 0
    ((), (3,), (), (2,)),  # a child label below its parent's
    ((), (0, 2), ()),  # a child label outside 1..n
    ((), (2.0,), ()),  # a label that is not an int
    ((),),  # no vertex
    (),
])
def test_plane_to_fs_refuses_malformed_flat_trees(tree):
    with pytest.raises(StructuralError):
        perms.plane_to_fs(tree)


def test_fs_tree_small():
    assert perms.fs_tree_to_text(perms.fs_tree((1,))) == "(1)"
    assert perms.fs_tree_to_text(perms.fs_tree((1, 2, 3))) == "(1 R(2 R(3)))"
    with pytest.raises(PreconditionError):
        fs_phi(perms.fs_tree((1, 2)), 9)


@pytest.mark.parametrize("n", range(1, 8))
def test_fs_round_trip(n):
    for p in itertools.permutations(range(1, n + 1)):
        assert perms.fs_inorder(perms.fs_tree(p)) == p


def test_phi_psi_properties():
    for n in range(1, 7):
        for p in itertools.permutations(range(1, n + 1)):
            t = perms.fs_tree(p)
            for x in range(1, n + 1):
                assert fs_phi(fs_phi(t, x), x) == t
                assert fs_psi(fs_psi(t, x), x) == t
            for x, y in itertools.combinations(range(1, n + 1), 2):
                assert fs_phi(fs_phi(t, x), y) == fs_phi(fs_phi(t, y), x)


def test_psi_fixes_forks():
    t = perms.fs_tree((2, 1, 3))  # root 1 with two children
    assert fs_psi(t, 1) == t
    assert fs_phi(t, 1) != t


def test_right_adjusted():
    assert is_right_adjusted(perms.fs_tree((1, 2, 3)))
    assert not is_right_adjusted(perms.fs_tree((3, 2, 1)))
    # computed by the orbit oracle: the representative of (3,2,1) is (1,2,3)
    assert right_adjusted_rep((3, 2, 1)) == (1, 2, 3)


@pytest.mark.parametrize("n", range(1, 7))
def test_restricted_orbits_partition(n):
    seen: set = set()
    orbit_count = 0
    for p in itertools.permutations(range(1, n + 1)):
        if p in seen:
            continue
        orbit = restricted_orbit(p)
        assert not (orbit & seen)
        seen |= orbit
        orbit_count += 1
        reps = [q for q in orbit if is_right_adjusted(perms.fs_tree(q))]
        assert len(reps) == 1
        assert all(right_adjusted_rep(q) == reps[0] for q in orbit)
        stats = asc_des(reps[0])
        assert not stats.double_descents and not has_final_descent(reps[0])
    import math

    assert len(seen) == math.factorial(n)


@pytest.mark.parametrize("n", range(2, 8))
def test_no_double_descent_vs_trees(n):
    """Permutations with no double descents and no final descent, counted by
    descents, match increasing plane 0-1-2 trees counted by forks."""
    by_des: Counter = Counter()
    for p in itertools.permutations(range(1, n + 1)):
        stats = asc_des(p)
        if not stats.double_descents and not has_final_descent(p):
            by_des[len(stats.des)] += 1
    by_forks = Counter(f for _, f in perms.enumerate_increasing_012(n))
    assert by_des == by_forks


def test_increasing_012_examples():
    assert [f for _, f in perms.enumerate_increasing_012(2)] == [0]
    hist3 = Counter(f for _, f in perms.enumerate_increasing_012(3))
    assert hist3 == {0: 1, 1: 2}  # matches gamma (1, 2) of the 2-permutahedron
    hist4 = Counter(f for _, f in perms.enumerate_increasing_012(4))
    assert hist4 == {0: 1, 1: 8}
    gam = polyvec.gamma_family("permutahedron", 3)
    assert (hist4.get(0, 0), hist4.get(1, 0)) == gam


@pytest.mark.parametrize("m", range(9))
def test_increasing_012_fork_tags_match_count_forks(m):
    """The fork count kept during the insertion walk is the one read off the
    finished tree, and the trees are those of the full stream with at most
    two children per vertex, in order."""
    tagged = list(perms.enumerate_increasing_012(m))
    assert [t for t, _ in tagged] == [
        t for t in perms.increasing_plane_trees(m) if max(perms.child_counts(t)) <= 2]
    for tree, forks in tagged:
        assert forks == count_forks(tree)


@pytest.mark.parametrize("n", range(8))
def test_des_asc_count_the_position_sets(n):
    """des and asc against the lengths of descent_set and ascent_set, on
    every permutation of [n] and on random sequences with repeated values."""
    rng = random.Random(n)
    seqs = list(itertools.permutations(range(1, n + 1)))
    seqs += [[rng.randint(1, 3) for _ in range(n)] for _ in range(200)]
    for p in seqs:
        assert perms.des(p) == len(perms.descent_set(p))
        assert perms.asc(p) == len(perms.ascent_set(p))


@pytest.mark.parametrize("max_children", [None, 1, 2, 3])
@pytest.mark.parametrize("count", range(8))
def test_insertion_walk_matches_the_rebuild_oracle(count, max_children):
    """The iterative walk gives the trees that a recursion on mutable child
    lists builds afresh, in the same order; the trees with at most
    ``max_children`` children per vertex come in the order of the oracle
    that skips the full parents, as the 0-1-2 walk does."""
    expected = list(increasing_plane_trees_by_rebuild(count, max_children))
    assert [t for t in perms.increasing_plane_trees(count)
            if max_children is None or max(perms.child_counts(t)) <= max_children] == expected
    if max_children == 2:
        assert [t for t, _ in perms.enumerate_increasing_012(count)] == expected


def test_plane_trees_are_increasing():
    """Every label is reached once from the root, through larger labels
    only, and child_counts counts each vertex's appearances as a parent."""
    for count in range(1, 6):
        trees = list(perms.increasing_plane_trees(count))
        assert len(trees) == len(set(trees))
        for t in trees:
            assert len(t) == count + 1 and t[0] == ()
            parent_of = {}
            stack = [1]
            while stack:
                v = stack.pop()
                for c in t[v]:
                    assert c > v and c not in parent_of
                    parent_of[c] = v
                    stack.append(c)
            assert sorted(parent_of) == list(range(2, count + 1))
            counts = Counter(parent_of.values())
            assert perms.child_counts(t) == tuple(counts[v] for v in range(1, count + 1))


@pytest.mark.parametrize("m", range(1, 9))
def test_walk_yields_independent_trees(m):
    """The trees kept in a list are the trees read one at a time, pairwise
    distinct and (2m - 3)!! of them, each a tuple of tuples, so no later
    step of the walk can change one already yielded."""
    kept = list(perms.increasing_plane_trees(m))
    for earlier, now in itertools.zip_longest(kept, perms.increasing_plane_trees(m)):
        assert earlier == now  # compared before the walk takes its next step
    assert len(set(kept)) == len(kept) == math.prod(range(1, 2 * m - 2, 2))
    for t in kept:
        assert type(t) is tuple and all(type(kids) is tuple for kids in t)


def test_text_formats():
    assert perms.perm_from_text("7 10 5 9 8 2 6 1 4 3") == FIG_PERM
    assert perms.perm_to_text(FIG_PERM) == "7 10 5 9 8 2 6 1 4 3"


def _deep_perms():
    rng = random.Random(14)
    shuffled = list(range(1, 2001))
    rng.shuffle(shuffled)
    return [tuple(range(1, 1201)), tuple(range(1200, 0, -1)), tuple(shuffled)]


@pytest.mark.parametrize("p", _deep_perms(), ids=["increasing", "decreasing", "random"])
def test_fs_trees_deeper_than_the_recursion_limit(p):
    """fs_tree and the walks over its trees take no recursion per level: a
    1,200-level chain, either way round, builds, walks, compares, hashes,
    swaps, right-adjusts and renders."""
    n = len(p)
    t = perms.fs_tree(p)
    assert perms.fs_inorder(t) == p
    assert t == perms.fs_tree(p) and hash(t) == hash(perms.fs_tree(p))
    assert set(perms.fs_preorder(t)) == set(p)
    assert fs_phi(fs_phi(t, n - 1), n - 1) == t
    rep = right_adjusted_rep(p)
    assert is_right_adjusted(t) == (rep == p)
    assert is_right_adjusted(perms.fs_tree(rep)) and sorted(rep) == sorted(p)
    if p[0] == 1 or p[0] == n:
        assert rep == tuple(range(1, n + 1))
    text = perms.fs_tree_to_text(t)
    assert text.count("(") == n
    if p == tuple(range(1, n + 1)):
        assert text == "".join(f"({v} R" for v in range(1, n)) + f"({n}" + ")" * n
        assert perms.fs_preorder(t) == p
        # psi swaps the only child of n - 1 into its left slot, n levels down
        assert perms.fs_inorder(fs_psi(t, n - 1)) == p[:-2] + (n, n - 1)
    elif p[0] == n:
        assert text == "".join(f"({v} L" for v in range(1, n)) + f"({n}" + ")" * n
    else:
        assert perms.fs_inorder(perms.fs_tree_from_text(text)) == p


@given(st.permutations(list(range(1, 9))))
def test_fs_round_trip_random(p):
    p = tuple(p)
    assert perms.fs_inorder(perms.fs_tree(p)) == p
    rep = right_adjusted_rep(p)
    stats = asc_des(rep)
    assert not stats.double_descents and not has_final_descent(rep)


@pytest.mark.parametrize("n", [2.5, True, "3"])
def test_enumerate_123_avoiding_needs_an_int(n):
    """enumerate_123_avoiding(2.5) raised a raw TypeError."""
    with pytest.raises(PreconditionError, match="needs int arguments"):
        list(perms.enumerate_123_avoiding(n))


@pytest.mark.parametrize("distinct", [True, False], ids=["permutations", "functions"])
@pytest.mark.parametrize("n", range(8))
def test_123_walk_matches_is_123_avoiding_filter(n, distinct):
    """The one-loop walk lists, in order, exactly what filtering every
    permutation or every function of [n] through is_123_avoiding keeps."""
    values = range(1, n + 1)
    everyone = itertools.permutations(values) if distinct else itertools.product(values, repeat=n)
    expected = list(filter(perms.is_123_avoiding, everyone))
    assert list(perms.enumerate_123_avoiding(n, distinct)) == expected


@pytest.mark.parametrize("p", [(0,), (1, 1), (1.0,), (3, 1)])
def test_inverse_refuses_a_non_permutation(p):
    """inverse((0,)) returned (1,) and inverse((1, 1)) (2, 0); inverse((1.0,))
    raised a raw TypeError and inverse((3, 1)) an IndexError."""
    with pytest.raises(StructuralError, match="not a permutation"):
        perms.inverse(p)
