import itertools
import math

import pytest
from hypothesis import given, strategies as st

from toricg import compat, nestohedra, parking, perms, words
from toricg.errors import PreconditionError, StructuralError

from helpers import (
    all_ud_words,
    naive_catalan,
    naive_factor_count,
    naive_is_dyck,
    naive_is_motzkin,
    nonneg_paths_to_height,
)


def test_catalan_values():
    assert words.catalan(0) == 1
    assert words.catalan(3) == 5
    assert words.catalan(10) == 16796
    for n in range(11):
        assert words.catalan(n) == naive_catalan(n)
    with pytest.raises(PreconditionError):
        words.catalan(-1)


def test_motzkin_values():
    assert words.motzkin(0) == 1
    # enumerate Motzkin paths of length 3 directly
    assert words.motzkin(3) == sum(
        1 for t in itertools.product("UDH", repeat=3) if naive_is_motzkin("".join(t))
    ) == 4
    # and as UUU-avoiding Dyck words of semilength 4
    assert words.motzkin(4) == sum(
        1
        for w in all_ud_words(8)
        if naive_is_dyck(w) and "UUU" not in w
    ) == 9


def test_catalan_triangle():
    assert all(words.catalan_triangle(n, 0) == 1 for n in range(9))
    assert words.catalan_triangle(4, 2) == sum(1 for _ in nonneg_paths_to_height(4, 0)) == 2
    assert words.catalan_triangle(5, 2) == sum(1 for _ in nonneg_paths_to_height(5, 1)) == 5
    assert words.catalan_triangle(5, -1) == 0
    assert words.catalan_triangle(5, 3) == 0


@pytest.mark.parametrize("n", range(8))
def test_enumeration_counts(n):
    dyck = list(words.enumerate_words(n, "dyck"))
    assert len(dyck) == words.catalan(n)
    assert len(set(dyck)) == len(dyck)
    key = lambda w: ["UD".index(ch) for ch in w]
    assert dyck == sorted(dyck, key=key)  # lexicographic with U < D
    balanced = list(words.enumerate_words(n, "balanced"))
    assert len(balanced) == math.comb(2 * n, n)
    assert all(words.is_dyck(w) for w in dyck)
    assert set(dyck) == {w for w in all_ud_words(2 * n) if naive_is_dyck(w)}


@pytest.mark.parametrize("steps", range(15))
def test_enumeration_order_matches_brute_force(steps):
    """Every kind, size and height lists exactly the words that a filter of
    the raw product keeps, in the product's order (lexicographic, U < D)."""
    rows = []
    for w in all_ud_words(steps):
        path = list(itertools.accumulate((1 if ch == "U" else -1 for ch in w), initial=0))
        rows.append((w, path[-1], min(path)))
    if steps % 2 == 0:
        n = steps // 2
        dyck = [w for w, end, low in rows if end == 0 and low >= 0]
        assert list(words.enumerate_words(n, "dyck")) == dyck
        assert list(words.enumerate_words(n, "balanced")) == [w for w, end, _ in rows if end == 0]
    for height in range(steps + 3):
        if (steps - height) % 2:
            with pytest.raises(PreconditionError):
                list(words.enumerate_words(steps, "nonneg_to_height", height=height))
            continue
        paths = [w for w, end, low in rows if end == height and low >= 0]
        assert list(words.enumerate_words(steps, "nonneg_to_height", height=height)) == paths


def test_enumeration_examples():
    assert list(words.enumerate_words(1, "dyck")) == ["UD"]
    assert next(iter(words.enumerate_words(3, "dyck"))) == "UUUDDD"
    assert len(list(words.enumerate_words(2, "balanced"))) == 6
    paths = list(words.enumerate_words(5, "nonneg_to_height", height=1))
    assert sorted(paths) == sorted(nonneg_paths_to_height(5, 1))
    with pytest.raises(PreconditionError):
        list(words.enumerate_words(4, "nonneg_to_height", height=1))
    with pytest.raises(PreconditionError):
        list(words.enumerate_words(3, "zigzag"))


def test_factor_count():
    assert words.factor_count("UDUD", "UD") == 2
    fig = "UUUUDDUUDDDUUUDDUDDD"
    assert words.factor_count(fig, "UD") == 4
    assert words.factor_count("UUDUDD", "UU") == 1
    # overlapping occurrences both count
    assert words.factor_count("UUU", "UU") == 2
    with pytest.raises(PreconditionError):
        words.factor_count("UD", "")


@pytest.mark.parametrize("length", range(8))
def test_factor_count_matches_the_slice_scan(length):
    """Every word over U, D, H of the length against every factor over U, D
    of length 1 to 3 and one longer than the word."""
    factors = ["".join(t) for k in range(1, 4) for t in itertools.product("UD", repeat=k)]
    factors.append("U" * (length + 1))
    for letters in itertools.product("UDH", repeat=length):
        w = "".join(letters)
        for f in factors:
            assert words.factor_count(w, f) == naive_factor_count(w, f)


@pytest.mark.parametrize("length", range(9))
def test_letter_checks_refuse_a_stray_letter(length):
    """is_dyck, is_balanced and u_runs on every word over U, D and a stray
    letter X: a word holding X is neither Dyck nor balanced and has no
    runs."""
    for letters in itertools.product("UDX", repeat=length):
        w = "".join(letters)
        clean = "X" not in w
        assert words.is_dyck(w) == (clean and naive_is_dyck(w))
        assert words.is_balanced(w) == (clean and w.count("U") == w.count("D"))
        runs = words.u_runs(w)
        if clean and not w.endswith("U"):
            assert runs is not None and "".join("U" * q + "D" for q in runs) == w
        else:
            assert runs is None


def test_lukasiewicz_examples():
    assert words.dyck_to_lukasiewicz("UD") == (1, 0)
    assert words.dyck_to_lukasiewicz("UUDD") == (2, 0, 0)
    assert words.dyck_to_lukasiewicz("UUDUDD") == (2, 1, 0, 0)
    assert words.dyck_to_lukasiewicz("") == (0,)
    with pytest.raises(StructuralError):
        words.dyck_to_lukasiewicz("UDD")


@pytest.mark.parametrize("n", range(7))
def test_lukasiewicz_round_trip(n):
    for w in words.enumerate_words(n, "dyck"):
        lw = words.dyck_to_lukasiewicz(w)
        assert len(lw) == n + 1
        # nonnegative proper prefixes, total weight -1
        total = 0
        for q in lw[:-1]:
            total += q - 1
            assert total >= 0
        assert total + lw[-1] - 1 == -1
        assert words.lukasiewicz_to_dyck(lw) == w


def test_motzkin_rewriting_examples():
    assert words.dyck_to_motzkin("UD") == "H"
    assert words.dyck_to_motzkin("UUDD") == "UD"
    assert words.dyck_to_motzkin("UUDUDD") == "UHD"
    assert words.motzkin_to_dyck("UHD") == "UUDUDD"
    with pytest.raises(StructuralError):
        words.dyck_to_motzkin("UDU")


@pytest.mark.parametrize("n", range(8))
def test_motzkin_round_trip(n):
    for w in words.enumerate_words(n, "dyck"):
        if "UUU" in w:
            continue
        mw = words.dyck_to_motzkin(w)
        assert len(mw) == n
        assert naive_is_motzkin(mw)
        assert words.factor_count(w, "UU") == mw.count("U")
        assert words.motzkin_to_dyck(mw) == w


@pytest.mark.parametrize("n", range(1, 8))
def test_uu_factor_lemma(n):
    """UUU-avoiding Dyck words of semilength n with j UU factors are counted
    by binom(n, 2j) * catalan(j); the balanced variant ending in D by
    binom(n, 2j) * binom(2j, j)."""
    from collections import Counter

    hist = Counter(
        words.factor_count(w, "UU")
        for w in words.enumerate_words(n, "dyck")
        if "UUU" not in w
    )
    for j in range(n // 2 + 2):
        assert hist.get(j, 0) == math.comb(n, 2 * j) * words.catalan(j)
    if n <= 7:
        hist_b = Counter(
            words.factor_count(w, "UU")
            for w in words.enumerate_words(n, "balanced")
            if "UUU" not in w and w.endswith("D")
        )
        for j in range(n // 2 + 2):
            assert hist_b.get(j, 0) == math.comb(n, 2 * j) * math.comb(2 * j, j)


def test_sparse():
    assert words.is_sparse([1, 3, 5])
    assert not words.is_sparse([2, 3])
    assert words.is_sparse([])
    subsets = list(words.sparse_subsets(4))
    assert subsets == [(), (1,), (1, 3), (1, 4), (2,), (2, 4), (3,), (4,)]


@given(st.lists(st.sampled_from("UD"), max_size=20).map("".join))
def test_is_dyck_matches_oracle(w):
    assert words.is_dyck(w) == naive_is_dyck(w)


@given(st.integers(0, 6), st.data())
def test_random_dyck_round_trips(n, data):
    pool = list(words.enumerate_words(n, "dyck"))
    w = data.draw(st.sampled_from(pool))
    assert words.lukasiewicz_to_dyck(words.dyck_to_lukasiewicz(w)) == w
    if "UUU" not in w:
        assert words.motzkin_to_dyck(words.dyck_to_motzkin(w)) == w


@pytest.mark.parametrize("length", range(9))
def test_is_motzkin_matches_oracle(length):
    """Every word over U, D, H and one stray letter up to length 8; a word
    with the stray letter is no Motzkin path."""
    for letters in itertools.product("UDHX", repeat=length):
        w = "".join(letters)
        assert words.is_motzkin(w) == ("X" not in w and naive_is_motzkin(w))


@pytest.mark.parametrize("call", [
    lambda: list(words.enumerate_words(2.5)),
    lambda: list(words.sparse_subsets(2.5)),
    lambda: parking.iter_functions(2.5),
    lambda: list(parking.enumerate_parking_trees(1.5)),
    lambda: list(perms.increasing_plane_trees(2.5)),
    lambda: compat.enumerate_nc(2.5),
    lambda: nestohedra.named_family("interpolation", 3, 1.5),
    lambda: list(words.enumerate_words(5, "nonneg_to_height", 1.0)),
    lambda: compat.nc_complex_faces(3, 1.5),
], ids=[
    "enumerate_words", "sparse_subsets", "iter_functions", "enumerate_parking_trees",
    "increasing_plane_trees", "enumerate_nc", "named_family", "enumerate_words-height",
    "nc_complex_faces",
])
def test_enumerators_need_int_arguments(call):
    """The first seven raised a raw TypeError.  The last two answered:
    enumerate_words(5, "nonneg_to_height", 1.0) listed 5 words and
    nc_complex_faces(3, 1.5) returned 0."""
    with pytest.raises(PreconditionError, match="needs int arguments"):
        call()


@pytest.mark.parametrize("call,error", [
    (lambda: words.dyck_to_lukasiewicz(["U", "D"]), StructuralError),
    (lambda: parking.garsia_haiman_inv((1,), ["U", "D"]), PreconditionError),
    (lambda: parking.garsia_haiman_inv((1,), 5), PreconditionError),
    (lambda: perms.krattenthaler_inv(("U", "D")), StructuralError),
    (lambda: words.dyck_to_motzkin(["U", "D"]), StructuralError),
    (lambda: words.motzkin_to_dyck(["U", "H"]), StructuralError),
], ids=["dyck_to_lukasiewicz-list", "garsia_haiman_inv-list", "garsia_haiman_inv-int",
        "krattenthaler_inv-tuple", "dyck_to_motzkin-list", "motzkin_to_dyck-list"])
def test_a_word_is_a_str(call, error):
    """is_dyck answered True for a list or tuple of letters and u_runs took
    any object: the first two raised AttributeError, the third TypeError,
    and krattenthaler_inv(("U", "D")) returned (1,).  dyck_to_motzkin took
    a list for a balanced word and blamed a UUU factor, and motzkin_to_dyck
    returned "UUDUD" for ["U", "H"]."""
    with pytest.raises(error, match="not a Dyck word|incompatible pair|not a balanced word"
                                    "|expected a word over"):
        call()


@pytest.mark.parametrize("word", [["U", "D"], ("U", "D"), 5, None])
def test_word_predicates_answer_false_for_a_non_str(word):
    """is_balanced(("U", "D")) answered True and is_motzkin(["U", "D"])
    raised AttributeError."""
    assert not words.is_dyck(word) and not words.is_balanced(word) and not words.is_motzkin(word)
