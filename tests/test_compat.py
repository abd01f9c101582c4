from collections import Counter

import pytest

from toricg import compat, perms, polyvec, words
from toricg.errors import PreconditionError, StructuralError

from helpers import count_compatible_brute, naive_is_compatible


def test_is_compatible_examples():
    for w in words.enumerate_words(3, "dyck"):
        assert compat.is_compatible(w, (), ())
    assert compat.is_compatible("UUDUDD", {1}, ())
    assert not compat.is_compatible("UUUDDD", {1}, ())
    with pytest.raises(PreconditionError):
        compat.is_compatible("UUDD", {1, 2}, ())
    with pytest.raises(StructuralError):
        compat.is_compatible("UDU", (), ())


def test_compress_examples():
    assert compat.compress("UD", (), ()) == "UD"
    assert compat.compress("UUDUDD", {1}, ()) == "UUDD"
    assert compat.compress("UUDDUD", {1}, ()) == "UDUD"
    assert compat.compress("UUDD", {1}, {1}) == ""
    with pytest.raises(PreconditionError):
        compat.compress("UUUDDD", {1}, ())


def test_compress_checks_its_sets_once(monkeypatch):
    """compress checked A and B, then called is_compatible, which checked
    them again: two checks per call.  An incompatible word is still
    refused."""
    calls = []
    check = compat._check_sparse_subsets
    monkeypatch.setattr(compat, "_check_sparse_subsets",
                        lambda *args: calls.append(args) or check(*args))
    assert compat.compress("UUDUDD", {1}, ()) == "UUDD"
    assert len(calls) == 1
    with pytest.raises(PreconditionError, match="-compatible"):
        compat.compress("UUUDDD", {1}, ())
    with pytest.raises(PreconditionError, match="-compatible"):
        compat.compress("UDUDUD", (), {2})
    assert len(calls) == 3


def test_expand_examples():
    assert compat.expand("UUDD", 2, (), ()) == "UUDD"
    got = sorted(compat.expand(w, 3, {1}, ()) for w in words.enumerate_words(2, "dyck"))
    assert got == ["UUDDUD", "UUDUDD"]
    exp = [compat.expand(w, 4, {1}, {2}) for w in words.enumerate_words(2, "dyck")]
    allowed = [w for w in words.enumerate_words(4, "dyck") if compat.is_compatible(w, {1}, {2})]
    assert sorted(exp) == sorted(allowed)
    assert len(exp) == words.catalan(2)
    with pytest.raises(PreconditionError):
        compat.expand("UD", 4, {1}, ())  # wrong semilength


@pytest.mark.parametrize("A,B", [
    (["a"], []), ([None], []), (5, []), ([1.5], []), ([], [True]), ([], "1"),
])
@pytest.mark.parametrize("call", [
    lambda A, B: compat.is_compatible("UUUDDD", A, B),
    lambda A, B: compat.compress("UUUDDD", A, B),
    lambda A, B: compat.expand("UD", 3, A, B),
], ids=["is_compatible", "compress", "expand"])
def test_sets_that_are_not_of_ints_are_refused(call, A, B):
    """A member that is not an int raised a raw TypeError, or, as 1.5,
    passed the check and raised one in the bitmask; True counted as 1; a
    set that is not iterable raised TypeError."""
    with pytest.raises(PreconditionError):
        call(A, B)


@pytest.mark.parametrize("n", range(1, 7))
def test_compress_expand_bijection(n):
    all_words = list(words.enumerate_words(n, "dyck"))
    for A, B in compat.sparse_pairs(n):
        k = n - len(A) - len(B)
        small_words = set(words.enumerate_words(k, "dyck"))
        images = []
        for w in all_words:
            if compat.is_compatible(w, A, B):
                small = compat.compress(w, A, B)
                assert len(small) == 2 * k
                assert compat.expand(small, n, A, B) == w
                images.append(small)
        assert len(images) == len(set(images)) == words.catalan(k)
        assert set(images) == small_words
        for small in small_words:
            assert compat.compress(compat.expand(small, n, A, B), A, B) == small


@pytest.mark.parametrize("n", range(1, 6))
def test_count_compatible(n):
    import math

    for A, B in compat.sparse_pairs(n):
        k = n - len(A) - len(B)
        assert compat.count_compatible(n, A, B, "dyck") == words.catalan(k)
        assert compat.count_compatible(n, A, B, "balanced") == math.comb(2 * k, k)
    assert compat.count_compatible(3, {1}, (), "dyck") == 2
    assert compat.count_compatible(2, (), (), "balanced") == 6


def test_factor_masks_examples():
    assert compat.factor_masks("") == (0, 0)
    assert compat.factor_masks("UD") == (0, 0)
    assert compat.factor_masks("UUDD") == (0b1, 0b1)
    assert compat.factor_masks("UUDUDD") == (0b1, 0b10)
    assert compat.factor_masks("DUUDDU") == (0b1, 0b10)  # balanced, not Dyck
    assert compat.set_mask(()) == 0
    assert compat.set_mask((1, 3)) == 0b101
    for bad in ("UDU", "UUDX", "DDUX"):
        with pytest.raises(StructuralError):
            compat.factor_masks(bad)


@pytest.mark.parametrize("n", range(7))
def test_factor_masks_match_is_compatible(n):
    """A balanced word is (A,B)-compatible iff A lies in its U-mask and B
    in its D-mask: every balanced word against every sparse pair, with the
    position scan of the helpers as the oracle of both the masks and
    is_compatible, which reads them."""
    pairs = [(A, B, compat.set_mask(A), compat.set_mask(B)) for A, B in compat.sparse_pairs(n)]
    for w in words.enumerate_words(n, "balanced"):
        alpha, beta = compat.factor_masks(w)
        assert alpha < 1 << max(n - 1, 0) and beta < 1 << max(n - 1, 0)
        for A, B, a_mask, b_mask in pairs:
            by_masks = alpha & a_mask == a_mask and beta & b_mask == b_mask
            expected = naive_is_compatible(w, A, B)
            assert by_masks == compat.is_compatible(w, A, B) == expected, (w, A, B)


@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("kind", ["dyck", "balanced"])
def test_compatible_counts_match_brute_force(n, kind):
    table = compat.compatible_counts(n, kind)
    assert list(table) == list(compat.sparse_pairs(n))
    for (A, B), got in table.items():
        assert got == count_compatible_brute(n, A, B, kind), (A, B)
    A, B = list(table)[-1]
    assert compat.count_compatible(n, set(A), list(B), kind) == table[(A, B)]
    with pytest.raises(PreconditionError):
        compat.compatible_counts(n, "motzkin")


def test_nc_examples():
    assert compat.dyck_to_nc("UD").blocks == ((1,),)
    assert compat.dyck_to_nc("UDUDUD").blocks == ((1,), (2,), (3,))
    assert compat.dyck_to_nc("UUDD").blocks == ((1, 2),)
    assert compat.nc_to_text(compat.dyck_to_nc("UUDUDD")) == "1,3|2"
    assert compat.nc_from_text("1,2|3|4").blocks == ((1, 2), (3,), (4,))
    with pytest.raises(StructuralError):
        compat.NoncrossingPartition([(1, 3), (2, 4)])
    with pytest.raises(StructuralError):
        compat.NoncrossingPartition([(1,), (3,)])


def test_nc_repr_evaluates_to_the_partition():
    p = compat.dyck_to_nc("UUDUDD")
    assert eval(repr(p), vars(compat)) == p


def test_nc_partition_is_immutable():
    """p.blocks = ... was accepted, and p was then lost from its set."""
    p = compat.dyck_to_nc("UUDUDD")
    held = {p}
    for name, value in (("blocks", ((1,), (2,), (3,))), ("n", 4)):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(p, name, value)
    assert p in held and p.blocks == ((1, 3), (2,))


def test_expand_takes_many_elements_without_recursing():
    """It recursed once per element of A and B and raised RecursionError."""
    A = range(1, 2400, 2)
    w = compat.expand("UD" * 1801, 3001, A, ())
    assert len(w) == 6002 and compat.compress(w, A, ()) == "UD" * 1801


@pytest.mark.parametrize("n", range(9))
def test_nc_bijection_and_statistics(n):
    seen = set()
    for w in words.enumerate_words(n, "dyck"):
        p = compat.dyck_to_nc(w)
        assert compat.nc_to_dyck(p) == w
        seen.add(p)
        assert len(p.nonsingleton_blocks()) == words.factor_count(w, "UUD")
        assert len(compat.fillers(p)) == words.factor_count(w, "UDD")
        assert words.is_sparse(compat.fillers(p))
    assert len(seen) == words.catalan(n)


def test_fillers_examples():
    n = 5
    allsingle = compat.NoncrossingPartition([(i,) for i in range(1, n + 1)])
    assert compat.fillers(allsingle) == ()
    assert compat.fillers(compat.nc_from_text("1,2|3|4")) == (2,)
    assert compat.fillers(compat.NoncrossingPartition([tuple(range(1, n + 1))])) == (n,)


def test_nc_complex_faces():
    for n in range(1, 7):
        assert compat.nc_complex_faces(n, 0) == 1
    assert compat.nc_complex_faces(3, 1) == 4
    assert compat.nc_complex_faces(4, 2) == 2


@pytest.mark.parametrize("n", range(1, 9))
def test_cube_coefficient_interpretations(n):
    """x^k in g_contrib(n, 0) simultaneously counts 123-avoiding
    permutations with k ascents, noncrossing partitions with k nonsingleton
    blocks, noncrossing partitions with k fillers, and the k-faces of the
    nonsingleton-block complex."""
    g0 = polyvec.g_contrib(n, 0)
    by_asc = Counter(perms.asc(p) for p in perms.enumerate_123_avoiding(n))
    by_blocks: Counter = Counter()
    by_fillers: Counter = Counter()
    for p in compat.enumerate_nc(n):
        by_blocks[len(p.nonsingleton_blocks())] += 1
        by_fillers[len(compat.fillers(p))] += 1
    for k in range(g0.degree + 1):
        c = g0.coeff(k)
        assert by_asc.get(k, 0) == c
        assert by_blocks.get(k, 0) == c
        assert by_fillers.get(k, 0) == c
        assert compat.nc_complex_faces(n, k) == c


@pytest.mark.parametrize("n", range(1, 8))
def test_fillers_extension_proposition(n):
    partitions = list(compat.enumerate_nc(n))
    for J in words.sparse_subsets(n):
        if any(x < 2 for x in J):
            continue
        g = polyvec.g_contrib(n, len(J))
        hist: Counter = Counter()
        for p in partitions:
            if set(J) <= set(compat.fillers(p)):
                hist[len(p.nonsingleton_blocks())] += 1
        for k in range(max([g.degree] + list(hist)) + 1):
            assert hist.get(k, 0) == g.coeff(k)


@pytest.mark.parametrize("n", range(1, 8))
def test_g_contrib_vs_compatible_words(n):
    for B in words.sparse_subsets(n - 1):
        g = polyvec.g_contrib(n, len(B))
        hist: Counter = Counter()
        for w in words.enumerate_words(n, "dyck"):
            if compat.is_compatible(w, (), B):
                hist[words.factor_count(w, "UUD")] += 1
        for k in range(max([g.degree] + list(hist)) + 1):
            assert hist.get(k, 0) == g.coeff(k)


def test_corollary_ascent_pairs():
    """Number of 123-avoiding permutations with B inside Asc(pi) and A
    inside Asc(pi^{-1}) is catalan(n - |A| - |B|)."""
    for n in range(1, 7):
        avoiders = list(perms.enumerate_123_avoiding(n))
        stats = [
            (set(perms.ascent_set(p)), set(perms.ascent_set(perms.inverse(p))))
            for p in avoiders
        ]
        for A, B in compat.sparse_pairs(n):
            count = sum(
                1 for asc_p, asc_inv in stats
                if set(B) <= asc_p and set(A) <= asc_inv
            )
            assert count == words.catalan(n - len(A) - len(B)), (n, A, B)
