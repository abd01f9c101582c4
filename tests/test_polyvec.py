import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from toricg import polyvec, words
from toricg.errors import PreconditionError, StructuralError
from toricg.polyvec import IntPoly

from helpers import (
    gamma_basis_sum,
    kk_pseudopower_linear,
    naive_catalan,
    naive_peaks_in_prefix,
    nonneg_paths_to_height,
    power_sum,
    toric_g_by_cnix_products,
)


def test_intpoly_basics():
    p = IntPoly([1, 2, 3, 0, 0])
    assert p.coeffs == (1, 2, 3)
    assert p.degree == 2
    assert IntPoly().is_zero()
    assert (p * IntPoly([0, 1])).coeffs == (0, 1, 2, 3)
    assert (p - p).is_zero()
    assert p(10) == 321
    assert IntPoly([1, 1]) ** 2 == IntPoly([1, 2, 1])
    assert p.derivative() == IntPoly([2, 6])
    assert IntPoly.from_text("1,37,10").to_text() == "1,37,10"
    assert str(IntPoly([1, 0, 2])) == "1 + 2*x^2"


@pytest.mark.parametrize("bad", [1.5, Fraction(1, 2), True])
def test_intpoly_rejects_non_int_coefficients(bad):
    with pytest.raises(PreconditionError):
        IntPoly([1, bad])


def test_intpoly_hash_agrees_with_int_equality():
    """IntPoly((3,)) == 3 held, yet IntPoly((3,)) in {3} and IntPoly() in
    {0} were False and {3: "x"}.get(IntPoly((3,))) None: the hash read the
    coefficient tuple, which no int shares.  A constant hashes as its int."""
    assert IntPoly((3,)) in {3}
    assert {3: "x"}.get(IntPoly((3,))) == "x"
    assert IntPoly() in {0}
    assert 2**70 in {IntPoly((2**70,))}
    assert hash(IntPoly((-1,))) == hash(-1)
    assert IntPoly((1,)) in {True}  # as 1 in {True}; the comparison raised on a bool
    assert len({IntPoly((1, 2)), IntPoly([1, 2, 0]), IntPoly((1, 2, 1))}) == 2


def test_intpoly_dunders():
    p = IntPoly((1, 2))
    assert p and not IntPoly()
    assert sum([p, p, IntPoly((0, 0, 1))]) == IntPoly((2, 4, 1))  # 0 + p is __radd__
    assert 5 - p == IntPoly((4, -2))
    for q in (IntPoly(), IntPoly((0, -3, 1))):
        assert eval(repr(q), {"IntPoly": IntPoly}) == q
    with pytest.raises(AttributeError, match="immutable"):
        p.coeffs = (5,)
    assert p.coeffs == (1, 2)


def test_intpoly_takes_a_bool_operand_as_an_int():
    """IntPoly((1,)) + True raised PreconditionError, while * and == took
    True as 1."""
    p = IntPoly((1, 2))
    results = [IntPoly((1,)) + True, True + IntPoly((1,)), p - True, True - p,
               p * True, False * p]
    assert results == [IntPoly((2,)), IntPoly((2,)), IntPoly((0, 2)), IntPoly((0, -2)),
                       p, IntPoly()]
    assert all(type(c) is int for q in results for c in q.coeffs)
    assert IntPoly((1,)) == True and IntPoly() == False and p != True  # noqa: E712


def test_f_to_h_examples():
    assert polyvec.f_to_h((4, 4, 1)) == (1, 2, 1)
    assert polyvec.f_to_h((4, 6, 4, 1)) == (1, 1, 1, 1)
    assert polyvec.h_to_f((1, 2, 1)) == (4, 4, 1)
    assert polyvec.h_to_f(polyvec.gamma_to_h((1, 2), 2)) == (6, 6, 1)


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=8))
def test_f_h_round_trip(v):
    v = tuple(v)
    assert polyvec.h_to_f(polyvec.f_to_h(v)) == v
    assert polyvec.f_to_h(polyvec.h_to_f(v)) == v


def test_h_to_gamma_examples():
    assert polyvec.h_to_gamma((1, 1)) == (1,)
    assert polyvec.h_to_gamma((1, 4, 1)) == (1, 2)
    assert polyvec.h_to_gamma((1, 11, 11, 1)) == (1, 8)
    assert polyvec.h_to_gamma(polyvec.f_to_h((4, 4, 1))) == (1, 0)
    assert polyvec.gamma_to_h((1, 2), 2) == (1, 4, 1)
    with pytest.raises(StructuralError):
        polyvec.h_to_gamma((1, 2, 3))


@given(st.integers(1, 8), st.data())
def test_gamma_h_round_trip(n, data):
    gamma = tuple(
        data.draw(st.integers(-20, 20)) for _ in range(n // 2 + 1)
    )
    h = polyvec.gamma_to_h(gamma, n)
    assert polyvec.is_palindromic(h)
    assert polyvec.h_to_gamma(h) == gamma


def _padded(poly: IntPoly, length: int) -> tuple[int, ...]:
    assert poly.degree < length
    return tuple(poly.coeff(i) for i in range(length))


@pytest.mark.parametrize("n", range(31))
def test_conversions_match_power_sums(n):
    """Each conversion against its definition as a sum of IntPoly powers."""
    rng = random.Random(n)
    v = [rng.randint(-10**6, 10**6) for _ in range(n + 1)]
    assert polyvec.f_to_h(v) == _padded(power_sum(v, -1), n + 1)
    assert polyvec.h_to_f(v) == _padded(power_sum(v, 1), n + 1)
    for j in range(n + 2):
        expected = power_sum(
            [naive_catalan(n - k - j) * comb(n - k, k) for k in range(min(n // 2, n - j) + 1)],
            -1,
        )
        assert polyvec.g_contrib(n, j) == expected
    gamma = tuple(rng.randint(-10**6, 10**6) for _ in range(n // 2 + 1))
    h = _padded(gamma_basis_sum(gamma, n), n + 1)
    assert polyvec.gamma_to_h(gamma, n) == h
    assert polyvec.h_to_gamma(h) == gamma


@given(st.integers(0, 40), st.data())
def test_toric_g_from_gamma_is_the_g_contrib_sum(n, data):
    gamma = data.draw(st.lists(st.integers(-1000, 1000), max_size=n // 2 + 1))
    expected = IntPoly()
    for j, g in enumerate(gamma):
        expected = expected + polyvec.g_contrib(n, j) * g
    assert polyvec.toric_g_from_gamma(n, gamma) == expected


@pytest.mark.parametrize("n", range(61))
def test_toric_g_from_gamma_matches_the_definition(n):
    """Each row against sum_j gamma_j sum_k C_{n-k-j} binom(n-k, k) (x-1)^k,
    with naive Catalan numbers and IntPoly powers, on a random gamma with
    negative and zero entries and zero padding past n//2."""
    rng = random.Random(n)
    gamma = [rng.choice((0, rng.randint(-10**6, 10**6))) for _ in range(rng.randint(0, n // 2 + 1))]
    gamma += [0] * rng.randint(0, 3)
    by_power = [
        sum(g * naive_catalan(n - k - j) * comb(n - k, k) for j, g in enumerate(gamma) if j <= n - k)
        for k in range(n // 2 + 1)
    ]
    assert polyvec.toric_g_from_gamma(n, gamma) == power_sum(by_power, -1)


@pytest.mark.parametrize("n", range(61))
def test_toric_g_from_h_is_the_cnix_product_sum(n):
    """The h route against an IntPoly sum of cnix(n, i) * (h_i - h_{i-1}),
    on a random palindromic h with negative and zero entries."""
    rng = random.Random(n)
    half = [rng.choice((0, rng.randint(-10**6, 10**6))) for _ in range(n // 2 + 1)]
    h = half + half[: (n + 1) // 2][::-1]
    assert polyvec.toric_g_from_h(n, h) == toric_g_by_cnix_products(n, h)


def test_cnix_examples():
    assert polyvec.cnix(5, 0) == IntPoly([1])
    assert polyvec.cnix(4, 2) == IntPoly([0, 1, 1])
    assert polyvec.cnix(2, 1) == IntPoly([0, 1])
    with pytest.raises(PreconditionError):
        polyvec.cnix(3, 2)


@pytest.mark.parametrize("n", range(1, 9))
def test_cnix_peak_oracle(n):
    """x^k coefficient of cnix(n, i) counts the nonnegative n-step paths to
    height n - 2i with k peaks (raw-product oracle)."""
    for i in range(n // 2 + 1):
        hist = Counter(
            naive_peaks_in_prefix(w, len(w))
            for w in nonneg_paths_to_height(n, n - 2 * i)
        )
        poly = polyvec.cnix(n, i)
        for k in range(max([poly.degree] + list(hist)) + 1):
            assert hist.get(k, 0) == poly.coeff(k)
        assert sum(hist.values()) == words.catalan_triangle(n, i)


def test_g_contrib_builds_only_the_catalan_numbers_it_reaches(monkeypatch):
    """g_contrib(n, j) reads C_{n-k-j} for k <= n/2 only, so it builds at
    most n//2 + 1 Catalan numbers, not the n + 1 of a whole row."""
    calls = []

    def counted(m):
        calls.append(m)
        return words.catalan(m)

    monkeypatch.setattr(polyvec, "catalan", counted)
    for n in range(25):
        for j in range(n + 1):
            calls.clear()
            polyvec.g_contrib(n, j)
            assert sorted(calls) == list(range(max(n - j - n // 2, 0), n - j + 1)), (n, j)


def test_g_contrib_examples():
    assert polyvec.g_contrib(2, 1) == IntPoly([0, 1])
    assert polyvec.g_contrib(4, 0) == IntPoly([1, 11, 2])
    assert polyvec.g_contrib(4, 1) == IntPoly([0, 4, 1])
    assert polyvec.g_contrib(4, 2) == IntPoly([0, 1, 1])
    assert polyvec.g_contrib(3, 5).is_zero()
    assert polyvec.g_contrib(5, 5) == IntPoly([1])


@pytest.mark.parametrize("n", range(10))
def test_g_contrib_peak_prefix_oracle(n):
    """x^k coefficient of g_contrib(n, j) counts Dyck words of semilength
    n - j with k peaks lying inside the first n letters."""
    for j in range(n // 2 + 1):
        hist = Counter(
            naive_peaks_in_prefix(w, n) for w in words.enumerate_words(n - j, "dyck")
        )
        poly = polyvec.g_contrib(n, j)
        for k in range(max([poly.degree] + list(hist)) + 1):
            assert hist.get(k, 0) == poly.coeff(k)


def test_toric_g_from_gamma_table_rows():
    assert polyvec.toric_g_from_gamma(4, [1, 6, 2]) == IntPoly([1, 37, 10])
    assert polyvec.toric_g_from_gamma(4, [1, 12, 6]) == IntPoly([1, 65, 20])
    assert polyvec.toric_g_from_gamma(4, [1, 22, 16]) == IntPoly([1, 115, 40])
    # zero padding is accepted, junk beyond n//2 is not
    assert polyvec.toric_g_from_gamma(4, [1, 6, 2, 0, 0]) == IntPoly([1, 37, 10])
    with pytest.raises(PreconditionError):
        polyvec.toric_g_from_gamma(4, [1, 6, 2, 7])


def test_toric_g_from_h_examples():
    assert polyvec.toric_g_from_h(2, (1, 1, 1)) == IntPoly([1])
    assert polyvec.toric_g_from_h(2, (1, 4, 1)) == IntPoly([1, 3])
    assert polyvec.toric_g_from_h(4, (1, 26, 66, 26, 1)) == IntPoly([1, 115, 40])
    with pytest.raises(StructuralError):
        polyvec.toric_g_from_h(2, (1, 2, 3))
    with pytest.raises(PreconditionError):
        polyvec.toric_g_from_h(3, (1, 1))


@pytest.mark.parametrize("family", ["cube", "associahedron", "cyclohedron", "permutahedron"])
@pytest.mark.parametrize("n", range(1, 61))
def test_route_agreement(family, n):
    gamma = polyvec.gamma_family(family, n)
    h = polyvec.gamma_to_h(gamma, n)
    assert polyvec.toric_g_from_h(n, h) == polyvec.toric_g_from_gamma(n, gamma)


@pytest.mark.parametrize("family", ["cube", "associahedron", "cyclohedron", "permutahedron"])
@pytest.mark.parametrize("n", range(1, 9))
def test_h_backward_difference(family, n):
    gamma = polyvec.gamma_family(family, n)
    h = polyvec.gamma_to_h(gamma, n)
    for i in range(1, n // 2 + 1):
        expected = sum(
            words.catalan_triangle(n - 2 * j, i - j) * gamma[j]
            for j in range(min(i, len(gamma) - 1) + 1)
        )
        assert h[i] - h[i - 1] == expected


def test_gamma_family_examples():
    assert polyvec.gamma_family("associahedron", 4) == (1, 6, 2)
    assert polyvec.gamma_family("cyclohedron", 4) == (1, 12, 6)
    assert polyvec.gamma_family("permutahedron", 4) == (1, 22, 16)
    assert polyvec.gamma_family("cube", 5) == (1, 0, 0)
    with pytest.raises(PreconditionError):
        polyvec.gamma_family("dodecahedron", 3)


def test_cube_toric_g_is_g_contrib():
    for n in range(1, 9):
        gamma = polyvec.gamma_family("cube", n)
        assert polyvec.toric_g_from_gamma(n, gamma) == polyvec.g_contrib(n, 0)


def test_narayana():
    assert polyvec.narayana(0) == IntPoly([0, 1])
    assert polyvec.narayana(2) == IntPoly([0, 1, 1])
    for k in range(1, 11):
        assert polyvec.narayana(k)(1) == words.catalan(k)


def test_peak_poly_examples():
    for n in range(7):
        assert polyvec.peak_poly(n, 0) == IntPoly([words.catalan(n)])
    assert polyvec.peak_poly(1, 2) == IntPoly([0, 1])
    with pytest.raises(PreconditionError):
        polyvec.peak_poly(2, 5)


@pytest.mark.parametrize("n", range(7))
def test_peak_poly_oracle(n):
    for m in range(2 * n + 1):
        hist = Counter(
            naive_peaks_in_prefix(w, m) for w in words.enumerate_words(n, "dyck")
        )
        got = polyvec.peak_poly(n, m)
        for k in range(max([got.degree] + list(hist)) + 1):
            assert hist.get(k, 0) == got.coeff(k)


@pytest.mark.parametrize("n", range(11))
def test_peak_poly_gives_g_contrib(n):
    for j in range(n // 2 + 1):
        assert polyvec.peak_poly(n - j, n) == polyvec.g_contrib(n, j)


def test_g_contrib_normalization():
    for n in range(13):
        g0 = polyvec.g_contrib(n, 0)
        assert g0(1) == words.catalan(n)
        assert g0(0) == 1


def test_sturm_examples():
    assert polyvec.sturm_real_rooted(IntPoly([0, 4, 1]))
    assert not polyvec.sturm_real_rooted(IntPoly([1, 1, 1]))
    assert polyvec.sturm_real_rooted(IntPoly([1, 37, 10]))
    assert polyvec.sturm_real_rooted(IntPoly([5]))
    assert polyvec.sturm_real_rooted(IntPoly([-3, 1]))
    # repeated roots: (x-1)^2 (x+2) is real-rooted, (x^2+1)(x-1)^2 is not
    assert polyvec.sturm_real_rooted(IntPoly([1, -1]) ** 2 * IntPoly([2, 1]))
    assert not polyvec.sturm_real_rooted(IntPoly([1, 0, 1]) * IntPoly([1, -1]) ** 2)
    with pytest.raises(PreconditionError):
        polyvec.sturm_real_rooted(IntPoly())


def test_sturm_on_g_contrib():
    for n in range(1, 13):
        for j in range(n // 2 + 1):
            assert polyvec.sturm_real_rooted(polyvec.g_contrib(n, j))


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=5))
def test_sturm_matches_factored_products(roots):
    # polynomials built as products of linear factors are real-rooted
    poly = IntPoly([1])
    for r in roots:
        poly = poly * IntPoly([-r, 1])
    assert polyvec.sturm_real_rooted(poly)


@given(
    st.integers(-9, 9).filter(bool),
    st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 3), st.integers(1, 3)), max_size=4),
    st.lists(
        st.integers(-6, 6).flatmap(
            lambda b: st.tuples(st.just(b), st.integers(b * b // 4 + 1, b * b // 4 + 12))
        ),
        max_size=2,
    ),
)
def test_sturm_on_products_with_known_roots(constant, linear, quadratics):
    """constant * prod (a x - r)^m * prod (x^2 + b x + c) with b^2 < 4c is
    real-rooted iff it has no such quadratic; a repeated real root, as in
    (x - r)^2, counts as real."""
    poly = IntPoly([constant])
    for r, a, m in linear:
        poly = poly * IntPoly([-r, a]) ** m
    for b, c in quadratics:
        poly = poly * IntPoly([c, b, 1])
    assert polyvec.sturm_real_rooted(poly) == (not quadratics)


def test_kruskal_katona():
    assert polyvec.kruskal_katona_ok([1, 0])
    assert polyvec.kruskal_katona_ok([1, 37, 10])
    assert not polyvec.kruskal_katona_ok([1, 2, 5])
    assert polyvec.kruskal_katona_ok([1, 4, 6, 4, 1])
    assert not polyvec.kruskal_katona_ok([1, 3, 4])
    with pytest.raises(PreconditionError):
        polyvec.kruskal_katona_ok([2, 1])


def test_kk_pseudopower():
    assert polyvec.kk_pseudopower(37, 1) == 666
    assert polyvec.kk_pseudopower(2, 1) == 1
    assert polyvec.kk_pseudopower(0, 3) == 0
    # m = binom(5,2) + binom(3,1): bound binom(5,3) + binom(3,2)
    assert polyvec.kk_pseudopower(13, 2) == 13


def test_kk_pseudopower_matches_linear_walk():
    rng = random.Random(4)
    for _ in range(300):
        m, k = rng.randint(0, 10 ** rng.randint(0, 4)), rng.randint(1, 8)
        assert polyvec.kk_pseudopower(m, k) == kk_pseudopower_linear(m, k), (m, k)


def test_kk_pseudopower_on_the_permutahedron_row():
    """The n = 10 row of the conjectures probe, whose first entry is about
    4 * 10**7: the linear walk takes seconds, the bisection microseconds."""
    n = 10
    g = polyvec.toric_g_from_gamma(n, polyvec.gamma_family("permutahedron", n))
    vec = [g.coeff(k) for k in range(n // 2 + 1)]
    bounds = [kk_pseudopower_linear(vec[k], k) for k in range(1, len(vec) - 1)]
    assert [polyvec.kk_pseudopower(vec[k], k) for k in range(1, len(vec) - 1)] == bounds
    expected = all(vec[k + 1] <= bound for k, bound in enumerate(bounds, start=1))
    assert polyvec.kruskal_katona_ok(vec) == expected


def test_from_counts():
    assert IntPoly.from_counts(Counter()) == IntPoly()
    assert IntPoly.from_counts(Counter({0: 1, 2: 3, 4: 0})) == IntPoly([1, 0, 3])
    assert IntPoly.from_counts({3: 0}).is_zero()
    assert IntPoly.from_counts({1: 2}).coeffs == (0, 2)


@pytest.mark.parametrize("call", [
    lambda: polyvec.toric_g_from_h(2, (1, "a", 1)),
    lambda: polyvec.toric_g_from_h(2.0, (1, 1, 1)),
    lambda: polyvec.toric_g_from_gamma(2, (1, "a")),
    lambda: polyvec.g_contrib(3.5, 1),
    lambda: polyvec.peak_poly(2, 1.5),
    lambda: polyvec.cnix(True, 0),
    lambda: polyvec.gamma_to_h((1, "a"), 2),
    lambda: polyvec.gamma_to_h((1,), 2.5),
    lambda: polyvec.h_to_gamma((1, "a", 1)),
    lambda: polyvec.f_to_h((1, "a")),
    lambda: polyvec.h_to_f((1, "a")),
    lambda: polyvec.narayana(1.5),
    lambda: polyvec.gamma_family("cube", 2.5),
    lambda: polyvec.gamma_family("cube", True),
    lambda: words.catalan(2.5),
    lambda: words.catalan(True),
    lambda: words.motzkin(2.5),
    lambda: words.catalan_triangle(3, 1.5),
    lambda: polyvec.kruskal_katona_ok([1, 2.5]),
    lambda: polyvec.kk_pseudopower(True, 1),
    lambda: polyvec.kk_pseudopower(2.5, 1),
    lambda: IntPoly((1, 1)) ** 2.5,
], ids=[
    "h-entry", "h-size", "gamma-entry", "g_contrib", "peak_poly", "cnix-bool",
    "gamma_to_h-entry", "gamma_to_h-n", "h_to_gamma", "f_to_h", "h_to_f", "narayana",
    "gamma_family", "gamma_family-bool", "catalan", "catalan-bool", "motzkin",
    "catalan_triangle", "kruskal_katona_ok", "kk_pseudopower-bool", "kk_pseudopower-float",
    "power",
])
def test_integer_arguments_are_checked(call):
    """Most raised a raw TypeError.  Some answered instead: cnix(True, 0)
    returned IntPoly([1]), kruskal_katona_ok([1, 2.5]) True,
    gamma_family('cube', True) (1,), catalan(True) 1 and
    kk_pseudopower(True, 1) 0; kk_pseudopower(2.5, 1) failed its
    termination invariant; IntPoly((1, 1)) ** 2.5 raised a raw TypeError."""
    with pytest.raises(PreconditionError, match="needs int arguments"):
        call()
