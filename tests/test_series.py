import pytest

from toricg import series
from toricg.errors import PreconditionError, SeriesIdentityError
from toricg.polyvec import IntPoly
from toricg.series import TruncSeries


def test_trunc_series_arithmetic():
    t = TruncSeries.monomial(("t",), 4, (1,))
    one = TruncSeries.constant(("t",), 4, 1)
    geom = one + t + t * t + t ** 3 + t ** 4
    # (1 - t) * (1 + t + t^2 + t^3 + t^4) = 1 up to t^4
    assert (one - t) * geom == one
    # truncation drops overflowing exponents
    assert (t ** 4) * t == TruncSeries(("t",), 4)
    assert (t * IntPoly([0, 1])).coeff((1,)) == IntPoly([0, 1])


def test_trunc_series_repr():
    """The text evaluates back; it wrote order=4 before the terms, a
    positional argument after a keyword one."""
    t = TruncSeries.monomial(("t",), 4, (1,))
    assert repr(TruncSeries(("t",), 4)) == "TruncSeries(('t',), 4, {})"
    assert repr(3 * t + 1) == (
        "TruncSeries(('t',), 4, {(0,): IntPoly([1]), (1,): IntPoly([3])})"
    )
    y = TruncSeries.monomial(("y", "z"), 3, (1, 0))
    z = TruncSeries.monomial(("y", "z"), 3, (0, 1))
    names = {"TruncSeries": TruncSeries, "IntPoly": IntPoly}
    for s in (3 * t + 1, y * z * IntPoly((0, 2)) - y + 5):
        assert eval(repr(s), names) == s


def test_trunc_series_is_immutable():
    """s.order = 5 was accepted."""
    t = TruncSeries.monomial(("t",), 4, (1,))
    for name, value in (("order", 5), ("variables", ("s",)), ("terms", {})):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(t, name, value)
    assert t == TruncSeries(("t",), 4, {(1,): IntPoly((1,))})


def test_trunc_series_terms_are_read_only():
    """s.terms[(9,)] = ... was accepted on an order-4 series, and s.coeff((9,))
    then answered a term above the truncation order."""
    s = TruncSeries.monomial(("t",), 4, (1,))
    with pytest.raises(TypeError):
        s.terms[(9,)] = IntPoly((1,))
    with pytest.raises(TypeError):
        del s.terms[(1,)]
    assert s.coeff((9,)) == IntPoly() and dict(s.terms) == {(1,): IntPoly((1,))}
    assert s == TruncSeries(("t",), 4, {(1,): IntPoly((1,))})
    assert repr(s) == "TruncSeries(('t',), 4, {(1,): IntPoly([1])})"


def test_trunc_series_takes_a_bool_operand_as_an_int():
    """t + True, t * True, t - True and True - t raised PreconditionError,
    while IntPoly takes True as 1."""
    t = TruncSeries.monomial(("t",), 4, (1,))
    one = TruncSeries.constant(("t",), 4, 1)
    for got, want in (
        (t + True, t + 1), (True + t, 1 + t), (t * True, t), (True * t, t),
        (t - True, t - 1), (True - t, 1 - t), (TruncSeries.constant(("t",), 4, True), one),
    ):
        assert got == want
        assert all(type(c) is int for poly in got.terms.values() for c in poly.coeffs)
    with pytest.raises(TypeError):
        t + "1"


def test_trunc_series_guards():
    t = TruncSeries.monomial(("t",), 4, (1,))
    other = TruncSeries.monomial(("t",), 5, (1,))
    with pytest.raises(PreconditionError):
        t + other
    with pytest.raises(PreconditionError):
        TruncSeries(("t",), 3, {(1, 1): IntPoly([1])})


@pytest.mark.parametrize("order", [1.5, True], ids=["float", "bool"])
def test_trunc_series_refuses_an_order_that_is_not_an_int(order):
    """A float or bool order was accepted and kept."""
    with pytest.raises(PreconditionError, match="TruncSeries order needs int arguments"):
        TruncSeries(("t",), order)


@pytest.mark.parametrize("k", [2.0, True], ids=["float", "bool"])
def test_trunc_series_refuses_a_power_that_is_not_an_int(k):
    """s ** 2.0 raised a raw TypeError from range() and s ** True was taken
    as s ** 1."""
    t = TruncSeries.monomial(("t",), 4, (1,))
    with pytest.raises(PreconditionError, match="TruncSeries power needs int arguments"):
        t ** k


@pytest.mark.parametrize("op", [
    lambda s: s + 1.5, lambda s: 1.5 + s, lambda s: s - 1.5, lambda s: 1.5 - s,
    lambda s: s * 1.5, lambda s: 1.5 * s, lambda s: s + "t",
], ids=["add", "radd", "sub", "rsub", "mul", "rmul", "add-str"])
def test_trunc_series_foreign_operand_is_a_type_error(op):
    """A foreign operand gets NotImplemented back, as IntPoly gives it, so
    Python raises its own TypeError; s + 1.5 raised an AttributeError."""
    t = TruncSeries.monomial(("t",), 4, (1,))
    with pytest.raises(TypeError, match="unsupported operand"):
        op(t)


def test_verify_series_passes():
    report = series.verify_series(7)
    assert report["ok"]
    names = [c["name"] for c in report["checks"]]
    assert names == [
        "g_recurrence",
        "g0_recurrence",
        "g0_quadratic",
        "gj_product",
        "peak_gf",
    ]
    with pytest.raises(PreconditionError):
        series.verify_series(0)


def test_order_one_trivial():
    assert series.verify_series(1)["ok"]


def test_perturbation_is_detected():
    """Negative control: corrupting one coefficient must raise a named
    failure pointing at the offending monomial."""
    order = 6
    g0 = series.g_series(0, order)
    bad_terms = dict(g0.terms)
    bad_terms[(3,)] = bad_terms[(3,)] + IntPoly([1])
    bad = TruncSeries(("t",), order, bad_terms)
    with pytest.raises(SeriesIdentityError) as err:
        series.assert_series_equal("negative_control", g0, bad)
    assert err.value.name == "negative_control"
    assert err.value.monomial == (3,)
    assert "negative_control" in str(err.value)
