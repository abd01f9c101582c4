"""Truncated power series with exact polynomial coefficients, used to
verify the generating-function identities behind the g-contribution and
peak polynomials.

A TruncSeries is a finite sum of monomials in one or two series variables
(t, or y and z) whose coefficients are IntPoly values in x.  Terms whose
total degree in the series variables exceeds the truncation order are
dropped, so products of truncated series agree with the exact series on
every retained monomial; the x-direction is never truncated.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

from .errors import PreconditionError, SeriesIdentityError, require_ints, require_size
from .polyvec import IntPoly, X, X_MINUS_1, _operand, g_contrib, narayana, peak_poly
from .ints import catalan

_ZERO = IntPoly()
_ONE = IntPoly((1,))


class TruncSeries:
    """Truncated multivariate series; immutable value semantics.  ``terms``
    is a read-only view of the kept monomials."""

    __slots__ = ("variables", "order", "terms")

    def __init__(self, variables: tuple[str, ...], order: int,
                 terms: Mapping[tuple[int, ...], IntPoly] | None = None):
        # the type test shares the range guard: every sum and product builds a series
        if type(order) is not int or order < 0:
            require_ints("TruncSeries order", order)
            raise PreconditionError("truncation order must be >= 0")
        clean: dict[tuple[int, ...], IntPoly] = {}
        for exps, coeff in (terms or {}).items():
            if len(exps) != len(variables):
                raise PreconditionError(f"exponent tuple {exps} does not match {variables}")
            if sum(exps) <= order and not coeff.is_zero():
                clean[exps] = coeff
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "terms", MappingProxyType(clean))

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    def __reduce__(self):
        return TruncSeries, (self.variables, self.order, dict(self.terms))

    @classmethod
    def constant(cls, variables: tuple[str, ...], order: int, value) -> "TruncSeries":
        """value times 1, for an IntPoly or an int (a bool too)."""
        poly = _operand(value)
        if poly is None:
            raise PreconditionError(f"a series constant is an int or an IntPoly, got {value!r}")
        return cls(variables, order, {(0,) * len(variables): poly})

    def _coerce(self, other) -> "TruncSeries | None":
        """other as a series like self: a TruncSeries as it is, an IntPoly or
        an int (a bool too) as a constant, anything else None."""
        if isinstance(other, TruncSeries):
            return other
        poly = _operand(other)
        if poly is None:
            return None
        return TruncSeries(self.variables, self.order, {(0,) * len(self.variables): poly})

    @classmethod
    def monomial(cls, variables: tuple[str, ...], order: int,
                 exps: tuple[int, ...]) -> "TruncSeries":
        return cls(variables, order, {exps: _ONE})

    def _compatible(self, other: "TruncSeries") -> None:
        if self.variables != other.variables or self.order != other.order:
            raise PreconditionError("series have different variables or orders")

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (self.variables == other.variables and self.order == other.order
                and self.terms == other.terms)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._compatible(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            out[exps] = out.get(exps, _ZERO) + coeff
        return TruncSeries(self.variables, self.order, out)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(
            self.variables, self.order,
            {e: -c for e, c in self.terms.items()},
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            poly = _operand(other)
            if poly is None:
                return NotImplemented
            return TruncSeries(
                self.variables, self.order,
                {e: c * poly for e, c in self.terms.items()},
            )
        self._compatible(other)
        out: dict[tuple[int, ...], IntPoly] = {}
        for e1, c1 in self.terms.items():
            d1 = sum(e1)
            for e2, c2 in other.terms.items():
                if d1 + sum(e2) > self.order:
                    continue
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, _ZERO) + c1 * c2
        return TruncSeries(self.variables, self.order, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        require_size("TruncSeries power", k, name="k")
        out = TruncSeries.constant(self.variables, self.order, 1)
        for _ in range(k):
            out = out * self
        return out

    def coeff(self, exps: tuple[int, ...]) -> IntPoly:
        return self.terms.get(exps, _ZERO)

    def __repr__(self):
        keys = sorted(self.terms)
        inner = ", ".join(f"{k}: {self.terms[k]!r}" for k in keys)
        return f"TruncSeries({self.variables}, {self.order}, {{{inner}}})"


def assert_series_equal(name: str, lhs: TruncSeries, rhs: TruncSeries) -> None:
    """Raise SeriesIdentityError at the first (sorted) offending monomial."""
    for exps in sorted(set(lhs.terms) | set(rhs.terms)):
        a, b = lhs.coeff(exps), rhs.coeff(exps)
        if a != b:
            raise SeriesIdentityError(name, exps, list(b.coeffs), list(a.coeffs))


def assert_poly_equal(name: str, monomial, got: IntPoly, expected: IntPoly) -> None:
    if got != expected:
        raise SeriesIdentityError(name, monomial, list(expected.coeffs), list(got.coeffs))


# ---------------------------------------------------------------------------
# The five identity families.
# ---------------------------------------------------------------------------


def g_series(j: int, order: int) -> TruncSeries:
    """G_j(x, t) = sum_n g_contrib(n, j) t^n truncated at t^order."""
    return TruncSeries(
        ("t",), order,
        {(n,): g_contrib(n, j) for n in range(order + 1)},
    )


def check_g_recurrence(order: int) -> int:
    """g_{n,j} = g_{n-1,j-1} + (x-1) g_{n-2,j-1} for n >= 2, j >= 1."""
    cases = 0
    for n in range(2, order + 1):
        for j in range(1, n + 2):
            lhs = g_contrib(n, j)
            rhs = g_contrib(n - 1, j - 1) + X_MINUS_1 * g_contrib(n - 2, j - 1)
            assert_poly_equal("g_recurrence", (n, j), lhs, rhs)
            cases += 1
    return cases


def check_g0_recurrence(order: int) -> int:
    """Coefficient recurrence equivalent to the quadratic equation for G_0:

        g_{n,0} = (x-1) sum_{m=2}^{n} g_{m-2,0} g_{n-m,0}
                  + sum_{m=1}^{n} g_{m-1,0} g_{n-m,0}   for n >= 1.
    """
    cases = 0
    g0 = [g_contrib(n, 0) for n in range(order + 1)]
    for n in range(1, order + 1):
        rhs = IntPoly()
        for m in range(2, n + 1):
            rhs = rhs + X_MINUS_1 * (g0[m - 2] * g0[n - m])
        for m in range(1, n + 1):
            rhs = rhs + g0[m - 1] * g0[n - m]
        assert_poly_equal("g0_recurrence", (n,), g0[n], rhs)
        cases += 1
    return cases


def check_g0_quadratic(order: int) -> int:
    """G_0 = t (1 - t + x t) G_0^2 + 1 up to t^order."""
    g0 = g_series(0, order)
    bracket = TruncSeries(
        ("t",), order,
        {(0,): _ONE, (1,): X - 1},
    )
    t = TruncSeries.monomial(("t",), order, (1,))
    assert_series_equal("g0_quadratic", g0, t * bracket * g0 * g0 + 1)
    return order + 1


def check_gj_product(order: int) -> int:
    """G_j = t^j (1 - t + x t)^j G_0 up to t^order, for 1 <= j <= order."""
    g0 = g_series(0, order)
    bracket = TruncSeries(("t",), order, {(0,): _ONE, (1,): X - 1})
    t = TruncSeries.monomial(("t",), order, (1,))
    cases = 0
    acc = g0
    for j in range(1, order + 1):
        acc = acc * t * bracket
        assert_series_equal(f"gj_product[j={j}]", g_series(j, order), acc)
        cases += order + 1
    return cases


def check_peak_gf(order: int) -> int:
    """P (1 - y z^2 N(x, y z^2) - y z C(y)) = C(y) up to total degree
    ``order`` in (y, z), where P = sum p_{n,m} y^n z^m, C is the Catalan
    series and N the Narayana series."""
    vs = ("y", "z")
    p_terms = {}
    for m in range(order + 1):
        for n in range((m + 1) // 2, order - m + 1):
            p_terms[(n, m)] = peak_poly(n, m)
    p = TruncSeries(vs, order, p_terms)
    c_of_y = TruncSeries(
        vs, order, {(n, 0): IntPoly((catalan(n),)) for n in range(order + 1)}
    )
    n_of_yz2 = TruncSeries(
        vs, order,
        {(k, 2 * k): narayana(k) for k in range(order // 3 + 1)},
    )
    y = TruncSeries.monomial(vs, order, (1, 0))
    yz = TruncSeries.monomial(vs, order, (1, 1))
    lhs = p * (1 - y * TruncSeries.monomial(vs, order, (0, 2)) * n_of_yz2 - yz * c_of_y)
    assert_series_equal("peak_gf", lhs, c_of_y)
    return len(p_terms)


def verify_series(order: int) -> dict:
    """Run the five identity families at the given truncation order.

    Returns a report dict; raises SeriesIdentityError naming the first
    offending coefficient when an identity fails.
    """
    require_size("verify_series", order, 1, "order")
    checks = []
    for name, fn in (
        ("g_recurrence", check_g_recurrence),
        ("g0_recurrence", check_g0_recurrence),
        ("g0_quadratic", check_g0_quadratic),
        ("gj_product", check_gj_product),
        ("peak_gf", check_peak_gf),
    ):
        cases = fn(order)
        checks.append({"name": name, "ok": True, "cases": cases})
    return {"order": order, "ok": True, "checks": checks}
