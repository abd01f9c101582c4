"""Exact integer polynomials and the f/h/gamma/toric-g pipeline.

All arithmetic is over Python's arbitrary-precision integers, with no
rationals anywhere: the Narayana/triangle prefactors divide exactly (a
remainder raises StructuralError), and each link of the Sturm chain is a
positive integer multiple of the rational one.

The toric g-polynomial of an n-dimensional simple polytope with
gamma-vector (gamma_0, ..., gamma_{n//2}) is

    sum_j gamma_j * g_contrib(n, j),

where g_contrib(n, j) = sum_k C_{n-k-j} binom(n-k, k) (x-1)^k; a row is
summed as binom(n-k, k) * sum_j gamma_j C_{n-k-j} over one Catalan list.
The same polynomial also comes out of the h-vector route

    h_0 + sum_i (h_i - h_{i-1}) * cnix(n, i),

and both routes are exposed so they can be checked against each other.

Every f/h/gamma/toric-g conversion works on plain int coefficient lists:
the changes of variable x -> x - 1 and x -> x + 1 go through the one
Horner routine ``_shift``, and the gamma basis x^j (1+x)^{n-2j} through
its binomial coefficients.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, gcd
from operator import add, mul, sub
from typing import Iterable, Mapping, Sequence

from .errors import PreconditionError, StructuralError, require_ints, require_size
from .ints import catalan, read_ints

_FAMILIES = ("cube", "associahedron", "cyclohedron", "permutahedron")


def _trimmed(cs: list[int]) -> tuple[int, ...]:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class IntPoly:
    """Univariate polynomial with int coefficients, low degree first.

    Immutable; trailing zeros are trimmed and the zero polynomial has an
    empty coefficient tuple.  Every coefficient must be an int (not a bool):
    the constructor checks it, while sums, differences and products, whose
    coefficients are ints by construction, skip the check through
    ``_trusted``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if type(c) is not int:
                raise PreconditionError(f"IntPoly coefficients must be ints, got {c!r}")
        object.__setattr__(self, "coeffs", _trimmed(cs))

    @classmethod
    def _trusted(cls, cs: list[int]) -> "IntPoly":
        """An IntPoly from a list of ints, without the type check."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "coeffs", _trimmed(cs))
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    def __reduce__(self):
        return IntPoly, (self.coeffs,)

    @classmethod
    def from_counts(cls, counts: Mapping[int, int]) -> "IntPoly":
        """sum_k counts[k] x^k, from a histogram of exponents."""
        return cls([counts.get(k, 0) for k in range(max(counts, default=-1) + 1)])

    @classmethod
    def from_text(cls, text: str) -> "IntPoly":
        return cls(read_ints(text, ",", signed=True)) if text.strip() else cls()

    def to_text(self) -> str:
        return ",".join(str(c) for c in self.coeffs)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its int, so it hashes as that int
        cs = self.coeffs
        return hash(cs) if len(cs) > 1 else hash(cs[0] if cs else 0)

    def __add__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPoly._trusted([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    __radd__ = __add__

    def __neg__(self):
        return IntPoly._trusted([-c for c in self.coeffs])

    def __sub__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly._trusted([other * c for c in self.coeffs])
        if not isinstance(other, IntPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return IntPoly._trusted([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly._trusted(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        require_size("IntPoly power", k, name="k")
        out = IntPoly((1,))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __call__(self, value):
        out = 0
        for c in reversed(self.coeffs):
            out = out * value + c
        return out

    def derivative(self) -> "IntPoly":
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                base = "x" if i == 1 else f"x^{i}"
                parts.append(base if c == 1 else f"-{base}" if c == -1 else f"{c}*{base}")
        return " + ".join(parts).replace("+ -", "- ")


def _operand(value) -> IntPoly | None:
    """value as an IntPoly, an int (a bool too) as an int constant, or None."""
    if isinstance(value, IntPoly):
        return value
    if isinstance(value, int):
        return IntPoly._trusted([int(value)])
    return None


X = IntPoly((0, 1))
X_MINUS_1 = IntPoly((-1, 1))


# ---------------------------------------------------------------------------
# f / h / gamma transforms.
# ---------------------------------------------------------------------------


def _shift(coeffs: Sequence[int], a: int) -> list[int]:
    """Coefficients of sum_i coeffs[i] (x+a)^i for a = 1 or -1, as many as
    given, by Horner's rule: out <- out * (x+a) + c from the top down."""
    step = add if a == 1 else sub
    out: list[int] = []
    for c in reversed(coeffs):
        out = list(map(step, [c] + out, out + [0]))
    return out


def f_to_h(fvec: Sequence[int]) -> tuple[int, ...]:
    """h-vector from the face-count vector: sum h_i x^i = sum f_i (x-1)^i."""
    require_ints("f_to_h", *fvec)
    return tuple(_shift(fvec, -1))


def h_to_f(hvec: Sequence[int]) -> tuple[int, ...]:
    """Inverse of f_to_h: substitute x -> x + 1."""
    require_ints("h_to_f", *hvec)
    return tuple(_shift(hvec, 1))


def is_palindromic(vec: Sequence[int]) -> bool:
    return list(vec) == list(reversed(vec))


def h_to_gamma(hvec: Sequence[int]) -> tuple[int, ...]:
    """Coordinates of a palindromic h-polynomial in the basis
    x^j (1+x)^{n-2j}, whose x^i coefficient is binom(n-2j, i-j);
    triangular, hence unique."""
    require_ints("h_to_gamma", *hvec)
    if not hvec:
        raise PreconditionError("empty h-vector")
    if not is_palindromic(hvec):
        raise StructuralError(f"h-vector is not palindromic: {list(hvec)!r}")
    n = len(hvec) - 1
    residual = list(hvec)
    gamma = []
    for j in range(n // 2 + 1):
        g = residual[j]
        gamma.append(g)
        for i in range(j, n - j + 1):
            residual[i] -= g * comb(n - 2 * j, i - j)
    if any(residual):
        raise StructuralError(f"h-vector is not palindromic: {list(hvec)!r}")
    return tuple(gamma)


def gamma_to_h(gamma: Sequence[int], n: int) -> tuple[int, ...]:
    """h-vector of dimension n with the given gamma coordinates:
    h_i = sum_j gamma_j binom(n-2j, i-j)."""
    require_ints("gamma_to_h", n, *gamma)
    if len(gamma) > n // 2 + 1 and any(gamma[n // 2 + 1 :]):
        raise PreconditionError(f"gamma has entries beyond index {n // 2}")
    hvec = [0] * (n + 1)
    for j, g in enumerate(gamma[: n // 2 + 1]):
        for i in range(j, n - j + 1):
            hvec[i] += g * comb(n - 2 * j, i - j)
    return tuple(hvec)


# ---------------------------------------------------------------------------
# Toric g machinery.
# ---------------------------------------------------------------------------


def cnix(n: int, i: int) -> IntPoly:
    """The peak-counting triangle polynomial C(n, i, x); its x^k coefficient
    is the number of nonnegative paths with n steps from the origin to
    height n - 2i having k peaks.  C(n, 0, x) = 1."""
    # the type tests share the range guard, since toric_g_from_h calls
    # cnix once per h-vector entry
    if type(n) is not int or type(i) is not int or n < 0 or i < 0 or 2 * i > n:
        require_ints("cnix", n, i)
        raise PreconditionError(f"cnix needs 0 <= i <= n/2, got ({n}, {i})")
    if i == 0:
        return IntPoly((1,))
    coeffs = [0] * (i + 1)
    for k in range(1, i + 1):
        coeffs[k], rest = divmod((n + 1 - 2 * i) * comb(n - i, k - 1) * comb(i - 1, k - 1), k)
        if rest:
            raise StructuralError(f"cnix({n},{i}) coefficient x^{k} not integral")
    return IntPoly(coeffs)


def g_contrib(n: int, j: int) -> IntPoly:
    """The contribution of the j-th gamma entry to the toric g-polynomial:
    sum_k C_{n-k-j} binom(n-k, k) (x-1)^k; zero when j > n."""
    if type(n) is not int or type(j) is not int or n < 0 or j < 0:
        require_ints("g_contrib", n, j)
        raise PreconditionError("g_contrib needs n >= 0 and j >= 0")
    if j > n:
        return IntPoly()
    return IntPoly._trusted(_shift(_by_power(n, [1], j), -1))


def _by_power(n: int, weights: Sequence[int], first: int = 0) -> list[int]:
    """(x-1)-coefficients binom(n-k, k) * sum_j w_j C_{n-k-j}, k <= n/2, of
    sum_j w_j * g_contrib(n, j), where w_{first+i} = weights[i] and the other
    w_j are 0; cats[k:] reads C_{n-first-k} down to the last C they reach."""
    top = n - first
    cats = [catalan(m) for m in range(top, max(top - n // 2 - len(weights), -1), -1)]
    return [comb(n - k, k) * sum(map(mul, weights, cats[k:])) for k in range(n // 2 + 1)]


def toric_g_from_gamma(n: int, gamma: Sequence[int]) -> IntPoly:
    """sum_j gamma_j * g_contrib(n, j), summed in the (x-1) basis and
    shifted once; gamma may be zero padded."""
    require_ints("toric_g_from_gamma", n, *gamma)
    if len(gamma) > n // 2 + 1 and any(gamma[n // 2 + 1 :]):
        raise PreconditionError(f"gamma has entries beyond index {n // 2}")
    return IntPoly._trusted(_shift(_by_power(n, gamma[: n // 2 + 1]), -1))


def toric_g_from_h(n: int, hvec: Sequence[int]) -> IntPoly:
    """h-vector route: h_0 + sum_i (h_i - h_{i-1}) * cnix(n, i).

    Agrees with toric_g_from_gamma(n, h_to_gamma(hvec)) on every
    palindromic h-vector.
    """
    require_ints("toric_g_from_h", n, *hvec)
    if len(hvec) != n + 1:
        raise PreconditionError(f"h-vector must have length {n + 1}")
    if not is_palindromic(hvec):
        raise StructuralError(f"h-vector is not palindromic: {list(hvec)!r}")
    out = [hvec[0]] + [0] * (n // 2)
    for i, diff in enumerate(map(sub, hvec[1 : n // 2 + 1], hvec), 1):
        if diff:
            for k, c in enumerate(cnix(n, i).coeffs):
                out[k] += diff * c
    return IntPoly._trusted(out)


def narayana(k: int) -> IntPoly:
    """Narayana polynomial (1/k) sum_j binom(k,j) binom(k,j-1) x^j for k > 0,
    with the boundary value N_0(x) = x; N_k(1) = catalan(k) for k >= 1."""
    if type(k) is not int or k < 0:  # _peak calls it once per term
        require_ints("narayana", k)
        raise PreconditionError("narayana needs k >= 0")
    if k == 0:
        return X
    coeffs = [0] * (k + 1)
    for j in range(1, k + 1):
        coeffs[j], rest = divmod(comb(k, j) * comb(k, j - 1), k)
        if rest:
            raise StructuralError(f"narayana({k}) coefficient x^{j} not integral")
    return IntPoly(coeffs)


def peak_poly(n: int, m: int) -> IntPoly:
    """Weight enumerator of Dyck words of semilength n where each word
    contributes x^(number of UD factors inside its length-m prefix).

    Computed from the recurrence splitting off the shortest balanced
    prefix U u' D; the initial condition is the constant catalan(n) at
    m = 0.  Satisfies peak_poly(n - j, n) = g_contrib(n, j) for 2j <= n.
    """
    if type(n) is not int or type(m) is not int or n < 0 or m < 0 or m > 2 * n:
        require_ints("peak_poly", n, m)
        raise PreconditionError(f"peak_poly needs 0 <= m <= 2n, got ({n}, {m})")
    return _peak(n, m)


@lru_cache(maxsize=None)
def _peak(n: int, m: int) -> IntPoly:
    if m == 0:
        return IntPoly((catalan(n),))
    out = IntPoly()
    for k in range((m - 2) // 2 + 1):
        out = out + narayana(k) * _peak(n - k - 1, m - 2 * k - 2)
    for k in range((m - 1 + 1) // 2, n):
        out = out + _peak(k, m - 1) * catalan(n - k - 1)
    return out


# ---------------------------------------------------------------------------
# Named gamma-vector families.
# ---------------------------------------------------------------------------


def gamma_family(family: str, n: int) -> tuple[int, ...]:
    """Gamma-vector of a named n-dimensional simple polytope family.

    cube            via the h-vector (binom(n, i)), exercising h_to_gamma
    associahedron   gamma_j = C_j * binom(n, 2j)
    cyclohedron     gamma_j = binom(2j, j) * binom(n, 2j)
    permutahedron   gamma_{n,j} = (j+1) gamma_{n-1,j} + (2n+2-4j) gamma_{n-1,j-1}
    """
    require_size("gamma_family", n, 1)
    if family == "cube":
        return h_to_gamma(tuple(comb(n, i) for i in range(n + 1)))
    if family == "associahedron":
        return tuple(catalan(j) * comb(n, 2 * j) for j in range(n // 2 + 1))
    if family == "cyclohedron":
        return tuple(comb(2 * j, j) * comb(n, 2 * j) for j in range(n // 2 + 1))
    if family == "permutahedron":
        gam = (1,)
        for m in range(2, n + 1):
            prev = gam
            gam = tuple(
                (j + 1) * (prev[j] if j < len(prev) else 0)
                + (2 * m + 2 - 4 * j) * (prev[j - 1] if 1 <= j <= len(prev) else 0)
                for j in range(m // 2 + 1)
            )
        return gam
    raise PreconditionError(f"unknown family {family!r}; expected one of {_FAMILIES}")


# ---------------------------------------------------------------------------
# Conjecture probes: real-rootedness and Kruskal-Katona.
# ---------------------------------------------------------------------------


def _next_link(a: list[int], b: list[int]) -> list[int]:
    """-rem(a, b) as a positive integer multiple of the rational remainder,
    divided by its content; [] when b divides a.  Each division step scales
    the dividend by |lead(b)| > 0, so every sign is kept."""
    scale, sign = abs(b[-1]), 1 if b[-1] > 0 else -1
    r = a[:]
    while len(r) >= len(b):
        top, shift = sign * r[-1], len(r) - len(b)
        r = [scale * c for c in r]
        for i, c in enumerate(b):
            r[shift + i] -= top * c
        while r and r[-1] == 0:
            r.pop()
    content = gcd(*r)
    return [-c // content for c in r]


def sturm_real_rooted(p: IntPoly) -> bool:
    """Decide exactly whether every complex root of p is real.

    Builds the Sturm chain p, p', -rem, ... on int coefficient lists
    (``_next_link``) until a constant or a zero remainder.  The chain then
    ends at gcd(p, p'), and its sign variations at -infinity minus
    +infinity count the distinct real roots even when some are multiple;
    p has deg p - deg gcd(p, p') distinct roots, and is real-rooted when
    the two counts agree.
    """
    if p.is_zero():
        raise PreconditionError("the zero polynomial has no root count")
    if p.degree <= 1:
        return True
    chain = [list(p.coeffs), list(p.derivative().coeffs)]
    while len(chain[-1]) > 1:
        link = _next_link(chain[-2], chain[-1])
        if not link:
            break
        chain.append(link)
    def variations(signs: list[bool]) -> int:
        return sum(x != y for x, y in zip(signs, signs[1:]))

    at_plus = [s[-1] > 0 for s in chain]
    at_minus = [(s[-1] > 0) != (len(s) % 2 == 0) for s in chain]
    return variations(at_minus) - variations(at_plus) == p.degree - (len(chain[-1]) - 1)


def kk_pseudopower(m: int, k: int) -> int:
    """Greedy cascade bound: largest legal successor of m sets of size k."""
    require_size("kk_pseudopower", m, name="m")
    require_size("kk_pseudopower", k, 1, "k")
    total = 0
    kk = k
    while m > 0:
        if kk == 0:
            raise AssertionError("cascade representation did not terminate")
        a = _largest_top(m, kk)
        total += comb(a, kk + 1)
        m -= comb(a, kk)
        kk -= 1
    return total


def _largest_top(m: int, k: int) -> int:
    """The largest a >= k with comb(a, k) <= m, for m >= 1: the step
    doubles until it overshoots, then the gap is bisected."""
    lo, step = k, 1
    while comb(lo + step, k) <= m:
        lo += step
        step *= 2
    hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if comb(mid, k) <= m:
            lo = mid
        else:
            hi = mid
    return lo


def kruskal_katona_ok(v: Sequence[int]) -> bool:
    """True when v_0 = 1 and v_{k+1} <= kk_pseudopower(v_k, k) for all
    k >= 1; trailing zeros are ignored."""
    vec = list(v)
    require_ints("kruskal_katona_ok", *vec)
    if not vec or vec[0] != 1:
        raise PreconditionError("vector must start with v_0 = 1")
    if any(x < 0 for x in vec):
        raise PreconditionError("entries must be nonnegative")
    while vec and vec[-1] == 0:
        vec.pop()
    for k in range(1, len(vec) - 1):
        if vec[k + 1] > kk_pseudopower(vec[k], k):
            return False
    return True
