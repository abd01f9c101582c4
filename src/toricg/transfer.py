"""The direct toric g rows of the named families, counted by one transfer
walk over pairs of words instead of listed object by object.

The Garsia–Haiman pairing turns a function f: [n] -> [n] into (σ, w) with
w = U^{q_1} D ⋯ U^{q_n} D, q_j = |f⁻¹(j)|: f avoids 123 iff σ does, f has
asc(σ⁻¹) weak ascents, and each descent i of σ ends a fiber, that is, the
i-th U of w is followed by a D.  Krattenthaler's bijection turns σ into a
Dyck word v with asc(σ⁻¹) = #UUD(v), the ascents of σ being the i whose
i-th D of v is the middle of a UDD.  Writing

    v = U^{a_1} D ⋯ U^{a_n} D,    w = D^{b_0} U D^{b_1} ⋯ U D^{b_n},

a row is the sum, over the pairs with (a_i ≥ 1 and a_{i+1} = 0) or
b_i ≥ 1 for every i < n, of x^{#{i : a_i ≥ 2}}.  The family fixes only
the class of w: a Dyck word (associahedron: the parking functions), any
word ending in D (cyclohedron: all functions), (UD)^n (cube: the
permutations alone), or a Dyck word whose D steps each weigh their height
after the step plus 1 (permutahedron: the 123-avoiding parking trees, the
weight of w counting the right-adjusted permutations whose child counts
are its fiber sizes).  The permutahedron's trees also forbid UUU in w,
which the pairing condition already implies: b_i = 0 forces a_{i+1} = 0,
and then b_{i+1} ≥ 1 unless i + 1 = n.

The walk reads the pairs one step i at a time, a_i (the v half) and then
b_i (the w half), keeping the polynomial of each state (A_i, B_i) =
(a_1 + ⋯ + a_i, b_0 + ⋯ + b_i) and whether b_i = 0, which needs a_i ≥ 1
and pins a_{i+1} to 0 (every class has b_n ≥ 1).  Each half sums its
choices along one coordinate with a running sum, so a row costs O(n^3)
additions of coefficient lists of length n // 2 + 1.
"""

from __future__ import annotations

from operator import add

from .errors import PreconditionError, require_size
from .polyvec import _FAMILIES, IntPoly


def _b_range(family: str, n: int, i: int) -> tuple[int, int]:
    """The least and greatest B_i that the class of w allows."""
    if family == "cube":
        return i, i
    if i == n:
        return n, n
    return (0, n - 1) if family == "cyclohedron" else (0, i)


def family_row(family: str, n: int) -> IntPoly:
    """The direct toric g-polynomial of an n-dimensional named family,
    from the walk above; it reads no gamma-vector."""
    require_size("family_row", n)
    if family not in _FAMILIES:
        raise PreconditionError(f"unknown family {family!r}; expected one of {_FAMILIES}")
    zero = [0] * (n // 2 + 1)  # x counts the a_i >= 2, at most n // 2 of them
    plus = lambda p, q: list(map(add, p, q))
    grid = lambda: [[zero] * (n + 1) for _ in range(n + 1)]  # [A][B]
    free, pinned = grid(), grid()  # after b_i >= 1, after b_i = 0
    lo, hi = _b_range(family, n, 0)
    for b in range(lo, hi + 1):
        free[0][b] = [1] + zero[1:]
    for i in range(1, n + 1):
        up, flat = grid(), grid()  # after a_i >= 1, after a_i = 0
        for b in range(lo, hi + 1):
            below = zero  # the states at A_{i-1} <= A_i - 2, for a_i >= 2
            for a in range(1, n + 1):
                if a >= 2:
                    below = plus(below, free[a - 2][b])
                if a >= i:  # v stays a Dyck word
                    up[a][b] = plus(free[a - 1][b], [0] + below[:-1])
                    flat[a][b] = plus(free[a][b], pinned[a][b])
        lo, hi = _b_range(family, n, i)
        free, pinned = grid(), grid()
        for a in range(i, n + 1):
            above = zero  # the states at B_{i-1} < B_i, for b_i >= 1, weighted
            for b in range(hi + 1):
                if b >= 1:
                    above = plus(above, plus(up[a][b - 1], flat[a][b - 1]))
                    if family == "permutahedron":  # the D step to b: height i - b, plus 1
                        above = [c * (i - b + 1) for c in above]
                if b >= lo:
                    free[a][b] = above
                    pinned[a][b] = up[a][b]
    return IntPoly._trusted(plus(free[n][n], pinned[n][n]))
