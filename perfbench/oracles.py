"""Reference computations the benchmark checks the program against.

Nothing here imports toricg.  Each function re-derives a quantity from its
definition or from a published formula, by a method the program does not
use, so that agreement is evidence and not a copy of today's output:

* toric g rows from the contribution-polynomial sum, with gamma-vectors
  from closed formulas and, for the permutahedron, from the Eulerian
  numbers through a triangular change of basis;
* ascent statistics of 123-avoiding (parking) functions and permutations
  by brute force over all functions, which the paper proves equal to the
  rows of the associahedron, cyclohedron and cube;
* a Kruskal-Katona check whose cascade is found by binary search;
* real-rootedness from sympy's exact real-root count;
* B-permutations by a depth-first prefix search in which the component of
  an element is the union of the members containing it, and h-vectors as
  their descent counts.

Polynomials are lists of ints, lowest degree first, without trailing zeros.
"""

from __future__ import annotations

import hashlib
import itertools
from functools import lru_cache
from math import comb


def trim(coeffs) -> list[int]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def lines_digest(lines) -> str:
    """sha256 of the lines joined by newlines, each newline-terminated."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Closed forms.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def g_contrib(n: int, j: int) -> tuple[int, ...]:
    """sum_k C_{n-k-j} binom(n-k, k) (x-1)^k, expanded coefficientwise:
    the x^i coefficient is sum_k C_{n-k-j} binom(n-k, k) binom(k, i) (-1)^(k-i)."""
    if j > n:
        return ()
    top = min(n // 2, n - j)
    out = []
    for i in range(top + 1):
        out.append(sum(
            catalan(n - k - j) * comb(n - k, k) * comb(k, i) * (-1) ** (k - i)
            for k in range(i, top + 1)
        ))
    return tuple(trim(out))


def eulerian(m: int) -> list[int]:
    """Permutations of [m] by number of descents, from the recurrence
    A(m, k) = (k + 1) A(m - 1, k) + (m - k) A(m - 1, k - 1)."""
    row = [1]
    for size in range(2, m + 1):
        prev = row + [0]
        row = [(k + 1) * prev[k] + (size - k) * (prev[k - 1] if k else 0) for k in range(size)]
    return row


def h_to_gamma(h) -> list[int]:
    """Coordinates of a palindromic h-vector in the basis x^j (1+x)^(n-2j),
    solved from the low coefficients up; None when h is not in the span."""
    n = len(h) - 1
    residual = list(h)
    gamma = []
    for j in range(n // 2 + 1):
        g = residual[j]
        gamma.append(g)
        for i in range(n - 2 * j + 1):
            residual[j + i] -= g * comb(n - 2 * j, i)
    return gamma if not any(residual) else None


def gamma_to_h(gamma, n: int) -> list[int]:
    h = [0] * (n + 1)
    for j, g in enumerate(gamma):
        for i in range(n - 2 * j + 1):
            h[j + i] += g * comb(n - 2 * j, i)
    return h


def gamma_family(family: str, n: int) -> list[int]:
    if family == "cube":
        return [1] + [0] * (n // 2)
    if family == "associahedron":
        return [catalan(j) * comb(n, 2 * j) for j in range(n // 2 + 1)]
    if family == "cyclohedron":
        return [comb(2 * j, j) * comb(n, 2 * j) for j in range(n // 2 + 1)]
    if family == "permutahedron":
        return h_to_gamma(eulerian(n + 1))
    raise ValueError(family)


def toric_g(n: int, gamma) -> list[int]:
    out: list[int] = []
    for j, g in enumerate(gamma):
        if g:
            poly = g_contrib(n, j)
            out += [0] * (len(poly) - len(out))
            for i, c in enumerate(poly):
                out[i] += g * c
    return trim(out)


def family_row(family: str, n: int) -> list[int]:
    return toric_g(n, gamma_family(family, n))


def peak_poly(n: int, m: int) -> list[int]:
    """Dyck words of semilength n weighted by x^(UD factors inside the
    length-m prefix), by a transfer count over (height, last step, peaks)."""
    # state: (height, last step was U) -> polynomial in peaks
    states = {(0, False): [1]}
    for step in range(2 * n):
        nxt: dict = {}
        for (height, last_up), poly in states.items():
            for up in (True, False):
                h2 = height + (1 if up else -1)
                if h2 < 0 or h2 > 2 * n - step - 1:
                    continue
                shift = 1 if (last_up and not up and step < m) else 0
                acc = nxt.setdefault((h2, up), [])
                for i, c in enumerate(poly):
                    while len(acc) <= i + shift:
                        acc.append(0)
                    acc[i + shift] += c
        states = nxt
    total: list[int] = []
    for (height, _), poly in states.items():
        if height == 0:
            total += [0] * (len(poly) - len(total))
            for i, c in enumerate(poly):
                total[i] += c
    return trim(total)


# ---------------------------------------------------------------------------
# Brute-force ascent statistics (the paper's theorems at small n).
# ---------------------------------------------------------------------------


def is_weak_123_avoiding(f) -> bool:
    n = len(f)
    return not any(
        f[a] <= f[b] <= f[c]
        for a in range(n) for b in range(a + 1, n) for c in range(b + 1, n)
    )


def is_parking(f) -> bool:
    return all(v <= k for k, v in enumerate(sorted(f), start=1))


def weak_ascents(f) -> int:
    return sum(1 for i in range(len(f) - 1) if f[i] <= f[i + 1])


def histogram(values) -> list[int]:
    out: list[int] = []
    for v in values:
        out += [0] * (v + 1 - len(out))
        out[v] += 1
    return trim(out)


def brute_force_row(family: str, n: int) -> list[int] | None:
    """Ascent statistic whose generating polynomial the paper proves equal
    to the toric g row: 123-avoiding parking functions (associahedron),
    123-avoiding functions (cyclohedron), 123-avoiding permutations by
    ascents (cube).  None for the permutahedron."""
    if family == "cube":
        return histogram(
            weak_ascents(p) for p in itertools.permutations(range(1, n + 1))
            if is_weak_123_avoiding(p)
        )
    if family in ("associahedron", "cyclohedron"):
        fs = (f for f in itertools.product(range(1, n + 1), repeat=n) if is_weak_123_avoiding(f))
        if family == "associahedron":
            fs = (f for f in fs if is_parking(f))
        return histogram(weak_ascents(f) for f in fs)
    return None


# ---------------------------------------------------------------------------
# Conjecture probes.
# ---------------------------------------------------------------------------


def _largest_binomial_top(m: int, k: int) -> int:
    """Largest a >= k with comb(a, k) <= m (m >= 1), by binary search."""
    lo, hi = k, k + 1
    while comb(hi, k) <= m:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if comb(mid, k) <= m:
            lo = mid
        else:
            hi = mid
    return lo


def kk_bound(m: int, k: int) -> int:
    """m^<k>: write m = sum_i comb(a_i, i) greedily from i = k down and
    return sum_i comb(a_i, i + 1)."""
    total = 0
    while m > 0 and k > 0:
        a = _largest_binomial_top(m, k)
        total += comb(a, k + 1)
        m -= comb(a, k)
        k -= 1
    return total


def kruskal_katona_ok(vec) -> bool:
    v = trim(vec)
    return all(v[k + 1] <= kk_bound(v[k], k) for k in range(1, len(v) - 1))


def real_rooted(coeffs) -> bool:
    """Every complex root real: distinct real roots (sympy's exact count)
    equal the degree of the squarefree part."""
    import sympy

    if len(coeffs) <= 2:
        return True
    x = sympy.Symbol("x")
    sqf = sympy.Poly(list(reversed(coeffs)), x).sqf_part()
    return sqf.count_roots() == sqf.degree()


# ---------------------------------------------------------------------------
# Building sets.  A building set is (ground size m, sorted member masks).
# ---------------------------------------------------------------------------


def mask(members) -> int:
    out = 0
    for i in members:
        out |= 1 << (i - 1)
    return out


def members_of(m: int) -> list[int]:
    return [i + 1 for i in range(m.bit_length()) if m >> i & 1]


def named_family(kind: str, n: int, r: int | None = None) -> set[int]:
    m = n + 1
    full = (1 << m) - 1
    singletons = {1 << i for i in range(m)}
    if kind == "permutahedron":
        return set(range(1, full + 1))
    if kind == "stanley_pitman":
        return singletons | {full & ~((1 << i) - 1) for i in range(m)}
    if kind == "associahedron_intervals":
        return {mask(range(i, j + 1)) for i in range(1, m + 1) for j in range(i, m + 1)}
    if kind == "interpolation":
        low = (1 << r) - 1
        return {1 << i for i in range(r)} | {s for s in range(1, full + 1) if s & ~low}
    raise ValueError(kind)


def graphical(m: int, edges) -> set[int]:
    """Vertex sets inducing a connected subgraph, by search from each set's
    smallest vertex."""
    adj = {v: set() for v in range(1, m + 1)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    out = set()
    for s in range(1, 1 << m):
        verts = set(members_of(s))
        start = min(verts)
        seen, todo = {start}, [start]
        while todo:
            v = todo.pop()
            for w in adj[v] & verts:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        if seen == verts:
            out.add(s)
    return out


def is_connected_chordal_building_set(m: int, masks: set[int]) -> bool:
    """Singletons present, intersecting unions closed, [m] present, and
    every member contains all of its suffixes."""
    if any(1 << i not in masks for i in range(m)) or (1 << m) - 1 not in masks:
        return False
    if any(a & b and (a | b) not in masks for a in masks for b in masks):
        return False
    for s in masks:
        els = members_of(s)
        if any(mask(els[i:]) not in masks for i in range(len(els))):
            return False
    return True


def b_permutations(m: int, masks) -> list[tuple[int, ...]]:
    """Permutations pi of [m], in lexicographic order, such that for every
    prefix the newest entry and the prefix maximum lie in one member of
    the building set contained in the prefix set."""
    members = list(masks)
    component: dict[tuple[int, int], int] = {}

    def comp(t: int, v: int) -> int:
        key = (t, v)
        if key not in component:
            bit = 1 << (v - 1)
            out = 0
            for s in members:
                if s & bit and s & ~t == 0:
                    out |= s
            component[key] = out
        return component[key]

    out = []
    prefix: list[int] = []

    def extend(t: int, biggest: int) -> None:
        if len(prefix) == m:
            out.append(tuple(prefix))
            return
        for v in range(1, m + 1):
            bit = 1 << (v - 1)
            if t & bit:
                continue
            t2, b2 = t | bit, max(biggest, v)
            if comp(t2, v) >> (b2 - 1) & 1:
                prefix.append(v)
                extend(t2, b2)
                prefix.pop()

    extend(0, 0)
    return out


def descents(p) -> int:
    return sum(1 for i in range(len(p) - 1) if p[i] > p[i + 1])


def nestohedron_vectors(m: int, masks) -> dict:
    """B-permutations and the h-, gamma- and toric g-vectors they give."""
    perms = b_permutations(m, masks)
    n = m - 1
    h = [0] * (n + 1)
    for p in perms:
        h[descents(p)] += 1
    gamma = h_to_gamma(h)
    return {
        "b_count": len(perms),
        "b_sha": lines_digest(" ".join(map(str, p)) for p in perms),
        "h": h,
        "gamma": gamma,
        "toric": toric_g(n, gamma) if gamma is not None else None,
    }


# ---------------------------------------------------------------------------
# Streams of the command line.
# ---------------------------------------------------------------------------


def is_dyck(w: str) -> bool:
    h = 0
    for c in w:
        h += 1 if c == "U" else -1 if c == "D" else -10**9
        if h < 0:
            return False
    return h == 0


def parse_parking_tree(text: str):
    """Parse "(v=1 [e=7 (v=2)] ...)" into (vertex, [(edge, child), ...])."""
    s = text.replace(" ", "")
    pos = 0

    def expect(token: str) -> None:
        nonlocal pos
        if not s.startswith(token, pos):
            raise ValueError(f"expected {token!r} at {pos} of {text!r}")
        pos += len(token)

    def number() -> int:
        nonlocal pos
        start = pos
        while pos < len(s) and s[pos].isdigit():
            pos += 1
        return int(s[start:pos])

    def node():
        nonlocal pos
        expect("(v=")
        v = number()
        edges = []
        while s.startswith("[e=", pos):
            pos += 3
            e = number()
            child = node()
            expect("]")
            edges.append((e, child))
        expect(")")
        return v, edges

    root = node()
    if pos != len(s):
        raise ValueError(f"trailing text in {text!r}")
    return root


def is_parking_tree(text: str, n: int) -> bool:
    """Vertex labels a bijection onto [n+1] increasing away from the root,
    edge labels a bijection onto [n] increasing left to right."""
    try:
        root = parse_parking_tree(text)
    except ValueError:
        return False
    vlabels, elabels = [], []

    def walk(node, parent: int) -> bool:
        v, edges = node
        vlabels.append(v)
        if v <= parent:
            return False
        es = [e for e, _ in edges]
        if es != sorted(es):
            return False
        elabels.extend(es)
        return all(walk(child, v) for _, child in edges)

    return (
        walk(root, 0)
        and sorted(vlabels) == list(range(1, n + 2))
        and sorted(elabels) == list(range(1, n + 1))
    )
