"""Shared brute-force oracles for the test suite.

Everything here is deliberately naive and independent of the library code
paths it is used to check.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from math import comb
from typing import NamedTuple

from toricg import compat, parking, perms, polyvec, words
from toricg.errors import PreconditionError
from toricg.polyvec import IntPoly


def all_ud_words(length: int):
    """Every {U,D}-string of the given length, by raw product."""
    return ("".join(t) for t in itertools.product("UD", repeat=length))


def all_udh_words(length: int):
    return ("".join(t) for t in itertools.product("UDH", repeat=length))


def naive_is_dyck(w: str) -> bool:
    h = 0
    for ch in w:
        h += 1 if ch == "U" else -1 if ch == "D" else 99
        if h < 0:
            return False
    return h == 0


def naive_is_motzkin(w: str) -> bool:
    h = 0
    for ch in w:
        h += {"U": 1, "D": -1, "H": 0}[ch]
        if h < 0:
            return False
    return h == 0


@lru_cache(maxsize=None)
def naive_catalan(n: int) -> int:
    if n == 0:
        return 1
    return sum(naive_catalan(i) * naive_catalan(n - 1 - i) for i in range(n))


def contains_pattern_123(seq, weak: bool) -> bool:
    ok = (lambda a, b: a <= b) if weak else (lambda a, b: a < b)
    n = len(seq)
    return any(
        ok(seq[i], seq[j]) and ok(seq[j], seq[k])
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
    )


def parks_by_simulation(f) -> bool:
    """Drive the cars: car i wants spot f(i) and rolls forward to the first
    free spot; f is a parking function iff nobody falls off the street."""
    n = len(f)
    taken = [False] * n
    for want in f:
        spot = want - 1
        while spot < n and taken[spot]:
            spot += 1
        if spot == n:
            return False
        taken[spot] = True
    return True


def parking_functions_filter(n: int) -> list[tuple[int, ...]]:
    """The parking functions of [n], in lexicographic order, by simulating
    every one of the n^n functions."""
    return [f for f in parking.iter_functions(n) if parks_by_simulation(f)]


def naive_garsia_haiman(f) -> tuple[tuple[int, ...], str]:
    """The fibers f^{-1}(1), ..., f^{-1}(n), read value by value: their
    concatenation and the word U^{|f^{-1}(1)|} D ... U^{|f^{-1}(n)|} D."""
    n = len(f)
    fibers = [[i for i in range(1, n + 1) if f[i - 1] == v] for v in range(1, n + 1)]
    return tuple(i for fiber in fibers for i in fiber), "".join("U" * len(b) + "D" for b in fibers)


def naive_is_compatible_pair(perm, word: str) -> bool:
    """The word reads U^{q_1} D ... U^{q_n} D with n = len(perm) runs summing
    to n, and every descent of perm is a partial sum q_1 + ... + q_i."""
    n = len(perm)
    if set(word) - {"U", "D"} or word.count("D") != n or word.count("U") != n:
        return False
    if word and word[-1] != "D":
        return False
    runs, q = [], 0
    for ch in word:
        if ch == "U":
            q += 1
        else:
            runs.append(q)
            q = 0
    partial_sums = {sum(runs[:i]) for i in range(1, n + 1)}
    descents = {i for i in range(1, n) if perm[i - 1] > perm[i]}
    return descents <= partial_sums


def naive_factor_count(w: str, f: str) -> int:
    """Occurrences of f in w, overlapping ones included, by slicing at every
    start."""
    return sum(1 for i in range(len(w) - len(f) + 1) if w[i : i + len(f)] == f)


def increasing_plane_trees_by_rebuild(count: int, max_children=None):
    """Insert vertex k under every vertex in (parent, slot) order, as the
    library's walk does, by recursion on mutable child lists, and build each
    finished flat tree afresh from those lists."""
    children = [[] for _ in range(count + 1)]

    def rec(k):
        if k > count:
            yield tuple(tuple(cs) for cs in children)
            return
        for parent in range(1, k):
            cs = children[parent]
            if max_children is not None and len(cs) >= max_children:
                continue
            for slot in range(len(cs) + 1):
                cs.insert(slot, k)
                yield from rec(k + 1)
                cs.pop(slot)

    if count:
        yield from rec(2)


class PermStats(NamedTuple):
    """Ascent/descent sets plus the interior classification of positions
    2 <= i <= n-1 into peaks, valleys, double descents and double ascents."""

    asc: tuple[int, ...]
    des: tuple[int, ...]
    peaks: tuple[int, ...]
    valleys: tuple[int, ...]
    double_descents: tuple[int, ...]
    double_ascents: tuple[int, ...]


def asc_des(p) -> PermStats:
    if len(p) < 1:
        raise PreconditionError("asc_des requires n >= 1")
    perms.validate_perm(p)
    peaks, valleys, dds, das = [], [], [], []
    for i in range(2, len(p)):
        a, b, c = p[i - 2], p[i - 1], p[i]
        if a < b > c:
            peaks.append(i)
        elif a > b < c:
            valleys.append(i)
        elif a > b > c:
            dds.append(i)
        else:
            das.append(i)
    return PermStats(
        perms.ascent_set(p), perms.descent_set(p),
        tuple(peaks), tuple(valleys), tuple(dds), tuple(das),
    )


def has_final_descent(p) -> bool:
    return len(p) >= 2 and p[-2] > p[-1]


def count_forks(tree) -> int:
    """Number of vertices with at least two children, read off the finished
    tree: the oracle of the fork count perms.enumerate_increasing_012 keeps."""
    return sum(c >= 2 for c in perms.child_counts(tree))


# The modified Foata-Strehl action on min-rooted binary trees
# (Postnikov-Reiner-Williams, arXiv:math/0609184): each orbit holds one
# right-adjusted permutation, with no double descent and no final descent,
# the kind nestohedra.right_adjusted_b_permutations keeps.


def _swapped_inorder(t, swap) -> tuple[int, ...]:
    """The in-order of t once each vertex v for which ``swap(v)`` holds has
    its two child slots exchanged; walked here on the slots, not through
    perms.fs_inorder."""
    left, right = list(t.left), list(t.right)
    for v in range(1, len(left)):
        if swap(v):
            left[v], right[v] = right[v], left[v]
    out: list = []
    stack: list = []
    v = 1
    while v or stack:
        while v:
            stack.append(v)
            v = left[v]
        v = stack.pop()
        out.append(v)
        v = right[v]
    return tuple(out)


def fs_phi(t, x: int):
    """Exchange the left and right subtrees of the vertex labeled x."""
    if x not in perms.fs_preorder(t):
        raise PreconditionError(f"no vertex labeled {x}")
    return perms.fs_tree(_swapped_inorder(t, lambda v: v == x))


def fs_psi(t, x: int):
    """Restricted swap: acts like fs_phi when the vertex labeled x has
    exactly one child and as the identity otherwise."""
    if x not in perms.fs_preorder(t):
        raise PreconditionError(f"no vertex labeled {x}")
    return perms.fs_tree(
        _swapped_inorder(t, lambda v: v == x and (t.left[v] == 0) != (t.right[v] == 0))
    )


def is_right_adjusted(t) -> bool:
    """True when no vertex has an only child sitting in the left slot."""
    return all(right or not left for left, right in zip(t.left, t.right))


def right_adjusted_rep(p) -> tuple[int, ...]:
    """The unique member of p's restricted-swap orbit whose tree is
    right-adjusted; it has no double descents and no final descent."""
    t = perms.fs_tree(p)
    return _swapped_inorder(t, lambda v: t.left[v] and not t.right[v])


def restricted_orbit(p) -> frozenset:
    """Closure of p under all single-child swaps, as a set of permutations."""
    perms.validate_perm(p)
    n = len(p)
    seen = {tuple(p)}
    frontier = [tuple(p)]
    while frontier:
        q = frontier.pop()
        t = perms.fs_tree(q)
        for x in range(1, n + 1):
            r = perms.fs_inorder(fs_psi(t, x))
            if r not in seen:
                seen.add(r)
                frontier.append(r)
    return frozenset(seen)


def is_123_parking_tree(t) -> bool:
    """True when every vertex has at most two children and the edge
    permutation is 123-avoiding; equivalently the encoded parking function
    is 123-avoiding."""
    children = Counter(t.parent)
    return max(children.values(), default=0) <= 2 and perms.is_123_avoiding(parking.edge_perm(t))


def naive_peaks_in_prefix(w: str, m: int) -> int:
    return sum(1 for i in range(min(m, len(w)) - 1) if w[i : i + 2] == "UD")


def naive_is_compatible(w: str, A, B) -> bool:
    """The (A,B) factor conditions by a scan of the letter positions: U_a
    U_{a+1} D must be a factor for each a in A and U D_b D_{b+1} for each b
    in B.  The oracle of compat.is_compatible and its factor masks."""
    upos = compat.u_positions(w)
    dpos = compat.d_positions(w)
    for a in A:
        p = upos[a - 1]
        if upos[a] != p + 1 or w[p + 2 : p + 3] != "D":
            return False
    for b in B:
        q = dpos[b - 1]
        if dpos[b] != q + 1 or q == 0 or w[q - 1] != "U":
            return False
    return True


def count_compatible_brute(n: int, A, B, kind: str = "dyck") -> int:
    """(A,B)-compatible words of semilength n, one position scan per word:
    the oracle of compat.count_compatible and its table."""
    return sum(1 for w in words.enumerate_words(n, kind) if naive_is_compatible(w, A, B))


def nonneg_paths_to_height(steps: int, height: int):
    """Filter the raw product; independent of the library enumerator."""
    for w in all_ud_words(steps):
        h = 0
        ok = True
        for ch in w:
            h += 1 if ch == "U" else -1
            if h < 0:
                ok = False
                break
        if ok and h == height:
            yield w


def kk_pseudopower_linear(m: int, k: int) -> int:
    """Kruskal-Katona pseudopower by the plain cascade: each top a is found
    by stepping up one at a time while comb(a + 1, k) still fits."""
    total = 0
    while m > 0:
        a = k
        while comb(a + 1, k) <= m:
            a += 1
        total += comb(a, k + 1)
        m -= comb(a, k)
        k -= 1
    return total


def power_sum(coeffs, a: int) -> IntPoly:
    """sum_i coeffs[i] (x+a)^i, one IntPoly power at a time."""
    out = IntPoly()
    for i, c in enumerate(coeffs):
        out = out + IntPoly((a, 1)) ** i * c
    return out


def toric_g_by_cnix_products(n: int, hvec) -> IntPoly:
    """h_0 + sum_i (h_i - h_{i-1}) * cnix(n, i), one IntPoly product and
    sum per term."""
    out = IntPoly((hvec[0],))
    for i in range(1, n // 2 + 1):
        out = out + polyvec.cnix(n, i) * (hvec[i] - hvec[i - 1])
    return out


def gamma_basis_sum(gamma, n: int) -> IntPoly:
    """sum_j gamma_j x^j (x+1)^(n-2j), one IntPoly power at a time."""
    out = IntPoly()
    for j, g in enumerate(gamma):
        out = out + IntPoly([0] * j + [g]) * IntPoly((1, 1)) ** (n - 2 * j)
    return out


def b_permutations_filter(bs) -> list[tuple[int, ...]]:
    """Every permutation of the ground set, in lexicographic order, kept
    when each prefix T puts its newest element in the union of the members
    inside T that hold max(T).  On a building set that union is the
    component of max(T); on any other family it is what the library reads."""
    hull: dict[int, int] = {}

    def hull_of(t: int) -> int:
        if t not in hull:
            top = 1 << (t.bit_length() - 1)
            hull[t] = 0
            for member in bs.masks:
                if member & ~t == 0 and member & top:
                    hull[t] |= member
        return hull[t]

    out = []
    for pi in itertools.permutations(range(1, bs.ground_size + 1)):
        t = 0
        for v in pi:
            t |= 1 << (v - 1)
            if not hull_of(t) >> (v - 1) & 1:
                break
        else:
            out.append(pi)
    return out


def right_adjusted_filter(bs) -> list[tuple[int, ...]]:
    """The filter's B-permutations with no double descent and no final
    descent, read off asc_des, in lexicographic order."""
    return [
        pi for pi in b_permutations_filter(bs)
        if not asc_des(pi).double_descents and not has_final_descent(pi)
    ]


def is_dfs_labeled(tree) -> bool:
    """True when the labels of a flat plane tree read 1, 2, 3, ... in
    preorder, walked on a stack from the root."""
    order, stack = [], [1]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(reversed(tree[v]))
    return order == list(range(1, len(tree)))


def toric_g_by_parking_trees(bs, dfs_only: bool = False) -> IntPoly:
    """Toric g by listing parking trees: every increasing plane 0-1-2 tree
    whose right-adjusted min-rooted tree reads a B-permutation in order,
    times every edge labeling, kept when its function avoids 123 and
    counted by weak ascents."""
    n = bs.ground_size - 1
    allowed = set(b_permutations_filter(bs))
    labels = tuple(range(1, n + 1))
    acc: Counter = Counter()
    for tree, _ in perms.enumerate_increasing_012(n + 1):
        if dfs_only and not is_dfs_labeled(tree):
            continue
        if perms.fs_inorder(perms.plane_to_fs(tree)) not in allowed:
            continue
        counts = perms.child_counts(tree)
        parents = [v for v, c in enumerate(counts, start=1) if c]
        for groups in parking._ordered_groups(labels, [c for c in counts if c]):
            f = [0] * n
            for v, group in zip(parents, groups):
                for e in group:
                    f[e - 1] = v
            if perms.is_123_avoiding(f):
                acc[parking.fn_ascents(f)] += 1
    return IntPoly.from_counts(acc)
