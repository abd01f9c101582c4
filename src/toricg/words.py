"""Lattice-path words over the alphabet {U, D, H}.

U is an up step (1,1), D a down step (1,-1), H a horizontal step (1,0).
Words are plain Python strings; a Dyck word of semilength n has n U's,
n D's and every prefix holds at least as many U's as D's.  Enumeration
streams are in lexicographic order with U < D and are deterministic.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import PreconditionError, StructuralError, require_ints, require_size
# the shared integer helpers live in ints, and words keeps their names
from .ints import catalan, read_int, read_ints, set_mask

if TYPE_CHECKING:
    from .polyvec import IntPoly

U = "U"
D = "D"
H = "H"

# enumerate_words completes each prefix from a table of its last _TAIL steps
_TAIL = 10


def motzkin(n: int) -> int:
    """n-th Motzkin number M_n = sum_j binom(n, 2j) * C_j."""
    require_size("motzkin", n)
    return sum(comb(n, 2 * j) * catalan(j) for j in range(n // 2 + 1))


def catalan_triangle(n: int, k: int) -> int:
    """Catalan triangle entry C(n, k) = binom(n,k) - binom(n,k-1).

    Counts nonnegative {U,D}-paths with n steps from the origin to height
    n - 2k.  Out-of-range k (k < 0 or 2k > n) gives 0.
    """
    require_size("catalan_triangle", n)
    require_ints("catalan_triangle", k)
    if k < 0 or 2 * k > n:
        return 0
    return comb(n, k) - (comb(n, k - 1) if k >= 1 else 0)


def is_balanced(w: str) -> bool:
    """True when w is a str that uses only U/D with equally many of each."""
    return isinstance(w, str) and {U, D}.issuperset(w) and 2 * w.count(U) == len(w)


def is_dyck(w: str) -> bool:
    """True when w is a str, balanced, and no prefix has more D's than U's."""
    if not isinstance(w, str):
        return False
    height = 0
    for ch in w:
        height += 1 if ch == U else -1
        if height < 0:
            return False
    return height == 0 and {U, D}.issuperset(w)


def is_motzkin(w: str) -> bool:
    """True when w is a str over {U,D,H} that stays nonnegative and ends at
    height 0; an H step keeps the height, so that is w without its H's
    being Dyck."""
    return isinstance(w, str) and is_dyck(w.replace(H, ""))


def enumerate_words(n: int, kind: str = "dyck", height: int | None = None) -> Iterator[str]:
    """Yield words over {U,D} in lexicographic order with U < D.

    kind="dyck":      all Dyck words of semilength n (catalan(n) of them)
    kind="balanced":  all balanced words of semilength n (binom(2n, n))
    kind="nonneg_to_height": all nonnegative paths with n *steps* ending at
        ``height`` (catalan_triangle(n, (n - height) // 2) of them);
        n and height must have equal parity.
    """
    require_size("enumerate_words", n)
    if kind == "dyck":
        steps, target, nonneg = 2 * n, 0, True
    elif kind == "balanced":
        steps, target, nonneg = 2 * n, 0, False
    elif kind == "nonneg_to_height":
        require_size("enumerate_words", height, name="height")
        if (n - height) % 2:
            raise PreconditionError("height must have the parity of the step count")
        steps, target, nonneg = n, height, True
    else:
        raise PreconditionError(f"unknown word kind {kind!r}")
    if abs(target) > steps:
        return
    tail = min(steps, _TAIL)
    head = steps - tail
    floor = 0 if nonneg else -steps
    # ends[h]: the words of the last ``tail`` steps from height h to the
    # target, in order, for the heights some head can reach
    ends = {target: [""]}
    for k in range(1, tail + 1):
        done = steps - k
        ends = {
            h: [U + w for w in ends.get(h + 1, ())] + [D + w for w in ends.get(h - 1, ())]
            for h in range(-done, done + 1, 2)
            if h >= floor and (h + 1 in ends or h - 1 in ends)
        }
    stack = [("", 0)]  # U is pushed after D, so it is walked first
    while stack:
        prefix, h = stack.pop()
        if len(prefix) == head:
            yield from map(prefix.__add__, ends[h])
            continue
        remaining = steps - len(prefix) - 1
        if h > floor and abs(target - h + 1) <= remaining:
            stack.append((prefix + D, h - 1))
        if abs(target - h - 1) <= remaining:
            stack.append((prefix + U, h + 1))


def factor_count(w: str, f: str) -> int:
    """Number of (possibly overlapping) occurrences of f as a factor of w."""
    if not f:
        raise PreconditionError("factor must be nonempty")
    count, i = 0, w.find(f)
    while i >= 0:
        count, i = count + 1, w.find(f, i + 1)
    return count


def peak_poly_oracles(n: int) -> list[IntPoly]:
    """Brute-force peak weights of every prefix length: entry m sums, over
    the Dyck words of semilength n, x to the number of UD factors inside
    the length-m prefix (m = 0..2n); the oracle of ``polyvec.peak_poly``.

    One sweep over the words serves every m.  A word whose i-th UD factor
    (from 0) ends at e_i has i factors in the prefixes of length e_{i-1}
    (e_{-1} = 0) up to e_i - 1, so it adds one range per factor to a
    difference row over m.
    """
    require_size("peak_poly_oracles", n)
    from .polyvec import IntPoly

    length = 2 * n
    diff = [[0] * (length + 2) for _ in range(n + 1)]  # diff[i][m]: by factor count i
    for w in enumerate_words(n, "dyck"):
        i = start = 0
        p = w.find("UD")
        while p >= 0:
            diff[i][start] += 1
            diff[i][p + 2] -= 1
            i, start = i + 1, p + 2
            p = w.find("UD", start)
        diff[i][start] += 1
        diff[i][length + 1] -= 1
    rows = [list(accumulate(row)) for row in diff]
    return [IntPoly([row[m] for row in rows]) for m in range(length + 1)]


def is_lukasiewicz(word: Sequence[int]) -> bool:
    """True when the letter weights q-1 sum to -1 with nonnegative proper prefixes."""
    if not word or any(q < 0 for q in word):
        return False
    total = 0
    for q in word[:-1]:
        total += q - 1
        if total < 0:
            return False
    return total + word[-1] - 1 == -1


def dyck_to_lukasiewicz(w: str) -> tuple[int, ...]:
    """Send U^{q_1} D ... U^{q_n} D to the letter sequence (q_1, ..., q_n, 0).

    The result is a Lukasiewicz word of length n + 1 (letter q has weight
    q - 1); the map is a bijection from Dyck words of semilength n.
    """
    if not is_dyck(w):
        raise StructuralError(f"not a Dyck word: {w!r}")
    return tuple(u_runs(w)) + (0,)


def u_runs(w: str) -> list[int] | None:
    """Run lengths q_i of w = U^{q_1} D ... U^{q_n} D, or None when w is not
    a str, has a letter other than U, D or ends inside a U run."""
    if not isinstance(w, str) or not {U, D}.issuperset(w) or w.endswith(U):
        return None
    return list(map(len, w.split(D)[:-1]))


def lukasiewicz_to_dyck(word: Sequence[int]) -> str:
    """Inverse of dyck_to_lukasiewicz."""
    if not is_lukasiewicz(word):
        raise StructuralError(f"not a Lukasiewicz word: {word!r}")
    return "".join(U * q + D for q in word[:-1])


def dyck_to_motzkin(w: str) -> str:
    """Rewrite each UUD factor as U, each remaining UD as H, remaining D as D.

    On UUU-avoiding Dyck words this is the classical bijection onto Motzkin
    paths; the same rewriting applies to any balanced UUU-avoiding word that
    ends with D.  The number of UU factors of the input equals the number of
    U letters of the output.
    """
    if not is_balanced(w):
        raise StructuralError(f"not a balanced word: {w!r}")
    out = []
    i = 0
    while i < len(w):
        if w[i] == U:
            if w[i + 1 : i + 3] == "UD":
                out.append(U)
                i += 3
            elif w[i + 1 : i + 2] == D:
                out.append(H)
                i += 2
            else:
                raise StructuralError(
                    f"word {w!r} has a UUU factor or ends inside a U run"
                )
        else:
            out.append(D)
            i += 1
    return "".join(out)


def motzkin_to_dyck(w: str) -> str:
    """Inverse rewriting U -> UUD, H -> UD, D -> D."""
    if not isinstance(w, str) or any(ch not in "UDH" for ch in w):
        raise StructuralError(f"expected a word over {{U,D,H}}, got {w!r}")
    return "".join({"U": "UUD", "H": "UD", "D": "D"}[ch] for ch in w)


def is_sparse(elements) -> bool:
    """True when the integer set contains no two consecutive values."""
    xs = sorted(elements)
    return all(b - a >= 2 for a, b in zip(xs, xs[1:]))


def sparse_subsets(limit: int) -> Iterator[tuple[int, ...]]:
    """All sparse subsets of {1, ..., limit}, in lexicographic order."""
    require_ints("sparse_subsets", limit)

    def rec(start: int) -> Iterator[tuple[int, ...]]:
        yield ()
        for a in range(start, limit + 1):
            for rest in rec(a + 2):
                yield (a,) + rest

    yield from rec(1)
