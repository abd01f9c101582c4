"""Compatibility constraints on labeled Dyck words, the compression
bijection that removes them, and noncrossing partition statistics.

In a labeled Dyck word of semilength n the U letters and the D letters are
indexed 1..n left to right.  Labels are positional and always recomputed
from the word, never stored.  For sparse sets A, B of [n-1] a word is
(A,B)-compatible when U_a U_{a+1} D is a factor for each a in A and
U D_b D_{b+1} is a factor for each b in B.

Both conditions are read off two bitmasks per word (:func:`factor_masks`):
the word is (A,B)-compatible iff A lies in its U-mask and B in its
D-mask.  :func:`is_compatible` answers one pair from them, and
:func:`compatible_counts` scans the words of a semilength once and answers
every sparse pair by superset sums, instead of rescanning the words per
pair.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .errors import PreconditionError, StructuralError, require_ints, require_size
from .ints import read_ints, set_mask
from .words import D, U, enumerate_words, is_dyck, is_sparse, sparse_subsets


def u_positions(w: str) -> list[int]:
    """0-based positions of the U letters; entry i holds U_{i+1}."""
    return [i for i, ch in enumerate(w) if ch == U]


def d_positions(w: str) -> list[int]:
    return [i for i, ch in enumerate(w) if ch == D]


def _check_sparse_subsets(n: int, A: Iterable[int], B: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A and B as sorted tuples, once each is an iterable of ints (a bool is
    not one) forming a sparse subset of [1, n - 1]."""
    checked = []
    for name, S in (("A", A), ("B", B)):
        try:
            S = tuple(S)
        except TypeError as exc:
            raise PreconditionError(f"{name} must be an iterable of ints, got {S!r}") from exc
        require_ints(name, *S)
        S = tuple(sorted(set(S)))
        if not is_sparse(S):
            raise PreconditionError(f"{name} must be sparse: {S!r}")
        if any(not (1 <= x <= n - 1) for x in S):
            raise PreconditionError(f"{name} must lie inside [1, {n - 1}]: {S!r}")
        checked.append(S)
    return checked[0], checked[1]


def is_compatible(w: str, A: Iterable[int], B: Iterable[int]) -> bool:
    """Check the (A,B) factor conditions on a balanced word: A must lie in
    its U-mask and B in its D-mask (:func:`factor_masks`)."""
    alpha, beta = factor_masks(w)
    A, B = _check_sparse_subsets(len(w) // 2, A, B)
    return set_mask(A) & ~alpha == 0 and set_mask(B) & ~beta == 0


def compress(w: str, A: Iterable[int], B: Iterable[int]) -> str:
    """Erase the (A,B) factors: overlapping pairs U_a U_{a+1} D_b D_{b+1}
    vanish entirely, each remaining U_a U_{a+1} D collapses to U and each
    remaining U D_b D_{b+1} collapses to D.  The result is a Dyck word of
    semilength n - |A| - |B|; :func:`expand` inverts the map.
    """
    if not is_dyck(w):
        raise StructuralError(f"not a Dyck word: {w!r}")
    n = len(w) // 2
    A, B = _check_sparse_subsets(n, A, B)
    alpha, beta = factor_masks(w)
    if set_mask(A) & ~alpha or set_mask(B) & ~beta:
        raise PreconditionError(f"word is not ({A},{B})-compatible: {w!r}")
    upos = u_positions(w)
    dpos = d_positions(w)
    d_index = {pos: i + 1 for i, pos in enumerate(dpos)}
    b_set = set(B)
    consumed_b = set()
    delete: set[int] = set()
    for a in A:
        p = upos[a - 1]
        b = d_index[p + 2]
        if b in b_set:
            # the only possible overlap: U_a U_{a+1} D_b D_{b+1}
            delete.update((p, p + 1, p + 2, p + 3))
            consumed_b.add(b)
        else:
            delete.update((p + 1, p + 2))
    for b in B:
        if b in consumed_b:
            continue
        q = dpos[b - 1]
        delete.update((q - 1, q))
    return "".join(ch for i, ch in enumerate(w) if i not in delete)


_FRONT = -1


def expand(w: str, n: int, A: Iterable[int], B: Iterable[int]) -> str:
    """Rebuild the unique (A,B)-compatible Dyck word of semilength n that
    compresses to ``w``.

    Minimal elements of A and B are reinserted first, one or both per pass
    of a loop, so no element costs a recursion.  The case split keys
    on the relative order of U_{a-1}, U_a, D_{b-1}, D_b in the current word;
    missing low letters (a = 1 or b = 1) count as standing in front of the
    word and letters beyond the current semilength as standing after it.
    """
    A, B = _check_sparse_subsets(n, A, B)
    if not is_dyck(w):
        raise StructuralError(f"not a Dyck word: {w!r}")
    if len(w) != 2 * (n - len(A) - len(B)):
        raise PreconditionError(
            f"expected semilength {n - len(A) - len(B)}, got {len(w) // 2}"
        )

    def pos_of(letter: str, i: int) -> int:
        if i == 0:
            return _FRONT
        ps = [k for k, ch in enumerate(w) if ch == letter]
        return ps[i - 1] if i <= len(ps) else len(w) + 1

    while A or B:
        if not A:
            pos = pos_of(D, B[0])
            w, B = w[:pos] + "UD" + w[pos:], B[1:]
        elif not B:
            pos = pos_of(U, A[0]) + 1
            w, A = w[:pos] + "UD" + w[pos:], A[1:]
        else:
            a, b = A[0], B[0]
            pu_prev, pu = pos_of(U, a - 1), pos_of(U, a)
            pd_prev, pd = pos_of(D, b - 1), pos_of(D, b)
            if pu < pd_prev:
                # U_{a-1} ... U_a ... D_{b-1} ... D_b: grow U_a into U_a U_{a+1} D
                w, A = w[: pu + 1] + "UD" + w[pu + 1 :], A[1:]
            elif pd < pu_prev:
                # D_{b-1} ... D_b ... U_{a-1} ... U_a: grow D_b into U D_b D_{b+1}
                w, B = w[:pd] + "UD" + w[pd:], B[1:]
            else:
                # U_{a-1} and D_{b-1} both precede U_a and D_b: the middle two letters
                # are adjacent, and the factor U_a U_{a+1} D_b D_{b+1} goes between them.
                pos = min(sorted((pu_prev, pu, pd_prev, pd))[2], len(w))
                w, A, B = w[:pos] + "UUDD" + w[pos:], A[1:], B[1:]
    return w


def factor_masks(w: str) -> tuple[int, int]:
    """The masks (alpha, beta) of a balanced word: bit a-1 of alpha is set
    when U_a U_{a+1} D is a factor and bit b-1 of beta when U D_b D_{b+1}
    is.  The word is (A,B)-compatible iff set_mask(A) lies in alpha and
    set_mask(B) in beta, so one scan of the word serves every pair."""
    if 2 * w.count(U) != len(w) or 2 * w.count(D) != len(w):
        raise StructuralError(f"not a balanced word: {w!r}")
    alpha = beta = 0
    p = w.find("UUD")
    while p >= 0:
        alpha |= 1 << w.count(U, 0, p)  # U_a sits at p after a-1 U's
        p = w.find("UUD", p + 1)
    q = w.find("UDD")
    while q >= 0:
        beta |= 1 << w.count(D, 0, q + 1)  # D_b sits at q+1 after b-1 D's
        q = w.find("UDD", q + 1)
    return alpha, beta


def compatible_counts(
    n: int, kind: str = "dyck"
) -> dict[tuple[tuple[int, ...], tuple[int, ...]], int]:
    """The number of (A,B)-compatible words of semilength n for every pair
    of sparse subsets of [n-1], keyed by (A, B) in :func:`sparse_pairs`
    order.

    One pass tallies the words by their concatenated :func:`factor_masks`
    alpha | beta << (n-1); superset sums then count, for each (A, B), the
    words whose masks contain both.  The masks are sparse, and so is every
    mask between a pair and a word's masks, so the sums run over the sparse
    pairs alone.  The table lives for this call only.
    """
    if kind not in ("dyck", "balanced"):
        raise PreconditionError(f"unknown kind {kind!r}")
    width = max(n - 1, 0)
    pairs = list(sparse_pairs(n))
    keys = [set_mask(A) | set_mask(B) << width for A, B in pairs]
    table = dict.fromkeys(keys, 0)
    for w in enumerate_words(n, kind):
        alpha, beta = factor_masks(w)
        table[alpha | beta << width] += 1
    for i in range(2 * width):
        bit = 1 << i
        for m in keys:
            if not m & bit and m | bit in table:
                table[m] += table[m | bit]
    return {pair: table[key] for pair, key in zip(pairs, keys)}


def count_compatible(n: int, A: Iterable[int], B: Iterable[int], kind: str = "dyck") -> int:
    """Number of (A,B)-compatible words of semilength n, read from
    :func:`compatible_counts` (tests/helpers.py keeps the per-word
    brute-force count as its oracle).

    Equals catalan(n - |A| - |B|) for kind="dyck" and the central binomial
    coefficient binom(2(n-|A|-|B|), n-|A|-|B|) for kind="balanced".
    """
    A, B = _check_sparse_subsets(n, A, B)
    return compatible_counts(n, kind)[(A, B)]


# ---------------------------------------------------------------------------
# Noncrossing partitions.
# ---------------------------------------------------------------------------


class NoncrossingPartition:
    """A noncrossing set partition of [n]; blocks are stored sorted.
    Immutable, as a hashable value must be."""

    __slots__ = ("blocks", "n")

    def __init__(self, blocks: Iterable[Iterable[int]]):
        blocks = [tuple(b) for b in blocks]
        elements = [x for b in blocks for x in b]
        n = len(elements)
        if any(type(x) is not int for x in elements) or sorted(elements) != list(range(1, n + 1)):
            raise StructuralError(f"blocks do not partition [n]: {blocks!r}")
        bs = tuple(sorted(tuple(sorted(b)) for b in blocks))
        if not _crossing_free(bs):
            raise StructuralError(f"partition is crossing: {bs!r}")
        object.__setattr__(self, "blocks", bs)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("NoncrossingPartition is immutable")

    def __reduce__(self):
        return NoncrossingPartition, (self.blocks,)

    def __eq__(self, other):
        if not isinstance(other, NoncrossingPartition):
            return NotImplemented
        return self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return f"nc_from_text({nc_to_text(self)!r})"

    def block_of(self, x: int) -> tuple[int, ...]:
        for b in self.blocks:
            if x in b:
                return b
        raise KeyError(x)

    def nonsingleton_blocks(self) -> tuple[tuple[int, ...], ...]:
        return tuple(b for b in self.blocks if len(b) >= 2)


def _crossing_free(blocks) -> bool:
    owner = {}
    for idx, b in enumerate(blocks):
        for x in b:
            owner[x] = idx
    # crossing <=> some pair of blocks alternates ... a b a b ...
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            merged = sorted(blocks[i] + blocks[j])
            changes = sum(
                1 for x, y in zip(merged, merged[1:]) if owner[x] != owner[y]
            )
            if changes >= 3:
                return False
    return True


def nc_from_text(text: str) -> NoncrossingPartition:
    """Parse "1,2|3|4"; the empty text is the empty partition."""
    blocks = [read_ints(part, ",") for part in text.split("|")] if text.strip() else []
    return NoncrossingPartition(blocks)


def nc_to_text(p: NoncrossingPartition) -> str:
    return "|".join(",".join(str(x) for x in b) for b in p.blocks)


def dyck_to_nc(w: str) -> NoncrossingPartition:
    """Label the D steps 1..n reading right to left, transfer each label to
    the matching U (parenthesis matching), and read the blocks off the
    maximal runs of U's.  Nonsingleton blocks correspond to UUD factors and
    fillers to UDD factors."""
    if not is_dyck(w):
        raise StructuralError(f"not a Dyck word: {w!r}")
    n = len(w) // 2
    u_label = [0] * n
    stack: list[int] = []
    u_idx = d_seen = 0
    for ch in w:
        if ch == U:
            stack.append(u_idx)
            u_idx += 1
        else:
            d_seen += 1
            u_label[stack.pop()] = n - d_seen + 1
    ups = u_positions(w)
    blocks: list[list[int]] = []
    for idx in range(n):
        if idx and ups[idx] == ups[idx - 1] + 1:
            blocks[-1].append(u_label[idx])
        else:
            blocks.append([u_label[idx]])
    return NoncrossingPartition(blocks)


def nc_to_dyck(p: NoncrossingPartition) -> str:
    """Inverse of :func:`dyck_to_nc`: D labels descend n..1 left to right
    and each block emits its U run immediately before the D labeled with the
    block maximum."""
    block_max = {max(b): b for b in p.blocks}
    out = []
    for d in range(p.n, 0, -1):
        if d in block_max:
            out.append(U * len(block_max[d]))
        out.append(D)
    return "".join(out)


def enumerate_nc(n: int) -> Iterator[NoncrossingPartition]:
    """All noncrossing partitions of [n] (catalan(n) many)."""
    require_ints("enumerate_nc", n)
    return (dyck_to_nc(w) for w in enumerate_words(n, "dyck"))


def fillers(p: NoncrossingPartition) -> tuple[int, ...]:
    """Elements i >= 2 that either close their block with i-1 alongside, or
    form a singleton while i-1 is not its block's maximum.  The result is
    always sparse."""
    out = []
    for i in range(2, p.n + 1):
        b = p.block_of(i)
        if i == max(b) and (i - 1) in b:
            out.append(i)
        elif len(b) == 1 and (i - 1) != max(p.block_of(i - 1)):
            out.append(i)
    return tuple(out)


def nc_complex_faces(n: int, k: int) -> int:
    """Number of k-element collections of >=2-element subsets of [n] that
    occur as the nonsingleton blocks of a noncrossing partition."""
    require_ints("nc_complex_faces", n)
    require_size("nc_complex_faces", k, name="k")
    faces = {p.nonsingleton_blocks() for p in enumerate_nc(n)}
    return sum(1 for face in faces if len(face) == k)


def sparse_pairs(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All pairs of sparse subsets of [n-1] (plumbing for the sweeps)."""
    subsets = list(sparse_subsets(n - 1))
    return itertools.product(subsets, subsets)
