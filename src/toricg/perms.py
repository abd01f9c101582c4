"""Permutations of [n]: ascent/descent statistics, 123-avoidance, the
Krattenthaler bijection with Dyck words, min-rooted binary trees
("increasing binary trees") and increasing plane trees.

A permutation is a tuple of the integers 1..n in one-line notation.  A
min-rooted tree is stored flat: by its in-order permutation, which fixes
it, and its left and right child slots as tuples indexed by label, which
:func:`fs_tree` derives once.  A plane tree with increasing vertex labels
1..count is flat too: a tuple of child tuples indexed by label, so
``tree[v]`` holds v's children left to right and ``tree[0]`` is empty.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations
from operator import gt, lt
from typing import Iterator, Optional

from .errors import PreconditionError, StructuralError, require_size
# a permutation's text is the shared integer text
from .ints import ints_to_text as perm_to_text, read_int, read_ints, strip_blanks
from .words import D, U, is_dyck

PlaneTree = tuple  # tree[v]: the children of v, left to right; tree[0] == ()


def perm_from_text(text: str) -> tuple[int, ...]:
    p = read_ints(text)
    validate_perm(p)
    return p


def validate_perm(p) -> None:
    if any(type(v) is not int for v in p) or sorted(p) != list(range(1, len(p) + 1)):
        raise StructuralError(f"not a permutation of [{len(p)}]: {p!r}")


def inverse(p) -> tuple[int, ...]:
    validate_perm(p)
    inv = [0] * len(p)
    for i, v in enumerate(p, start=1):
        inv[v - 1] = i
    return tuple(inv)


def ascent_set(p) -> tuple[int, ...]:
    """Positions i with p(i) < p(i+1), as a sorted tuple."""
    return tuple(i for i in range(1, len(p)) if p[i - 1] < p[i])


def descent_set(p) -> tuple[int, ...]:
    return tuple(i for i in range(1, len(p)) if p[i - 1] > p[i])


def asc(p) -> int:
    return sum(map(lt, p, p[1:]))


def des(p) -> int:
    return sum(map(gt, p, p[1:]))


def eulerian_hvec(n: int) -> tuple[int, ...]:
    """Descent histogram of all permutations of [n+1], by enumeration: the
    permutahedron's h-vector, the oracle of its gamma-vector."""
    require_size("eulerian_hvec", n)
    hist = Counter(map(des, permutations(range(n + 1))))
    return tuple(hist.get(i, 0) for i in range(n + 1))


def is_123_avoiding(seq) -> bool:
    """True when no i1 < i2 < i3 has seq(i1) <= seq(i2) <= seq(i3).

    This is the weak pattern of functions; on a permutation, whose values
    are distinct, it is the strict one.  Linear scan: m1 is the minimum so
    far, m2 the least value that already tops a weakly increasing pair; any
    value from m2 up completes a triple.
    """
    m1 = m2 = None
    for v in seq:
        if m2 is not None and m2 <= v:
            return False
        if m1 is not None and m1 <= v:
            m2 = v
        if m1 is None or v < m1:
            m1 = v
    return True


def left_to_right_minima(p) -> tuple[int, ...]:
    """Positions i whose value is smaller than everything before it."""
    out = []
    best = None
    for i, v in enumerate(p, start=1):
        if best is None or v < best:
            out.append(i)
            best = v
    return tuple(out)


def krattenthaler(p) -> str:
    """Dyck word of a 123-avoiding permutation.

    U steps carry the labels n, n-1, ..., 1 left to right.  Each
    left-to-right minimum p(i) contributes the peak D right after the U
    labeled p(i); the entries until the next minimum follow as further D
    steps.  Reading the D-step labels left to right recovers p.
    """
    validate_perm(p)
    if not is_123_avoiding(p):
        raise PreconditionError(f"permutation is not 123-avoiding: {p!r}")
    n = len(p)
    minima = set(left_to_right_minima(p))
    out = []
    next_u = n
    for i, v in enumerate(p, start=1):
        if i in minima:
            out.append(U * (next_u - v + 1))
            next_u = v - 1
        out.append(D)
    return "".join(out)


def krattenthaler_inv(w: str) -> tuple[int, ...]:
    """Inverse of :func:`krattenthaler`.

    Peak D's (those right after a U) take their U's label; the remaining
    D's take the unused labels in decreasing order.
    """
    if not is_dyck(w):
        raise StructuralError(f"not a Dyck word: {w!r}")
    n = len(w) // 2
    u_seen = 0
    slots: list[Optional[int]] = []
    for i, ch in enumerate(w):
        if ch == U:
            u_seen += 1
        else:
            slots.append(n - u_seen + 1 if w[i - 1] == U else None)
    rest = iter(sorted(set(range(1, n + 1)) - {v for v in slots if v}, reverse=True))
    return tuple(v if v is not None else next(rest) for v in slots)


def enumerate_123_avoiding(n: int, distinct: bool = True) -> Iterator[tuple[int, ...]]:
    """All 123-avoiding permutations of [n] in lexicographic order, or with
    ``distinct=False`` all 123-avoiding functions [n] -> [n] (weak pattern,
    see :func:`is_123_avoiding`).  Prefixes holding a pattern are pruned,
    so the sweep stays far below n! or n^n.

    One loop walks the prefixes depth-first.  Depth d keeps m1 and m2 of
    the prefix before it (its minimum, and the least value that tops a
    weakly increasing pair; n + 1 while there is none) and the next value
    to try there, which is below m2; the last position yields each of its
    values at once."""
    require_size("enumerate_123_avoiding", n)
    if n == 0:
        yield ()
        return
    last = n - 1
    prefix = [0] * n
    used = [False] * (n + 1)  # only a permutation marks its values
    low = [n + 1] * n   # low[d], high[d]: m1 and m2 of prefix[:d]
    high = [n + 1] * n
    start = [1] * n     # start[d]: the next value to try at depth d
    d = 0
    while True:
        top = high[d]
        if d == last:
            head = tuple(prefix[:last])
            for v in range(1, top):
                if not used[v]:
                    yield head + (v,)
            v = top  # the last position is done
        else:
            v = start[d]
            if v > 1:  # give back the value tried last here
                used[prefix[d]] = False
            while v < top and used[v]:
                v += 1
        if v >= top:
            if d == 0:
                return
            d -= 1
            continue
        start[d] = v + 1
        prefix[d] = v
        used[v] = distinct  # a function may repeat v
        m1 = low[d]
        d += 1
        low[d], high[d] = (v, top) if v < m1 else (m1, v)
        start[d] = 1


# ---------------------------------------------------------------------------
# Min-rooted binary trees with distinguished left/right child slots.
# ---------------------------------------------------------------------------


class FSTree:
    """An immutable min-rooted tree on [n]: every vertex has at most one
    left and one right child, and labels increase away from the root, so
    the root is 1.  Such a tree is fixed by its in-order permutation
    ``perm``; ``left`` and ``right`` hold each vertex's children, indexed
    by label, with 0 for an empty slot (entry 0 is unused).  Build one with
    :func:`fs_tree`, which derives the slots from ``perm``."""

    __slots__ = ("perm", "left", "right")

    def __init__(self, perm: tuple[int, ...], left: tuple[int, ...], right: tuple[int, ...]):
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __setattr__(self, name, value):
        raise AttributeError("FSTree is immutable")

    def __reduce__(self):
        return fs_tree, (self.perm,)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FSTree):
            return NotImplemented
        return self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)

    def __repr__(self) -> str:
        return f"fs_tree_from_text({fs_tree_to_text(self)!r})"


def fs_tree(p) -> FSTree:
    """The minimum becomes the root, everything to its left the left
    subtree and everything to its right the right one.

    Built in one left-to-right pass that keeps the right spine of the tree
    so far: each value adopts, as its left child, the lowest part of the
    spine above it, and becomes the right child of the spine's new end."""
    validate_perm(p)
    if not p:
        raise PreconditionError("fs_tree requires a nonempty permutation")
    left = [0] * (len(p) + 1)
    right = [0] * (len(p) + 1)
    spine: list[int] = []
    for value in p:
        while spine and spine[-1] > value:
            left[value] = spine.pop()
        if spine:
            right[spine[-1]] = value
        spine.append(value)
    return FSTree(tuple(p), tuple(left), tuple(right))


def _inorder(left, right) -> tuple[int, ...]:
    """Left subtree, root, right subtree of the tree with root 1 and these
    slots, walked on an explicit stack."""
    out: list[int] = []
    stack: list[int] = []
    v = 1
    while v or stack:
        while v:
            stack.append(v)
            v = left[v]
        v = stack.pop()
        out.append(v)
        v = right[v]
    return tuple(out)


def fs_inorder(t: FSTree) -> tuple[int, ...]:
    """Left subtree, root, right subtree; inverts :func:`fs_tree`.  It walks
    the slots rather than returning ``t.perm``, so that comparing it with
    the permutation checks the build."""
    return _inorder(t.left, t.right)


def fs_preorder(t: FSTree | None) -> tuple[int, ...]:
    """Root, left subtree, right subtree."""
    out: list[int] = []
    stack = [1] if t is not None else []
    while stack:
        v = stack.pop()
        if v:
            out.append(v)
            stack += (t.right[v], t.left[v])
    return tuple(out)


def fs_tree_to_text(t: FSTree | None) -> str:
    """Nested parenthesized rendering with L/R slot markers,
    e.g. "(1 L(2) R(3 R(4)))"."""
    if t is None:
        return "()"
    out: list[str] = []
    stack: list = [1]  # vertices still to render and the text that closes them
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        out.append(f"({item}")
        stack.append(")")
        if t.right[item]:
            stack += (t.right[item], " R")
        if t.left[item]:
            stack += (t.left[item], " L")
    return "".join(out)


def fs_tree_from_text(text: str) -> FSTree | None:
    """Inverse of :func:`fs_tree_to_text`: slots once each, labels
    increasing and a permutation of [n], and "()" the empty tree; read on
    an explicit stack of the open vertices, so that no level costs a
    recursion."""
    s = strip_blanks(text)
    if s == "()":
        return None
    labels: list[int] = []
    slots: dict[tuple[int, str], int] = {}  # (parent, "L" or "R") -> child
    stack: list[int] = []  # the open vertices
    slot, i = "", 0
    while True:
        if not s.startswith("(", i):
            raise StructuralError(f"expected '(' at {i} in {text!r}")
        label, i = read_int(s, i + 1)
        if stack:
            if label <= stack[-1]:
                raise StructuralError(f"child label not above {stack[-1]} in {text!r}")
            slots[stack[-1], slot] = label
        labels.append(label)
        stack.append(label)
        while not s.startswith(("L", "R"), i):  # close vertices until a slot opens
            if not s.startswith(")", i):
                raise StructuralError(f"expected ')' at {i} in {text!r}")
            stack.pop()
            i += 1
            if not stack:
                break
        if not stack:
            break
        slot = s[i]
        if (stack[-1], slot) in slots:
            raise StructuralError(f"repeated {slot} slot at {i} in {text!r}")
        i += 1
    if i != len(s):
        raise StructuralError(f"trailing text in {text!r}")
    n = len(labels)
    if sorted(labels) != list(range(1, n + 1)):
        raise StructuralError(f"labels are not a permutation of [{n}] in {text!r}")
    left, right = [0] * (n + 1), [0] * (n + 1)
    for (parent, slot), label in slots.items():
        (left if slot == "L" else right)[parent] = label
    return fs_tree(_inorder(left, right))


# ---------------------------------------------------------------------------
# Plane trees with increasing vertex labels.
# ---------------------------------------------------------------------------


def increasing_plane_trees(count: int) -> Iterator[PlaneTree]:
    """All plane trees on ``count`` vertices labeled 1..count with labels
    increasing away from the root, each a flat tuple (see ``PlaneTree``).

    Built by inserting vertex k as a new child of any existing vertex in any
    position; attachment slots are tried in (parent label, slot) order, so
    the stream is deterministic.
    """
    return (tree for tree, _ in _insertion_walk(count, at_most_two=False))


def _insertion_walk(count: int, at_most_two: bool) -> Iterator[tuple[PlaneTree, int]]:
    """The trees of :func:`increasing_plane_trees`, each with its fork count
    (vertices with at least two children) kept as the vertices are inserted:
    inserting under a parent that has exactly one child makes a new fork.
    ``at_most_two`` skips the parents with two children.

    One loop places the labels 2..count in turn: ``parent[k]`` and
    ``slot[k]`` say where label k sits, and ``forks[k]`` counts the forks of
    the tree on the labels below k.  Placing or removing a label rewrites
    the child tuple of its one parent, and each tree is yielded as a new
    tuple of the child tuples, so no later step changes it."""
    require_size("increasing_plane_trees", count, name="count")
    if count == 0:
        return
    rows: list[tuple[int, ...]] = [()] * (count + 1)
    parent = [0] * (count + 1)
    slot = [0] * (count + 1)
    forks = [0] * (count + 2)
    k, p, s = 2, 1, 0  # the next place to try for label k: slot s under p
    while True:
        if k > count:
            yield tuple(rows), forks[k]
        else:
            while p < k and (s > len(rows[p]) or at_most_two and len(rows[p]) == 2):
                p, s = p + 1, 0
            if p < k:
                kids = rows[p]
                rows[p] = kids[:s] + (k,) + kids[s:]
                parent[k], slot[k] = p, s
                forks[k + 1] = forks[k] + (len(kids) == 1)
                k, p, s = k + 1, 1, 0
                continue
        # every place for k is tried: take k - 1 out and move it on
        k -= 1
        if k == 1:
            return
        p, s = parent[k], slot[k]
        kids = rows[p]
        rows[p] = kids[:s] + kids[s + 1:]
        s += 1


def child_counts(tree: PlaneTree) -> tuple[int, ...]:
    """Number of children of each vertex, in increasing label order; for a
    tree labeled 1..count entry v - 1 belongs to vertex v."""
    return tuple(map(len, tree[1:]))


def enumerate_increasing_012(vertex_count: int) -> Iterator[tuple[PlaneTree, int]]:
    """All increasing plane trees on ``vertex_count`` vertices in which every
    vertex has at most two children, in the order of
    :func:`increasing_plane_trees`, tagged with their fork count.  The count
    is kept during the insertion walk, not recomputed per tree, so a count
    read off each finished tree stays its independent oracle."""
    return _insertion_walk(vertex_count, at_most_two=True)


def plane_to_fs(tree: PlaneTree) -> FSTree:
    """Identify a plane tree with <= 2 children per vertex with the
    right-adjusted min-rooted tree: of two children the first goes in the
    left slot and the second in the right one, and an only child goes in
    the right slot.  ``tree`` must be an increasing plane tree on 1..n:
    entry 0 empty, and every label 2..n the child of exactly one smaller
    label; otherwise a StructuralError is raised."""
    n = len(tree) - 1
    left, right = [0] * (n + 1), [0] * (n + 1)
    for v in range(1, n + 1):
        kids = tree[v]
        if len(kids) > 2:
            raise StructuralError("vertex has more than two children")
        for c in kids:
            if type(c) is not int or c <= v:
                raise StructuralError(f"child {c!r} of {v} is not a larger label")
        if kids:
            left[v], right[v] = (0, *kids)[-2:]
    if n < 1 or tree[0] != () or sorted(filter(None, left + right)) != list(range(2, n + 1)):
        raise StructuralError(f"not an increasing plane tree: {tree!r}")
    return FSTree(_inorder(left, right), tuple(left), tuple(right))
