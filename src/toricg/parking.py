"""Parking functions and their tree encodings.

A function f: [n] -> [n] is stored as a tuple of its values (1-indexed).
f is a parking function when |f^{-1}([k])| >= k for every k.  Ascents of
functions are weak (f(i) <= f(i+1)), unlike the strict ascents of
permutations; keep the two notions apart.

A parking tree is a rooted plane tree on n+1 vertices whose vertex labels
(a bijection to [n+1]) increase away from the root and whose edge labels
(a bijection to [n]) increase left to right among siblings.  Setting f(i)
to the label of the parent vertex of the edge labeled i always yields a
parking function, and the vertex labelings following the depth-first or
breadth-first search order give two bijective encodings.

A tree is stored flat, as two tuples indexed by edge label: ``parent``,
which is f, and ``child``, the lower vertex of each edge.  Since siblings
stand in edge-label order, the two tuples fix the plane tree, and
equality, hashing, copies and the checks are tuple operations.  Every tree
is built from a vertex-labeled shape and its fibers, the edge labels at
each vertex: a search tree in one pass over its vertex labels, a listed
tree by attaching fibers to a shape; the 123 walk is the 0-1-2 shapes
times the table of 123-avoiding functions by fiber sizes
(:func:`avoiding_functions_by_fibers`).
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from operator import gt, itemgetter, le
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from . import perms
from .config import check_capacity
from .errors import PreconditionError, StructuralError, require_ints, require_size
# a function's text is the shared integer text
from .ints import ints_to_text as fn_to_text, read_int, read_ints, strip_blanks
from .words import D, U, u_runs

if TYPE_CHECKING:
    from . import polyvec


def fn_from_text(text: str) -> tuple[int, ...]:
    f = read_ints(text)
    validate_fn(f)
    return f


def validate_fn(f) -> None:
    n = len(f)
    for v in f:
        if type(v) is not int or not 1 <= v <= n:
            raise StructuralError(f"values must be ints in [1, {n}]: {f!r}")


def is_parking(f) -> bool:
    """True when the k-th smallest value is at most k for every k."""
    validate_fn(f)
    return all(map(le, sorted(f), range(1, len(f) + 1)))


def fn_ascents(f) -> int:
    """Number of positions i with f(i) <= f(i+1) (weak ascents)."""
    return sum(map(le, f, f[1:]))


def ascent_polynomial(functions: Iterable[tuple[int, ...]]) -> polyvec.IntPoly:
    """Generating polynomial of the weak ascent statistic over a stream of
    functions (plumbing for the brute-force routes)."""
    from . import polyvec

    return polyvec.IntPoly.from_counts(Counter(map(fn_ascents, functions)))


class GHPair(NamedTuple):
    """A permutation and a compatible balanced word: the fibers of a
    function, listed increasingly, concatenate to ``perm`` while the fiber
    sizes q_i give ``word`` = U^{q_1} D ... U^{q_n} D."""

    perm: tuple[int, ...]
    word: str


def garsia_haiman(f) -> GHPair:
    """Encode a function as a (permutation, balanced word) pair.

    The word records the fiber sizes and the permutation concatenates the
    fibers f^{-1}(1), ..., f^{-1}(n), each listed increasingly: a stable
    sort of the positions by value.  f is a parking function exactly when
    the word is a Dyck word.
    """
    validate_fn(f)
    n = len(f)
    perm = tuple(sorted(range(1, n + 1), key=lambda i: f[i - 1]))
    sizes = [0] * (n + 1)
    for v in f:
        sizes[v] += 1
    return GHPair(perm, "".join([U * q + D for q in sizes[1:]]))


def garsia_haiman_inv(perm, word: str) -> tuple[int, ...]:
    """Inverse encoding.  The pair must be compatible: ``word`` reads
    U^{q_1} D ... U^{q_n} D with n = len(perm) runs summing to n, and no
    descent of ``perm`` falls inside a run (a fiber increases), that is,
    every descent is a partial sum of the q_i; the word is split once."""
    perms.validate_perm(perm)
    runs = u_runs(word)
    n = len(perm)
    if runs is not None and len(runs) == n and sum(runs) == n:
        f = [0] * n
        pos = 0
        for value, q in enumerate(runs, start=1):
            run = perm[pos : pos + q]
            if q > 1 and any(map(gt, run, run[1:])):
                break
            for i in run:
                f[i - 1] = value
            pos += q
        else:
            return tuple(f)
    raise PreconditionError(f"incompatible pair: {perm!r}, {word!r}")


# ---------------------------------------------------------------------------
# Parking trees.
# ---------------------------------------------------------------------------


class ParkingTree:
    """Immutable bilabeled rooted plane tree; see the module docstring.

    Stored flat, indexed by edge label: ``parent[i-1]`` is f(i), the upper
    vertex of edge i, and ``child[i-1]`` its lower vertex.  The constructor
    requires ``child`` to be a bijection onto 2..n+1 and every edge to run
    from a smaller label to a larger one; then vertex 1 is the root, every
    other vertex has one parent, and the tree is the plane tree whose
    siblings stand in edge-label order."""

    __slots__ = ("parent", "child")

    def __init__(self, parent: Sequence[int], child: Sequence[int]):
        parent, child = tuple(parent), tuple(child)
        require_ints("ParkingTree", *parent, *child)
        for v, c in zip(parent, child):
            if not 1 <= v < c:
                raise StructuralError(f"vertex labels must increase: {v} -> {c}")
        if len(child) != len(parent) or sorted(child) != list(range(2, len(child) + 2)):
            raise StructuralError("vertex labels are not a bijection to [n+1]")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "child", child)

    @property
    def n(self) -> int:
        return len(self.parent)

    def __setattr__(self, name, value):
        raise AttributeError("ParkingTree is immutable")

    def __reduce__(self):
        return ParkingTree, (self.parent, self.child)

    def __eq__(self, other):
        if not isinstance(other, ParkingTree):
            return NotImplemented
        return self.parent == other.parent and self.child == other.child

    def __hash__(self):
        return hash((self.parent, self.child))

    def __repr__(self):
        return f"parking_tree_from_text({parking_tree_to_text(self)!r})"


def tree_to_function(t: ParkingTree) -> tuple[int, ...]:
    """f(i) = label of the parent vertex of the edge labeled i."""
    return t.parent


def edge_perm(t: ParkingTree) -> tuple[int, ...]:
    """Edge labels grouped by parent vertex label (ascending), left to right
    within a group: a stable sort of the edges by parent, which equals the
    fiber permutation of the encoded function."""
    return tuple(sorted(range(1, t.n + 1), key=lambda e: t.parent[e - 1]))


def _attach(shape: perms.PlaneTree, fibers, n: int) -> ParkingTree:
    """The parking tree on ``shape`` (a flat increasing plane tree on n+1
    vertices, ``shape[v]`` the children of v) whose edges at vertex v carry
    ``fibers[v]``, v's increasing edge labels, left to right."""
    parent, child = [0] * n, [0] * n
    for v, kids in enumerate(shape):
        if kids:
            for e, c in zip(fibers[v], kids):
                parent[e - 1], child[e - 1] = v, c
    return ParkingTree(parent, child)


def _fibers(f) -> list[list[int]]:
    """The fibers f^{-1}(v), increasing, in a list indexed by v = 0..len(f)+1,
    which covers every vertex label of a tree of f."""
    fibers: list[list[int]] = [[] for _ in range(len(f) + 2)]
    for i, v in enumerate(f, start=1):
        fibers[v].append(i)
    return fibers


def dfs_tree(f) -> ParkingTree:
    """The unique parking tree of f whose vertex labels follow the
    depth-first search order (so they read as a preorder traversal)."""
    return _search_tree(f, bfs=False)


def bfs_tree(f) -> ParkingTree:
    """The unique parking tree of f whose vertex labels follow the
    breadth-first search order (level by level, left to right)."""
    return _search_tree(f, bfs=True)


def _search_tree(f, bfs: bool) -> ParkingTree:
    """Label the vertices in search order, each becoming the child of the
    next free edge, in label order, of the first (breadth-first) or last
    (depth-first) vertex with one left."""
    if not is_parking(f):
        raise PreconditionError(f"not a parking function: {f!r}")
    fibers = _fibers(f)
    taken = [0] * len(fibers)  # edges of each vertex given a child so far
    child = [0] * len(f)
    pending = deque([1])
    for label in range(2, len(f) + 2):
        v = pending[0] if bfs else pending[-1]
        child[fibers[v][taken[v]] - 1] = label
        taken[v] += 1
        if taken[v] == len(fibers[v]):
            pending.popleft() if bfs else pending.pop()
        if fibers[label]:
            pending.append(label)
    return ParkingTree(f, child)


def enumerate_parking_trees(n: int, unsafe: bool = False) -> Iterator[ParkingTree]:
    """All (n!)^2 parking trees on n+1 vertices.

    Emitted as (vertex-labeled shape, edge assignment) pairs: shapes stream
    in the insertion order of :func:`toricg.perms.increasing_plane_trees`
    and the sets of edge labels given to the vertices 1, 2, ... vary in
    lexicographic order.  This ordering is an artifact convention.  Shapes
    with the same child counts share one list of the splits of [n].
    """
    require_size("enumerate_parking_trees", n)
    check_capacity("parking_trees", n, unsafe)
    labels = tuple(range(1, n + 1))
    splits: dict[tuple[int, ...], list[tuple]] = {}
    for shape in perms.increasing_plane_trees(n + 1):
        counts = perms.child_counts(shape)
        parents = [v for v, c in enumerate(counts, start=1) if c]
        sizes = tuple(c for c in counts if c)
        if sizes not in splits:
            splits[sizes] = list(_ordered_groups(labels, sizes))
        for groups in splits[sizes]:
            yield _attach(shape, dict(zip(parents, groups)), n)


def parking_tree_texts(n: int, unsafe: bool = False) -> Iterator[str]:
    """:func:`parking_tree_to_text` of each tree of
    :func:`enumerate_parking_trees`, in the same order, without building
    the trees.

    One walk of each shape (a flat plane tree, ``shape[v]`` the children of
    v), on an explicit stack, writes its text with a slot per edge label
    and notes each edge as (parent v, sibling index j).  Laid end to end, a
    labelling gives v's edges the entries from offset[v], the number of
    children of the vertices labelled below v, so edge (v, j) takes entry
    offset[v] + j.  The labellings laid end to end, as texts, are listed
    once per tuple of child counts."""
    require_size("enumerate_parking_trees", n)
    check_capacity("parking_trees", n, unsafe)
    labels = tuple(range(1, n + 1))
    laid: dict[tuple[int, ...], list[tuple[str, ...]]] = {}
    for shape in perms.increasing_plane_trees(n + 1):
        parts: list[str] = []
        edges: list[tuple[int, int]] = []
        stack: list = [(1, 0, 0)]  # (vertex, its parent, its sibling index), or closing text
        while stack:
            item = stack.pop()
            if type(item) is str:
                parts.append(item)
                continue
            v, parent, j = item
            if parent:
                edges.append((parent, j))
            parts.append(f" [e=%s (v={v}" if parent else f"(v={v}")
            stack.append(")]" if parent else ")")
            kids = shape[v]
            stack += [(kids[i], v, i) for i in range(len(kids) - 1, -1, -1)]
        counts = list(map(len, shape))
        offset = list(itertools.accumulate(counts, initial=0))
        sizes = tuple(c for c in counts if c)
        if sizes not in laid:
            splits = _ordered_groups(labels, sizes)
            laid[sizes] = [tuple(map(str, sum(groups, ()))) for groups in splits]
        # itemgetter hands back a single label bare, which % takes as well;
        # at n = 0 there is none
        order = [offset[v] + j for v, j in edges]
        pick = itemgetter(*order) if order else tuple
        yield from map("".join(parts).__mod__, map(pick, laid[sizes]))


def enumerate_123_parking_trees(n: int, unsafe: bool = False) -> Iterator[ParkingTree]:
    """The parking trees of the 123-avoiding parking functions on [n]: those
    of :func:`enumerate_parking_trees` with at most two children per vertex
    and a 123-avoiding edge permutation, in the same order, without listing
    the others.  Each 0-1-2 shape takes the functions whose fiber sizes are
    its child counts, ordered by their fibers in parent order (the
    Garsia-Haiman permutation)."""
    require_size("enumerate_123_parking_trees", n)
    check_capacity("parking_trees", n, unsafe)
    table = avoiding_functions_by_fibers(n)
    layouts: dict[tuple[int, ...], list[list[list[int]]]] = {}
    for shape, _ in perms.enumerate_increasing_012(n + 1):
        sizes = perms.child_counts(shape)[:-1]
        if sizes not in layouts:
            group = sorted(table[sizes], key=lambda f: garsia_haiman(f).perm)
            layouts[sizes] = [_fibers(f) for f in group]
        for fibers in layouts[sizes]:
            yield _attach(shape, fibers, n)


def avoiding_functions_by_fibers(n: int) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """The 123-avoiding functions [n] -> [n] of
    :func:`toricg.perms.enumerate_123_avoiding`, grouped by their fiber
    sizes (|f^-1(1)|, ..., |f^-1(n)|), each group in lexicographic order."""
    table: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for f in perms.enumerate_123_avoiding(n, distinct=False):
        sizes = [0] * n
        for v in f:
            sizes[v - 1] += 1
        table.setdefault(tuple(sizes), []).append(f)
    return table


def _ordered_groups(labels: tuple[int, ...], sizes: Sequence[int]) -> Iterator[tuple]:
    """Split ``labels`` into consecutive groups of the given sizes, each
    group sorted; all ways, lexicographic in the choice sequence."""
    if not sizes:
        yield ()
        return
    for combo in itertools.combinations(labels, sizes[0]):
        chosen = set(combo)
        rest = tuple(x for x in labels if x not in chosen)
        for tail in _ordered_groups(rest, sizes[1:]):
            yield (combo,) + tail


def parking_tree_to_text(t: ParkingTree) -> str:
    """Nested rendering "(v=1 [e=7 (v=2)] [e=10 (v=3)])": the edges grouped
    by parent, in label order, then written from an explicit stack of
    vertices still to render and closing text."""
    edges: list[list[tuple[int, int]]] = [[] for _ in range(t.n + 2)]
    for e, (v, c) in enumerate(zip(t.parent, t.child), start=1):
        edges[v].append((e, c))
    parts = []
    stack: list = [1]
    while stack:
        item = stack.pop()
        if type(item) is str:
            parts.append(item)
            continue
        parts.append(f"(v={item}")
        stack.append(")")
        for e, c in reversed(edges[item]):
            stack += ("]", c, f" [e={e} ")
    return "".join(parts)


def parking_tree_from_text(text: str) -> ParkingTree:
    """Inverse of :func:`parking_tree_to_text`, read on an explicit stack of
    the open vertices, so that no level costs a recursion.  What only the
    text can break is refused here: a root not labeled 1, sibling edge
    labels out of order, edge labels that are not a bijection to [n]; the
    constructor checks the vertex labels."""
    s = strip_blanks(text)
    expected = lambda what, i: StructuralError(f"expected {what!r} at {i} in {text!r}")
    edges: list[tuple[int, int, int]] = []  # (edge label, parent, child)
    stack: list[list[int]] = []  # open vertices: [label, label of its last edge]
    e, i = 0, 0
    while True:
        if not s.startswith("(v=", i):
            raise expected("(v=", i)
        v, i = read_int(s, i + 3)
        if stack:
            above = stack[-1]
            if e <= above[1]:
                raise StructuralError(
                    f"sibling edge labels must increase left to right at vertex {above[0]}"
                )
            above[1] = e
            edges.append((e, above[0], v))
        elif v != 1:
            raise StructuralError("the root must be labeled 1")
        stack.append([v, 0])
        while not s.startswith("[", i):  # close vertices until an edge opens
            if not s.startswith(")", i):
                raise expected(")", i)
            stack.pop()
            i += 1
            if not stack:
                break
            if not s.startswith("]", i):
                raise expected("]", i)
            i += 1
        if not stack:
            break
        if not s.startswith("[e=", i):
            raise expected("[e=", i)
        e, i = read_int(s, i + 3)
    if i != len(s):
        raise StructuralError(f"trailing text in {text!r}")
    n = len(edges)
    if sorted(e for e, _, _ in edges) != list(range(1, n + 1)):
        raise StructuralError("edge labels are not a bijection to [n]")
    parent, child = [0] * n, [0] * n
    for e, v, c in edges:
        parent[e - 1], child[e - 1] = v, c
    return ParkingTree(parent, child)


# ---------------------------------------------------------------------------
# Function enumeration (plumbing for the verification sweeps and the CLI).
# ---------------------------------------------------------------------------


def iter_functions(n: int) -> Iterator[tuple[int, ...]]:
    """All n^n functions [n] -> [n]."""
    require_size("iter_functions", n, name="n of iter_functions")
    return itertools.product(range(1, n + 1), repeat=n)


def iter_parking_functions(n: int) -> Iterator[tuple[int, ...]]:
    """The parking functions [n] -> [n] in the lexicographic order of
    :func:`iter_functions`, grown by prefix without listing the others."""
    require_size("iter_parking_functions", n, name="n of iter_parking_functions")
    return _parking_walk(n)


def _parking_walk(n: int) -> Iterator[tuple[int, ...]]:
    """A prefix of k values, c_j of them at most j, extends to a parking
    function iff its slack s_j = c_j + (n - k) - j is >= 0 for every j (the
    rest may all be 1).  Appending v lowers s_j by one for j < v only, so v
    may rise to the first j with s_j = 0; s_n is always 0."""
    if n == 0:
        yield ()
        return
    stack = [((), tuple(range(n - 1, -1, -1)))]
    while stack:
        prefix, slack = stack.pop()
        top = slack.index(0) + 1
        if len(prefix) == n - 1:
            yield from [prefix + (v,) for v in range(1, top + 1)]
            continue
        for v in range(top, 0, -1):  # the least value is walked first
            lowered = tuple([s - 1 for s in slack[: v - 1]])
            stack.append((prefix + (v,), lowered + slack[v - 1 :]))


def iter_123_avoiding_functions(n: int, parking_only: bool = False) -> Iterator[tuple[int, ...]]:
    """All 123-avoiding functions [n] -> [n] in lexicographic order,
    optionally only the parking ones; see
    :func:`toricg.perms.enumerate_123_avoiding`."""
    functions = perms.enumerate_123_avoiding(n, distinct=False)
    return (f for f in functions if not parking_only or is_parking(f))
