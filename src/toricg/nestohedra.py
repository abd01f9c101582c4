"""Building sets, chordality, B-permutations and the h/gamma/toric-g
pipeline for chordal nestohedra.

A building set on [m] is a family of nonempty subsets that contains every
singleton and is closed under unions of intersecting members.  It is
connected when [m] itself belongs to it, and chordal when every member
{i_1 < ... < i_r} contains all of its suffixes {i_s, ..., i_r}.  For a
connected chordal building set on [n+1] the h-polynomial of the associated
nestohedron is the descent generating function of its B-permutations,
counted by a dynamic program over prefixes of B-permutations, not by
listing them.  The gamma-vector is read off the h-vector; it restricts the
same sum to the right-adjusted B-permutations, those with no double
descent and no final descent, and the toric g-polynomial follows from it.

The direct route certifies the toric g-polynomial as the weak-ascent count
of 123-avoiding parking trees over B-permutations.  Such a tree is a pair
(pi, f): pi a right-adjusted B-permutation, f : [n] -> [n] a function
whose fiber over v has c_v(pi) elements, the number of neighbours of v in
pi larger than v.  Avoidance and ascents read f alone, so the route sums,
over pi, the table of 123-avoiding functions by fiber sizes that also
builds the 123 parking-tree walk as 0-1-2 shapes times the table
(``parking.avoiding_functions_by_fibers``).  That table is listed once per
n, and each group's ascent polynomial is summed once, when a call first
needs it.  One walk lists the B-permutations and, for the route and the
gamma checks, the right-adjusted ones: it extends prefixes to a split
depth and lists the completions of each prefix state once below it.  The
descent DP counts them.

Members are stored as bitmasks over a ground set of size at most 16.
``BuildingSet`` and its member checks live in :mod:`toricg.buildingset`,
which reading a file loads alone; this module re-exports it.  A
BuildingSet is immutable, and its ``_memo`` holds its set of masks, from
the constructor, and what this module asks of it more than once: the
validation report, the component table and, once the palindromic check
passes, the h-vector, so gamma, toric g and the direct route share one
validation and one descent count.  The capacity check still runs on every
call, and a call that raises stores nothing.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .buildingset import BuildingSet, _check_ground_size, _check_member, _unmask
from .config import check_capacity
from .errors import (
    BuildingSetError, ChordalityError, PreconditionError, StructuralError, require_ints,
    require_size,
)
from .ints import set_mask

if TYPE_CHECKING:
    from .polyvec import IntPoly

_NAMED_KINDS = (
    "permutahedron", "stanley_pitman", "associahedron_intervals", "interpolation",
)


class ValidationReport(NamedTuple):
    connected: bool
    chordal: bool


def validate(bs: BuildingSet) -> ValidationReport:
    """Check the building-set axioms, then report connectivity/chordality.

    Axiom violations raise BuildingSetError carrying a witness: the missing
    singleton, or the first pair, in member order, whose union is missing.
    Closure costs the cheaper of the pairwise scan, |B|^2 / 2 steps, and
    :func:`_union_closed`, about m^2 2^m / 4; a refusal then pays the scan
    for its witness.  The report is memoised.
    """
    memo = bs._memo
    if "report" in memo:
        return memo["report"]
    masks = memo["masks"]
    m = bs.ground_size
    for i in range(1, m + 1):
        if 1 << (i - 1) not in masks:
            raise BuildingSetError(f"missing singleton {{{i}}}", witness=(i,))
    size = len(masks)
    # the scan takes size^2 / 2 steps, the DP about m 2^(m-1) plus
    # m^2 (2^m - size) / 4; after a DP refusal the scan names the witness
    scan_first = size * size < (m << m) + m * m * ((1 << m) - size) // 2
    if scan_first or not _union_closed(masks, m):
        for a, b in itertools.combinations(bs.masks, 2):
            if a & b and (a | b) not in masks:
                raise BuildingSetError(
                    f"union of intersecting members {_unmask(a)} and {_unmask(b)} is missing",
                    witness=(_unmask(a), _unmask(b)),
                )
    full = (1 << m) - 1
    connected = full in masks
    chordal = all(_suffix_closed(member, masks) for member in bs.masks)
    memo["report"] = report = ValidationReport(connected, chordal)
    return report


def _union_closed(masks: frozenset[int], m: int) -> bool:
    """Whether members that meet have their union in the family, which must
    hold every singleton, by a subset DP over the sets S holding x:
    C_x[S] is S for a member S and otherwise the union of C_x[S - y] over
    y in S - x.  C_x[S] covers every member inside S that holds x, so the
    family is closed exactly when every C_x[S] is a member.  The cost is
    about m^2 2^m / 4 steps on a sparse family and m 2^(m-1) on a dense one.
    """
    size = 1 << m
    cover = [0] * size
    for x in range(m):
        xbit = 1 << x
        s = xbit
        while s < size:  # the sets holding x, in increasing order
            if s in masks:
                cover[s] = s
            else:
                union = 0
                others = s ^ xbit
                while others:
                    y = others & -others
                    others ^= y
                    union |= cover[s ^ y]
                if union not in masks:
                    return False
                cover[s] = union
            s = (s + 1) | xbit
    return True


def _suffix_closed(member: int, masks: frozenset[int]) -> bool:
    suffix = member
    while suffix:
        if suffix not in masks:
            return False
        suffix &= suffix - 1  # drop the least element
    return True


def graphical(ground_size: int, edges: Iterable[tuple[int, int]]) -> BuildingSet:
    """Building set of all vertex subsets inducing a connected subgraph."""
    _check_ground_size(ground_size)
    adj = [0] * (ground_size + 1)
    for a, b in edges:
        if not all(type(v) is int and 1 <= v <= ground_size for v in (a, b)):
            raise BuildingSetError(
                f"edge endpoints must be ints in [1, {ground_size}], got {(a, b)!r}"
            )
        if a == b:
            continue
        adj[a] |= 1 << (b - 1)
        adj[b] |= 1 << (a - 1)
    sets = []
    for mask in range(1, 1 << ground_size):
        if _induced_connected(mask, adj, ground_size):
            sets.append(_unmask(mask))
    return BuildingSet(ground_size, sets)


def _induced_connected(mask: int, adj: Sequence[int], ground_size: int) -> bool:
    start = mask & -mask
    seen = start
    frontier = start
    while frontier:
        nxt = 0
        f = frontier
        while f:
            bit = f & -f
            f ^= bit
            nxt |= adj[bit.bit_length()] & mask
        frontier = nxt & ~seen
        seen |= nxt
    return seen == mask


def _subset_mask(bs: BuildingSet, T: Iterable[int]) -> int:
    """The mask of T's elements in the ground set.  T is refused as a
    member is, except that it may be empty; elements past the ground set,
    which no member holds, are dropped before masking."""
    try:
        elements = tuple(T)
    except TypeError as exc:
        raise BuildingSetError(f"T is an iterable of ints, got {T!r}") from exc
    if elements:
        _check_member(elements)
    return set_mask(i for i in elements if i <= bs.ground_size)


def restrict(bs: BuildingSet, T: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """The members of bs contained in T."""
    t = _subset_mask(bs, T)
    return tuple(_unmask(m) for m in bs.masks if m & ~t == 0)


def components(bs: BuildingSet, T: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Maximal members of the T-restricted family; on a building set they
    partition T's elements in the ground set."""
    t = _subset_mask(bs, T)
    inside = [m for m in bs.masks if m & ~t == 0]
    maximal = [
        m for m in inside if not any(m != other and m & ~other == 0 for other in inside)
    ]
    return tuple(sorted(_unmask(m) for m in maximal))


def _component_table(bs: BuildingSet) -> list[int]:
    """comp[S] = the largest member inside S that holds max(S), i.e. the
    component of max(S) in the S-restricted family, for every mask S.

    Members holding max(S) are closed under union, so when S is not a
    member comp[S] is the union of comp[S - {y}] over y in S below max(S).
    The table is memoised; callers only read it.
    """
    memo = bs._memo
    if "comp" in memo:
        return memo["comp"]
    member = memo["masks"]
    comp = [0] * (1 << bs.ground_size)
    for s in range(1, len(comp)):
        if s in member:
            comp[s] = s
            continue
        below = s ^ (1 << (s.bit_length() - 1))
        while below:
            bit = below & -below
            below ^= bit
            comp[s] |= comp[s ^ bit]
    memo["comp"] = comp
    return comp


def b_permutations(bs: BuildingSet, unsafe: bool = False) -> list[tuple[int, ...]]:
    """All permutations pi of the ground set such that pi(i) and
    max(pi(1..i)) share a component of the restriction to {pi(1..i)},
    for every prefix, in lexicographic order."""
    return _b_walk(bs, unsafe, right_adjusted=False)


def right_adjusted_b_permutations(bs: BuildingSet, unsafe: bool = False) -> list[tuple[int, ...]]:
    """The B-permutations with no double descent and no final descent (whose
    min-rooted tree is right-adjusted), in lexicographic order."""
    return _b_walk(bs, unsafe, right_adjusted=True)


def count_b_permutations(bs: BuildingSet, unsafe: bool = False) -> int:
    """len(b_permutations(bs)) without listing them: the total of the
    descent DP, whose prefixes are the walk's.  The same cap applies."""
    check_capacity("b_permutations", bs.ground_size - 1, unsafe)
    return sum(_descent_counts(bs))


def _b_walk(bs: BuildingSet, unsafe: bool, right_adjusted: bool) -> list[tuple[int, ...]]:
    """The one walk behind both listings.

    v may follow a prefix with mask T iff v lies in comp[T | v]; the first
    element follows the empty prefix and the last one completes [m].  With
    ``right_adjusted`` a value after a descent, and the last value, must
    also be above the value before it.  The prefixes of each first element
    in turn are extended by increasing values down to a split depth, which
    keeps them in lexicographic order; holding every first element's
    prefixes at once costs a fresh process more than it saves.  Below the
    split what may follow depends only on the prefix's state, so each
    state's completions are listed once per call, in lexicographic order,
    and every output is prefix + completion.  The state is the mask T, the
    free values below the last one and whether the prefix ends in a
    descent; the plain listing keeps the last two at 0.  On grounds below
    6 (7 for the right-adjusted listing) sharing saves less than it costs,
    so there every prefix is extended to its end.
    """
    m = bs.ground_size
    check_capacity("b_permutations", m - 1, unsafe)
    comp = _component_table(bs)
    full = (1 << m) - 1
    if m == 1:
        return [(1,)] if comp[1] else []
    depth = m - 1 if m < (7 if right_adjusted else 6) else max(3, m // 2)
    shared: dict[int, list[tuple[int, ...]]] = {}

    def completions(t: int, low: int, desc: int) -> list[tuple[int, ...]]:
        key = t | low << m | desc << 2 * m
        got = shared.get(key)
        if got is None:
            got = []
            free = full ^ t
            kept = free if right_adjusted else 0  # the values low may hold
            allowed = free & ~low if desc else free
            while allowed:
                bit = allowed & -allowed
                allowed ^= bit
                u = t | bit
                if comp[u] & bit:
                    head = (bit.bit_length(),)
                    if u != full:
                        rest = completions(u, kept & (bit - 1), 1 if bit & low else 0)
                        got += map(head.__add__, rest)
                    elif not bit & low:
                        got.append(head)
            shared[key] = got
        return got

    out = []
    for first in range(m):
        if not comp[1 << first]:
            continue
        masks, prefixes = [1 << first], [(first + 1,)]
        for _ in range(depth - 1):
            grown_masks: list[int] = []
            grown: list[tuple[int, ...]] = []
            for t, p in zip(masks, prefixes):
                free = full ^ t
                if right_adjusted and len(p) > 1 and p[-2] > p[-1]:
                    free &= -1 << p[-1]
                while free:
                    bit = free & -free
                    free ^= bit
                    if comp[t | bit] & bit:
                        grown_masks.append(t | bit)
                        grown.append(p + (bit.bit_length(),))
            masks, prefixes = grown_masks, grown
        if depth == m - 1:
            for t, p in zip(masks, prefixes):
                last = full ^ t
                if comp[full] & last and (not right_adjusted or last.bit_length() > p[-1]):
                    out.append(p + (last.bit_length(),))
        else:
            for t, p in zip(masks, prefixes):
                low = (full ^ t) & ((1 << (p[-1] - 1)) - 1) if right_adjusted else 0
                desc = 1 if right_adjusted and p[-2] > p[-1] else 0
                out += map(p.__add__, completions(t, low, desc))
    shared.clear()  # completions is a reference cycle; free its lists now
    return out


def _require_chordal(bs: BuildingSet, unsafe: bool) -> None:
    """Refuse sets past the b_permutations cap, then those that are not
    connected and chordal.  The cap comes first, on every call: validate
    costs up to min(|B|^2, m^2 2^m) steps, and a memo filled under
    ``unsafe`` must not lift it."""
    check_capacity("b_permutations", bs.ground_size - 1, unsafe)
    report = validate(bs)
    if not (report.connected and report.chordal):
        raise ChordalityError(
            "the h/gamma pipeline needs a connected chordal building set; "
            "h-vectors of non-chordal nestohedra (tree-based formula) are out of scope"
        )


def _descent_counts(bs: BuildingSet) -> list[int]:
    """Numbers of B-permutations by descent count, by a DP over prefixes.

    A prefix starts at a member singleton and v may follow a prefix T
    exactly when v lies in comp[T | v], as in :func:`_b_walk`, so a state
    is (prefix mask, last element) and holds the descent histogram of its
    prefixes, packed one 64-bit slot per count (a slot holds at most
    16! < 2**64).
    """
    m = bs.ground_size
    comp = _component_table(bs)
    full = (1 << m) - 1
    states = {(1 << v, v + 1): 1 for v in range(m) if comp[1 << v]}
    for _ in range(m - 1):
        grown: dict[tuple[int, int], int] = {}
        for (t, last), hist in states.items():
            free = full ^ t
            while free:
                bit = free & -free
                free ^= bit
                u = t | bit
                if not comp[u] & bit:
                    continue
                v = bit.bit_length()
                key = (u, v)
                grown[key] = grown.get(key, 0) + (hist << 64 if v < last else hist)
        states = grown
    total = sum(states.values())
    return [total >> 64 * k & (1 << 64) - 1 for k in range(m)]


def h_chordal(bs: BuildingSet, unsafe: bool = False) -> tuple[int, ...]:
    """Descent generating vector of the B-permutations; palindromic.  It is
    memoised once the check passes, after the capacity check of each call."""
    _require_chordal(bs, unsafe)
    memo = bs._memo
    if "h" not in memo:
        hvec = tuple(_descent_counts(bs))
        if hvec != hvec[::-1]:
            raise StructuralError(f"chordal h-vector {hvec} is not palindromic")
        memo["h"] = hvec
    return memo["h"]


def gamma_chordal(bs: BuildingSet, unsafe: bool = False) -> tuple[int, ...]:
    """Gamma-vector of the h-vector; it counts the B-permutations with no
    double descents and no final descent by their descents."""
    hvec = h_chordal(bs, unsafe)
    from . import polyvec

    return polyvec.h_to_gamma(hvec)


def toric_g_chordal(bs: BuildingSet, unsafe: bool = False) -> IntPoly:
    """Toric g-polynomial through the gamma route."""
    gamma = gamma_chordal(bs, unsafe)
    from . import polyvec

    return polyvec.toric_g_from_gamma(bs.ground_size - 1, gamma)


def toric_g_direct(bs: BuildingSet, dfs_only: bool = False, unsafe: bool = False) -> IntPoly:
    """Toric g-polynomial by counting parking trees.

    Counts, by their number of weak ascents, the 123-avoiding parking
    functions on [n] whose parking tree (a plane 0-1-2 tree with increasing
    vertex labels plus an edge labeling) projects to the min-rooted tree of
    a B-permutation once edge labels are dropped and only children are
    pushed to the right slot.  With ``dfs_only`` the vertex labeling must
    additionally follow the depth-first search order of the shape: the
    preorder of pi's min-rooted tree, which :func:`toricg.perms.fs_preorder`
    walks over the flat tree's child slots, must read 1..n+1.

    Each such tree is a pair (pi, f): pi a right-adjusted B-permutation,
    f : [n] -> [n] sending each edge to its parent vertex, so |f^-1(v)| =
    c_v(pi).  Avoidance and ascents depend on f alone, so the polynomial is
    the sum over pi of the ascents of the functions in group c(pi) of
    :func:`toricg.parking.avoiding_functions_by_fibers`.  The b_permutations
    key bounds it, checked before any work (n = 7 takes about 0.1 s).
    """
    n = bs.ground_size - 1
    _require_chordal(bs, unsafe)
    from . import perms, polyvec

    shapes: Counter[tuple[int, ...]] = Counter()
    preorder = tuple(range(1, n + 2))
    for pi in right_adjusted_b_permutations(bs, unsafe):
        if not dfs_only or perms.fs_preorder(perms.fs_tree(pi)) == preorder:
            shapes[_fiber_sizes(pi)] += 1
    out = polyvec.IntPoly()
    for sizes, times in shapes.items():
        out = out + times * _ascents_by_fibers(n, sizes)
    return out


@lru_cache(maxsize=None)
def _ascents_by_fibers(n: int, sizes: tuple[int, ...]) -> IntPoly:
    """The weak-ascent polynomial of one group of
    :func:`toricg.parking.avoiding_functions_by_fibers`, summed once, when
    a call first needs it; toric_g_direct checks n first."""
    from . import parking

    return parking.ascent_polynomial(_functions_by_fibers(n)[sizes])


@lru_cache(maxsize=None)
def _functions_by_fibers(n: int) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """The groups themselves, listed once per n."""
    from . import parking

    return parking.avoiding_functions_by_fibers(n)


def _fiber_sizes(pi: tuple[int, ...]) -> tuple[int, ...]:
    """c_v(pi) for v = 1..len(pi) - 1: the number of children of v in the
    min-rooted tree of pi, which is |f^-1(v)| for the functions f of its
    parking trees (pi right-adjusted)."""
    m = len(pi)
    counts = [0] * m
    for i, v in enumerate(pi):
        counts[v - 1] = (i > 0 and pi[i - 1] > v) + (i < m - 1 and pi[i + 1] > v)
    return tuple(counts[:-1])


def named_family(kind: str, n: int, r: int | None = None) -> BuildingSet:
    """Connected chordal building sets on [n+1] for the named families.

    permutahedron             all nonempty subsets
    stanley_pitman            singletons plus the suffixes [i, n+1]
    associahedron_intervals   all intervals [i, j]
    interpolation (needs r)   singletons of [r] plus every set meeting
                              [r+1, n+1]; r = 1 gives the permutahedron and
                              r = n the stellohedron
    """
    _check_family(kind, n, r)
    m = n + 1
    if kind == "permutahedron":
        sets = [s for k in range(1, m + 1) for s in itertools.combinations(range(1, m + 1), k)]
    elif kind == "stanley_pitman":
        sets = [[i] for i in range(1, m + 1)]
        sets += [list(range(i, m + 1)) for i in range(1, m + 1)]
    elif kind == "associahedron_intervals":
        sets = [list(range(i, j + 1)) for i in range(1, m + 1) for j in range(i, m + 1)]
    else:  # interpolation
        sets = [[i] for i in range(1, r + 1)]
        for k in range(1, m + 1):
            for s in itertools.combinations(range(1, m + 1), k):
                if max(s) >= r + 1:
                    sets.append(list(s))
    return BuildingSet(m, sets)


def _check_family(kind: str, n: int, r: int | None) -> None:
    """Refuse what named_family refuses, before any member is built."""
    require_size("named_family", n, 1)
    if r is not None:
        require_ints("named_family", r)
    _check_ground_size(n + 1)
    if kind not in _NAMED_KINDS:
        raise PreconditionError(f"unknown family {kind!r}; expected one of {_NAMED_KINDS}")
    if kind == "interpolation" and (r is None or not (1 <= r <= n)):
        raise PreconditionError("interpolation needs 1 <= r <= n")
