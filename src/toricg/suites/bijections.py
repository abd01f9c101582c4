"""The ``bijections`` suite: each bijection of the library composed with
its inverse is the identity, and carries the statistics it promises."""

from __future__ import annotations

import itertools
from collections import deque

from .. import compat, parking, perms, words
from . import _expect


def _krattenthaler(b: int) -> None:
    for n in range(b + 1):
        for p in perms.enumerate_123_avoiding(n):
            w = perms.krattenthaler(p)
            _expect(perms.krattenthaler_inv(w) == p, (p, w))
            _expect(perms.asc(perms.inverse(p)) == words.factor_count(w, "UUD"))
            _expect(perms.asc(p) == words.factor_count(w, "UDD"))


def _fs_roundtrip(b: int) -> None:
    for n in range(1, b + 1):
        for p in itertools.permutations(range(1, n + 1)):
            _expect(perms.fs_inorder(perms.fs_tree(p)) == p)


def _lukasiewicz(b: int) -> None:
    for n in range(b + 1):
        for w in words.enumerate_words(n, "dyck"):
            lw = words.dyck_to_lukasiewicz(w)
            _expect(words.is_lukasiewicz(lw))
            _expect(words.lukasiewicz_to_dyck(lw) == w)


def _motzkin(b: int) -> None:
    for n in range(b + 1):
        for w in words.enumerate_words(n, "dyck"):
            if words.factor_count(w, "UUU"):
                continue
            mw = words.dyck_to_motzkin(w)
            _expect(words.is_motzkin(mw))
            _expect(words.motzkin_to_dyck(mw) == w)
            _expect(words.factor_count(w, "UU") == mw.count("U"))


def _garsia_haiman(b: int) -> None:
    for n in range(1, b + 1):
        for f in parking.iter_functions(n):
            pair = parking.garsia_haiman(f)
            _expect(parking.garsia_haiman_inv(*pair) == f)
            _expect(parking.is_parking(f) == words.is_dyck(pair.word))
            _expect(perms.is_123_avoiding(f) == perms.is_123_avoiding(pair.perm))


def _search_order(t: parking.ParkingTree, bfs: bool) -> list[int]:
    """The vertex labels of t in breadth-first or depth-first order, each
    vertex's children (``child`` of its edges) in edge-label order."""
    kids: list[list[int]] = [[] for _ in range(t.n + 2)]
    for v, c in zip(t.parent, t.child):
        kids[v].append(c)
    order, pending = [], deque([1])
    while pending:
        v = pending.popleft() if bfs else pending.pop()
        order.append(v)
        pending.extend(kids[v] if bfs else reversed(kids[v]))
    return order


def _search_trees(b: int) -> None:
    for n in range(1, b + 1):
        labels = list(range(1, n + 2))
        for f in parking.iter_parking_functions(n):
            for build, bfs in ((parking.dfs_tree, False), (parking.bfs_tree, True)):
                t = build(f)
                _expect(parking.ParkingTree(t.parent, t.child) == t)
                _expect(_search_order(t, bfs) == labels, (f, bfs))


def _nc_roundtrip(b: int) -> None:
    for n in range(b + 1):
        for w in words.enumerate_words(n, "dyck"):
            _expect(compat.nc_to_dyck(compat.dyck_to_nc(w)) == w)


CHECKS = (
    ("krattenthaler_roundtrip", 8, _krattenthaler),
    ("fs_tree_roundtrip", 8, _fs_roundtrip),
    ("lukasiewicz_roundtrip", 8, _lukasiewicz),
    ("motzkin_roundtrip", 8, _motzkin),
    ("garsia_haiman_roundtrip", 6, _garsia_haiman),
    ("search_tree_roundtrip", 6, _search_trees),
    ("noncrossing_roundtrip", 8, _nc_roundtrip),
)
