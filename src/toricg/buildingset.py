"""Building sets as values: the members stored as bitmasks, and the checks
that the constructor and the JSON reader apply to each member and to the
ground size.  Reading a file needs only this module; the axioms, what the
memo holds and the pipeline are in :mod:`toricg.nestohedra`."""

from __future__ import annotations

from typing import Iterable

from .errors import BuildingSetError, PreconditionError
from .ints import set_mask


def _unmask(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


class BuildingSet:
    """A family of subsets of [ground_size], stored as sorted bitmasks.

    Immutable.  The private ``_memo`` holds what :mod:`toricg.nestohedra`
    computes from the family (see the module docstring); equality, hashing,
    repr and JSON ignore it.
    """

    __slots__ = ("ground_size", "masks", "_memo")

    def __init__(self, ground_size: int, sets: Iterable[Iterable[int]]):
        _check_ground_size(ground_size)
        try:
            members = [tuple(s) for s in sets]
        except TypeError as exc:
            raise BuildingSetError(f"sets must be iterables of ints, got {sets!r}") from exc
        masks = set()
        for s in members:
            _check_member(s)
            if max(s) > ground_size:
                # checked before masking: 1 << (i - 1) costs memory linear in i
                member = tuple(sorted(set(s)))
                raise BuildingSetError(
                    f"member {member} leaves the ground set [{ground_size}]",
                    witness=member,
                )
            masks.add(set_mask(s))
        object.__setattr__(self, "ground_size", ground_size)
        object.__setattr__(self, "masks", tuple(sorted(masks)))
        object.__setattr__(self, "_memo", {"masks": frozenset(masks)})

    def __setattr__(self, name, value):
        raise AttributeError("BuildingSet is immutable")

    def __delattr__(self, name):
        raise AttributeError("BuildingSet is immutable")

    def __reduce__(self):
        # copies and pickles rebuild the family with an empty memo
        return BuildingSet, (self.ground_size, self.members())

    def members(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_unmask(m) for m in self.masks)

    def __contains__(self, item) -> bool:
        """Whether ``item`` is a member.  What the constructor refuses as a
        member raises BuildingSetError; a set reaching past the ground set
        is not a member."""
        try:
            member = tuple(item)
        except TypeError as exc:
            raise BuildingSetError(f"a member is an iterable of ints, got {item!r}") from exc
        _check_member(member)
        return max(member) <= self.ground_size and set_mask(member) in self._memo["masks"]

    def __eq__(self, other):
        if not isinstance(other, BuildingSet):
            return NotImplemented
        return (self.ground_size, self.masks) == (other.ground_size, other.masks)

    def __hash__(self):
        return hash((self.ground_size, self.masks))

    def __repr__(self):
        return f"BuildingSet({self.ground_size}, {list(self.members())!r})"

    def to_json(self) -> dict:
        return {
            "ground_size": self.ground_size,
            "sets": [list(s) for s in self.members()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "BuildingSet":
        """Read {"ground_size": int, "sets": [[int >= 1, ...], ...]}; any
        other shape raises BuildingSetError."""
        try:
            ground = data["ground_size"]
            sets = data["sets"]
        except (KeyError, TypeError) as exc:
            raise BuildingSetError(f"malformed building-set JSON: {exc}") from exc
        if not isinstance(sets, list) or not all(isinstance(s, list) for s in sets):
            raise BuildingSetError("malformed building-set JSON: sets must be lists")
        try:
            return cls(ground, sets)
        except BuildingSetError as exc:
            raise BuildingSetError(
                f"malformed building-set JSON: {exc}", witness=exc.witness
            ) from exc


def _check_member(s: tuple) -> None:
    """Refuse a member that is empty or holds anything but ints >= 1."""
    if not all(type(i) is int and i >= 1 for i in s):
        raise BuildingSetError(f"members must hold ints >= 1, got {list(s)!r}")
    if not s:
        raise BuildingSetError("members must be nonempty", witness=())


def _check_ground_size(m: int) -> None:
    """Refuse a ground set other than [1..16], before any 2^m work."""
    if type(m) is not int:
        raise BuildingSetError(f"ground_size must be an int, got {m!r}")
    if not (1 <= m <= 16):
        raise PreconditionError("ground size must be between 1 and 16")
