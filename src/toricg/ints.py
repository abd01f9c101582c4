"""The integer helpers that every layer shares: the Catalan numbers, the
reader and the writer of integer text, and the bitmask of an integer set.
It imports only ``errors``, so a command that needs one of them compiles
none of the enumerators."""

from __future__ import annotations

from math import comb
from typing import Iterable

from .errors import PreconditionError, StructuralError, require_ints


def catalan(n: int) -> int:
    """n-th Catalan number C_n = binom(2n, n) / (n + 1)."""
    # the type test shares the range guard, since the toric g sums call
    # catalan once per coefficient
    if type(n) is not int or n < 0:
        require_ints("catalan", n)
        raise PreconditionError("catalan requires n >= 0")
    return comb(2 * n, n) // (n + 1)


def read_int(s: str, i: int = 0, signed: bool = False) -> tuple[int, int]:
    """The integer written in ASCII digits from position i of ``s`` (after
    one '-' where the format has a sign), and the position after it."""
    j = k = i + (signed and s.startswith("-", i))
    while k < len(s) and "0" <= s[k] <= "9":
        k += 1
    if k == j:
        raise StructuralError(f"expected an integer at {i} in {s!r}")
    try:
        return int(s[i:k]), k
    except ValueError as exc:  # more digits than int() converts
        raise StructuralError(f"integer too long at {i} in {s!r}") from exc


def read_ints(text: str, sep: str | None = None, signed: bool = False) -> tuple[int, ...]:
    """The integers of ``text`` split at ``sep`` (whitespace when None),
    each token read whole by :func:`read_int`."""
    out = []
    for tok in text.split(sep):
        tok = tok.strip()
        value, end = read_int(tok, 0, signed)
        if end != len(tok):
            raise StructuralError(f"not an integer: {tok!r} in {text!r}")
        out.append(value)
    return tuple(out)


def strip_blanks(text: str) -> str:
    """``text`` without its blanks, for the tree readers; a run of blanks
    between two digits is refused, since dropping it would join two
    integers into one."""
    parts = [part for part in text.split(" ") if part]
    for a, b in zip(parts, parts[1:]):
        if "0" <= a[-1] <= "9" and "0" <= b[0] <= "9":
            raise StructuralError(f"blank inside an integer in {text!r}")
    return "".join(parts)


def ints_to_text(values: Iterable[int]) -> str:
    """The integers separated by single spaces, as :func:`read_ints` reads
    them back: the text of a permutation or of a function."""
    return " ".join(map(str, values))


def set_mask(S: Iterable[int]) -> int:
    """Bit x-1 for each x in the integer set S."""
    out = 0
    for x in S:
        out |= 1 << (x - 1)
    return out
