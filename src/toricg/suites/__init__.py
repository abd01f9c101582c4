"""The verification suites behind ``toricg verify``, one module each.

Each suite module holds a table ``CHECKS`` of (name, cap, check) rows:
check(bound) runs an exhaustive check up to ``bound`` = min(n_max, cap),
raising on a mismatch (through ``_expect``, never a bare assert, so
``python -O`` cannot pass a check vacuously) and optionally returning a
detail for the report.  The effective bound appears in the JSON-ready
report (pass ``unsafe=True`` / ``--unsafe-max`` to lift the caps).  The
``conjectures`` suite is informational: it reports outcomes and never
fails.

Checks that ask one question of many parameters walk their objects once
per size and keep only the state the statistic needs: the compatible-word
checks scan each word's factor masks once and answer every sparse pair
from them (``compat.compatible_counts``), the peak oracle tallies the UD
factors of every prefix length in one sweep (``words.peak_poly_oracles``),
and the permutations with no double descent and no final descent, with or
without a building set, come from one walk that builds exactly them
(``nestohedra.right_adjusted_b_permutations``), not from a filter over all
of them.
The parking trees behind the permutahedron theorem come from a walk that
prunes on 123-containment as it labels the edges
(``parking.enumerate_123_parking_trees``), not from the (n!)^2 listing.
Each direct row that a check enumerates (the cube, associahedron,
cyclohedron and permutahedron ones) is also compared with the transfer
walk (``transfer.family_row``), which counts it without listing an object.

:func:`run` imports the one suite it runs, so ``toricg verify S`` compiles
suite S and the library modules that S checks and no other suite;
:mod:`toricg.verification` loads all six.
"""

from __future__ import annotations

import importlib

from ..errors import PreconditionError, ToricgError, require_size

NAMES = ("bijections", "compat", "conjectures", "gamma", "nestohedra", "series")


class _Mismatch(ToricgError):
    """A verification check met a counterexample."""


def _expect(cond, detail="") -> None:
    """Raise _Mismatch(detail) unless cond holds; unlike a bare assert this
    still runs under python -O."""
    if not cond:
        raise _Mismatch(detail)


def _run(suite: str, table, n_max: int, unsafe: bool) -> dict:
    """Run every row of ``table`` at its bound and report.  A cap of None
    marks an uncapped check whose bound is the series order max(n_max, 1)."""
    require_size(f"suite_{suite}", n_max, name="n_max")
    checks = []
    for name, cap, check in table:
        if cap is None:
            bound = max(n_max, 1)
        else:
            bound = n_max if unsafe else min(n_max, cap)
        out = {"name": name, "bound": bound, "ok": True}
        try:
            detail = check(bound)
        except ToricgError as exc:
            out.update(ok=False, detail=str(exc))
        else:
            if detail is not None:
                out["detail"] = detail
        checks.append(out)
    return {
        "suite": suite,
        "n_max": n_max,
        "ok": all(c["ok"] for c in checks),
        "checks": checks,
    }


def run(name: str, n_max: int, unsafe: bool = False) -> dict:
    """The report of suite ``name`` (one of :data:`NAMES`) at ``n_max``,
    loading that suite's module and no other."""
    if name not in NAMES:
        raise PreconditionError(f"unknown suite {name!r}")
    suite = importlib.import_module(f"{__name__}.{name}")
    return _run(name, suite.CHECKS, n_max, unsafe)
