"""Capacity bounds for the exhaustive enumerations.

All size limits live here so that callers (and the command line's
``--unsafe-max`` flag) have a single source of truth.  The defaults keep
every enumeration under a few seconds of CPU on ordinary hardware, except
the (n!)^2 parking-tree listing at n = 7, 49 times the one at n = 6:

==================  =======  ==================================================
key                 default  what it bounds (n = dimension / semilength)
==================  =======  ==================================================
parking_trees       7        enumerate_parking_trees: (n!)^2 trees (25.4M at 7);
                             parking_tree_texts: the same trees as text, one
                             template per shape (``enumerate parking_trees
                             6``: about 1.7 s for 518,400 lines);
                             enumerate_123_parking_trees: 0-1-2 shapes times
                             the table of 123-avoiding functions by fiber
                             sizes (216,685 trees at 7)
b_permutations      7        b_permutations and right_adjusted_b_permutations
                             (no double or final descent): one walk that
                             lists each prefix state's completions once,
                             up to (n+1)! permutations;
                             h/gamma_chordal: 2^(n+1)*(n+1)^2 DP;
                             toric_g_direct (``table --family permutahedron
                             --max 7 --route direct``: about 0.3 s)
functions_route     7        123-avoiding (parking) function sweeps, pruned
                             by perms.enumerate_123_avoiding (16,753 at 7):
                             the direct routes of the associahedron,
                             cyclohedron and cube tables (about 0.2 s to 7)
table               12       table rows (gamma / h routes), enumerate dyck
                             (``enumerate dyck 12``: about 0.2 s for 208,012
                             words)
==================  =======  ==================================================

``enumerate dyck`` and ``enumerate parking_trees`` answer ``--count-only``
from the closed forms catalan(n) and (n!)^2 after the same capacity check,
without streaming; the times above are whole commands on CPython 3.11 on
one core of a 2-vCPU host.
"""

from .errors import CapacityError

CAPS = {
    "parking_trees": 7,
    "b_permutations": 7,
    "functions_route": 7,
    "table": 12,
}


def check_capacity(kind: str, n: int, unsafe: bool = False) -> None:
    """Raise CapacityError when ``n`` exceeds the configured bound.

    ``unsafe=True`` (the --unsafe-max override) skips the check.
    """
    cap = CAPS[kind]
    if not unsafe and n > cap:
        raise CapacityError(
            f"{kind} is bounded at n <= {cap} (requested n = {n}); "
            "pass unsafe/--unsafe-max to override"
        )
