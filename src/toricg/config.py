"""Capacity bounds for the exhaustive enumerations.

All size limits live in ``CAPS`` so that callers (and the command line's
``--unsafe-max`` flag) have a single source of truth.  Its four keys are
``parking_trees``, ``b_permutations``, ``functions_route`` and ``table``;
the "Capacity bounds" table of the README says what each one bounds and
what a command at its default costs.
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
