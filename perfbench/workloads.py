"""The four workloads as plain data.

``plan(workload, seed)`` returns the fixed list of operations of one round.
Each operation is a JSON-ready spec whose first element names its kind; the
worker turns a spec into calls of the program and the harness turns the same
spec into an independent check.  Nothing here imports toricg, so the harness
can plan and check without loading the program.

The seed sets the random building sets and the order of the operations.  It
never changes how many operations of each kind and size a round holds, so
two seeds give rounds of the same cost up to the random building sets.
"""

from __future__ import annotations

import random

FAMILIES = ("cube", "associahedron", "cyclohedron", "permutahedron")
WORKLOADS = ("closed-form", "nestohedron", "certify", "cli")

# closed-form: rows past the CLI's table cap of 12, as --unsafe-max allows;
# every n to 40, then every fourth n to 60 (a row at n = 60 costs about
# 40 times one at n = 20 today).
ROW_DIMS = tuple(range(1, 41)) + tuple(range(44, 61, 4))
STURM_G_MAX = 20          # sturm_real_rooted on g_contrib(n, j), n <= this
STURM_ROW_MAX = 18        # sturm_real_rooted on family rows, n <= this
KK_PERMUTAHEDRON_MAX = 9  # kruskal_katona_ok on permutahedron rows
KK_BOUNDARY_MAX = 8       # ... and on vectors at and past the bound
PEAK_MAX = 12             # peak_poly(n, m) for n <= this, every m
BRUTE_FORCE_MAX = 6       # rows also checked against brute-force ascents

# nestohedron: interpolation for every r only to n = 6, because the seven
# interpolation sets at n = 7 alone would take 7 s a round today.
NAMED_DIMS = range(3, 8)
INTERPOLATION_MAX = 6
CANDIDATES = 8
RANDOM_SHARE = {"random-sparse": 0.08, "random-dense": 0.25, "graphical": 0.4}
RANDOM_GROUNDS = range(4, 9)
DIRECT_MAX = 5

# certify: sizes at which each suite takes 0.1 s to about 1 s.
SUITE_SIZES = {
    "bijections": 5, "compat": 5, "series": 9,
    "gamma": 7, "nestohedra": 5, "conjectures": 9,
}
SERIES_ORDER = 14


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


# ---------------------------------------------------------------------------
# Random connected chordal building sets.
# ---------------------------------------------------------------------------


def _members(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def _mask(members) -> int:
    out = 0
    for i in members:
        out |= 1 << (i - 1)
    return out


def random_chordal_sets(rng: random.Random, m: int, generators: int) -> list[list[int]]:
    """A connected chordal building set on [m]: ``generators`` random
    subsets of size 2..m-1, the singletons and [m], closed under taking
    suffixes and under unions of intersecting members until both hold."""
    masks = {1 << i for i in range(m)} | {(1 << m) - 1}
    for _ in range(generators):
        masks.add(_mask(rng.sample(range(1, m + 1), rng.randint(2, m - 1))))
    while True:
        grown = set(masks)
        for s in masks:
            els = _members(s)
            grown.update(_mask(els[i:]) for i in range(len(els)))
        for a in masks:
            for b in masks:
                if a & b:
                    grown.add(a | b)
        if grown == masks:
            return [_members(s) for s in sorted(masks)]
        masks = grown


def random_chordal_graph(rng: random.Random, m: int) -> list[list[int]]:
    """Edges of a connected graph on [m] in which 1, ..., m is a perfect
    elimination order: each vertex i < m joins a random later vertex p and
    a random part of p's later neighbours, which form a clique.  Its
    graphical building set is then chordal."""
    later: dict[int, set[int]] = {m: set()}
    for i in range(m - 1, 0, -1):
        p = rng.randint(i + 1, m)
        extra = [w for w in sorted(later[p]) if rng.random() < 0.5]
        later[i] = {p, *extra}
    return [[i, j] for i in range(1, m) for j in sorted(later[i])]


# ---------------------------------------------------------------------------
# Plans.
# ---------------------------------------------------------------------------


def _closed_form(rng: random.Random) -> list[list]:
    """The Kruskal-Katona probes, the rows, the Sturm probes, then
    peak_poly; the seed orders the operations within each block.  The
    blocks keep their places, and the n = 9 Kruskal-Katona probe opens the
    round, because the time of some operations depends on what ran before
    them in the process: the linear cascade search of kruskal_katona_ok on
    the n = 9 row took 0.39 s after some seeds' orders of the other probes
    and 0.59 s after others', and peak_poly fills a process-wide cache
    whose size slows whatever runs after it."""
    kk = [["kk_row", "permutahedron", n] for n in range(1, KK_PERMUTAHEDRON_MAX + 1)]
    rows = [["row", family, n, route]
            for family in FAMILIES for n in ROW_DIMS for route in ("gamma", "hetyei")]
    sturm = [["sturm_g", n, j] for n in range(1, STURM_G_MAX + 1) for j in range(n // 2 + 1)]
    sturm += [["sturm_row", family, n] for family in FAMILIES for n in range(2, STURM_ROW_MAX + 1)]
    boundary_kk, boundary_sturm = _boundary_probes()
    kk += boundary_kk
    sturm += boundary_sturm
    peaks = [["peak", n, m] for n in range(PEAK_MAX + 1) for m in range(2 * n + 1)]
    for block in (kk, rows, sturm, peaks):
        rng.shuffle(block)
    largest = ["kk_row", "permutahedron", KK_PERMUTAHEDRON_MAX]
    kk.remove(largest)
    return [largest] + kk + rows + sturm + peaks


def _boundary_probes() -> tuple[list[list], list[list]]:
    """Inputs on which the probes must answer False as well as True, so a
    loosened or tightened check shows: permutahedron rows whose last entry
    is raised to the Kruskal-Katona bound and one past it, and family rows
    times 1 + x + x^2, which has two complex roots."""
    from oracles import family_row, kk_bound

    kk, sturm = [], []
    for n in range(4, KK_BOUNDARY_MAX + 1):
        vec = family_row("permutahedron", n)[: n // 2 + 1]
        top = kk_bound(vec[-2], len(vec) - 2)
        kk += [["kk_vec", vec[:-1] + [top]], ["kk_vec", vec[:-1] + [top + 1]]]
    for family in FAMILIES:
        for n in (4, 8, 12, 16):
            row = family_row(family, n)
            sturm.append(["sturm_poly", [sum(row[i - d] for d in range(3) if 0 <= i - d < len(row))
                                         for i in range(len(row) + 2)]])
    return kk, sturm


def _nestohedron_slots() -> list[dict]:
    """Named families at n = 3..7 (interpolation to n = 6) beside random
    chordal building sets on ground 4..8: per ground size one closure-generated set with one
    generator (sparse), one with m generators (dense) and one graphical
    set.  The random members are drawn by :func:`nestohedron_inputs`."""
    slots = []
    for n in NAMED_DIMS:
        for kind in ("permutahedron", "stanley_pitman", "associahedron_intervals"):
            slots.append({"id": f"{kind}:{n}", "kind": "named", "family": kind, "n": n, "r": None})
        for r in range(1, n + 1 if n <= INTERPOLATION_MAX else 1):
            slots.append({"id": f"interpolation:{n}:{r}", "kind": "named",
                          "family": "interpolation", "n": n, "r": r})
    for m in RANDOM_GROUNDS:
        for label in ("sparse", "dense"):
            slots.append({"id": f"random-{label}:{m}", "kind": "sets", "n": m - 1})
        slots.append({"id": f"graphical:{m}", "kind": "graphical", "n": m - 1})
    return slots


def _closest(candidates: list, size, target: int):
    """The first candidate whose size is nearest the target."""
    return min(candidates, key=lambda c: abs(size(c) - target))


def nestohedron_inputs(rng: random.Random) -> list[dict]:
    """Each random slot keeps, of CANDIDATES draws, the one whose building
    set has the member count nearest a fixed share of the 2^m - 1 subsets,
    so that a round costs about the same whatever the seed.  The members
    of a graphical set are counted with the benchmark's own enumerator."""
    from oracles import graphical

    inputs = []
    for slot in _nestohedron_slots():
        m = slot["n"] + 1
        target = int(RANDOM_SHARE.get(slot["id"].split(":")[0], 0) * ((1 << m) - 1))
        if slot["kind"] == "sets":
            gens = 1 if slot["id"].startswith("random-sparse") else m
            drawn = [random_chordal_sets(rng, m, gens) for _ in range(CANDIDATES)]
            slot = {**slot, "ground": m, "sets": _closest(drawn, len, target)}
        elif slot["kind"] == "graphical":
            drawn = [random_chordal_graph(rng, m) for _ in range(CANDIDATES)]
            edges = _closest(drawn, lambda e: len(graphical(m, e)), target)
            slot = {**slot, "ground": m, "edges": edges}
        inputs.append(slot)
    return inputs


def _nestohedron(rng: random.Random) -> list[list]:
    ops: list[list] = []
    for slot in _nestohedron_slots():
        for what in ("h_chordal", "gamma_chordal", "toric_g_chordal", "b_permutations"):
            ops.append([what, slot["id"]])
        if slot["n"] <= DIRECT_MAX:
            ops.append(["toric_g_direct", slot["id"]])
    rng.shuffle(ops)
    return ops


def _certify(rng: random.Random) -> list[list]:
    """The six suites plus a direct verify_series call.  Seven operations
    of distinct sizes put job_ms.p50 in the middle of one operation's own
    times instead of between two."""
    ops = [["suite", name, size] for name, size in SUITE_SIZES.items()]
    ops.append(["series", SERIES_ORDER])
    rng.shuffle(ops)
    return ops


def cli_files(rng: random.Random) -> dict[str, object]:
    """Building-set JSON documents the cli workload reads, by file name."""
    perm11 = [_members(s) for s in range(1, 1 << 11)]
    return {
        "random6.json": {"ground_size": 6, "sets": random_chordal_sets(rng, 6, 3)},
        "random7.json": {"ground_size": 7, "sets": random_chordal_sets(rng, 7, 3)},
        "permutahedron11.json": {"ground_size": 11, "sets": perm11},
        "bad-string.json": {"ground_size": 2, "sets": [["a"]]},
        "bad-zero.json": {"ground_size": 2, "sets": [[0]]},
        "bad-float.json": {"ground_size": 2, "sets": [[1.5]]},
        "bad-sets.json": {"ground_size": 2, "sets": 5},
        "bad-bool.json": {"ground_size": True, "sets": [[1]]},
    }


# (kind, argv, expected exit code).  Kinds: table, verify, enumerate,
# refusal (capacity, exit 3) and malformed (usage error, exit 2).
CLI_COMMANDS = (
    ("table", ["table", "--family", "associahedron", "--max", "40", "--unsafe-max"], 0),
    ("table", ["table", "--family", "cyclohedron", "--max", "40", "--unsafe-max",
               "--route", "hetyei", "--format", "json"], 0),
    ("table", ["table", "--family", "permutahedron", "--max", "12", "--format", "json"], 0),
    ("table", ["table", "--family", "cube", "--max", "12", "--route", "hetyei"], 0),
    ("table", ["table", "--family", "permutahedron", "--max", "5", "--route", "all"], 0),
    ("table", ["table", "--family", "permutahedron", "--max", "5"], 0),
    ("table", ["table", "--family", "cyclohedron", "--max", "6", "--route", "all",
               "--format", "json"], 0),
    ("table", ["table", "--building-set", "random6.json"], 0),
    ("table", ["table", "--building-set", "random7.json", "--route", "hetyei",
               "--format", "json"], 0),
    ("verify", ["verify", "series", "6"], 0),
    ("verify", ["verify", "gamma", "5"], 0),
    ("enumerate", ["enumerate", "dyck", "11"], 0),
    ("enumerate", ["enumerate", "parking_functions_123", "6"], 0),
    ("enumerate", ["enumerate", "parking_trees", "5"], 0),
    ("enumerate", ["enumerate", "b_perms", "6", "--building-set", "random7.json"], 0),
    ("refusal", ["table", "--building-set", "permutahedron11.json"], 3),
    ("refusal", ["table", "--family", "permutahedron", "--max", "13"], 3),
    ("refusal", ["enumerate", "parking_trees", "8"], 3),
    ("malformed", ["table", "--building-set", "bad-string.json"], 2),
    ("malformed", ["table", "--building-set", "bad-zero.json"], 2),
    ("malformed", ["table", "--building-set", "bad-float.json"], 2),
    ("malformed", ["table", "--building-set", "bad-sets.json"], 2),
    ("malformed", ["table", "--building-set", "bad-bool.json"], 2),
    ("malformed", ["verify", "gamma", "-3"], 2),
)


def _cli(rng: random.Random) -> list[list]:
    ops = [["cli", kind, argv, code] for kind, argv, code in CLI_COMMANDS]
    rng.shuffle(ops)
    return ops


def plan(workload: str, seed: int) -> list[list]:
    """The operations of one round, in the seed's order."""
    rng = rng_for(workload, seed)
    planners = {"closed-form": _closed_form, "nestohedron": _nestohedron,
                "certify": _certify, "cli": _cli}
    return planners[workload](rng)


def inputs(workload: str, seed: int):
    """The generated inputs a round's operations refer to: building sets
    for nestohedron, JSON files for cli, nothing otherwise.  Drawn from a
    stream apart from the one that orders the operations."""
    rng = rng_for(workload + "/inputs", seed)
    if workload == "nestohedron":
        return nestohedron_inputs(rng)
    if workload == "cli":
        return cli_files(rng)
    return None
