"""Run every CLI verification suite at its spec-scale bound and make sure
the reports come back green with the expected structure."""

import itertools
import os
import subprocess
import sys
from collections import Counter

import pytest

from toricg import config, nestohedra, perms, series, suites, verification, words
from toricg.errors import PreconditionError
from toricg.nestohedra import BuildingSet

from helpers import asc_des, has_final_descent, naive_peaks_in_prefix


@pytest.mark.parametrize(
    "suite,n_max",
    [
        ("bijections", 6),
        ("compat", 7),
        ("series", 8),
        ("gamma", 8),
        ("nestohedra", 5),
        ("conjectures", 12),
    ],
)
def test_suites_pass(suite, n_max):
    report = verification.SUITES[suite](n_max)
    assert report["ok"], report
    assert report["suite"] == suite
    assert report["n_max"] == n_max
    for check in report["checks"]:
        assert check["ok"], check
        assert check["bound"] <= max(n_max, 1) or suite == "series"


@pytest.mark.parametrize("suite", sorted(verification.SUITES))
def test_registry_and_runner_report_alike(suite):
    """verification.SUITES runs the same table as suites.run, which the
    verify command calls."""
    assert verification.SUITES[suite](3) == suites.run(suite, 3)


def test_runner_refuses_an_unknown_suite():
    assert suites.NAMES == tuple(sorted(verification.SUITES))
    with pytest.raises(PreconditionError, match="unknown suite 'nosuch'"):
        suites.run("nosuch", 3)


def test_registry_loads_every_suite_and_what_it_checks():
    """A caller that imports verification before its clock (the benchmark
    worker) then times no module compile: the import alone loads all six
    suite modules and every library module they check."""
    src = os.path.join(os.path.dirname(verification.__file__), os.pardir)
    script = (
        "import sys\n"
        "import toricg.verification\n"
        "print(*sorted(m for m in sys.modules if m.startswith('toricg.')))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.path.abspath(src)), check=True)
    library = {"buildingset", "compat", "config", "errors", "ints", "nestohedra", "parking",
               "perms", "polyvec", "series", "transfer", "words"}
    expected = {f"toricg.{m}" for m in library | {"verification", "suites"}}
    expected |= {f"toricg.suites.{name}" for name in suites.NAMES}
    assert set(done.stdout.split()) == expected


@pytest.mark.parametrize("call", [
    lambda: series.verify_series(2.5),
    lambda: verification.suite_gamma(2.5),
    lambda: verification.suite_series(True),
    lambda: verification.eulerian_hvec(2.5),
    lambda: verification.peak_poly_oracles(2.5),
], ids=["verify_series", "suite_gamma", "suite_series-bool", "eulerian_hvec", "peak_poly_oracles"])
def test_suites_and_oracles_need_int_arguments(call):
    """suite_series(True) reported every check ok; the others raised a raw
    TypeError."""
    with pytest.raises(PreconditionError, match="needs int arguments"):
        call()


@pytest.mark.parametrize("name", ["eulerian_hvec", "peak_poly_oracles"])
def test_oracles_refuse_a_negative_size(name):
    """eulerian_hvec(-2) returned ()."""
    with pytest.raises(PreconditionError, match="^n must be >= 0, got -2$"):
        getattr(verification, name)(-2)


def test_caps_are_applied(monkeypatch):
    """Each check runs at min(n_max, cap); the checks are stubbed to record
    their bound, so the suite's real sweeps at the caps do not run."""
    seen = {}

    def recorder(name):
        def check(bound):
            seen[name] = bound
        return check

    table = tuple((name, cap, recorder(name)) for name, cap, _ in verification._BIJECTIONS)
    monkeypatch.setattr(verification, "_BIJECTIONS", table)
    report = verification.SUITES["bijections"](50)
    bounds = {c["name"]: c["bound"] for c in report["checks"]}
    assert bounds["garsia_haiman_roundtrip"] == 6
    assert bounds["krattenthaler_roundtrip"] == 8
    assert bounds == seen == {name: min(50, cap) for name, cap, _ in table}


def test_conjecture_outcomes_reported():
    report = verification.SUITES["conjectures"](12)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["g_contrib_real_rooted"]["detail"]["all_real_rooted"]
    assert by_name["table_vectors_kruskal_katona"]["detail"]["all_pass"]
    assert by_name["toric_g_real_rooted"]["detail"]["all_real_rooted"]


def test_eulerian_by_enumeration_matches_gamma_route():
    # permutahedron h-vector = descent histogram of S_{n+1}, checked by the
    # gamma suite up to n = 8 (it enumerates the 362880 permutations of [9])
    report = verification.suite_gamma(8)
    names = [c["name"] for c in report["checks"]]
    assert "permutahedron_gamma_vs_eulerian" in names
    assert report["ok"]


@pytest.mark.parametrize("n", range(9))
def test_peak_poly_oracles_match_naive_prefix_counts(n):
    oracles = verification.peak_poly_oracles(n)
    assert len(oracles) == 2 * n + 1
    dyck = list(words.enumerate_words(n, "dyck"))
    for m, oracle in enumerate(oracles):
        hist = Counter(naive_peaks_in_prefix(w, m) for w in dyck)
        assert oracle.coeffs == tuple(hist.get(k, 0) for k in range(max(hist) + 1)), m


@pytest.mark.parametrize("m", range(1, 9))
def test_descent_census_matches_asc_des_filter(m):
    """The census of the gamma suite: the walk over the right-adjusted
    B-permutations of the permutahedron on [m], counted by descents."""
    expected: Counter = Counter()
    for p in itertools.permutations(range(1, m + 1)):
        stats = asc_des(p)
        if not stats.double_descents and not has_final_descent(p):
            expected[len(stats.des)] += 1
    everyone = BuildingSet(1, [[1]]) if m == 1 else nestohedra.named_family("permutahedron", m - 1)
    got = Counter(map(perms.des, nestohedra.right_adjusted_b_permutations(everyone, unsafe=True)))
    assert got == expected
    assert all(got.values())


# the library capacity keys each capped row reaches; the row's n is the key's n
_ROW_KEYS = {
    "b_permutation_characterizations": {"b_permutations"},
    "h_gamma_pipeline": {"b_permutations"},
    "gamma_by_tree_forks": {"b_permutations"},
    "direct_route_agreement": {"b_permutations"},
    "dfs_tree_specialization": {"b_permutations"},
    "permutahedron_parking_trees": {"parking_trees"},
    "increasing_012_fork_counts": {"b_permutations"},
}


class _KeyRecorder(dict):
    """CAPS that records every key check_capacity reads."""

    def __init__(self, caps):
        super().__init__(caps)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_row_caps_stay_within_library_caps(monkeypatch):
    """The checks pass unsafe=True to the library, so each row's own cap is
    the gate; it must not exceed the cap of any library call it makes, or a
    safe-mode verify would run past a library bound.  Each capped row runs
    at bound 2 to find the keys it reads."""
    tables = (verification._BIJECTIONS, verification._COMPAT, verification._SERIES,
              verification._GAMMA, verification._NESTOHEDRA, verification._CONJECTURES)
    library = dict(config.CAPS)
    reached = {}
    for table in tables:
        for name, cap, check in table:
            if cap is None:
                continue
            recorder = _KeyRecorder(library)
            monkeypatch.setattr(config, "CAPS", recorder)
            check(2)
            reached[name] = recorder.read
    assert {name: keys for name, keys in reached.items() if keys} == _ROW_KEYS
    caps = {name: cap for table in tables for name, cap, _ in table}
    for name, keys in _ROW_KEYS.items():
        assert all(caps[name] <= library[key] for key in keys), name


def test_unsafe_suites_pass_below_library_caps(monkeypatch):
    """verify --unsafe-max used to stop at the library caps, which the
    checks did not lift: with every library cap at 1, the suites run at 3."""
    monkeypatch.setattr(config, "CAPS", dict.fromkeys(config.CAPS, 1))
    for suite in (verification.suite_nestohedra, verification.suite_gamma):
        report = suite(3, unsafe=True)
        assert report["ok"], report
        assert all(c["bound"] == 3 for c in report["checks"] if c["name"] in _ROW_KEYS)


def _run_optimized(script: str) -> str:
    """Stdout of ``script`` run under python -O, which must have asserts off."""
    src = os.path.join(os.path.dirname(verification.__file__), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, "-O", "-c", "assert False, 'asserts are live'\n" + script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


MUTANTS = {
    # every word reads as compatible with the empty pair alone
    "factor_masks": (
        "from toricg import compat\n"
        "compat.factor_masks = lambda w: (0, 0)\n"
        "report = verification.suite_compat(3)\n",
        ("count_compatible_dyck", "count_compatible_balanced",
         "compress_expand_roundtrip", "g_contrib_vs_compatible"),
    ),
    # one tree dropped at every size
    "parking_walk_drops": (
        "import itertools\n"
        "from toricg import parking\n"
        "right = parking.enumerate_123_parking_trees\n"
        "parking.enumerate_123_parking_trees = lambda n, unsafe=False: "
        "itertools.islice(right(n, unsafe), 1, None)\n"
        "report = verification.suite_nestohedra(3)\n",
        ("permutahedron_parking_trees",),
    ),
    # the first tree yielded twice at every size
    "parking_walk_repeats": (
        "import itertools\n"
        "from toricg import parking\n"
        "right = parking.enumerate_123_parking_trees\n"
        "parking.enumerate_123_parking_trees = lambda n, unsafe=False: itertools.chain("
        "itertools.islice(right(n, unsafe), 1), right(n, unsafe))\n"
        "report = verification.suite_nestohedra(3)\n",
        ("permutahedron_parking_trees",),
    ),
    # one function missing from the table of 123-avoiding functions by
    # fiber sizes, which the tree walk and the direct route both read
    "function_table_drops": (
        "from toricg import parking\n"
        "right = parking.avoiding_functions_by_fibers\n"
        "def dropped(n):\n"
        "    table = right(n)\n"
        "    max(table.values(), key=len).pop()\n"
        "    return table\n"
        "parking.avoiding_functions_by_fibers = dropped\n"
        "report = verification.suite_nestohedra(3)\n",
        ("dfs_tree_specialization", "direct_route_agreement", "permutahedron_parking_trees"),
    ),
    # every fork tag one too high
    "fork_tags": (
        "from toricg import perms\n"
        "right = perms.enumerate_increasing_012\n"
        "perms.enumerate_increasing_012 = lambda m: ((t, f + 1) for t, f in right(m))\n"
        "report = verification.suite_gamma(3)\n",
        ("increasing_012_fork_counts",),
    ),
    # the descent census, read off the right-adjusted walk, one permutation
    # too many at every size
    "descent_census": (
        "from toricg import nestohedra\n"
        "right = nestohedra.right_adjusted_b_permutations\n"
        "nestohedra.right_adjusted_b_permutations = lambda bs, unsafe=False: "
        "right(bs, unsafe) + right(bs, unsafe)[:1]\n"
        "report = verification.suite_gamma(3)\n",
        ("increasing_012_fork_counts",),
    ),
    # the direct route counts every right-adjusted B-permutation even when
    # asked for the DFS-labelled trees alone
    "dfs_only ignored": (
        "from toricg import nestohedra\n"
        "right = nestohedra.toric_g_direct\n"
        "nestohedra.toric_g_direct = lambda bs, dfs_only=False, unsafe=False: "
        "right(bs, unsafe=unsafe)\n"
        "report = verification.suite_nestohedra(3)\n",
        ("dfs_tree_specialization",),
    ),
    # the transfer one too high at n = 3, against each enumerated direct row
    "transfer_nestohedra": (
        "from toricg import transfer\n"
        "right = transfer.family_row\n"
        "transfer.family_row = lambda family, n: right(family, n) + (1 if n == 3 else 0)\n"
        "report = verification.suite_nestohedra(3)\n",
        ("associahedron_parking_functions", "cyclohedron_functions",
         "permutahedron_parking_trees"),
    ),
    "transfer_cube": (
        "from toricg import transfer\n"
        "right = transfer.family_row\n"
        "transfer.family_row = lambda family, n: right(family, n) + (1 if n == 3 else 0)\n"
        "report = verification.suite_compat(3)\n",
        ("cube_statistics",),
    ),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_wrong_fast_paths_fail_under_optimized_mode(mutant):
    """A stubbed factor_masks fails the compat suite, a wrong descent census
    or fork tag the gamma suite, and a parking-tree walk that drops or
    repeats a tree, a function table that drops a function or a direct
    route that ignores dfs_only the nestohedra suite, and a transfer wrong at
    one size the rows of both suites that compare it, also under python -O."""
    body, failing = MUTANTS[mutant]
    script = (
        "from toricg import verification\n" + body
        + "print(report['ok'], sorted(c['name'] for c in report['checks'] if not c['ok']))\n"
    )
    assert _run_optimized(script) == f"False {sorted(failing)}\n"


def test_checks_survive_optimized_mode():
    """The suites' checks are not bare asserts: under python -O a wrong
    direct route still fails the nestohedra suite."""
    script = (
        "from toricg import nestohedra, verification\n"
        "from toricg.polyvec import IntPoly\n"
        "nestohedra.toric_g_direct = lambda bs, dfs_only=False, unsafe=False: IntPoly((1, 99))\n"
        "report = verification.suite_nestohedra(3)\n"
        "ok = {c['name']: c['ok'] for c in report['checks']}\n"
        "print(report['ok'], ok['direct_route_agreement'], ok['dfs_tree_specialization'])\n"
    )
    assert _run_optimized(script) == "False False False\n"
