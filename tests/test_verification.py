"""Run every CLI verification suite at its spec-scale bound and make sure
the reports come back green with the expected structure."""

import itertools
import os
import subprocess
import sys
from collections import Counter

import pytest

from toricg import perms, verification, words

from helpers import naive_peaks_in_prefix


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
    expected: Counter = Counter()
    for p in itertools.permutations(range(1, m + 1)):
        stats = perms.asc_des(p)
        if not stats.double_descents and not perms.has_final_descent(p):
            expected[len(stats.des)] += 1
    got = verification.descent_census(m)
    assert got == expected
    assert all(got.values())


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
        "parking.enumerate_123_parking_trees = lambda n: itertools.islice(right(n), 1, None)\n"
        "report = verification.suite_nestohedra(3)\n",
        ("permutahedron_parking_trees",),
    ),
    # the first tree yielded twice at every size
    "parking_walk_repeats": (
        "import itertools\n"
        "from toricg import parking\n"
        "right = parking.enumerate_123_parking_trees\n"
        "parking.enumerate_123_parking_trees = lambda n: itertools.chain("
        "itertools.islice(right(n), 1), right(n))\n"
        "report = verification.suite_nestohedra(3)\n",
        ("permutahedron_parking_trees",),
    ),
    # every fork tag one too high
    "fork_tags": (
        "from toricg import perms\n"
        "right = perms.enumerate_increasing_012\n"
        "perms.enumerate_increasing_012 = lambda m: ((t, f + 1) for t, f in right(m))\n"
        "report = verification.suite_gamma(3)\n",
        ("increasing_012_fork_counts",),
    ),
    # one permutation too many at every size
    "descent_census": (
        "from collections import Counter\n"
        "right = verification.descent_census\n"
        "verification.descent_census = lambda m: right(m) + Counter({0: 1})\n"
        "report = verification.suite_gamma(3)\n",
        ("increasing_012_fork_counts",),
    ),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_wrong_fast_paths_fail_under_optimized_mode(mutant):
    """A stubbed factor_masks fails the compat suite, a wrong descent census
    or fork tag the gamma suite and a parking-tree walk that drops or
    repeats a tree the nestohedra suite, also under python -O."""
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
