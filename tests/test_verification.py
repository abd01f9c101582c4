"""Run every CLI verification suite at its spec-scale bound and make sure
the reports come back green with the expected structure."""

import os
import subprocess
import sys

import pytest

from toricg import verification


@pytest.mark.parametrize(
    "suite,n_max",
    [
        ("bijections", 6),
        ("compat", 6),
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


def test_caps_are_applied():
    report = verification.SUITES["bijections"](50)
    bounds = {c["name"]: c["bound"] for c in report["checks"]}
    assert bounds["garsia_haiman_roundtrip"] == 6
    assert bounds["krattenthaler_roundtrip"] == 8


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


def test_checks_survive_optimized_mode():
    """The suites' checks are not bare asserts: under python -O a wrong
    direct route still fails the nestohedra suite."""
    script = (
        "from toricg import nestohedra, verification\n"
        "from toricg.polyvec import IntPoly\n"
        "assert False, 'asserts are live'\n"
        "nestohedra.toric_g_direct = lambda bs, dfs_only=False, unsafe=False: IntPoly((1, 99))\n"
        "report = verification.suite_nestohedra(3)\n"
        "ok = {c['name']: c['ok'] for c in report['checks']}\n"
        "print(report['ok'], ok['direct_route_agreement'], ok['dfs_tree_specialization'])\n"
    )
    src = os.path.join(os.path.dirname(verification.__file__), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False False False\n"
