import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from toricg import cli, nestohedra, parking, perms, polyvec, transfer, verification, words
from toricg.errors import PreconditionError
from toricg.polyvec import IntPoly

TABLE_1 = """\
n,g0,g1,g2,g3,g4
1,1,,,,
2,1,2,,,
3,1,10,,,
4,1,37,10,,
5,1,126,105,,
6,1,422,714,70,
7,1,1422,4032,1176,
8,1,4853,20628,11928,588
"""

TABLE_CUBE_3 = "n,g0,g1\n1,1,\n2,1,1\n3,1,4\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_csv(capsys):
    code, out, err = run(capsys, "table", "--family", "associahedron", "--max", "8")
    assert code == 0 and err == ""
    assert out == TABLE_1


def test_table_determinism(capsys):
    first = run(capsys, "table", "--family", "permutahedron", "--max", "6")
    second = run(capsys, "table", "--family", "permutahedron", "--max", "6")
    assert first == second


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--family", "cyclohedron", "--max", "4",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "toricg/1"
    assert payload["rows"][-1] == {"n": 4, "g": [1, 65, 20]}


def test_table_route_all(capsys):
    code, out, _ = run(capsys, "table", "--family", "associahedron", "--max", "5",
                       "--route", "all")
    assert code == 0
    baseline = run(capsys, "table", "--family", "associahedron", "--max", "5")[1]
    assert out == baseline


_FAMILIES = ("associahedron", "cyclohedron", "permutahedron", "cube")


@pytest.mark.parametrize("family", _FAMILIES)
def test_direct_answers_row_7(family, capsys):
    """The direct route, the transfer walk over word pairs, prints the
    gamma route's rows."""
    code, out, _ = run(capsys, "table", "--family", family, "--max", "7", "--route", "direct")
    assert code == 0
    assert out == run(capsys, "table", "--family", family, "--max", "7", "--route", "gamma")[1]


def _no_enumerator(monkeypatch):
    """Make every listing a direct row could run (the function, permutation
    and B-permutation sweeps) fail if it is called."""
    def listed(*args, **kwargs):
        raise AssertionError("an enumerator ran")

    for module, name in [(perms, "enumerate_123_avoiding"),
                         (parking, "avoiding_functions_by_fibers"),
                         (nestohedra, "right_adjusted_b_permutations"),
                         (nestohedra, "toric_g_direct")]:
        monkeypatch.setattr(module, name, listed)


@pytest.mark.parametrize("family", _FAMILIES)
def test_direct_answers_rows_8_to_12(family, capsys, monkeypatch):
    """The direct route counts every row the table key allows, listing no
    object, and --max 13 is refused by that key before any row."""
    _no_enumerator(monkeypatch)
    code, out, err = run(capsys, "table", "--family", family, "--max", "12", "--route", "direct")
    assert (code, err) == (0, "")
    assert out == run(capsys, "table", "--family", family, "--max", "12")[1]

    def no_row(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(transfer, "family_row", no_row)
    code, out, err = run(capsys, "table", "--family", family, "--max", "13", "--route", "direct")
    assert code == 3 and out == ""
    assert "table is bounded at n <= 12 (requested n = 13)" in err


@pytest.mark.parametrize("family", _FAMILIES)
def test_route_all_checks_row_12_directly(family, capsys, monkeypatch):
    """--route all runs the direct route on every row: a transfer that is
    wrong at n = 12 alone fails it, and the right one passes it with the
    gamma route's output."""
    _no_enumerator(monkeypatch)
    code, out, _ = run(capsys, "table", "--family", family, "--max", "12", "--route", "all")
    assert code == 0
    assert out == run(capsys, "table", "--family", family, "--max", "12")[1]
    real = transfer.family_row
    monkeypatch.setattr(transfer, "family_row",
                        lambda kind, n: real(kind, n) + (1 if n == 12 else 0))
    code, _, err = run(capsys, "table", "--family", family, "--max", "12", "--route", "all")
    assert code == 1 and "routes gamma and direct disagree at n=12" in err


def test_route_all_checks_row_7_directly(capsys, monkeypatch):
    """A direct route that is wrong at n = 7 alone fails --route all."""
    real = transfer.family_row

    def wrong_at_7(family, n):
        poly = real(family, n)
        return poly + IntPoly([1]) if n == 7 else poly

    monkeypatch.setattr(transfer, "family_row", wrong_at_7)
    code, _, err = run(capsys, "table", "--family", "permutahedron", "--max", "7",
                       "--route", "all")
    assert code == 1 and "disagree at n=7" in err


def test_route_all_keeps_the_other_refusals(tmp_path, capsys):
    """--route all drops no route: the gamma route's refusal of a ground-9
    building set exits 3."""
    path = tmp_path / "bs.json"
    path.write_text(json.dumps(nestohedra.named_family("permutahedron", 8).to_json()))
    code, out, err = run(capsys, "table", "--building-set", str(path), "--route", "all")
    assert code == 3 and out == "" and "b_permutations" in err


@pytest.mark.parametrize("argv,code", [
    (("table", "--family", "permutahedron", "--max", "12", "--route", "all"), 0),
    (("enumerate", "b_perms", "15", "--bs-family", "permutahedron"), 3),
], ids=["table", "enumerate"])
def test_named_family_is_not_built_past_the_cap(argv, code, capsys, monkeypatch):
    """The b_permutations key refuses a row before its 2^(n+1) - 1 members
    are built."""
    real = nestohedra.named_family

    def only_to_7(kind, n, r=None):
        assert n <= 7, f"named_family built at n = {n}"
        return real(kind, n, r)

    monkeypatch.setattr(nestohedra, "named_family", only_to_7)
    assert run(capsys, *argv)[0] == code


@pytest.mark.parametrize("argv", [
    ("b_perms", "8", "--bs-family", "interpolation"),  # no --r
    ("b_perms", "8", "--bs-family", "interpolation", "--r", "9"),
    ("b_perms", "16", "--bs-family", "permutahedron"),  # ground set past 16
])
def test_family_usage_errors_come_before_the_cap(argv, capsys):
    code, out, err = run(capsys, "enumerate", *argv)
    assert (code, out) == (2, "") and "capacity" not in err


@pytest.mark.parametrize("argv", [
    ("b_perms", "2", "--bs-family", "permutahedron", "--r", "5"),
    ("b_perms", "2", "--building-set", "bs.json", "--r", "1"),
    ("dyck", "3", "--r", "1"),
])
def test_enumerate_refuses_r_without_interpolation(argv, capsys):
    code, out, err = run(capsys, "enumerate", *argv)
    assert (code, out) == (2, "") and "--r needs --bs-family interpolation" in err


@pytest.mark.parametrize("argv", [
    ("dyck", "3", "--bs-family", "interpolation", "--r", "2"),
    ("parking_trees", "2", "--building-set", "/nonexistent.json"),
    ("parking_functions_123", "3", "--bs-family", "stanley_pitman"),
], ids=["dyck", "parking_trees", "parking_functions_123"])
def test_enumerate_refuses_a_building_set_outside_b_perms(argv, capsys):
    """Each of these exited 0 and listed the objects without the flag."""
    code, out, err = run(capsys, "enumerate", *argv)
    assert (code, out) == (2, "") and "for b_perms only" in err


def test_table_refuses_max_with_a_building_set(tmp_path, capsys):
    """--max was read only for --family and ignored with a file, so --max 0
    printed the file's row and exited 0."""
    path = tmp_path / "bs.json"
    path.write_text(json.dumps(nestohedra.named_family("stanley_pitman", 3).to_json()))
    for bound in ("0", "8"):
        code, out, err = run(capsys, "table", "--building-set", str(path), "--max", bound)
        assert (code, out) == (2, "") and "--max needs --family" in err
    assert run(capsys, "table", "--family", "cube", "--max", "0")[0] == 2
    assert run(capsys, "table", "--family", "associahedron")[1] == TABLE_1


def test_table_routes_agree(capsys):
    for route in ("gamma", "hetyei", "direct"):
        code, out, _ = run(capsys, "table", "--family", "cube", "--max", "4",
                           "--route", route)
        assert code == 0
        assert out.splitlines()[4] == "4,1,11,2"


def test_exit_codes(capsys):
    code, _, err = run(capsys, "table", "--family", "permutahedron", "--max", "15")
    assert code == 3 and "capacity" in err
    code, _, err = run(capsys, "table")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        run(capsys, "table", "--family", "megahedron")
    assert exc.value.code == 2
    code, _, err = run(capsys, "enumerate", "parking_trees", "9")
    assert code == 3


@pytest.mark.parametrize("value", ["٣", "３", "1_0", " 3", "+3", ""])
@pytest.mark.parametrize("argv", [
    ("table", "--family", "cube", "--max", "@"),
    ("verify", "gamma", "@"),
    ("enumerate", "dyck", "@"),
    ("enumerate", "b_perms", "3", "--bs-family", "interpolation", "--r", "@"),
], ids=["max", "verify", "enumerate", "r"])
def test_integer_arguments_take_ascii_digits_only(argv, value, capsys):
    """argparse's int took all of these but the empty text, so that
    ``table --family cube --max ٣`` printed four rows with exit 0; each is
    now a usage error, as in every text reader of the library."""
    with pytest.raises(SystemExit) as exc:
        run(capsys, *[value if arg == "@" else arg for arg in argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"invalid int value: {value!r}" in err


def test_integer_arguments_keep_their_own_range_checks(capsys):
    assert run(capsys, "table", "--family", "cube", "--max", "3")[:2] == (0, TABLE_CUBE_3)
    code, out, err = run(capsys, "verify", "gamma", "-3")
    assert (code, out) == (2, "") and "n_max must be >= 0, got -3" in err
    code, out, err = run(capsys, "table", "--family", "cube", "--max", "-1")
    assert (code, out) == (2, "") and "--max must be >= 1" in err


def test_table_family_and_building_set_exclude_each_other(tmp_path, capsys):
    """Given both, table used to print the building-set row under a JSON
    "family" it never computed; now argparse refuses the pair."""
    path = tmp_path / "bs.json"
    path.write_text(json.dumps({"ground_size": 2, "sets": [[1], [2], [1, 2]]}))
    with pytest.raises(SystemExit) as exc:
        run(capsys, "table", "--family", "cube", "--building-set", str(path),
            "--format", "json")
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "not allowed with argument" in err


def test_unsafe_max_override(capsys):
    code, out, _ = run(capsys, "table", "--family", "associahedron", "--max", "13",
                       "--unsafe-max")
    assert code == 0
    assert out.splitlines()[13].startswith("13,1,")


def test_enumerate_counts(capsys):
    assert run(capsys, "enumerate", "dyck", "3", "--count-only")[1] == "5\n"
    assert run(capsys, "enumerate", "parking_functions_123", "3", "--count-only")[1] == "11\n"
    assert run(capsys, "enumerate", "parking_trees", "3", "--count-only")[1] == "36\n"


@pytest.mark.parametrize("kind,top", [("dyck", 10), ("parking_trees", 5),
                                      ("parking_functions_123", 7)])
def test_count_only_closed_forms_match_the_streams(kind, top, capsys):
    for n in range(top + 1):
        code, count, _ = run(capsys, "enumerate", kind, str(n), "--count-only")
        assert code == 0
        assert int(count) == run(capsys, "enumerate", kind, str(n))[1].count("\n")


def test_count_only_closed_forms_skip_the_stream_but_not_the_cap(capsys, monkeypatch):
    def no_stream(*args, **kwargs):
        raise AssertionError("streamed")
        yield

    monkeypatch.setattr(words, "enumerate_words", no_stream)
    monkeypatch.setattr(parking, "parking_tree_texts", no_stream)
    monkeypatch.setattr(parking, "iter_123_avoiding_functions", no_stream)
    assert run(capsys, "enumerate", "dyck", "12", "--count-only")[:2] == (0, "208012\n")
    assert run(capsys, "enumerate", "parking_trees", "7", "--count-only")[:2] == (0, "25401600\n")
    assert run(capsys, "enumerate", "dyck", "13", "--count-only")[0] == 3
    assert run(capsys, "enumerate", "parking_trees", "8", "--count-only")[0] == 3
    code, out, _ = run(capsys, "enumerate", "parking_trees", "8", "--count-only", "--unsafe-max")
    assert (code, out) == (0, f"{40320 ** 2}\n")
    assert run(capsys, "enumerate", "parking_functions_123", "7", "--count-only")[:2] == (0, "6631\n")
    assert run(capsys, "enumerate", "parking_functions_123", "8", "--count-only")[0] == 3
    code, out, _ = run(capsys, "enumerate", "parking_functions_123", "8", "--count-only",
                       "--unsafe-max")
    assert (code, out) == (0, "37998\n")


@pytest.mark.parametrize("argv", [["dyck", "11"], ["parking_trees", "5"]])
def test_enumerate_exits_0_when_the_reader_leaves(argv):
    """Closing the reader's end after the first line ends the chunked
    stream quietly, with exit code 0 and nothing on stderr."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from toricg.cli import main; sys.exit(main())",
         "enumerate", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (0, b"")


def test_enumerate_streams(capsys):
    code, out, _ = run(capsys, "enumerate", "dyck", "2")
    assert out == "UUDD\nUDUD\n"
    code, out, _ = run(capsys, "enumerate", "b_perms", "2", "--bs-family", "stanley_pitman")
    assert out == "1 2 3\n1 3 2\n2 3 1\n3 2 1\n"
    code, _, err = run(capsys, "enumerate", "b_perms", "2")
    assert code == 2 and "bs-family" in err


def test_building_set_file(tmp_path, capsys):
    path = tmp_path / "bs.json"
    path.write_text(json.dumps({"ground_size": 4, "sets": [
        [1], [2], [3], [4],
        [1, 2], [2, 3], [3, 4], [1, 2, 3], [2, 3, 4], [1, 2, 3, 4],
    ]}))
    code, out, _ = run(capsys, "table", "--building-set", str(path), "--route", "all")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,g0,g1"
    assert lines[1].startswith("3,")

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "table", "--building-set", str(bad))
    assert code == 2 and "line 1" in err

    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({"ground_size": 2, "sets": [[1]]}))
    code, _, err = run(capsys, "table", "--building-set", str(broken))
    assert code == 2


def test_enumerate_b_perms_validates_the_file(tmp_path, capsys):
    """A family missing the union of two intersecting members is not a
    building set: b_perms refuses it instead of listing permutations."""
    path = tmp_path / "open.json"
    path.write_text(json.dumps({"ground_size": 3, "sets": [[1], [2], [3], [1, 2], [2, 3]]}))
    code, out, err = run(capsys, "enumerate", "b_perms", "2", "--building-set", str(path))
    assert code == 2 and out == "" and "union" in err
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"ground_size": 12, "sets": [[i] for i in range(1, 13)]}))
    code, out, err = run(capsys, "enumerate", "b_perms", "11", "--building-set", str(big))
    assert code == 3 and out == ""


def test_enumerate_b_perms_sources_exclude_each_other(tmp_path, capsys):
    """Given both, b_perms used to drop --bs-family silently and list the
    file's permutations; now argparse refuses the pair."""
    path = tmp_path / "bs.json"
    path.write_text(json.dumps({"ground_size": 3, "sets": [[1], [2], [3], [1, 2, 3]]}))
    with pytest.raises(SystemExit) as exc:
        run(capsys, "enumerate", "b_perms", "2", "--bs-family", "stanley_pitman",
            "--building-set", str(path))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "not allowed with argument" in err


def test_enumerate_b_perms_n_must_match_the_file(tmp_path, capsys):
    """n used to be ignored with --building-set: b_perms 5 on a ground-3
    file listed that file's permutations and exited 0."""
    path = tmp_path / "bs.json"
    path.write_text(json.dumps({"ground_size": 3, "sets": [[1], [2], [3], [1, 2, 3]]}))
    for n in ("5", "0", "3"):
        code, out, err = run(capsys, "enumerate", "b_perms", n, "--building-set", str(path),
                             "--count-only")
        assert code == 2 and out == "" and "building set on" in err, n
    code, out, _ = run(capsys, "enumerate", "b_perms", "2", "--building-set", str(path),
                       "--count-only")
    assert (code, out) == (0, "3\n")


def _count_only_matches_the_stream(capsys, *argv):
    code, out, _ = run(capsys, "enumerate", "b_perms", *argv)
    assert code == 0, argv
    code, count, _ = run(capsys, "enumerate", "b_perms", *argv, "--count-only")
    assert (code, count) == (0, f"{len(out.splitlines())}\n"), argv


@pytest.mark.parametrize("n", range(1, 7))
def test_b_perms_count_only_matches_the_stream_on_named_families(n, capsys):
    for family in ("permutahedron", "stanley_pitman", "associahedron_intervals"):
        _count_only_matches_the_stream(capsys, str(n), "--bs-family", family)
    for r in range(1, n + 1):
        _count_only_matches_the_stream(capsys, str(n), "--bs-family", "interpolation",
                                       "--r", str(r))


def test_b_perms_count_only_matches_the_stream_on_random_graphicals(tmp_path, capsys):
    """Random graphs, disconnected and non-chordal ones included."""
    rng = random.Random(16)
    path = tmp_path / "bs.json"
    kinds = set()
    for _ in range(40):
        m = rng.randint(1, 6)
        pairs = list(itertools.combinations(range(1, m + 1), 2))
        edges = [e for e in pairs if rng.random() < 0.45]
        bs = nestohedra.graphical(m, edges)
        kinds.add(nestohedra.validate(bs))
        path.write_text(json.dumps(bs.to_json()))
        _count_only_matches_the_stream(capsys, str(m - 1), "--building-set", str(path))
    assert len(kinds) == 4  # (connected, chordal) took every value


def test_b_perms_count_only_skips_the_stream_but_not_the_checks(tmp_path, capsys, monkeypatch):
    def no_stream(*args, **kwargs):
        raise AssertionError("the B-permutations were listed")

    monkeypatch.setattr(nestohedra, "b_permutations", no_stream)
    code, out, _ = run(capsys, "enumerate", "b_perms", "6", "--bs-family", "permutahedron",
                       "--count-only")
    assert (code, out) == (0, "5040\n")
    code, out, err = run(capsys, "enumerate", "b_perms", "8", "--bs-family", "permutahedron",
                         "--count-only")
    assert (code, out) == (3, "") and "b_permutations" in err
    path = tmp_path / "bs.json"
    path.write_text(json.dumps({"ground_size": 9, "sets": [[i] for i in range(1, 10)]}))
    code, out, err = run(capsys, "enumerate", "b_perms", "8", "--building-set", str(path),
                         "--count-only")
    assert (code, out) == (3, "") and "b_permutations" in err
    path.write_text(json.dumps({"ground_size": 3, "sets": [[1], [2], [3], [1, 2], [2, 3]]}))
    code, out, err = run(capsys, "enumerate", "b_perms", "2", "--building-set", str(path),
                         "--count-only")
    assert (code, out) == (2, "") and "union" in err


def test_enumerate_b_perms_refuses_a_large_family_before_building_it(capsys):
    code, _, err = run(capsys, "enumerate", "b_perms", "30", "--bs-family", "permutahedron")
    assert code == 2 and "ground size" in err


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "series", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "toricg/1"
    assert payload["suite"] == "series"
    assert payload["ok"] is True


def test_verify_bijections(capsys):
    code, out, _ = run(capsys, "verify", "bijections", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert {c["name"] for c in payload["checks"]} >= {
        "krattenthaler_roundtrip",
        "garsia_haiman_roundtrip",
        "lukasiewicz_roundtrip",
    }


def test_verify_conjectures_never_fail(capsys):
    code, out, _ = run(capsys, "verify", "conjectures", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    names = {c["name"] for c in payload["checks"]}
    assert "g_contrib_real_rooted" in names


MALFORMED = {
    "ground-bool": {"ground_size": True, "sets": [[1]]},
    "ground-string": {"ground_size": "2", "sets": [[1], [2], [1, 2]]},
    "sets-int": {"ground_size": 2, "sets": 5},
    "member-int": {"ground_size": 2, "sets": [1, 2]},
    "member-string": {"ground_size": 2, "sets": [["a"]]},
    "member-float": {"ground_size": 2, "sets": [[1.5]]},
    "member-zero": {"ground_size": 2, "sets": [[0]]},
    "member-huge": {"ground_size": 2, "sets": [[1], [2**70]]},
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_building_set_exits_2(name, tmp_path, capsys):
    """Each document is refused with exit 2 and a message; an exception
    escaping main would fail the test instead."""
    path = tmp_path / "bs.json"
    path.write_text(json.dumps(MALFORMED[name]))
    code, out, err = run(capsys, "table", "--building-set", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("toricg: error: malformed building-set JSON")


UNREADABLE = {
    "utf16-mark": (b"\xff\xfe" + json.dumps({"ground_size": 1, "sets": [[1]]}).encode(),
                   "not UTF-8 text"),
    "nested-2000-deep": (b"[" * 2000 + b"]" * 2000, "nests too deeply"),
    "5000-digit-int": (b'{"ground_size": ' + b"9" * 5000 + b', "sets": [[1]]}', "too long"),
}


@pytest.mark.parametrize("command", [["table"], ["enumerate", "b_perms", "1"]],
                         ids=["table", "enumerate"])
@pytest.mark.parametrize("name", sorted(UNREADABLE))
def test_unreadable_building_set_file_exits_2(name, command, tmp_path, capsys):
    """json.load raised UnicodeDecodeError, RecursionError and the
    int-digit limit's ValueError past the handler, which caught only
    OSError and JSONDecodeError, and the command printed a traceback."""
    data, message = UNREADABLE[name]
    path = tmp_path / "bs.json"
    path.write_bytes(data)
    code, out, err = run(capsys, *command, "--building-set", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"toricg: error: {path}: ") and message in err


@pytest.mark.parametrize("suite", sorted(verification.SUITES))
def test_verify_negative_n_exits_2(suite, capsys):
    """The command refuses a negative bound itself, with the message the
    suites give library callers, who still get it."""
    code, out, err = run(capsys, "verify", suite, "-3")
    assert (code, out) == (2, "")
    assert err == "toricg: error: n_max must be >= 0, got -3\n"
    with pytest.raises(PreconditionError, match=r"^n_max must be >= 0, got -3$"):
        verification.SUITES[suite](-3)


# Building-set documents: mostly the right shape with wrong or right
# values, sometimes any JSON value at all.  Ground sizes stay small so a
# valid document is cheap even under --unsafe-max.
_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-3, 9)
                 | st.just(2**70) | st.floats(allow_nan=False) | st.text(max_size=3))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=12,
)
_MEMBER_VALUES = st.integers(1, 6) | st.integers(-1, 8) | st.just(2**70) | _JSON_SCALARS
_DOCUMENTS = st.one_of(
    st.fixed_dictionaries({
        "ground_size": st.integers(1, 6) | _JSON_SCALARS,
        "sets": st.lists(st.lists(_MEMBER_VALUES, max_size=3), max_size=6) | _JSON_VALUES,
    }),
    _JSON_VALUES,
)
# Files json.load cannot read: any bytes, a UTF-16 mark, nesting past the
# recursion limit and an integer past the digit limit.
_RAW_FILES = (st.binary(max_size=12)
              | _DOCUMENTS.map(lambda d: b"\xff\xfe" + json.dumps(d).encode())
              | st.integers(1000, 3000).map(lambda k: b"[" * k + b"]" * k)
              | st.integers(4300, 6000).map(lambda k: b'{"ground_size": ' + b"7" * k + b"}"))
_SMALL_N = st.integers(-3, 4).map(str) | st.sampled_from(["x", "1.5"])


def _option(flag, values):
    """[] or [flag, value]; the value is sometimes missing or a stray word."""
    return st.just([]) | st.tuples(st.just(flag), values | st.just("--bogus")).map(list)


def _flag(flag):
    return st.sampled_from([[], [flag]])


def _command(*parts):
    return st.tuples(*parts).map(lambda ps: [arg for part in ps for arg in part])


_ARGV = st.one_of(
    _command(
        st.just(["table"]),
        st.sampled_from([["--building-set", "@bs"], ["--family", "cube"],
                         ["--family", "megahedron"],
                         ["--family", "associahedron", "--building-set", "@bs"], []]),
        _option("--max", _SMALL_N),
        _option("--route", st.sampled_from(["gamma", "hetyei", "direct", "all"])),
        _option("--format", st.sampled_from(["csv", "json", "xml"])), _flag("--unsafe-max"),
    ),
    _command(
        st.just(["verify"]),
        st.lists(st.sampled_from(sorted(verification.SUITES) + ["nosuch"]), max_size=1),
        st.lists(_SMALL_N, max_size=2), _flag("--unsafe-max"),
    ),
    _command(
        st.just(["enumerate"]),
        st.lists(st.sampled_from(["dyck", "parking_functions_123", "parking_trees", "b_perms",
                                  "nosuch"]), max_size=1),
        st.lists(_SMALL_N, max_size=1), st.sampled_from([["--building-set", "@bs"], []]),
        _option("--bs-family", st.sampled_from(["interpolation", "stanley_pitman", "cube"])),
        _option("--r", _SMALL_N), _flag("--count-only"), _flag("--unsafe-max"),
    ),
    _command(st.lists(st.sampled_from(["nosuch", "--help"]), max_size=1),
             st.lists(_SMALL_N, max_size=2)),
)


@settings(max_examples=150, deadline=None)
@given(document=_DOCUMENTS | _RAW_FILES, truncated=st.booleans(), argv=_ARGV)
def test_exit_code_property(document, truncated, argv):
    """Whatever the building-set file and the arguments, the exit code is
    one of 0-3 and no exception escapes (a command-line run would print a
    traceback); "@bs" stands for the file's path, a document is written as
    JSON and raw bytes as they are, and a file cut short by one byte is
    mostly not JSON at all."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bs.json")
        with open(path, "wb") as handle:
            data = document if isinstance(document, bytes) else json.dumps(document).encode()
            handle.write(data[:-1] if truncated else data)
        argv = [path if arg == "@bs" else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse: usage errors and --help
                code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


def _loaded_modules(*argv):
    """Exit code of one command in a fresh interpreter, and the toricg
    modules it left loaded, by their dotted names below ``toricg`` (so
    ``suites.compat`` is not ``compat``), with ``toricg`` itself and
    ``json`` among them when the command loaded it."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import contextlib, io, sys\n"
        "from toricg.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code, *sorted(m for m in sys.modules if m.split('.')[0] == 'toricg' or m == 'json'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
    code, *names = proc.stdout.split()
    return int(code), {name.partition(".")[2] or name for name in names}


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    base = {"toricg", "cli", "config", "errors"}
    # verify S loads the runner, suite S and the library modules S checks
    verify = {
        "bijections": {"compat", "ints", "parking", "perms", "words"},
        "compat": {"compat", "ints", "parking", "perms", "polyvec", "transfer", "words"},
        "conjectures": {"ints", "polyvec"},
        "gamma": {"buildingset", "ints", "nestohedra", "perms", "polyvec", "words"},
        "nestohedra": {"buildingset", "ints", "nestohedra", "parking", "perms", "polyvec",
                       "transfer", "words"},
        "series": {"ints", "polyvec", "series", "words"},
    }
    good, bad, big = tmp_path / "good.json", tmp_path / "bad.json", tmp_path / "big.json"
    good.write_text(json.dumps(nestohedra.named_family("stanley_pitman", 2).to_json()))
    bad.write_text(json.dumps(MALFORMED["member-float"]))
    big.write_text(json.dumps(nestohedra.named_family("permutahedron", 10).to_json()))
    expected = [
        # closed forms need polyvec and the integer helpers, a Dyck stream words
        (["table", "--family", "cube", "--max", "3"], 0, base | {"ints", "polyvec"}),
        (["enumerate", "dyck", "3"], 0, base | {"ints", "words"}),
        # a family's direct row is counted by the transfer, with no enumerator
        (["table", "--family", "cyclohedron", "--max", "3", "--route", "direct"], 0,
         base | {"ints", "polyvec", "transfer"}),
        (["table", "--family", "permutahedron", "--max", "5", "--route", "all"], 0,
         base | {"ints", "polyvec", "transfer"}),
        (["enumerate", "parking_functions_123", "3", "--count-only"], 0,
         base | {"ints", "polyvec", "transfer"}),
        (["enumerate", "parking_functions_123", "3"], 0,
         base | {"ints", "parking", "perms", "words"}),
        (["enumerate", "parking_trees", "3"], 0, base | {"ints", "parking", "perms", "words"}),
        # a refusal of --max or n comes before any of the library
        (["table", "--family", "permutahedron", "--max", "13"], 3, base),
        (["verify", "gamma", "-3"], 2, base),
        # a file loads json and buildingset, a set that passes its reader
        # nestohedra, and a row polyvec
        (["table", "--building-set", str(good)], 0,
         base | {"json", "buildingset", "ints", "nestohedra", "polyvec"}),
        (["table", "--building-set", str(bad)], 2, base | {"json", "buildingset", "ints"}),
        (["table", "--building-set", str(big)], 3,
         base | {"json", "buildingset", "ints", "nestohedra"}),
        (["enumerate", "b_perms", "2", "--building-set", str(good)], 0,
         base | {"json", "buildingset", "ints", "nestohedra"}),
    ]
    expected += [(["verify", suite, "1"], 0,
                  base | {"json", "suites", f"suites.{suite}"} | verify[suite])
                 for suite in cli._SUITES]
    for argv, code, footprint in expected:
        assert _loaded_modules(*argv) == (code, footprint), argv


def test_verify_parser_lists_every_suite_in_sorted_order():
    assert cli._SUITES == tuple(sorted(verification.SUITES))


def test_parser_family_choices_are_the_library_lists():
    """The parser spells its family choices out so that parsing loads no
    library module; a family added to the library must reach them too."""
    assert cli._BS_FAMILIES == nestohedra._NAMED_KINDS
    assert sorted(cli._TABLE_FAMILIES) == sorted(polyvec._FAMILIES)
