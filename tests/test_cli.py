import json

import pytest

from toricg import cli, verification

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


def test_unsafe_max_override(capsys):
    code, out, _ = run(capsys, "table", "--family", "associahedron", "--max", "13",
                       "--unsafe-max")
    assert code == 0
    assert out.splitlines()[13].startswith("13,1,")


def test_enumerate_counts(capsys):
    assert run(capsys, "enumerate", "dyck", "3", "--count-only")[1] == "5\n"
    assert run(capsys, "enumerate", "parking_functions_123", "3", "--count-only")[1] == "11\n"
    assert run(capsys, "enumerate", "parking_trees", "3", "--count-only")[1] == "36\n"


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


@pytest.mark.parametrize("suite", sorted(verification.SUITES))
def test_verify_negative_n_exits_2(suite, capsys):
    code, out, err = run(capsys, "verify", suite, "-3")
    assert (code, out) == (2, "")
    assert "n_max" in err
