"""Judge the outputs of one round against the reference computations.

``check_round(workload, seed, ops, payloads)`` returns two lists of op
indices with reasons: ``failed`` (the program raised, or a command exited
with the wrong code or printed a traceback) and ``wrong`` (an operation that
did not fail produced output the references contradict).  Nothing here
imports toricg.
"""

from __future__ import annotations

import itertools
import json
from math import factorial

import oracles
import workloads


def _padded(row, n: int) -> list[int]:
    return (list(row) + [0] * (n // 2 + 1))[: n // 2 + 1]


class Checker:
    def __init__(self, workload: str, seed: int):
        self.inputs = workloads.inputs(workload, seed)
        self._nesto: dict = {}

    # -- nestohedra -------------------------------------------------------

    def building_set(self, spec: dict) -> tuple[int, set[int]]:
        if spec["kind"] == "named":
            return spec["n"] + 1, oracles.named_family(spec["family"], spec["n"], spec["r"])
        if spec["kind"] == "graphical":
            return spec["ground"], oracles.graphical(spec["ground"], spec["edges"])
        return spec["ground"], {oracles.mask(s) for s in spec["sets"]}

    def nestohedron(self, key: str, m: int, masks: set[int]) -> dict:
        if key not in self._nesto:
            if not oracles.is_connected_chordal_building_set(m, masks):
                raise ValueError(f"benchmark input {key} is not connected and chordal")
            vec = oracles.nestohedron_vectors(m, masks)
            if vec["gamma"] is None or vec["h"] != vec["h"][::-1]:
                raise ValueError(f"reference h-vector of {key} is not palindromic")
            if oracles.gamma_to_h(vec["gamma"], m - 1) != vec["h"]:
                raise ValueError(f"reference gamma of {key} does not give its h-vector")
            self._nesto[key] = vec
        return self._nesto[key]

    # -- one operation ----------------------------------------------------

    def check(self, op: list, payload, by_argv: dict) -> tuple[str, str]:
        """("ok" | "failed" | "wrong", reason)."""
        if isinstance(payload, dict) and "error" in payload:
            return "failed", payload["error"]
        kind = op[0]
        if kind == "cli":
            return self.cli(op, payload, by_argv)
        expected = getattr(self, "expect_" + kind)(op)
        got = payload
        if got != expected:
            return "wrong", f"expected {str(expected)[:200]}, got {str(got)[:200]}"
        return "ok", ""

    def expect_row(self, op) -> list[int]:
        _, family, n, _route = op
        row = oracles.family_row(family, n)
        if n <= workloads.BRUTE_FORCE_MAX:
            brute = oracles.brute_force_row(family, n)
            if brute is not None and brute != row:
                raise ValueError(f"reference row of {family} n={n} contradicts brute force")
        return row

    def expect_sturm_g(self, op):
        poly = list(oracles.g_contrib(op[1], op[2]))
        return [poly, oracles.real_rooted(poly)]

    def expect_sturm_row(self, op):
        poly = oracles.family_row(op[1], op[2])
        return [poly, oracles.real_rooted(poly)]

    def expect_kk_row(self, op):
        vec = _padded(oracles.family_row(op[1], op[2]), op[2])
        return [vec, oracles.kruskal_katona_ok(vec)]

    def expect_kk_vec(self, op):
        return oracles.kruskal_katona_ok(op[1])

    def expect_sturm_poly(self, op):
        return oracles.real_rooted(op[1])

    def expect_peak(self, op):
        return oracles.peak_poly(op[1], op[2])

    def _nesto_op(self, op) -> dict:
        spec = next(i for i in self.inputs if i["id"] == op[1])
        m, masks = self.building_set(spec)
        vec = self.nestohedron(op[1], m, masks)
        if spec.get("family") == "permutahedron" or spec.get("r") == 1:
            if vec["h"] != oracles.eulerian(m):
                raise ValueError(f"reference h of {op[1]} is not Eulerian")
        return vec

    def expect_h_chordal(self, op):
        return self._nesto_op(op)["h"]

    def expect_gamma_chordal(self, op):
        return self._nesto_op(op)["gamma"]

    def expect_toric_g_chordal(self, op):
        return self._nesto_op(op)["toric"]

    expect_toric_g_direct = expect_toric_g_chordal

    def expect_b_permutations(self, op):
        vec = self._nesto_op(op)
        return {"count": vec["b_count"], "sha": vec["b_sha"]}

    def check_suite(self, op, report) -> tuple[str, str]:
        _, name, size = op
        if report.get("suite") != name or report.get("n_max") != size:
            return "wrong", "report names another suite or size"
        if not report.get("ok") or not all(c.get("ok") for c in report.get("checks", [])):
            return "wrong", "suite reports a failed check: " + json.dumps(report)[:300]
        if name == "conjectures":
            details = {c["name"]: c.get("detail") for c in report["checks"]}
            for cname, expected in self._conjectures(size).items():
                if details.get(cname) != expected:
                    return "wrong", f"{cname}: expected {expected}, got {details.get(cname)}"
        return "ok", ""

    def check_series(self, op, report) -> tuple[str, str]:
        names = ["g_recurrence", "g0_recurrence", "g0_quadratic", "gj_product", "peak_gf"]
        if (report.get("order") != op[1] or not report.get("ok")
                or [c["name"] for c in report["checks"]] != names
                or not all(c["ok"] and c["cases"] > 0 for c in report["checks"])):
            return "wrong", "verify_series report: " + json.dumps(report)[:300]
        return "ok", ""

    def _conjectures(self, size: int) -> dict:
        bn, bf = min(size, 12), min(size, 8)
        g = [oracles.g_contrib(n, j) for n in range(1, bn + 1) for j in range(n // 2 + 1)]
        rows = [oracles.family_row(f, n) for f in workloads.FAMILIES for n in range(1, bf + 1)]
        kk = [_padded(oracles.family_row(f, n), n)
              for f in ("associahedron", "cyclohedron", "permutahedron") for n in range(1, bf + 1)]
        return {
            "g_contrib_real_rooted": {"all_real_rooted": all(oracles.real_rooted(list(p)) for p in g),
                                      "cases": len(g)},
            "toric_g_real_rooted": {"all_real_rooted": all(oracles.real_rooted(r) for r in rows),
                                    "cases": len(rows)},
            "table_vectors_kruskal_katona": {"all_pass": all(oracles.kruskal_katona_ok(v) for v in kk),
                                             "cases": len(kk)},
        }

    # -- command line -----------------------------------------------------

    def cli(self, op, res, by_argv) -> tuple[str, str]:
        _, kind, argv, code = op
        if res["traceback"]:
            return "failed", f"traceback, exit {res['rc']}"
        if kind == "refusal" and res["rc"] == 0:
            # a later change may lift the cap: a correct answer also passes
            return self.cli_output(argv, res, by_argv)
        if res["rc"] != code:
            return "failed", f"exit {res['rc']}, expected {code}"
        if kind in ("refusal", "malformed"):
            return ("ok", "") if not res["stdout"] else ("wrong", "refusal printed output")
        return self.cli_output(argv, res, by_argv)

    def _file_set(self, name: str) -> tuple[int, set[int]]:
        doc = self.inputs[name]
        return doc["ground_size"], {oracles.mask(s) for s in doc["sets"]}

    def expected_rows(self, argv) -> list[tuple[int, list[int]]]:
        opts = _options(argv)
        if "--building-set" in opts:
            m, masks = self._file_set(opts["--building-set"])
            if len(masks) == (1 << m) - 1:  # the permutahedron; too big to enumerate
                toric = oracles.family_row("permutahedron", m - 1)
            else:
                toric = self.nestohedron(opts["--building-set"], m, masks)["toric"]
            return [(m - 1, _padded(toric, m - 1))]
        family = opts["--family"]
        return [(n, _padded(oracles.family_row(family, n), n))
                for n in range(1, int(opts["--max"]) + 1)]

    def cli_output(self, argv, res, by_argv) -> tuple[str, str]:
        out = res["stdout"]
        if argv[0] == "table":
            rows = self.expected_rows(argv)
            if "json" in argv:
                doc = json.loads(out)
                got = [(r["n"], r["g"]) for r in doc["rows"]]
            else:
                lines = out.splitlines()
                got = [(int(c[0]), [int(x) for x in c[1:] if x])
                       for c in (line.split(",") for line in lines[1:])]
                width = max(len(g) for _, g in rows)
                if lines[0] != ",".join(["n"] + [f"g{k}" for k in range(width)]):
                    return "wrong", f"csv header {lines[0]!r}"
            if got != rows:
                return "wrong", f"table rows differ from the references: {got[:3]} vs {rows[:3]}"
            if "all" in argv and "json" not in argv:
                i = argv.index("--route")
                twin = by_argv.get(json.dumps(argv[:i] + argv[i + 2:]))
                if twin is None or twin["stdout"] != out:
                    return "wrong", "--route all output differs from --route gamma"
            return "ok", ""
        if argv[0] == "verify":
            doc = json.loads(out)
            if doc.get("kind") != "verify" or doc.get("suite") != argv[1] or not doc.get("ok"):
                return "wrong", "verify report not ok"
            return "ok", ""
        return self.stream(argv, out.splitlines())

    def stream(self, argv, lines) -> tuple[str, str]:
        what, n = argv[1], int(argv[2])
        if len(set(lines)) != len(lines):
            return "wrong", "stream repeats a line"
        if what == "dyck":
            ok = (len(lines) == oracles.catalan(n)
                  and all(len(w) == 2 * n and oracles.is_dyck(w) for w in lines))
        elif what == "parking_functions_123":
            expected = {
                " ".join(map(str, f))
                for f in _functions(n)
                if oracles.is_parking(f) and oracles.is_weak_123_avoiding(f)
            }
            ok = set(lines) == expected
        elif what == "parking_trees":
            ok = (len(lines) == factorial(n) ** 2
                  and all(oracles.is_parking_tree(t, n) for t in lines))
        else:
            m, masks = self._file_set(argv[argv.index("--building-set") + 1])
            vec = self.nestohedron(argv[-1], m, masks)
            ok = len(lines) == vec["b_count"] and oracles.lines_digest(lines) == vec["b_sha"]
        return ("ok", "") if ok else ("wrong", f"stream {what} {n} fails its check")


def _options(argv) -> dict[str, str]:
    """Flag -> value for the flags of argv that take one."""
    return {a: b for a, b in zip(argv, argv[1:]) if a.startswith("--") and not b.startswith("--")}


def _functions(n: int):
    return itertools.product(range(1, n + 1), repeat=n)


def check_round(workload: str, seed: int, ops: list, payloads: list) -> tuple[list, list]:
    checker = Checker(workload, seed)
    by_argv = {json.dumps(op[2]): p for op, p in zip(ops, payloads) if op[0] == "cli"}
    failed, wrong = [], []
    for index, (op, payload) in enumerate(zip(ops, payloads)):
        try:
            if op[0] in ("suite", "series") and "error" not in payload:
                status, reason = getattr(checker, "check_" + op[0])(op, payload)
            else:
                status, reason = checker.check(op, payload, by_argv)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            status, reason = "wrong", f"output could not be checked: {exc!r}"
        if status == "failed":
            failed.append((index, reason))
        elif status == "wrong":
            wrong.append((index, reason))
    return failed, wrong
