"""Command-line interface.

Subcommands
-----------
table      print toric g-vector tables (csv or json) for a named family or
           a building-set JSON file, by any of the routes gamma / hetyei
           (h-vector) / direct (object counts) / all
verify     run a named verification suite and emit a JSON report
enumerate  stream combinatorial objects one per line

Exit codes: 0 success, 1 verification or route-agreement failure, 2 usage
or parse error, 3 capacity exceeded.  Output is deterministic: repeated
runs are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Sequence

from .config import check_capacity
from .errors import CapacityError, ToricgError

if TYPE_CHECKING:
    from . import buildingset, polyvec

# Each command imports the modules it runs where its path runs them, after
# the usage and capacity checks that come first: a closed-form row needs
# only polyvec, a family's direct row transfer, a building-set file
# buildingset (and nestohedra once the set is checked, polyvec once a row
# is computed), a verify its one suite module and what that suite checks,
# a refusal none of the library, and only the JSON reader and writers load
# json.

_SCHEMA = "toricg/1"
_TABLE_FAMILIES = ("associahedron", "cyclohedron", "permutahedron", "cube")
_CHUNK_LINES = 4096
_BS_FAMILIES = ("permutahedron", "stanley_pitman", "associahedron_intervals", "interpolation")
# suites.NAMES, spelled out so that parsing loads no suite
_SUITES = ("bijections", "compat", "conjectures", "gamma", "nestohedra", "series")


def _integer(text: str) -> int:
    """An integer argument: ASCII digits after at most one '-', as every text
    reader of the library takes them (``int`` alone also takes '٣', '３',
    '1_0' and ' 3')."""
    digits = text[1:] if text.startswith("-") else text
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricg",
        description="Exact toric g-vectors of simple polytopes and the "
        "combinatorics behind them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="print a toric g-vector table")
    source = p_table.add_mutually_exclusive_group()
    source.add_argument("--family", choices=_TABLE_FAMILIES)
    source.add_argument("--building-set", metavar="PATH",
                        help="building-set JSON file (one row)")
    p_table.add_argument("--max", type=_integer, default=None, dest="max_n",
                         help="largest dimension of a --family table (default 8)")
    p_table.add_argument("--route", choices=("gamma", "hetyei", "direct", "all"),
                         default="gamma")
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.add_argument("--unsafe-max", action="store_true",
                         help="lift the capacity bounds")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=_SUITES)
    p_verify.add_argument("n_max", type=_integer)
    p_verify.add_argument("--unsafe-max", action="store_true")

    p_enum = sub.add_parser("enumerate", help="stream combinatorial objects")
    p_enum.add_argument(
        "object",
        choices=("dyck", "parking_functions_123", "parking_trees", "b_perms"),
    )
    p_enum.add_argument("n", type=_integer)
    p_enum.add_argument("--count-only", action="store_true")
    bs_source = p_enum.add_mutually_exclusive_group()
    bs_source.add_argument("--bs-family", choices=_BS_FAMILIES,
                           help="building-set family for b_perms")
    p_enum.add_argument("--r", type=_integer, default=None,
                        help="parameter of the interpolation family")
    bs_source.add_argument("--building-set", metavar="PATH",
                           help="building-set JSON file on [n+1] for b_perms")
    p_enum.add_argument("--unsafe-max", action="store_true")
    return parser


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def _load_building_set(path: str) -> buildingset.BuildingSet:
    import json

    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ToricgError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ToricgError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except UnicodeDecodeError as exc:
        raise ToricgError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except RecursionError as exc:
        raise ToricgError(f"{path}: JSON nests too deeply to read") from exc
    except ValueError as exc:  # an integer with more digits than int() converts
        raise ToricgError(f"{path}: JSON holds an integer too long to read") from exc
    from . import buildingset

    return buildingset.BuildingSet.from_json(data)


def _family_row(family: str, n: int, route: str) -> polyvec.IntPoly:
    if route == "direct":
        from . import transfer

        return transfer.family_row(family, n)
    from . import polyvec

    gamma = polyvec.gamma_family(family, n)
    if route == "gamma":
        return polyvec.toric_g_from_gamma(n, gamma)
    return polyvec.toric_g_from_h(n, polyvec.gamma_to_h(gamma, n))


def _bs_row(bs: buildingset.BuildingSet, route: str, unsafe: bool) -> polyvec.IntPoly:
    from . import nestohedra

    if route == "gamma":
        return nestohedra.toric_g_chordal(bs, unsafe)
    if route == "hetyei":
        hvec = nestohedra.h_chordal(bs, unsafe)
        from . import polyvec

        return polyvec.toric_g_from_h(bs.ground_size - 1, hvec)
    return nestohedra.toric_g_direct(bs, unsafe=unsafe)


def _table_rows(args) -> list[tuple[int, list[int]]]:
    routes = ("gamma", "hetyei", "direct") if args.route == "all" else (args.route,)
    rows = []
    if args.building_set:
        if args.max_n is not None:
            raise ToricgError("--max needs --family")
        bs = _load_building_set(args.building_set)
        dims = [bs.ground_size - 1]
        compute = lambda n, route: _bs_row(bs, route, args.unsafe_max)
    else:
        if not args.family:
            raise ToricgError("table needs --family or --building-set")
        max_n = 8 if args.max_n is None else args.max_n
        if max_n < 1:
            raise ToricgError("--max must be >= 1")
        check_capacity("table", max_n, args.unsafe_max)
        dims = list(range(1, max_n + 1))
        compute = lambda n, route: _family_row(args.family, n, route)
    for n in dims:
        results = {route: compute(n, route) for route in routes}
        first_route = next(iter(results))
        baseline = results[first_route]
        for route, poly in results.items():
            if poly != baseline:
                raise RouteDisagreement(
                    f"routes {first_route} and {route} disagree at n={n}: "
                    f"{baseline.to_text()} vs {poly.to_text()}"
                )
        rows.append((n, [baseline.coeff(k) for k in range(n // 2 + 1)]))
    return rows


class RouteDisagreement(ToricgError):
    pass


def _cmd_table(args) -> int:
    rows = _table_rows(args)
    if args.format == "json":
        import json

        payload = {
            "schema": _SCHEMA,
            "kind": "table",
            "family": args.family,
            "building_set": args.building_set,
            "route": args.route,
            "rows": [{"n": n, "g": g} for n, g in rows],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    width = max(len(g) for _, g in rows)
    print(",".join(["n"] + [f"g{k}" for k in range(width)]))
    for n, g in rows:
        cells = [str(n)] + [str(v) for v in g] + [""] * (width - len(g))
        print(",".join(cells))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    if args.n_max < 0:  # refused before the suites load; _run checks it for library callers
        raise ToricgError(f"n_max must be >= 0, got {args.n_max}")
    import json

    from . import suites

    report = suites.run(args.suite, args.n_max, unsafe=args.unsafe_max)
    report = {"schema": _SCHEMA, "kind": "verify", **report}
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["ok"] else 1


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def _enumerate_stream(args):
    """(count, lines): the count of the objects without their stream (a
    closed form; under --count-only the associahedron transfer at x = 1
    for parking_functions_123 and the descent DP for b_perms), or None
    where only the stream can count them, and the stream of their texts."""
    n = args.n
    if args.r is not None and args.bs_family != "interpolation":
        raise ToricgError("--r needs --bs-family interpolation")
    if args.object != "b_perms" and (args.bs_family or args.building_set):
        raise ToricgError("--bs-family, --building-set and --r are for b_perms only")
    if n < 0:
        raise ToricgError("n must be >= 0")
    if args.object == "dyck":
        check_capacity("table", n, args.unsafe_max)
        from . import words

        return words.catalan(n), words.enumerate_words(n, "dyck")
    if args.object == "parking_functions_123":
        check_capacity("functions_route", n, args.unsafe_max)
        if args.count_only:
            from . import transfer

            return transfer.family_row("associahedron", n)(1), ()
        from . import parking

        return None, (
            parking.fn_to_text(f)
            for f in parking.iter_123_avoiding_functions(n, parking_only=True)
        )
    if args.object == "parking_trees":
        from math import factorial

        check_capacity("parking_trees", n, args.unsafe_max)
        from . import parking

        return factorial(n) ** 2, parking.parking_tree_texts(n, unsafe=args.unsafe_max)
    bs = _enumerate_building_set(args)
    from . import nestohedra

    if args.count_only:
        return nestohedra.count_b_permutations(bs, args.unsafe_max), ()
    from . import ints

    return None, map(ints.ints_to_text, nestohedra.b_permutations(bs, args.unsafe_max))


def _enumerate_building_set(args) -> buildingset.BuildingSet:
    if not args.building_set and not args.bs_family:
        raise ToricgError("b_perms needs --bs-family or --building-set")
    if args.building_set:
        bs = _load_building_set(args.building_set)
        if bs.ground_size != args.n + 1:
            raise ToricgError(f"b_perms {args.n} needs a building set on [{args.n + 1}]")
        check_capacity("b_permutations", args.n, args.unsafe_max)
        from . import nestohedra

        nestohedra.validate(bs)
        return bs
    from . import nestohedra

    nestohedra._check_family(args.bs_family, args.n, args.r)
    check_capacity("b_permutations", args.n, args.unsafe_max)
    return nestohedra.named_family(args.bs_family, args.n, args.r)


def _cmd_enumerate(args) -> int:
    from itertools import islice

    count, lines = _enumerate_stream(args)
    if args.count_only:
        print(sum(1 for _ in lines) if count is None else count)
        return 0
    # a few thousand lines per write, never the whole stream
    for chunk in iter(lambda: list(islice(lines, _CHUNK_LINES)), []):
        sys.stdout.write("\n".join(chunk) + "\n")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "table":
            return _cmd_table(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_enumerate(args)
    except CapacityError as exc:
        print(f"toricg: capacity: {exc}", file=sys.stderr)
        return 3
    except RouteDisagreement as exc:
        print(f"toricg: {exc}", file=sys.stderr)
        return 1
    except ToricgError as exc:
        print(f"toricg: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
