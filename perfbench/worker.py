"""One round of a workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD PLAN.json RESULT.json WORKDIR
        [--full] [--setup-only] [--spans DIR]

PLAN.json holds the round's operations and generated inputs, written by
the harness.  The worker imports toricg from ``src/`` of the checkout,
builds the inputs with the program's own constructors,
stamps the moment it is ready to run the first operation, runs every
operation of the round once, and writes a JSON result: the ready stamp
(CLOCK_MONOTONIC, comparable with the harness's spawn stamp), each
operation's time, a fingerprint of each output, the full outputs with
``--full``, the peak resident memory, and timings of a reference that
does not touch toricg (see REFERENCES), one before the first operation and
one whenever its interval has passed since the last, with the index of the
sample that preceded each operation.  With
``--spans DIR`` every public toricg function is traced and the statistics
and spans are written as well.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

CLI_ENTRY = "import sys; from toricg.cli import main; sys.exit(main())"


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


_FACTORS = [3 ** k * 7919 + k for k in range(1, 25)]


def reference_ms() -> float:
    """One pass of a fixed pure-Python mix that does not touch toricg:
    an arithmetic loop, a product of integer polynomials, a bitmask scan
    over permutations and tuple allocation, about the kinds of work the
    workloads do.  Its time tracks the machine's speed at that moment.
    The collector is off, so the program's heap does not weigh on it."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    acc = 0
    for i in range(6000):
        acc += i * i % 7
    for _ in range(3):
        prod = [0] * (2 * len(_FACTORS) - 1)
        for i, a in enumerate(_FACTORS):
            for j, b in enumerate(_FACTORS):
                prod[i + j] += a * b
    for perm in itertools.permutations(range(6)):
        mask = 0
        for v in perm:
            mask |= 1 << v
            if mask & 5 == 5:
                acc += 1
    table = {}
    for i in range(1500):
        table[(i, i * 3)] = (i, [i] * 2)
    elapsed = (time.perf_counter() - start) * 1000
    if enabled:
        gc.enable()
    return elapsed


def bare_start_ms() -> float:
    """A bare interpreter start (``python -c pass``): what every toricg
    command pays before its first import, and a reference that drifts the
    way commands do, where the in-process kernel does not."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return (time.perf_counter() - start) * 1000


# kind -> (reference, seconds between samples); the interpreter start is
# timed after every command.
REFERENCES = {"kernel": (reference_ms, 0.1), "interpreter": (bare_start_ms, 0.0)}


def reference_kind(workload: str) -> str:
    """Commands start interpreters and in-process calls do not: each is
    calibrated by the reference that drifts the way it does."""
    return "interpreter" if workload == "cli" else "kernel"


def fingerprint(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def build_inputs(workload: str, raw, workdir: Path):
    from toricg import nestohedra

    if workload == "nestohedron":
        sets = {}
        for inp in raw:
            if inp["kind"] == "named":
                sets[inp["id"]] = nestohedra.named_family(inp["family"], inp["n"], inp["r"])
            elif inp["kind"] == "graphical":
                sets[inp["id"]] = nestohedra.graphical(inp["ground"], [tuple(e) for e in inp["edges"]])
            else:
                sets[inp["id"]] = nestohedra.BuildingSet(inp["ground"], inp["sets"])
        return sets
    if workload == "cli":
        workdir.mkdir(parents=True, exist_ok=True)
        for name, doc in raw.items():
            (workdir / name).write_text(json.dumps(doc), encoding="utf-8")
    return None


def _row(family: str, n: int, route: str):
    from toricg import polyvec

    gamma = polyvec.gamma_family(family, n)
    if route == "gamma":
        return polyvec.toric_g_from_gamma(n, gamma)
    return polyvec.toric_g_from_h(n, polyvec.gamma_to_h(gamma, n))


class Runner:
    """Turns op specs into calls; ``run`` returns (seconds, payload)."""

    def __init__(self, inputs, workdir: Path, spans_dir: Path | None):
        self.inputs = inputs
        self.workdir = workdir
        self.spans_dir = spans_dir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.child_stats: list[dict] = []

    def run(self, index: int, op: list):
        kind = op[0]
        if kind == "cli":
            return self._cli(index, op)
        call, summarize = self._library(op)
        start = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # a failed operation is counted, not fatal
            return time.perf_counter() - start, {"error": repr(exc)}
        elapsed = time.perf_counter() - start
        return elapsed, summarize(out)

    def _library(self, op: list):
        from toricg import nestohedra, polyvec, series, verification

        kind = op[0]
        coeffs = lambda p: list(p.coeffs)  # noqa: E731
        if kind == "row":
            return (lambda: _row(*op[1:])), coeffs
        if kind == "sturm_g":
            n, j = op[1:]

            def sturm_g():
                p = polyvec.g_contrib(n, j)
                return p, polyvec.sturm_real_rooted(p)
            return sturm_g, lambda r: [list(r[0].coeffs), r[1]]
        if kind == "sturm_row":
            def sturm_row():
                p = _row(op[1], op[2], "gamma")
                return p, polyvec.sturm_real_rooted(p)
            return sturm_row, lambda r: [list(r[0].coeffs), r[1]]
        if kind == "kk_row":
            n = op[2]

            def kk_row():
                p = _row(op[1], n, "gamma")
                vec = [p.coeff(k) for k in range(n // 2 + 1)]
                return vec, polyvec.kruskal_katona_ok(vec)
            return kk_row, list
        if kind == "kk_vec":
            return (lambda: polyvec.kruskal_katona_ok(op[1])), bool
        if kind == "sturm_poly":
            return (lambda: polyvec.sturm_real_rooted(polyvec.IntPoly(op[1]))), bool
        if kind == "peak":
            return (lambda: polyvec.peak_poly(op[1], op[2])), coeffs
        if kind == "suite":
            return (lambda: verification.SUITES[op[1]](op[2])), lambda r: r
        if kind == "series":
            return (lambda: series.verify_series(op[1])), lambda r: r
        bs = self.inputs[op[1]]
        if kind == "b_permutations":
            def summarize(perms):
                import oracles
                return {"count": len(perms),
                        "sha": oracles.lines_digest(" ".join(map(str, p)) for p in perms)}
            return (lambda: nestohedra.b_permutations(bs)), summarize
        fn = getattr(nestohedra, kind)
        if kind in ("h_chordal", "gamma_chordal"):
            return (lambda: fn(bs)), list
        return (lambda: fn(bs)), coeffs

    def _cli(self, index: int, op: list):
        argv = op[2]
        if self.spans_dir is None:
            cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
            stats_path = None
        else:
            stats_path = self.spans_dir / f"op{index}.json"
            stats_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH / "launcher.py"), str(stats_path), *argv]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True)
        elapsed = time.perf_counter() - start
        if stats_path is not None and stats_path.exists():
            self.child_stats.append(json.loads(stats_path.read_text(encoding="utf-8")))
        stdout = proc.stdout.decode("utf-8", "replace")
        return elapsed, {
            "rc": proc.returncode,
            "traceback": b"Traceback" in proc.stderr,
            "stdout": stdout,
            "bytes": len(proc.stdout),
            "lines": stdout.count("\n"),
        }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("plan")
    parser.add_argument("result")
    parser.add_argument("workdir")
    parser.add_argument("--full", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    import toricg  # noqa: F401
    import toricg.cli  # noqa: F401

    tracer = None
    spans_dir = Path(args.spans) if args.spans else None
    if spans_dir is not None:
        import tracing

        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer = tracing.Tracer()
        tracing.install(tracer)
    workdir = Path(args.workdir)
    with open(args.plan, encoding="utf-8") as handle:
        plan = json.load(handle)
    inputs = build_inputs(args.workload, plan["inputs"], workdir)
    ops = plan["ops"]
    ready = monotonic()
    result: dict = {"ready": ready}
    if not args.setup_only:
        runner = Runner(inputs, workdir, spans_dir)
        kind = reference_kind(args.workload)
        reference, every = REFERENCES[kind]
        ref, op_ref = [reference()], []
        sampled = monotonic()
        op_ms, prints, payloads = [], [], []
        stdout_bytes = stream_lines = 0
        for index, op in enumerate(ops):
            op_ref.append(len(ref) - 1)
            if tracer is not None:
                tracer.enter("op." + op[0])
            elapsed, payload = runner.run(index, op)
            if tracer is not None:
                tracer.leave(1)
            op_ms.append(elapsed * 1000)
            prints.append(fingerprint(payload))
            if args.full:
                payloads.append(payload)
            if op[0] == "cli":
                stdout_bytes += payload["bytes"]
                stream_lines += payload["lines"] if op[1] == "enumerate" else 0
            if monotonic() - sampled >= every:
                ref.append(reference())
                sampled = monotonic()
        ref.append(reference())
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        result.update({
            "op_ms": op_ms,
            "fingerprints": prints,
            "payloads": payloads if args.full else None,
            "peak_rss_kb": resource.getrusage(usage).ru_maxrss,
            "ref_kind": kind,
            "ref_ms": ref,
            "op_ref": op_ref,
            "stdout_bytes": stdout_bytes,
            "stream_lines": stream_lines,
        })
        if tracer is not None:
            result["trace"] = tracer.summary()
            result["child_traces"] = runner.child_stats
            tracer.write_spans(spans_dir / "worker.jsonl")
    with open(args.result, "w", encoding="utf-8") as out:
        json.dump(result, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
