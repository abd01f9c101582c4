"""Benchmark of toricg: four workloads driven from outside the program.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: closed-form, nestohedron, certify, cli (see perfbench/README.md).
The harness repeats whole rounds of the workload's fixed operation list,
each round in a fresh interpreter (perfbench/worker.py), until the next
round would end past ``--seconds``.  It then checks the first round's
outputs against the references in perfbench/oracles.py, checks that every
later round printed the same outputs, and prints one JSON object as the
last line of standard output.  Diagnostics go to the lines before it,
prefixed with "# ".

--trace 0 reports the end-to-end metrics: wall_s (the time of the round's
operations, each taken at its median over the rounds), job_ms.p50 (median
time of one operation), setup_s (median time from spawning a fresh
interpreter to the first operation being ready) and peak_rss_mb (median
over rounds of the peak resident memory of the program's processes).
Every time among them is calibrated: scaled to the machine speed at which
a reference takes its REFERENCE_MS, by the reference timed next to it
(see ``calibrate``).  --trace 1 spends the first half of the time on
untraced rounds and the second half on traced ones, and reports the
per-layer metrics listed in PER_LAYER.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
# Nominal times of the references in worker.REFERENCES, near their
# medians on the machine the README describes.
REFERENCE_MS = {"kernel": 2.3, "interpreter": 75.0}
SETUP_SAMPLES = 12
PROBE_SAMPLES = 7

END_TO_END = (
    ("wall_s", "s"),
    ("job_ms.p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# kk_pseudopower holds the linear cascade search that kruskal_katona_ok
# calls, so the self time of the probe is mostly there.
_POLYVEC = ("toric_g_from_gamma", "toric_g_from_h", "cnix", "gamma_family", "gamma_to_h",
            "h_to_gamma", "peak_poly", "sturm_real_rooted", "kruskal_katona_ok", "kk_pseudopower")
_NESTO = ("validate", "h_chordal", "gamma_chordal", "toric_g_direct", "named_family", "graphical")
_ENUMERATORS = ("words.enumerate_words", "perms.enumerate_123_avoiding",
                "perms.increasing_plane_trees", "parking.enumerate_parking_trees",
                "parking.iter_123_avoiding_functions")
_SUITES = ("bijections", "compat", "series", "gamma", "nestohedra", "conjectures")
_CLI_KINDS = ("table", "verify", "enumerate", "refusal")

# (name, unit, better); the traced statistic each name reads is parsed
# from the name by per_layer_value.
PER_LAYER = (
    [("polyvec.g_contrib.calls", "count", "lower"), ("polyvec.g_contrib.self_ms", "ms", "lower")]
    + [(f"polyvec.{f}.self_ms", "ms", "lower") for f in _POLYVEC]
    + [(f"nestohedra.{f}.self_ms", "ms", "lower") for f in _NESTO]
    + [("nestohedra.b_permutations.self_ms", "ms", "lower"),
       ("nestohedra.b_permutations.items", "count", "lower"),
       ("nestohedra.b_permutations.kept_ratio", "ratio", "higher")]
    + [(f"{f}.{stat}", unit, "lower") for f in _ENUMERATORS
       for stat, unit in (("items", "count"), ("self_ms", "ms"))]
    + [("compat.is_compatible.calls", "count", "lower"),
       ("compat.is_compatible.self_ms", "ms", "lower"),
       ("compat.count_compatible.self_ms", "ms", "lower"),
       ("compat.enumerate_nc.items", "count", "lower")]
    + [(f"verification.suite_{s}.self_ms", "ms", "lower") for s in _SUITES]
    + [("series.verify_series.self_ms", "ms", "lower")]
    + [("cli.interpreter_ms", "ms", "lower"), ("cli.import_ms", "ms", "lower")]
    + [(f"cli.{k}_ms.p50", "ms", "lower") for k in _CLI_KINDS]
    + [("cli.stream_lines_per_s", "1/s", "higher"), ("cli.stdout_bytes", "bytes", "lower"),
       ("trace.overhead_s", "s", "lower")]
)


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def commit() -> str:
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "toricg").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return f"unknown (not a git checkout; src sha256 {digest.hexdigest()[:12]})"


class Spawner:
    """The rounds of one run, spawned one after another (a closed loop with
    one client)."""

    def __init__(self, workload: str, seed: int, ops: list):
        self.workload = workload
        self.dir = OUT / f"run-{workload}-{seed}-{os.getpid()}"
        self.spans_dir = OUT / f"spans-{workload}-seed{seed}"
        self.count = 0
        self.bare_ms: list[float] = []  # the bare start timed before each spawn
        self.dir.mkdir(parents=True, exist_ok=True)
        self.plan = self.dir / "plan.json"
        self.plan.write_text(json.dumps({"ops": ops, "inputs": workloads.inputs(workload, seed)}),
                             encoding="utf-8")

    def spawn(self, *, full=False, traced=False, setup_only=False) -> tuple[float, dict]:
        """One worker; returns (setup seconds, its result)."""
        path = self.dir / f"round{self.count}.json"
        self.count += 1
        cmd = [sys.executable, str(BENCH / "worker.py"), self.workload, str(self.plan),
               str(path), str(self.dir / "work")]
        cmd += ["--full"] * full + ["--setup-only"] * setup_only
        if traced:
            cmd += ["--spans", str(self.spans_dir)]
        self.bare_ms.append(worker.bare_start_ms())
        spawned = monotonic()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}: "
                               + proc.stderr.decode(errors="replace")[-2000:])
        result = json.loads(path.read_text(encoding="utf-8"))
        path.unlink()
        if "op_ms" in result:
            calibrate(result)
        setup = (result["ready"] - spawned) * REFERENCE_MS["interpreter"] / self.bare_ms[-1]
        return setup, result

    def rounds(self, deadline: float, traced: bool, first_full: bool) -> list[tuple[float, dict]]:
        """Whole rounds until the next one, at the median length so far,
        would end past the deadline; at least one."""
        out, lengths = [], []
        while True:
            start = monotonic()
            out.append(self.spawn(full=first_full and not out, traced=traced))
            lengths.append(monotonic() - start)
            if monotonic() + median(lengths) > deadline:
                return out

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def interpreter_probes() -> tuple[float, float]:
    """Medians of a bare interpreter start and of ``import toricg.cli``,
    in ms; the second minus the first is the import's own cost."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    bare, imported = [], []
    for _ in range(PROBE_SAMPLES):
        bare.append(worker.bare_start_ms())
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import toricg.cli"], env=env, check=True)
        imported.append((time.perf_counter() - start) * 1000)
    return median(bare), median(imported) - median(bare)


def calibrate(result: dict) -> None:
    """Add ``cal_ms``: each operation's time scaled by its reference's
    REFERENCE_MS over the median of the four samples around it (two before,
    two after).  This machine's speed drifts by up to a third in phases of
    seconds to minutes, and the reference drifts with it."""
    ref, nominal = result["ref_ms"], REFERENCE_MS[result["ref_kind"]]
    result["cal_ms"] = [ms * nominal / median(ref[max(0, i - 1): i + 3])
                        for ms, i in zip(result["op_ms"], result["op_ref"])]


def list_time(op_ms: list[list[float]]) -> float:
    """Seconds to run the operation list once: the sum over operations of
    each one's median time across rounds.  A burst of machine noise that
    slows a few operations of one round moves this less than it moves the
    median of the round totals."""
    return sum(median(times) for times in zip(*op_ms)) / 1000


def merged_stats(result: dict) -> tuple[dict, int]:
    """Per-name [calls, items, self_ns] of a traced round, the worker's
    own spans plus those of every child command it launched."""
    total: dict[str, list[int]] = {}
    scanned = 0
    for part in [result["trace"], *result.get("child_traces", [])]:
        scanned += part["scanned"]
        for name, stat in part["stats"].items():
            acc = total.setdefault(name, [0, 0, 0])
            for i in range(3):
                acc[i] += stat[i]
    return total, scanned


def per_layer_value(name: str, stats: dict, scanned: int) -> float:
    if name == "nestohedra.b_permutations.kept_ratio":
        items = stats.get("nestohedra.b_permutations", [0, 0, 0])[1]
        return items / scanned if scanned else 0.0
    base, stat = name.rsplit(".", 1)
    calls, items, self_ns = stats.get(base, [0, 0, 0])
    return {"calls": calls, "items": items, "self_ms": self_ns / 1e6}[stat]


def cli_metrics(ops: list, rounds: list[dict]) -> dict[str, float]:
    """The command-line figures of untraced cli rounds."""
    by_kind: dict[str, list[float]] = {k: [] for k in _CLI_KINDS}
    lines = seconds = 0.0
    stdout_bytes = []
    for result in rounds:
        for op, ms in zip(ops, result["cal_ms"]):
            if op[1] in by_kind:
                by_kind[op[1]].append(ms)
        stdout_bytes.append(result["stdout_bytes"])
        lines += result["stream_lines"]
        seconds += sum(ms for op, ms in zip(ops, result["cal_ms"]) if op[1] == "enumerate") / 1000
    out = {f"cli.{k}_ms.p50": median(v) for k, v in by_kind.items()}
    out["cli.stream_lines_per_s"] = lines / seconds if seconds else 0.0
    out["cli.stdout_bytes"] = median(stdout_bytes)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "toricg" / "__init__.py").is_file():
        print(f"perfbench: no toricg sources at {SRC}; run from a toricg checkout",
              file=sys.stderr)
        return 2

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"# nproc {os.cpu_count()} python {platform.python_version()} commit {commit()}")
    ops = workloads.plan(args.workload, args.seed)
    spawner = Spawner(args.workload, args.seed, ops)
    begin = monotonic()
    try:
        if args.trace:
            untraced = spawner.rounds(begin + args.seconds / 2, traced=False, first_full=True)
            traced = spawner.rounds(begin + args.seconds, traced=True, first_full=False)
        else:
            untraced = spawner.rounds(begin + args.seconds, traced=False, first_full=True)
            traced = []
            for _ in range(SETUP_SAMPLES - len(untraced)):
                untraced.append(spawner.spawn(setup_only=True))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        spawner.close()
    measured = [r for _, r in untraced if "op_ms" in r]
    every_round = measured + [r for _, r in traced]

    checked = monotonic()
    failed, wrong = checks.check_round(args.workload, args.seed, ops, measured[0]["payloads"])
    first = measured[0]["fingerprints"]
    for k, result in enumerate(every_round[1:], start=1):
        for index, (a, b) in enumerate(zip(first, result["fingerprints"])):
            if a != b:
                wrong.append((index, f"round {k} printed other output than round 0"))
    for label, items in (("failed", failed), ("wrong", wrong)):
        for index, reason in items[:12]:
            print(f"# {label}: op {index} {json.dumps(ops[index])[:160]}: {reason[:300]}")

    walls = [sum(r["op_ms"]) / 1000 for r in measured]
    calibrated = [sum(r["cal_ms"]) / 1000 for r in measured]
    print(f"# rounds took {checked - begin:.1f} s, checks {monotonic() - checked:.1f} s")
    ref = [ms for r in every_round for ms in r["ref_ms"]]
    print(f"# rounds {len(measured)} untraced, {len(traced)} traced; "
          f"ops per round {len(ops)}; failed per round {len(failed)}")
    print("# round wall_s raw " + " ".join(f"{w:.3f}" for w in walls))
    print("# round wall_s calibrated " + " ".join(f"{w:.3f}" for w in calibrated))
    kind = measured[0]["ref_kind"]
    print(f"# reference {kind} median {median(ref):.3f} ms (min {min(ref):.3f}, max {max(ref):.3f}) "
          f"over {len(ref)} samples; operation times are scaled to {REFERENCE_MS[kind]} ms")
    print(f"# bare interpreter start median {median(spawner.bare_ms):.1f} ms over "
          f"{len(spawner.bare_ms)} spawns; set-up times are scaled to {REFERENCE_MS['interpreter']} ms")
    print(f"# uncalibrated wall_s {list_time([r['op_ms'] for r in measured]):.4f}")

    if args.trace == 0:
        values = {
            "wall_s": list_time([r["cal_ms"] for r in measured]),
            "job_ms.p50": median([ms for r in measured for ms in r["cal_ms"]]),
            "setup_s": median([s for s, _ in untraced]),
            "peak_rss_mb": median([r["peak_rss_kb"] / 1024 for r in measured]),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        per_round = [merged_stats(r) for _, r in traced]
        values = {}
        for name, _unit, _better in PER_LAYER:
            if name.startswith(("cli.", "trace.")):
                continue
            values[name] = median([per_layer_value(name, s, n) for s, n in per_round])
        if args.workload == "cli":
            values.update(cli_metrics(ops, measured))
        else:
            values.update({f"cli.{k}_ms.p50": 0.0 for k in _CLI_KINDS})
            values.update({"cli.stream_lines_per_s": 0.0, "cli.stdout_bytes": 0.0})
        values["cli.interpreter_ms"], values["cli.import_ms"] = interpreter_probes()
        values["trace.overhead_s"] = (list_time([r["cal_ms"] for _, r in traced])
                                      - list_time([r["cal_ms"] for r in measured]))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
        print(f"# spans of the last traced round in {spawner.spans_dir.relative_to(ROOT)}")

    rounds_run = len(every_round)
    summary = {
        "correct": not wrong,
        "attempted": len(ops) * rounds_run,
        "failed": len(failed) * rounds_run,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1), encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
