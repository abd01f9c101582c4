"""Run one toricg command with every public function traced.

    python3 perfbench/launcher.py STATS.json ARG...

Installs the span wrappers of ``tracing``, calls ``toricg.cli.main`` with
the remaining arguments exactly as the ``toricg`` console script would, and
writes the statistics and spans to STATS.json (spans beside it, as
STATS.jsonl) before exiting with the command's exit code.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import tracing  # noqa: E402


def main() -> int:
    stats_path = Path(sys.argv[1])
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from toricg import cli

    try:
        code = cli.main(sys.argv[2:])
    except SystemExit as exc:  # argparse exits with 2 on a usage error
        code = exc.code
    finally:
        sys.stdout.flush()
        stats_path.write_text(json.dumps(tracer.summary()), encoding="utf-8")
        tracer.write_spans(stats_path.with_suffix(".jsonl"))
    return code


if __name__ == "__main__":
    sys.exit(main())
