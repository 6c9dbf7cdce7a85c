"""Traced stand-in for `python -m insdel`, used by the traced cli-mix run.

Usage: cli_child.py SPANS_FILE ARG...

Times `import insdel.cli` as the span `cli.import`, installs the span
wrappers, runs `insdel.cli.main(ARGS)` with stdout untouched, writes the
recorded spans to SPANS_FILE as JSON and exits with main's exit code.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def run(spans_file: str, argv: list[str]) -> int:
    tracer = spans.Tracer()
    start = time.perf_counter()
    import insdel.cli

    tracer.record("cli.import", start, time.perf_counter())
    spans.install(tracer)
    code = insdel.cli.main(argv)
    sys.stdout.flush()
    Path(spans_file).write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
