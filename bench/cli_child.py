"""One ``coarse-kit`` invocation with spans around the library's public functions.

Usage: python3 bench/cli_child.py OUT_PREFIX CLI_ARGS...

Behaves like ``coarse-kit CLI_ARGS...`` (same stdout and exit code) and writes
OUT_PREFIX.json (per-span calls and self time, plus work counts) and
OUT_PREFIX.npz (every span).  The library is imported before the spans are
installed, so import time stays out of them.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import coarsekit.cli  # noqa: E402

from spans import Tracer  # noqa: E402


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = coarsekit.cli.main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    Path(out + ".json").write_text(json.dumps({"totals": tracer.totals(), "counts": dict(tracer.counts)}))
    tracer.dump(out + ".npz")
    return code


if __name__ == "__main__":
    sys.exit(main())
