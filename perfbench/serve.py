"""Run ``repro serve`` with the benchmark's layer spans installed.

Usage: ``python3 perfbench/serve.py --trace-out FILE <repro CLI args>``,
for example ``... --trace-out t.json --cache-dir DIR serve --port 0``.
The server runs exactly as ``python -m repro <args>`` would; when it
exits (SIGTERM drains it), the span totals and counters are written to
``FILE`` as JSON.
"""

from __future__ import annotations

import json
import sys

import harness


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--trace-out":
        print(__doc__, file=sys.stderr)
        return 2
    out, rest = argv[1], argv[2:]
    harness.add_src_path()
    from tracer import Tracer

    tracer = Tracer().install()
    from repro.__main__ import main as repro_main

    try:
        return repro_main(rest)
    finally:
        tracer.uninstall()
        with open(out, "w") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
