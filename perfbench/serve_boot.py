"""Run a ``repro`` command (``serve``) whose compiler entry points can be traced.

Usage: ``python perfbench/serve_boot.py SPANS.json serve --port 0 ...``

The command runs exactly as ``python -m repro ...`` would.  SIGUSR1
installs the span tracer (so a run can measure the same server untraced
first); the spans are written to ``SPANS.json`` when the command returns
after its SIGTERM drain.
"""

from __future__ import annotations

import signal
import sys

from spans import COMPILER_POINTS, Tracer


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    signal.signal(signal.SIGUSR1, lambda *_: tracer.install(COMPILER_POINTS))
    from repro.__main__ import main as repro_main

    try:
        return repro_main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(span_file)


if __name__ == "__main__":
    sys.exit(main())
