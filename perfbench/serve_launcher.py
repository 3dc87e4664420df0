"""Start ``repro serve`` with the layer wrappers installed.

Usage: ``python serve_launcher.py SPAN_DIR serve --data-dir ... --port 0``
(with the repository's ``src`` on ``PYTHONPATH``).  The server's own
spans are flushed to ``SPAN_DIR`` when it exits; forked runners flush
theirs when their job returns.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer(sys.argv[1])
    tracer.install()
    from repro.cli import main as repro_main

    try:
        return repro_main(sys.argv[2:])
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
