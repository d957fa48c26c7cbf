"""Run one dyckpeaks CLI command under the benchmark tracer.

    python3 perfbench/traced_cli.py <spans-prefix> <dyckpeaks arguments...>

Installs the tracer, calls ``dyckpeaks.cli.main`` as the ``dyckpeaks``
console script does, and writes the spans to ``<spans-prefix>.json`` and
``<spans-prefix>.bin`` when the command returns.
"""

from __future__ import annotations

import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    prefix, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.current_op = 0
    from dyckpeaks import cli

    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(prefix)


if __name__ == "__main__":
    sys.exit(main())
