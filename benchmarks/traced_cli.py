"""Run one stockcast command in this process with the span tracer installed.

    python3 benchmarks/traced_cli.py SPANS_OUT [stockcast arguments...]

The spans go to SPANS_OUT when the command ends, also when it ends by
SystemExit, as `stockcast --help` does. PYTHONPATH must reach the package.
"""

import sys
from pathlib import Path

from tracer import Tracer


def main() -> None:
    spans_out = Path(sys.argv[1])
    sys.argv = ["stockcast", *sys.argv[2:]]
    tracer = Tracer()
    try:
        with tracer.installed():
            from stockcast import cli

            cli.entrypoint()
    finally:
        tracer.write(spans_out)


if __name__ == "__main__":
    main()
