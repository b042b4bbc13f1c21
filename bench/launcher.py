"""Traced CLI child: ``python launcher.py TRACE_JSON [billiardbook CLI args...]``.

Installs the per-layer wrappers of ``tracer.py`` (including the per-command
wrappers inside ``billiardbook.cli.main``), runs the CLI in this process,
writes the raw counts and times to TRACE_JSON and exits with the CLI's code.
"""

import json
import sys

import billiardbook.cli
from tracer import Tracer


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = billiardbook.cli.main(argv)
    finally:
        tracer.uninstall()
    with open(trace_path, "w") as fh:
        json.dump(tracer.raw(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
