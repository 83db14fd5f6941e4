"""CI postcondition: a finished run left nothing behind.

The two asserts every process-level CI job makes after its traced run,
from the outside: no ``psm_*`` shared-memory segment is left in
``/dev/shm``, and no process of the run is still alive.  Job-specific
checks (trace spans, report contents) stay in the job.

    python tests/postcondition.py --stray 'repro[ ]decode'

``--stray`` is a ``pgrep -f`` pattern; bracket one character so it can
never match this command's own command line.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--stray", required=True, metavar="PATTERN",
        help="pgrep -f pattern matching the run's processes",
    )
    args = parser.parse_args(argv)
    failures = []
    shm = "/dev/shm"
    leaked = (
        [f for f in os.listdir(shm) if f.startswith("psm_")]
        if os.path.isdir(shm)
        else []
    )
    if leaked:
        failures.append(f"leaked shared memory: {leaked}")
    strays = subprocess.run(
        ["pgrep", "-f", args.stray], capture_output=True, text=True
    ).stdout.split()
    if strays:
        failures.append(f"stray worker processes: {strays}")
    for failure in failures:
        print(f"postcondition failed: {failure}", file=sys.stderr)
    if not failures:
        print("postcondition ok: no leaked shm, no stray processes")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
