"""CI postcondition: a finished run left nothing behind and ended as expected.

Every live CLI run in CI is followed by this one script.  It checks,
from the outside:

* no ``psm_*`` shared-memory segment is left in ``/dev/shm``;
* no process of the run is still alive (``--stray``, a ``pgrep -f``
  pattern; bracket one character so it can never match this command's
  own command line);
* no ``Traceback`` in the run's captured output (``--log``, repeatable:
  a worker's traceback does not change the parent's exit status);
* every session in the run's JSON report ended as expected
  (``--report PATH --expect done=N[,cancelled=M]``): the status counts
  of a ``serve`` or ``net-serve`` report must equal the expectation
  exactly.

    python tests/postcondition.py --stray 'repro[ ]serve' \\
        --log serve.log --report serve-report.json --expect done=4
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys


def expectation(spec: str) -> dict[str, int]:
    """``done=4,cancelled=1`` -> ``{"done": 4, "cancelled": 1}``."""
    counts = {}
    for item in spec.split(","):
        status, sep, n = item.partition("=")
        if not sep or not status or not n.isdigit():
            raise argparse.ArgumentTypeError(
                f"expected STATUS=N[,STATUS=N...], got {spec!r}"
            )
        counts[status] = int(n)
    return counts


def status_counts(report: dict) -> dict[str, int]:
    """How the sessions of a ``serve`` or ``net-serve`` report ended."""
    return report.get("service", report)["status_counts"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--stray", required=True, metavar="PATTERN",
        help="pgrep -f pattern matching the run's processes",
    )
    parser.add_argument(
        "--log", action="append", default=[], metavar="PATH",
        help="captured output of the run; fails on a Traceback",
    )
    parser.add_argument(
        "--report", metavar="PATH",
        help="the run's JSON report (serve or net-serve --report)",
    )
    parser.add_argument(
        "--expect", type=expectation, metavar="STATUS=N[,...]",
        help="exact session status counts the report must hold",
    )
    args = parser.parse_args(argv)
    if (args.report is None) != (args.expect is None):
        parser.error("--report and --expect go together")
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
    for path in args.log:
        with open(path, encoding="utf-8", errors="replace") as fh:
            if "Traceback" in fh.read():
                failures.append(f"traceback in {path}")
    if args.report is not None:
        with open(args.report) as fh:
            counts = status_counts(json.load(fh))
        if counts != args.expect:
            failures.append(
                f"{args.report}: sessions ended {counts}, "
                f"expected {args.expect}"
            )
    for failure in failures:
        print(f"postcondition failed: {failure}", file=sys.stderr)
    if not failures:
        checked = "no leaked shm, no stray processes"
        if args.log:
            checked += ", no traceback"
        if args.report is not None:
            checked += f", sessions {counts}"
        print(f"postcondition ok: {checked}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
