"""Compare two result files against the bounds in ``BENCHMARK.json``.

    python3 bench/compare.py A.json B.json

A and B are results written by ``bench/run.py``.  For every workload
in both and every end-to-end metric, prints B against A and how much
worse B is in the metric's own direction; exits 1 if any is worse by
more than its bound, or is missing from one side.  To read two runs
of one commit for repeatability, compare them both ways round.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def end_to_end(doc: dict, workload: str) -> dict:
    entry = doc["workloads"][workload].get("end_to_end")
    return entry["metrics"] if entry else {}


def worse_by(a: float, b: float, better: str) -> float:
    """B's change from A as a share of A, positive when B is worse."""
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def compare(a_doc: dict, b_doc: dict, spec: dict) -> tuple[list[str], int]:
    lines = [f"{'workload':<16}{'metric':<22}{'A':>12}{'B':>12}"
             f"{'worse by':>10}{'bound':>8}"]
    beyond = 0
    shared = [w for w in a_doc["workloads"] if w in b_doc["workloads"]]
    for workload in shared:
        a_metrics = end_to_end(a_doc, workload)
        b_metrics = end_to_end(b_doc, workload)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = a_metrics.get(name, {}).get("value")
            b = b_metrics.get(name, {}).get("value")
            if a is None or b is None or a == 0:
                lines.append(f"{workload:<16}{name:<22}{a!s:>12}{b!s:>12}"
                             f"{'missing':>10}{metric['bound']:>8}")
                beyond += 1
                continue
            worse = worse_by(a, b, metric["better"])
            flag = "  BEYOND BOUND" if worse > metric["bound"] else ""
            beyond += bool(flag)
            lines.append(f"{workload:<16}{name:<22}{a:>12.5g}{b:>12.5g}"
                         f"{worse:>+10.3f}{metric['bound']:>8}{flag}")
    if not shared:
        lines.append("no workload is in both files")
        beyond += 1
    return lines, beyond


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    docs = []
    for path in (args.a, args.b, os.path.join(ROOT, "BENCHMARK.json")):
        with open(path) as fh:
            docs.append(json.load(fh))
    lines, beyond = compare(*docs)
    print("\n".join(lines))
    if beyond:
        print(f"{beyond} metric(s) beyond bound or missing")
    return 1 if beyond else 0


if __name__ == "__main__":
    sys.exit(main())
