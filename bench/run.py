"""Run the benchmark: ``python3 bench/run.py [--workload W] [--seed N] ...``

With ``--workload`` this is one driver run: ``--trace 0`` measures the
workload end to end, ``--trace 1`` runs it traced and adds the
per-layer ledger.  Without ``--workload`` every workload is run both
ways and the ledger once.  Either way each measurement is a fresh
child process (``bench/child.py``); this process only starts them,
checks what they leave behind, prints every metric by name with its
unit, writes the result JSON under ``bench/out/`` and ends with the
one-line JSON summary.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from bench import procstat, workloads  # noqa: E402  (need ROOT on sys.path)

BENCH_DIR = os.path.join(ROOT, "bench")
OUT_DIR = os.path.join(BENCH_DIR, "out")
#: The driver allows a run 180 s; leave room to report.
RUN_BUDGET_S = 165.0
#: How long a finished child's workers and shm segments get to vanish.
SETTLE_S = 3.0
DEFAULT_SEED = 1
#: --trace value -> (child kind, key in the result file, title)
MEASUREMENTS = {
    0: ("e2e", "end_to_end", "end to end"),
    1: ("traced", "traced", "traced passes"),
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def environment() -> dict:
    def version(package: str) -> str | None:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpus = procstat.affinity()
    return {
        "nproc": len(cpus),
        "affinity": cpus,
        "workers": workloads.worker_count(),
        "client_slots": workloads.client_slots(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# children and what they leave behind
# ----------------------------------------------------------------------
def _kill_session(sid: int) -> None:
    for pid in procstat.session_pids(sid):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + SETTLE_S
    while procstat.session_pids(sid) and time.monotonic() < deadline:
        time.sleep(0.02)


def run_child(kind: str, args, workload: str | None, deadline: float):
    """Run one measurement child; return ``(result, violations)``.

    The child leads its own session, so every process it starts can be
    found afterwards whatever it was reparented to.  ``violations``
    lists stray processes and new ``/dev/shm`` entries left after exit.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp_dir = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(tmp_dir, exist_ok=True)
    command = [
        sys.executable, os.path.join(BENCH_DIR, "child.py"), kind,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--out-dir", OUT_DIR,
    ]
    if workload:
        command += ["--workload", workload]
    if args.smoke:
        command.append("--smoke")
    # Anything the program puts in a temp dir stays inside the checkout.
    env = dict(os.environ, TMPDIR=tmp_dir)
    shm_before = procstat.shm_entries()
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )
    try:
        try:
            stdout, _ = proc.communicate(
                timeout=max(1.0, deadline - time.monotonic())
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{kind} {workload or ''} ran out of time")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        settle_by = time.monotonic() + SETTLE_S
        while time.monotonic() < settle_by and (
            procstat.session_pids(proc.pid)
            or procstat.shm_entries() - shm_before
        ):
            time.sleep(0.02)
        violations = []
        strays = procstat.session_pids(proc.pid)
        if strays:
            violations.append(f"{len(strays)} stray processes after exit")
        leaked = sorted(procstat.shm_entries() - shm_before)
        if leaked:
            violations.append(f"new /dev/shm entries after exit: {leaked}")
    finally:
        _kill_session(proc.pid)
        shutil.rmtree(tmp_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{kind} {workload or ''} exited {proc.returncode}")
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), violations
    except (IndexError, ValueError):
        raise BenchError(f"{kind} {workload or ''} printed no result")


def measure(kind: str, args, workload: str, deadline: float) -> dict:
    """A workload child's result, post-conditions folded into failures."""
    result, violations = run_child(kind, args, workload, deadline)
    if violations:
        # A leak fails every picture of the workload, never a faster run.
        result["failures"] = result["failures"] + violations
        result["failed"] = result["attempted"]
    return result


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        value = f"{m['value']:.6g}" if _finite(m["value"]) else "null"
        notes = []
        if m.get("samples") is not None:
            notes.append(f"n={m['samples']}")
        if _finite(m.get("raw")):
            notes.append(f"raw {m['raw']:.6g}")
        note = f"  ({', '.join(notes)})" if notes else ""
        print(f"  {name:<40}{value:>14} {m['unit']}{note}")


def print_outcome(name: str, result: dict) -> None:
    print(
        f"  {name}: {result['passes']} passes, {result['attempted']} pictures "
        f"attempted, {result['failed']} failed, {result['past_deadline']} past "
        "the 30 fps deadline"
    )
    for reason in result["failures"]:
        print(f"    FAILED: {reason}")


def run_ledger(spec: dict, args, deadline: float, already: dict):
    """The probes' ``(metrics, errors)``, units from BENCHMARK.json.

    The ledger never takes a run down with it: if the probes child
    itself dies, every per-layer metric not ``already`` reported by the
    traced passes is null and the death is the one error.
    """
    try:
        ledger, violations = run_child("probes", args, None, deadline)
        values, errors = ledger["values"], ledger["probe_errors"]
        if violations:
            errors["postconditions"] = "; ".join(violations)
    except BenchError as exc:
        values, errors = {}, {"probes": str(exc)}
    metrics = {
        m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
        for m in spec["per_layer"]
        if m["name"] in values or m["name"] not in already
    }
    return metrics, errors


def summary_line(results: list[dict], metrics: dict) -> str:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": m["value"], "unit": m["unit"]}
                for name, m in metrics.items()
            },
        }
    )


def write_result(path: str, doc: dict) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path)}")


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one pass: checks the harness only")
    parser.add_argument("--out", help="result JSON path (default bench/out/)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 0.0
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench: src/repro not found; nothing to measure", file=sys.stderr)
        return 2

    doc = {
        "schema": 1, "seed": args.seed, "smoke": args.smoke,
        "run_seconds": args.seconds, "env": environment(), "workloads": {},
    }
    print(f"seed {args.seed}  env {json.dumps(doc['env'])}")
    selected = [args.workload] if args.workload else names
    traces = (0, 1) if args.trace is None else (args.trace,)
    started = time.monotonic()

    def deadline() -> float:
        # One driver run shares one budget; a run of everything gives
        # each child its own.
        origin = started if args.workload else time.monotonic()
        return origin + RUN_BUDGET_S

    results: list[dict] = []
    final_metrics: dict = {}
    try:
        for name in selected:
            entry = doc["workloads"].setdefault(name, {})
            prefix = "" if args.workload else f"{name}/"
            for trace in traces:
                kind, key, title = MEASUREMENTS[trace]
                result = measure(kind, args, name, deadline())
                entry[key] = result
                results.append(result)
                print_metrics(f"{name}: {title}", result["metrics"])
                print_outcome(title, result)
                if "trace" in result:
                    print(f"  trace: {os.path.relpath(result['trace'])}")
                final_metrics.update(
                    {prefix + k: v for k, v in result["metrics"].items()}
                )
        if 1 in traces:
            doc["per_layer"], doc["probe_errors"] = run_ledger(
                spec, args, deadline(), already=final_metrics
            )
            print_metrics("per-layer ledger (probes)", doc["per_layer"])
            for probe, error in doc["probe_errors"].items():
                print(f"  PROBE FAILED: {probe}\n{error}")
            final_metrics.update(doc["per_layer"])
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    tag = args.workload or "all"
    kind = "" if args.trace is None else f"-trace{args.trace}"
    write_result(
        args.out or os.path.join(OUT_DIR, f"result-{tag}{kind}-seed{args.seed}.json"),
        doc,
    )
    print(summary_line(results, final_metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
