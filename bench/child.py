"""One measurement, in its own process.  ``bench/run.py`` starts these.

Three kinds of measurement, each a fresh interpreter so no pool, cache
or import survives from one to the next:

* ``e2e``    — two trials of: set the workload up from cold, run
  untraced passes for half of ``--seconds``, tear it down;
* ``traced`` — set up once, then alternate untraced and traced passes
  for ``--seconds``; writes the Chrome trace of the traced ones;
* ``probes`` — the per-layer ledger (``bench/probes.py``).

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

#: A run is this many complete trials: set up from cold, measure for an
#: equal share of ``--seconds``, tear down.  ``setup_s`` is the median of
#: the set-ups, and the trials' passes are pooled, so a slow spell of
#: the machine shorter than a run does not colour every sample.
TRIALS = 2


def run_e2e(args) -> dict:
    from bench import workloads
    from bench.machine import CorrectedTimer, SpeedGauge
    from bench.spans import NullRecorder

    trials = 1 if args.smoke else TRIALS
    gauge = SpeedGauge(workloads.worker_count())
    setups = []
    passes = []
    try:
        for _ in range(trials):
            timer = CorrectedTimer(gauge)
            workload = workloads.make(args.workload, args.seed, args.smoke)
            try:
                workload.setup(timer.lap)
                setups.append(timer)
                (measured,) = workloads.run_passes(
                    workload, [NullRecorder()], args.seconds / trials,
                    1 if args.smoke else 2, gauge,
                )
                passes += measured
            finally:
                workload.close()
    finally:
        gauge.close()
    metrics = workloads.summarise(passes, workload.paced)
    metrics["setup_s"] = {
        "value": statistics.median(t.corrected_s for t in setups),
        "unit": "s", "samples": len(setups),
        "values": [t.corrected_s for t in setups],
        "raw": statistics.median(t.raw_s for t in setups),
    }
    return {"metrics": metrics, **workloads.tally(passes)}


def run_traced(args) -> dict:
    from bench import workloads
    from bench.machine import SpeedGauge
    from bench.spans import NullRecorder, SpanRecorder

    recorder = SpanRecorder(args.workload)
    gauge = SpeedGauge(workloads.worker_count())
    workload = workloads.make(args.workload, args.seed, args.smoke)
    try:
        workload.setup()
        plain, traced = workloads.run_passes(
            workload, [NullRecorder(), recorder], args.seconds,
            1 if args.smoke else 2, gauge,
        )
    finally:
        workload.close()
        gauge.close()
    trace_path = os.path.join(args.out_dir, f"trace-{args.workload}.json")
    recorder.write_chrome(trace_path)

    def cpu_per_picture(passes):
        return statistics.median(
            p.cpu_s / p.slowdown / p.delivered for p in passes
        )

    pictures = sum(p.delivered for p in traced)
    self_s = recorder.self_seconds_by_layer()
    return {
        "metrics": {
            # Tracing costs CPU; on the paced workload it cannot cost
            # wall time, so the overhead is defined on CPU everywhere.
            "bench.trace_overhead_frac": {
                "value": cpu_per_picture(traced) / cpu_per_picture(plain) - 1.0,
                "unit": "frac", "samples": len(traced),
            },
            "bench.spans_per_picture": {
                "value": len(recorder.spans) / pictures,
                "unit": "count", "samples": pictures,
            },
            "bench.harness_self_frac": {
                "value": self_s.get("bench", 0.0)
                / sum(p.wall_s for p in traced),
                "unit": "frac", "samples": len(traced),
            },
        },
        **workloads.tally(plain + traced),
        "trace": trace_path,
        "layer_self_s": self_s,
    }


def run_probes(args) -> dict:
    from bench import probes
    from bench.spans import SpanRecorder

    recorder = SpanRecorder("probes")
    ctx = probes.make_context(args.seed, args.smoke, recorder)
    values, errors = probes.run_all(ctx)
    trace_path = os.path.join(args.out_dir, "trace-probes.json")
    recorder.write_chrome(trace_path)
    return {"values": values, "probe_errors": errors, "trace": trace_path}


KINDS = {"e2e": run_e2e, "traced": run_traced, "probes": run_probes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("kind", choices=sorted(KINDS))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    result = KINDS[args.kind](args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
