"""The benchmark's own span recorder.

Spans are recorded around the benchmark's calls into each layer (the
program's internal tracer is a separate thing and stays off unless a
probe measures it).  Parents are passed explicitly rather than kept on
a stack, so concurrent asyncio sessions nest correctly.  Spans stay in
memory and are written as Chrome trace JSON when the run ends.

A span's *layer* is its name up to the first dot (``mpeg2.decode_gop``
-> ``mpeg2``); ``bench`` is the harness itself.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager


class SpanRecorder:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        #: [name, start_ns, end_ns, parent_id_or_None, lane, args]
        self.spans: list[list] = []

    @contextmanager
    def span(self, name: str, parent: int | None = None, lane: int = 0, **args):
        sid = len(self.spans)
        record = [name, time.perf_counter_ns(), 0, parent, lane, args]
        self.spans.append(record)
        try:
            yield sid
        finally:
            record[2] = time.perf_counter_ns()

    # ------------------------------------------------------------------
    def self_seconds_by_layer(self) -> dict[str, float]:
        """Per layer: span time not covered by the span's own children."""
        children: dict[int, list[tuple[int, int]]] = {}
        for _name, start, end, parent, _lane, _args in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out: dict[str, float] = {}
        for sid, (name, start, end, _parent, _lane, _args) in enumerate(self.spans):
            covered = 0
            cursor = start
            # Children of a concurrent parent overlap; count their union.
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start = max(c_start, cursor)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start - covered) / 1e9
        return out

    def to_chrome(self) -> dict:
        pid = os.getpid()
        events = []
        for sid, (name, start, end, parent, lane, args) in enumerate(self.spans):
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": start / 1e3,
                    "dur": (end - start) / 1e3,
                    "pid": pid,
                    "tid": lane,
                    "args": {
                        "id": sid,
                        "parent": parent,
                        "workload": self.workload,
                        **args,
                    },
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.to_chrome(), fh)


class NullRecorder:
    """The recorder the end-to-end passes run with: records nothing."""

    @contextmanager
    def span(self, name: str, parent: int | None = None, lane: int = 0, **args):
        yield None
