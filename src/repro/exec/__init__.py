"""``repro.exec``: one execution substrate for every parallel decode.

``repro.parallel.mp`` (GOP grain), ``repro.parallel.mp_slice`` (slice
grain) and ``repro.serve`` (multi-stream) are the same
scan/worker/display structure over different task queues.  They run on
one process runtime under one parent loop and differ only in the plan
and the policy they hand them:

* :mod:`repro.exec.shm` — the shared-memory substrate
  (:class:`FrameLayout`, :class:`SharedFramePool`,
  :class:`LocalFramePool`, :class:`StreamArena`).
* :mod:`repro.exec.backend` — the runtime: one worker main speaking
  one attach/task/detach protocol, :class:`WorkerTeam` (the only
  spawner, poller and reaper; owns each session's segments) and its
  in-process twin, the warm-team registry (:func:`get_team`), the
  liveness-polled result wait (:data:`LIVENESS_POLL_S`), canonical
  teardown and trace-shard collection.
* :mod:`repro.exec.graph` — typed task nodes with explicit dependency
  edges: the live ready set every parent dispatches from, and the
  conservation law that audits the run afterwards.
* :mod:`repro.exec.plan` — the three partitions as data: GOPs,
  slice batches (``simple`` / ``improved`` as edges) and the serve
  ref/B decomposition.
* :mod:`repro.exec.dispatch` — :class:`ParentLoop`, the one loop that
  moves work from a graph to a team and back (the callers override its
  policy hooks), and :class:`StreamDecoder`, one stream's lease.
* :mod:`repro.exec.auto` — the fixed rule ``auto`` resolves to:
  GOP grain, batched engine; a pinned axis stays pinned.
* :mod:`repro.exec.executor` — :class:`TaskGraphExecutor`, the
  unified front end behind ``--grain auto|gop|slice`` and
  ``--engine auto|scalar|batched``.
"""

from repro.exec.auto import AutoGranularity, Decision
from repro.exec.backend import (
    LIVENESS_POLL_S,
    WorkerTeam,
    collect_trace_shards,
    get_team,
    persistent_worker_pids,
    shutdown_persistent_pools,
)
from repro.exec.executor import TaskGraphExecutor
from repro.exec.graph import TaskGraph, TaskNode
from repro.exec.plan import plan_gop_graph, plan_slice_graph
from repro.exec.shm import (
    FrameLayout,
    FramePoolBase,
    LocalFramePool,
    SharedFramePool,
    StreamArena,
)

__all__ = [
    "AutoGranularity",
    "Decision",
    "LIVENESS_POLL_S",
    "WorkerTeam",
    "collect_trace_shards",
    "get_team",
    "persistent_worker_pids",
    "shutdown_persistent_pools",
    "TaskGraphExecutor",
    "TaskGraph",
    "TaskNode",
    "plan_gop_graph",
    "plan_slice_graph",
    "FrameLayout",
    "FramePoolBase",
    "LocalFramePool",
    "SharedFramePool",
    "StreamArena",
]
