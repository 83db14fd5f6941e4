"""NUMA-aware GOP decoding: placement + task stealing (Section 7.2).

The paper proposes, for distributed-shared-memory machines, replacing
the single GOP task queue with "a task queue per processor, having a
processor be assigned the tasks corresponding to GOPs that are loaded
into its local memory (GOPs may be loaded in round-robin order among
memories), and then have them steal tasks from other queues for load
balancing".  It conjectures (from the low communication miss rate and
small working sets) that this should work well on moderate-scale
machines.

This module implements that design: per-*cluster* task queues,
round-robin GOP placement into cluster memories, and work stealing.
A locally-placed task touches mostly local memory (small remote
fraction); a stolen task streams its input and writes its output
across the interconnect (large remote fraction).  The ablation
benchmark compares it against the no-placement baseline the paper
measured on DASH.

The per-cluster queues, the scan body and the worker body live here;
they run on the shared :class:`~repro.parallel.simrun.SimRun`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.obs.stalls import REASON_QUEUE_GET
from repro.parallel.profile import StreamProfile
from repro.parallel.simrun import DecodeRunResult, ParallelConfig, SimRun
from repro.smp.engine import Compute, Process, SignalCondition, WaitCondition
from repro.smp.sync import Condition


@dataclass
class PlacementPolicy:
    """Remote-traffic fractions for placed vs stolen GOP tasks.

    A local task still sees some remote traffic (the shared display
    queue, reference pictures of GOPs placed elsewhere never matter —
    GOPs are closed); a stolen task's stream bytes and frame stores
    live in the victim cluster's memory.
    """

    local_remote_fraction: float = 0.10
    stolen_remote_fraction: float = 0.85


@dataclass
class _ClusterQueues:
    """Per-cluster GOP task queues with a shared wakeup condition."""

    clusters: int
    op_cycles: int
    queues: list[deque] = field(init=False)
    closed: bool = False
    cond: Condition = field(init=False)
    #: (gop_index -> cluster) placement map, for diagnostics.
    placement: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.queues = [deque() for _ in range(self.clusters)]
        self.cond = Condition("cluster-queues", reason=REASON_QUEUE_GET)

    # -- scan side -------------------------------------------------------
    def put(self, cluster: int, gop_index: int):
        self.queues[cluster].append(gop_index)
        self.placement[gop_index] = cluster
        yield Compute(self.op_cycles)
        yield SignalCondition(self.cond)

    def close(self):
        self.closed = True
        yield SignalCondition(self.cond)

    # -- worker side ------------------------------------------------------
    def get(self, home: int):
        """Take from the home queue, else steal from the fullest queue.

        Returns ``(gop_index, stolen)`` or ``None`` at end of stream.
        """
        while True:
            if self.queues[home]:
                gop_index = self.queues[home].popleft()
                yield Compute(self.op_cycles)
                return gop_index, False
            victim = max(
                (c for c in range(self.clusters) if c != home),
                key=lambda c: len(self.queues[c]),
                default=None,
            )
            if victim is not None and self.queues[victim]:
                gop_index = self.queues[victim].popleft()
                # Stealing costs an extra remote queue transaction.
                yield Compute(2 * self.op_cycles)
                return gop_index, True
            if self.closed:
                return None
            yield WaitCondition(self.cond)


class PlacedGopDecoder:
    """GOP-level decoder with round-robin placement and task stealing."""

    def __init__(
        self, profile: StreamProfile, policy: PlacementPolicy | None = None
    ) -> None:
        self.profile = profile
        self.policy = policy or PlacementPolicy()

    def run(self, config: ParallelConfig) -> DecodeRunResult:
        machine = config.machine
        if not machine.is_numa:
            raise ValueError("PlacedGopDecoder needs a NUMA machine config")
        profile = self.profile
        cost = config.cost
        clusters = max(machine.processors // machine.cluster_size, 1)
        run = SimRun(profile, config)
        sim, memory = run.sim, run.memory
        queues = _ClusterQueues(clusters=clusters, op_cycles=cost.queue_op_cycles)
        fbytes = profile.frame_bytes
        stolen_count = 0

        def scan_body(proc: Process):
            for gop in profile.gops:
                yield Compute(cost.scan_cycles(gop.wire_bytes))
                memory.allocate(sim.now, gop.wire_bytes, "stream")
                yield from queues.put(gop.index % clusters, gop.index)
            yield from queues.close()

        def worker_body(proc: Process, wid: int):
            nonlocal stolen_count
            home = machine.cluster_of(wid)
            while True:
                task = yield from queues.get(home)
                if task is None:
                    break
                gop_index, stolen = task
                if stolen:
                    stolen_count += 1
                remote = (
                    self.policy.stolen_remote_fraction
                    if stolen
                    else self.policy.local_remote_fraction
                )
                gop = profile.gops[gop_index]
                for pic in gop.pictures:
                    memory.allocate(sim.now, fbytes, "frames")
                    yield from run.work(
                        cost.decode_cycles(pic.total_counters()), remote
                    )
                    yield from run.display_queue.put((pic.display_index, None))
                memory.free(sim.now, gop.wire_bytes, "stream")

        result = run.run(
            scan_body, worker_body,
            shown=lambda _item: memory.free(sim.now, fbytes, "frames"),
        )
        # Stash the stealing diagnostics on the result object.
        result.stolen_tasks = stolen_count  # type: ignore[attr-defined]
        result.placement = dict(queues.placement)  # type: ignore[attr-defined]
        return result
