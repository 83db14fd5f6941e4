"""Multi-stream decode service: many bitstreams, one worker pool.

The paper decodes *one* stream in real time; the ROADMAP's north star
is a service that decodes *many* concurrently for many users.  This
package is that next layer up: N MPEG-2 sessions multiplexed onto one
shared pool of decode worker processes, with

* per-stream state in :class:`~repro.serve.session.StreamSession`
  (scan index, picture plans and their task decomposition — one task
  per picture, waiting only for that picture's reference pictures, the
  improved slice plan's edges —, reorder buffer, wall-clock display
  deadlines the net edge also sends by, priority weight);
* a weighted-fair :class:`~repro.serve.scheduler.Scheduler` with
  admission control (capacity defaults to one session per worker
  slot) and bounded per-session in-flight work (backpressure);
* overload degradation (:mod:`repro.serve.degrade`): sessions that
  miss display deadlines first shed B-picture tasks (legal — B
  pictures are non-reference, the same property the improved slice
  barrier exploits), then skip whole GOPs, emitting ``degrade.*``
  stall reasons into :mod:`repro.obs`;
* robustness in :class:`~repro.serve.service.DecodeService`: per-task
  timeouts on the PR-4 liveness machinery, dead-worker task retry with
  per-task ``excluded`` worker tracking, and corrupt-input containment
  — one poisoned stream fails *its* session, never the service.

SLOs are judged at the net edge (:mod:`repro.net.server`), from what
its clients report, not here.
"""

from repro.serve.degrade import DegradePolicy, DegradeState
from repro.serve.scheduler import Admission, Scheduler, ServeTask
from repro.serve.service import DecodeService
from repro.serve.session import SessionStatus, StreamSession

__all__ = [
    "Admission",
    "DecodeService",
    "DegradePolicy",
    "DegradeState",
    "Scheduler",
    "ServeTask",
    "SessionStatus",
    "StreamSession",
]
