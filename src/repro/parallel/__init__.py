"""The paper's contribution: parallel MPEG-2 decoders on the simulated SMP.

Architecture (paper Fig. 4): one *scan* process locates tasks by start
code and feeds task queues; *worker* processes decode tasks; one
*display* process reorders decoded pictures into display order.  Two
decompositions are provided:

* :mod:`~repro.parallel.gop_level` — coarse tasks: whole closed GOPs
  (Section 5.1).  Few queue operations, no inter-worker communication,
  but memory grows with workers x GOP size x resolution and random
  access is slow.
* :mod:`~repro.parallel.slice_level` — fine tasks: slices within a
  picture via a 2-D picture/slice queue (Section 5.2).  Two variants:
  ``simple`` synchronises after every picture; ``improved`` only at
  reference (I/P) pictures, exploiting that consecutive B-pictures are
  mutually independent.

Both run on real bitstreams' profiles: workers replay each task's
exact work counters, recorded once by
:func:`~repro.parallel.profile.profile_stream`, through the cost model
— the simulated decoders are performance models and decode nothing.
Each simulated decoder is a scan body and a worker body on the one
shared run of :mod:`~repro.parallel.simrun`, whose display process
reorders and paces with the real runtime's :mod:`~repro.parallel.merge`
and :mod:`~repro.parallel.pacing`; the slice queue dispatches from the
real slice decoder's task graph (:mod:`repro.exec.plan`).

Beyond the simulation, :mod:`~repro.parallel.mp` runs the same
scan/worker/display architecture on *real* cores: OS worker processes
(no GIL), a ``multiprocessing.shared_memory`` frame pool, and a
display-order merger — the empirical counterpart of Fig. 5 measured by
``benchmarks/perf_parallel.py``.  :mod:`~repro.parallel.mp_slice` does
the same for the fine-grained decomposition: persistent slice workers
fed from the real 2-D picture/slice queue, with both the ``simple``
and ``improved`` barrier policies.  These two are what prove each
decomposition bit-exact against the sequential decoder.
"""

from repro.parallel.profile import (
    StreamProfile,
    GopProfile,
    PictureProfile,
    SliceProfile,
    profile_stream,
)
from repro.parallel.simrun import ParallelConfig, DecodeRunResult
from repro.parallel.gop_level import GopLevelDecoder
from repro.parallel.slice_level import SliceLevelDecoder, SliceMode
from repro.parallel.macroblock_level import MacroblockLevelDecoder
from repro.parallel.numa import PlacedGopDecoder, PlacementPolicy
from repro.parallel.pacing import Pacer
from repro.parallel.random_access import seek_latency, SeekLatency
from repro.parallel.stats import (
    speedup_curve,
    load_balance,
    sync_ratio,
    pictures_per_second,
)
from repro.parallel.memory_model import MemoryModel
from repro.parallel.mp import MPGopDecoder
from repro.parallel.merge import DisplayMerger
from repro.parallel.mp_slice import MPSliceDecoder, PictureSliceQueue

__all__ = [
    "MPGopDecoder",
    "MPSliceDecoder",
    "PictureSliceQueue",
    "DisplayMerger",
    "StreamProfile",
    "GopProfile",
    "PictureProfile",
    "SliceProfile",
    "profile_stream",
    "GopLevelDecoder",
    "SliceLevelDecoder",
    "SliceMode",
    "MacroblockLevelDecoder",
    "PlacedGopDecoder",
    "PlacementPolicy",
    "Pacer",
    "seek_latency",
    "SeekLatency",
    "ParallelConfig",
    "DecodeRunResult",
    "speedup_curve",
    "load_balance",
    "sync_ratio",
    "pictures_per_second",
    "MemoryModel",
]
