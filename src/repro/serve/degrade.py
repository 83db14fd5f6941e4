"""Overload degradation policy: shed work before missing everything.

A real-time decode service past saturation has exactly two honest
options: shed load or fall behind on *every* deadline.  MPEG-2's
picture-type hierarchy gives a principled shedding order (the same
dependency structure Mastronarde et al. exploit in their MDP
scheduler, and the one the improved slice barrier is built on):

=======  ==========================  ================================
level    action                      why it is safe
=======  ==========================  ================================
0        decode everything           —
0        ``switch_rung``: downshift  a lower-resolution rung of the
         the session to a cheaper    same content is a *complete*
         ABR rung (opt-in, fires     decode, not a partial one; every
         before any picture is       picture is still emitted
         shed)
1        ``drop_b``: shed pending    B pictures are never reference
         B-picture tasks, a couple   pictures; nothing downstream
         of GOPs at a time           decodes from them
2        ``skip_gop``: drop whole    closed GOPs carry no state
         not-yet-started GOPs        across their boundary
=======  ==========================  ================================

The rung switch is the ABR ladder move of the VVC embedded-decoder
line of work recast as a degrade action: when a per-rung cost profile
says a cheaper encoding of the same stream exists, switching to it is
strictly kinder than dropping B pictures, so it is tried first.  It
fires at most once per session (there is no upshift path), only when
the policy opts in via ``switch_rung_after``.

:class:`DegradeState` is a tiny hysteresis machine driven by the
per-picture deadline verdicts from
:class:`repro.parallel.pacing.Pacer`: consecutive misses
escalate, consecutive on-time emissions de-escalate.  It is pure logic
(no clock, no scheduler) so the property suite can sweep it; the
service wires its actions to
:meth:`repro.serve.scheduler.Scheduler.drop_b_tasks` /
:meth:`~repro.serve.scheduler.Scheduler.skip_next_gop` and records the
shed work under the ``degrade.*`` stall reasons in
:mod:`repro.obs.stalls`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Actions a :class:`DegradeState` can request.
ACTION_SWITCH_RUNG = "switch_rung"
ACTION_DROP_B = "drop_b"
ACTION_SKIP_GOP = "skip_gop"


@dataclass(frozen=True)
class DegradePolicy:
    """Thresholds for the degradation state machine.

    ``drop_b_after`` consecutive deadline misses enter level 1 (and
    every further ``drop_b_after``-miss run at level 1 sheds B tasks
    of ``drop_b_gops`` more GOPs); ``skip_gop_after`` further misses
    escalate to level 2, where each ``drop_b_after``-miss run skips
    one whole unstarted GOP.  ``recover_after`` consecutive on-time
    pictures step one level back down.
    """

    drop_b_after: int = 3
    skip_gop_after: int = 6
    recover_after: int = 8
    #: GOPs whose pending B tasks one ``drop_b`` action sheds.
    drop_b_gops: int = 2
    #: Consecutive misses before a one-shot ``switch_rung`` downshift.
    #: ``None`` disables the ABR rung (default: pure shed policy).
    #: When enabled it must not exceed ``drop_b_after`` so the ladder
    #: move always precedes the first shed.
    switch_rung_after: int | None = None

    def __post_init__(self) -> None:
        if self.drop_b_after < 1:
            raise ValueError("drop_b_after must be >= 1")
        if self.switch_rung_after is not None:
            if self.switch_rung_after < 1:
                raise ValueError("switch_rung_after must be >= 1")
            if self.switch_rung_after > self.drop_b_after:
                raise ValueError(
                    "switch_rung_after must be <= drop_b_after "
                    "(the rung switch must fire before drop_b)"
                )
        if self.skip_gop_after < 1:
            raise ValueError("skip_gop_after must be >= 1")
        if self.recover_after < 1:
            raise ValueError("recover_after must be >= 1")
        if self.drop_b_gops < 1:
            raise ValueError("drop_b_gops must be >= 1")


@dataclass
class DegradeState:
    """Per-session hysteresis machine over deadline verdicts."""

    policy: DegradePolicy = field(default_factory=DegradePolicy)
    level: int = field(default=0, init=False)
    miss_streak: int = field(default=0, init=False)
    hit_streak: int = field(default=0, init=False)
    #: Action counters (also mirrored into the metrics registry by the
    #: service): how many times each action fired.
    drop_b_actions: int = field(default=0, init=False)
    skip_gop_actions: int = field(default=0, init=False)
    switch_rung_actions: int = field(default=0, init=False)
    #: One-shot latch: a session downshifts its rung at most once.
    rung_switched: bool = field(default=False, init=False)
    #: Every action fired, in firing order — the benchmark gate asserts
    #: ``switch_rung`` precedes ``drop_b`` from this record.
    actions: list[str] = field(default_factory=list, init=False)
    #: High-water mark of the degradation level.
    max_level: int = field(default=0, init=False)

    def _fire(self, action: str) -> str:
        self.actions.append(action)
        return action

    def on_emit(self, late: bool) -> str | None:
        """Feed one picture's deadline verdict; maybe return an action.

        Returns :data:`ACTION_SWITCH_RUNG`, :data:`ACTION_DROP_B`,
        :data:`ACTION_SKIP_GOP`, or ``None``.
        """
        p = self.policy
        if not late:
            self.hit_streak += 1
            self.miss_streak = 0
            if self.level > 0 and self.hit_streak >= p.recover_after:
                self.level -= 1
                self.hit_streak = 0
            return None
        self.miss_streak += 1
        self.hit_streak = 0
        if self.level == 0:
            if (
                p.switch_rung_after is not None
                and not self.rung_switched
                and self.miss_streak >= p.switch_rung_after
            ):
                # ABR ladder first: a cheaper complete decode beats any
                # shed.  Resetting the miss streak guarantees drop_b
                # needs a further full run of misses, so the rung
                # switch always precedes the first shed action.
                self.rung_switched = True
                self.miss_streak = 0
                self.switch_rung_actions += 1
                return self._fire(ACTION_SWITCH_RUNG)
            if self.miss_streak >= p.drop_b_after:
                self.level = 1
                self.max_level = max(self.max_level, self.level)
                self.miss_streak = 0
                self.drop_b_actions += 1
                return self._fire(ACTION_DROP_B)
            return None
        if self.level == 1:
            if self.miss_streak >= p.skip_gop_after:
                self.level = 2
                self.max_level = max(self.max_level, self.level)
                self.miss_streak = 0
                self.skip_gop_actions += 1
                return self._fire(ACTION_SKIP_GOP)
            if self.miss_streak % p.drop_b_after == 0:
                self.drop_b_actions += 1
                return self._fire(ACTION_DROP_B)
            return None
        # level 2: keep skipping ahead while the misses keep coming.
        if self.miss_streak >= p.drop_b_after:
            self.miss_streak = 0
            self.skip_gop_actions += 1
            return self._fire(ACTION_SKIP_GOP)
        return None

    def snapshot(self) -> dict:
        return {
            "level": self.level,
            "max_level": self.max_level,
            "drop_b_actions": self.drop_b_actions,
            "skip_gop_actions": self.skip_gop_actions,
            "switch_rung_actions": self.switch_rung_actions,
            "actions": list(self.actions),
        }
