"""Schedule policies: who runs next when several events tie on sim time.

The :class:`~repro.sim.core.Environment` dispatches events in
``(time, seq)`` order; a policy overrides the ``seq`` part of that order
— *only* among events ready at the same simulated instant, so the clock
and every event's timestamp are untouched.  Reordering a tie is exactly
the freedom a real machine has when two CPUs race to the same cache line
in the same nanosecond, which is why exploring these choices exposes
interleaving bugs (lost wakeups, handoff races, victim livelock) that a
fixed insertion order executes past forever.

Policies see the ready list as the raw schedule entries ``(time, seq,
event)`` — ``event`` being an :class:`~repro.sim.core.Event` or a
sleeping process's ``_Sleep`` entry — ordered by ascending ``seq``:
**index 0 is always the choice the default scheduler would have made**,
so :class:`FifoPolicy` reproduces un-policied runs bit for bit.

All randomness is drawn from seeded streams via
:func:`repro.common.rng.derive_seed` — a policy seed fully determines
the schedule, across processes and ``PYTHONHASHSEED`` values.  Draws go
through :class:`repro.common.rng.Draws`, which returns exactly what the
numpy ``Generator`` over the same seed would, at a fraction of the cost
of a numpy scalar call per choice point.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.common.errors import ConfigError
from repro.common.rng import Draws, derive_seed
from repro.schedcheck.decisions import Decisions
from repro.sim.core import Event, Process, _Echo, _Sleep


#: schedule entry shape policies receive: (time, seq, event or sleep)
ReadyEntry = "tuple[float, int, Event | _Sleep]"


class SchedulePolicy:
    """Base class: pick the index of the event to dispatch next.

    ``ready`` holds at least two entries, ordered by insertion (``seq``).
    Implementations must be deterministic functions of their constructor
    arguments and the sequence of ``choose`` calls.
    """

    def choose(self, ready: Sequence[tuple]) -> int:
        raise NotImplementedError


class FifoPolicy(SchedulePolicy):
    """The default tie-break, reified: always the oldest ready event.

    Installing this policy must reproduce a policy-less run exactly
    (same trace, same metrics, same final time) — guarded by a
    regression test; it exists so exploration infrastructure can be
    exercised on the baseline schedule.
    """

    def choose(self, ready: Sequence[tuple]) -> int:
        return 0


class RandomWalkPolicy(SchedulePolicy):
    """Uniform random choice among ready events — the simplest explorer.

    Good at shaking out races that need one or two flips anywhere in the
    run; the expected coverage decays for bugs needing a *specific*
    sequence of flips (use :class:`PctPolicy` or exhaustive enumeration
    for those).
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._draws = Draws.seeded(
            derive_seed(self.seed, "schedcheck", "random-walk"))

    def choose(self, ready: Sequence[tuple]) -> int:
        return self._draws.below(len(ready))


class PctPolicy(SchedulePolicy):
    """PCT-style priority scheduling with random change points.

    Each *task* (the process an event would resume; standalone events
    are their own task) gets a random priority on first sight; every
    choice dispatches the highest-priority ready task.  At ``d - 1``
    pre-drawn change points the winning task's priority drops below all
    others — the mechanism by which PCT covers bugs of depth ``d`` with
    provable probability (Burckhardt et al., ASPLOS'10), adapted here to
    tie-break points rather than every scheduling step.

    Args:
        seed: policy seed (fully determines priorities + change points).
        change_points: how many priority inversions to inject (d - 1).
        horizon: expected number of choice points in a run; change
            points are drawn uniformly from ``[1, horizon]``.
    """

    def __init__(self, seed: int, change_points: int = 3, horizon: int = 500):
        if change_points < 0:
            raise ConfigError(f"change_points must be >= 0, got {change_points}")
        if horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {horizon}")
        self.seed = int(seed)
        self.change_points = change_points
        self.horizon = horizon
        self._draws = draws = Draws.seeded(
            derive_seed(self.seed, "schedcheck", "pct", change_points, horizon))
        self._changes = {1 + draws.below(horizon) for _ in range(change_points)}
        self._prio: dict[tuple, float] = {}
        self._floor = 0.0          # demoted tasks stack below this
        self._steps = 0

    @staticmethod
    def _task_key(entry: tuple) -> tuple:
        """Stable identity of the task an event resumes: the waiting
        process's pid when there is one, else the event's own seq.  A
        sleep entry resumes its owner; one an interrupt disarmed resumes
        nobody, like an abandoned ``Timeout``."""
        _time, seq, event = entry
        if event.__class__ is _Sleep:
            return ("p", event.pid) if event.seq == seq else ("e", seq)
        if isinstance(event, _Echo):
            callbacks = [event._fn]
        else:
            callbacks = event.callbacks or []
        for cb in callbacks:
            owner = getattr(cb, "__self__", None)
            if isinstance(owner, Process):
                return ("p", owner.pid)
        return ("e", seq)

    def choose(self, ready: Sequence[tuple]) -> int:
        self._steps += 1
        best_idx = 0
        best_prio = -math.inf
        best_key = None
        for i, entry in enumerate(ready):
            key = self._task_key(entry)
            prio = self._prio.get(key)
            if prio is None:
                prio = self._draws.random()
                self._prio[key] = prio
            if prio > best_prio:
                best_idx, best_prio, best_key = i, prio, key
        if self._steps in self._changes and best_key is not None:
            # change point: demote the winner below everything seen so far
            self._floor -= 1.0
            self._prio[best_key] = self._floor
        return best_idx


class ReplayPolicy(SchedulePolicy):
    """Re-executes a recorded decision string.

    Choice points are numbered in dispatch order; at point ``k`` the
    policy plays ``decisions[k]`` (0 — the default — for points the
    string does not mention, which is what makes shrunk/truncated
    strings replayable).  Out-of-range choices are clamped to the last
    ready index so edited strings stay executable.

    Both forgiving behaviours are exactly wrong for a *corpus* replay,
    where the decision string is a contract against a specific scenario
    build: if the scenario has drifted under the recording (fewer choice
    points, narrower fanouts), clamping and played-past-the-end defaults
    silently execute a schedule the recording never described.  The
    policy therefore tracks what actually happened — ``consumed`` choice
    points and every ``clamped`` pick — and
    :func:`~repro.schedcheck.explore.replay` with ``strict=True`` turns
    any drift into a distinct ``"stale"`` failure instead of a bogus
    pass/fail verdict.
    """

    def __init__(self, decisions: "Decisions | dict[int, int] | None"):
        if decisions is None:
            decisions = Decisions()
        elif isinstance(decisions, dict):
            decisions = Decisions.from_mapping(decisions)
        self.decisions = decisions
        self._k = 0
        #: recorded (choice_index, wanted, fanout) for every clamped pick
        self.clamped: list[tuple[int, int, int]] = []

    @property
    def consumed(self) -> int:
        """Choice points the replayed run actually reached."""
        return self._k

    def choose(self, ready: Sequence[tuple]) -> int:
        idx = self.decisions.get(self._k)
        if idx >= len(ready):
            self.clamped.append((self._k, idx, len(ready)))
            idx = len(ready) - 1
        self._k += 1
        return idx

    def drift(self) -> "list[str]":
        """Mismatches between the recording and the run just executed:
        empty when the replay was faithful.  Meaningful only after the
        run completes."""
        problems = []
        for k, wanted, fanout in self.clamped:
            problems.append(f"decision {k}:{wanted} clamped to "
                            f"{fanout - 1} (only {fanout} ready)")
        if self.decisions.last_index >= self._k:
            unreached = [f"{k}:{v}" for k, v in self.decisions.items()
                         if k >= self._k]
            problems.append(
                f"run ended after {self._k} choice points, before "
                f"recorded decision(s) {','.join(unreached)}")
        return problems


def make_policy(kind: str, seed: int, *,
                change_points: int = 3, horizon: int = 500) -> SchedulePolicy:
    """Policy factory used by the explorer and the CLI."""
    if kind == "fifo":
        return FifoPolicy()
    if kind == "random":
        return RandomWalkPolicy(seed)
    if kind == "pct":
        return PctPolicy(seed, change_points=change_points, horizon=horizon)
    raise ConfigError(f"unknown schedule policy {kind!r}; "
                      f"known: fifo, random, pct")


__all__ = [
    "SchedulePolicy", "FifoPolicy", "RandomWalkPolicy", "PctPolicy",
    "ReplayPolicy", "make_policy",
]
