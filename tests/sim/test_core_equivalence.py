"""Randomized equivalence: the engine's dispatch stream vs a reference
``heapq`` model.

A random tree of events — every dispatch may schedule up to three more,
through both ``Environment.schedule`` and ``Timeout`` — must run in
exactly sorted ``(time, seq)`` order, whichever way the environment is
driven: ``run()``, ``step()``/``run(until)`` hand-offs in the middle of
a tick, or ``run()`` under a first-ready schedule policy, which must
also be shown the ready sets (and log the fan-outs) of a plain heap fed
the same events.  Delay mixes cover delay-0 and same-tick bursts, tight
clusters, uniform spreads, ``1e308`` (and from there ``inf``) and
delays that underflow (``now + 1e-30 == now``).

The second half holds the sleep form to the same standard: a random
tree of *processes* — sleeping, spawning children, interrupting each
other mid-sleep — must produce the same dispatch stream, ``event_count``
and policy ready lists whether each wait is ``yield d`` or
``yield Timeout(env, d)``.
"""

import heapq
import random

import pytest

from repro.schedcheck.policies import PctPolicy
from repro.sim import Environment, Event, Interrupt, Timeout

DELAY_MIXES = {
    "dense_ticks": lambda rng: rng.choice([0.0, 0.0, 0.0, 1000.0]),
    "same_tick": lambda rng: rng.choice([5.0, 5.0, 10.0, 15.0]),
    "clustered": lambda rng: abs(rng.gauss(50.0, 10.0)),
    "uniform": lambda rng: rng.uniform(0.001, 1e6),
    "bimodal": lambda rng: (rng.uniform(0.5, 2.0) if rng.random() < 0.9
                            else rng.uniform(1e7, 1e9)),
    "far_future": lambda rng: (rng.uniform(1.0, 100.0)
                               if rng.random() < 0.7 else 1e308),
    "underflow": lambda rng: rng.choice([1e-30, 1e-30, 0.0, 3.0]),
}


class FirstReady:
    """The trivial policy; also checks each ready list it is shown."""

    def __init__(self, seq_of):
        self.seq_of = seq_of

    def choose(self, ready):
        keys = [(t, self.seq_of[ev]) for t, _seq, ev in ready]
        assert keys == sorted(keys) and len({t for t, _ in keys}) == 1
        return 0


def _drive(env, mode: str, seed: int, policy) -> None:
    """Run ``env`` dry: by ``run()``, by ``run()`` under ``policy``, or
    by ``step()``/``run(until)`` hand-offs in the middle of a tick."""
    if mode == "policy":
        env.set_schedule_policy(policy)
        env.run()
    elif mode == "run":
        env.run()
    else:
        # (_has_work, not peek() < inf: far_future reaches t == inf)
        driver = random.Random(seed)
        while env._has_work():
            for _ in range(driver.randrange(1, 4)):
                if env._has_work():
                    env.step()
            if driver.random() < 0.5:
                env.run(until=env.now)


def _dispatch_stream(mix: str, seed: int, mode: str):
    """Drive one random event tree in ``mode``; return the environment,
    what ran as ``(env.now, seq)`` per dispatch, and what was scheduled
    as ``(time, seq, born)`` — ``born`` being the dispatch step that
    scheduled the event (-1: before the run)."""
    rng = random.Random(f"{mix}-{seed}")
    delay_of = DELAY_MIXES[mix]
    env = Environment()
    records = []
    seq_of = {}
    ran = []
    budget = 400

    def spawn(born):
        nonlocal budget
        budget -= 1
        delay = delay_of(rng)
        t = env.now + delay
        if not t > env.now:
            t = env.now        # delay 0, or a delay that underflows
        if rng.random() < 0.5:
            ev = Timeout(env, delay)
        else:
            ev = Event(env)
            ev._value = None   # pre-triggered, like a process boot
            env.schedule(ev, delay)
        # nothing else schedules here, so this mirrors the engine's seq
        seq = len(records) + 1
        records.append((t, seq, born))
        seq_of[ev] = seq
        ev.callbacks.append(on_dispatch)

    def on_dispatch(ev):
        ran.append((env.now, seq_of[ev]))
        for _ in range(rng.randrange(0, 4)):
            if budget > 0:
                spawn(len(ran) - 1)

    for _ in range(rng.randrange(1, 25)):
        spawn(-1)
    _drive(env, mode, seed, FirstReady(seq_of))
    return env, ran, records


def _reference_fanouts(records, n_steps):
    """Ready-set sizes (where > 1) of a plain heapq model fed the same
    events at the same dispatch steps."""
    born_at = {}
    for t, seq, born in records:
        born_at.setdefault(born, []).append((t, seq))
    heap = list(born_at.get(-1, []))
    heapq.heapify(heap)
    fanouts = []
    for step in range(n_steps):
        n_ready = sum(1 for t, _seq in heap if t == heap[0][0])
        if n_ready > 1:
            fanouts.append(n_ready)
        heapq.heappop(heap)
        for entry in born_at.get(step, []):
            heapq.heappush(heap, entry)
    return fanouts


class TestQueueStreamEquivalence:
    @pytest.mark.parametrize("mode", ["run", "step", "policy"])
    @pytest.mark.parametrize("mix", list(DELAY_MIXES))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_pop_stream_matches_heapq(self, mode, mix, seed):
        env, ran, records = _dispatch_stream(mix, seed, mode)
        assert len(ran) > 25
        assert ran == sorted((t, seq) for t, seq, _born in records)
        # the workload draws from its rng in dispatch order, so any
        # reordering would also change what got scheduled
        assert (ran, records) == _dispatch_stream(mix, seed, "run")[1:]
        if mode == "policy":
            assert env.schedule_fanouts == _reference_fanouts(records, len(ran))
            assert env.schedule_decisions == [0] * len(env.schedule_fanouts)
        else:
            assert env.schedule_fanouts == []


class LastReady:
    """Always the *youngest* ready entry — every tie is reordered — and
    a log of each ready list as ``(time, seq, PCT task key)``."""

    def __init__(self):
        self.seen = []

    def choose(self, ready):
        self.seen.append([(t, seq, PctPolicy._task_key((t, seq, ev)))
                          for t, seq, ev in ready])
        return len(ready) - 1


def _process_stream(mix: str, seed: int, mode: str, form: str):
    """Drive a random tree of sleeping processes in ``mode``, each wait
    written as ``form`` (``"sleep"``: ``yield d``; ``"timeout"``:
    ``yield Timeout(env, d)``).  Returns everything observable: what
    ran as ``(env.now, pid, step, interrupted)``, ``event_count``, final
    time, and the policy's ready lists, decisions and fan-outs."""
    rng = random.Random(f"proc-{mix}-{seed}")
    delay_of = DELAY_MIXES[mix]
    env = Environment()
    ran = []
    started = []   # an interrupt must find its target past its boot event
    budget = 300

    def wait(delay):
        return delay if form == "sleep" else Timeout(env, delay)

    def body(depth):
        nonlocal budget
        me = env.active_process
        started.append(me)
        for step in range(rng.randrange(4, 20)):
            if budget <= 0:
                return
            budget -= 1
            interrupted = False
            try:
                yield wait(delay_of(rng))
            except Interrupt:
                interrupted = True
            ran.append((env.now, me.pid, step, interrupted))
            roll = rng.random()
            if roll < 0.25 and depth < 3:
                env.process(body(depth + 1))
            elif roll < 0.45:
                # the target is mid-sleep, or still owed an earlier
                # interrupt of this tick (they stack), or this process
                # itself, or finished (a no-op)
                rng.choice(started).interrupt("poke")

    for _ in range(rng.randrange(3, 8)):
        env.process(body(0))
    policy = LastReady()
    _drive(env, mode, seed, policy)
    return (ran, env.event_count, env.now, policy.seen,
            list(env.schedule_decisions), list(env.schedule_fanouts))


class TestSleepMatchesTimeout:
    @pytest.mark.parametrize("mode", ["run", "step", "policy"])
    @pytest.mark.parametrize("mix", list(DELAY_MIXES))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_stream_either_form(self, mode, mix, seed):
        slept = _process_stream(mix, seed, mode, "sleep")
        timed = _process_stream(mix, seed, mode, "timeout")
        assert len(slept[0]) > 10
        assert slept == timed
        if mode == "policy":
            assert slept[5] and all(n > 1 for n in slept[5])

    def test_interrupts_leave_stale_entries_behind(self):
        """The walk above must actually exercise the disarmed-entry
        path, or it proves nothing about it."""
        ran, events, *_ = _process_stream("same_tick", 1, "run", "sleep")
        assert any(interrupted for *_rest, interrupted in ran)
        # every wait that ran and every stale slot is one counted event
        assert events > len(ran)
