"""Unit tests for the discrete-event engine core."""

import hashlib
import heapq
import random

import pytest

from repro.common.errors import ConfigError, SimulationError
from repro.sim import AllOf, AnyOf, Environment, Event, Interrupt, Timeout, core_info

from tests.conftest import profiling


@pytest.fixture()
def env():
    return Environment()


class TestClock:
    def test_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_custom_initial_time(self):
        assert Environment(100.0).now == 100.0

    def test_timeout_advances_clock(self, env):
        done = {}

        def proc():
            yield env.timeout(50)
            done["t"] = env.now

        env.process(proc())
        env.run()
        assert done["t"] == 50

    def test_run_until_time_sets_now(self, env):
        def noop():
            yield env.timeout(1)

        env.process(noop())
        env.run(until=1000)
        assert env.now == 1000

    def test_non_generator_process_rejected(self, env):
        with pytest.raises(SimulationError):
            env.process(iter(()))  # plain iterators have no send()

    def test_run_until_past_raises(self, env):
        env.run(until=10)
        with pytest.raises(SimulationError):
            env.run(until=5)

    def test_peek_empty_is_inf(self, env):
        assert env.peek() == float("inf")

    def test_step_empty_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()


class TestTimeout:
    def test_negative_delay_rejected(self, env):
        with pytest.raises(SimulationError):
            Timeout(env, -1)

    def test_timeout_value_passthrough(self, env):
        got = {}

        def proc():
            got["v"] = yield env.timeout(5, value="payload")

        env.process(proc())
        env.run()
        assert got["v"] == "payload"

    def test_simultaneous_timeouts_fifo(self, env):
        order = []

        def proc(tag):
            yield env.timeout(10)
            order.append(tag)

        for tag in "abc":
            env.process(proc(tag))
        env.run()
        assert order == ["a", "b", "c"]


class TestEvent:
    def test_succeed_delivers_value(self, env):
        ev = env.event()
        got = {}

        def proc():
            got["v"] = yield ev

        env.process(proc())
        ev.succeed(42)
        env.run()
        assert got["v"] == 42

    def test_double_trigger_raises(self, env):
        ev = env.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_raises_in_waiter(self, env):
        ev = env.event()
        caught = {}

        def proc():
            try:
                yield ev
            except ValueError as exc:
                caught["e"] = exc

        env.process(proc())
        ev.fail(ValueError("boom"))
        env.run()
        assert isinstance(caught["e"], ValueError)

    def test_fail_requires_exception(self, env):
        with pytest.raises(SimulationError):
            env.event().fail("not an exception")  # type: ignore[arg-type]

    def test_wait_on_processed_event_resumes(self, env):
        """A process that yields an already-processed event continues."""
        ev = env.event()
        ev.succeed("early")
        env.run()
        got = {}

        def proc():
            got["v"] = yield ev

        env.process(proc())
        env.run()
        assert got["v"] == "early"

    def test_value_before_trigger_raises(self, env):
        ev = env.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_multiple_waiters_all_resumed(self, env):
        ev = env.event()
        got = []

        def proc(i):
            v = yield ev
            got.append((i, v))

        for i in range(3):
            env.process(proc(i))
        ev.succeed("x")
        env.run()
        assert got == [(0, "x"), (1, "x"), (2, "x")]


class TestProcess:
    def test_return_value_is_event_value(self, env):
        def inner():
            yield env.timeout(1)
            return 99

        def outer():
            v = yield env.process(inner())
            return v + 1

        p = env.process(outer())
        env.run()
        assert p.value == 100

    def test_yield_non_event_fails_process(self, env):
        def bad():
            yield 42

        p = env.process(bad())
        env.run()
        assert not p.ok
        assert isinstance(p.value, SimulationError)

    def test_exception_propagates_to_parent(self, env):
        def inner():
            yield env.timeout(1)
            raise RuntimeError("inner failed")

        caught = {}

        def outer():
            try:
                yield env.process(inner())
            except RuntimeError as exc:
                caught["e"] = exc

        env.process(outer())
        env.run()
        assert str(caught["e"]) == "inner failed"

    def test_is_alive_lifecycle(self, env):
        def proc():
            yield env.timeout(10)

        p = env.process(proc())
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_interrupt_delivers_cause(self, env):
        caught = {}

        def victim():
            try:
                yield env.timeout(1000)
            except Interrupt as intr:
                caught["cause"] = intr.cause
                caught["time"] = env.now

        def attacker(p):
            yield env.timeout(10)
            p.interrupt("stop it")

        p = env.process(victim())
        env.process(attacker(p))
        env.run()
        assert caught["cause"] == "stop it"
        assert caught["time"] == 10

    def test_interrupt_finished_process_noop(self, env):
        def quick():
            yield env.timeout(1)

        p = env.process(quick())
        env.run()
        p.interrupt()  # must not raise

    def test_unhandled_interrupt_fails_process(self, env):
        def victim():
            yield env.timeout(1000)

        def attacker(p):
            yield env.timeout(1)
            p.interrupt("kill")

        p = env.process(victim())
        env.process(attacker(p))
        env.run()
        assert not p.ok
        assert isinstance(p.value, Interrupt)

    def test_run_until_event(self, env):
        def proc():
            yield env.timeout(7)
            return "done"

        p = env.process(proc())
        assert env.run(until=p) == "done"
        assert env.now == 7

    def test_run_until_event_deadlock_detected(self, env):
        ev = env.event()  # never triggered

        def proc():
            yield ev

        p = env.process(proc())
        with pytest.raises(SimulationError):
            env.run(until=p)

    def test_deadlock_error_names_alive_processes(self, env):
        """The deadlock diagnostic must say *who* is stuck: process
        names, pids, last-resumed times, and what they wait on."""
        ev = env.event()  # never triggered

        def early():
            yield ev

        def late():
            yield env.timeout(42)
            yield ev

        env.process(early(), name="early-waiter")
        p_late = env.process(late(), name="late-waiter")
        with pytest.raises(SimulationError) as exc_info:
            env.run(until=p_late)
        msg = str(exc_info.value)
        assert "early-waiter" in msg and "late-waiter" in msg
        assert "last resumed at 0.0 ns" in msg      # early never re-ran
        assert "last resumed at 42.0 ns" in msg     # late ran once
        assert "waiting on" in msg

    def test_describe_alive_caps_output(self, env):
        ev = env.event()

        def proc():
            yield ev

        for i in range(12):
            env.process(proc(), name=f"w{i}")
        env.run()  # drains the (empty) schedule; all 12 still alive
        desc = env.describe_alive(limit=8)
        assert "w0" in desc and "w7" in desc
        assert "... and 4 more" in desc

    def test_nested_processes_three_deep(self, env):
        def level(n):
            if n == 0:
                yield env.timeout(5)
                return 1
            v = yield env.process(level(n - 1))
            return v + 1

        p = env.process(level(3))
        env.run()
        assert p.value == 4
        assert env.now == 5


class TestSleep:
    """``yield <float delay>``: the allocation-free way to let time pass."""

    def test_sleep_advances_clock_and_resumes_with_none(self, env):
        got = []

        def proc():
            got.append((yield 5.0))
            got.append(env.now)
            got.append((yield 0.0))
            got.append(env.now)

        env.process(proc())
        env.run()
        assert got == [None, 5.0, None, 5.0]

    def test_each_sleep_is_one_event(self, env):
        def proc():
            for _ in range(10):
                yield 1.0

        env.process(proc())
        env.run()
        # boot + 10 sleeps + the process's own completion
        assert env.event_count == 12

    @pytest.mark.parametrize("bad", [5, True, -1.0, float("nan"), "5.0", None])
    def test_anything_but_a_nonnegative_float_fails_loudly(self, env, bad):
        reached = []

        def proc():
            yield bad
            reached.append("resumed")  # pragma: no cover

        p = env.process(proc())
        env.run()
        assert not p.ok and not reached
        assert isinstance(p.value, SimulationError)
        assert repr(bad) in str(p.value)

    def test_infinite_sleep_is_legal(self, env):
        def proc():
            yield float("inf")
            return env.now

        p = env.process(proc())
        env.run()
        assert p.value == float("inf")

    def test_underflowing_delay_joins_the_current_tick(self):
        env = Environment(initial_time=1e20)
        order = []

        def sleeper():
            yield 1e-30            # now + 1e-30 == now
            order.append("sleeper")

        def other():
            yield env.timeout(0)
            order.append("other")

        env.process(sleeper())
        env.process(other())
        env.run()
        assert order == ["sleeper", "other"] and env.now == 1e20

    def test_sleep_and_timeout_share_one_order(self, env):
        order = []

        def proc(tag, wait):
            yield wait
            order.append(tag)

        env.process(proc("a", 5.0))
        env.process(proc("b", env.timeout(5.0)))   # seq taken right here
        env.process(proc("c", 5.0))
        env.run()
        assert order == ["b", "a", "c"]

    def test_interrupted_sleep_then_resleep_ignores_the_stale_entry(self, env):
        log = []

        def victim():
            try:
                yield 100.0
            except Interrupt:
                log.append(("interrupted", env.now))
            yield 500.0     # re-arms the same entry; the t=100 slot is stale
            log.append(("woke", env.now))

        def attacker(p):
            yield 10.0
            p.interrupt("now")

        p = env.process(victim())
        env.process(attacker(p))
        env.run()
        assert log == [("interrupted", 10.0), ("woke", 510.0)]

    def test_stale_entry_is_a_counted_noop(self, env):
        def victim():
            try:
                yield 100.0
            except Interrupt:
                return

        def attacker(p):
            yield 10.0
            p.interrupt()

        p = env.process(victim())
        env.process(attacker(p))
        env.run()
        assert env.now == 100.0   # the abandoned slot still drains
        # 2 boots, the attacker's sleep, the kick, 2 completions, and the
        # victim's disarmed slot — what an abandoned Timeout costs too
        assert env.event_count == 7

    def test_interrupt_at_the_tick_the_sleep_is_due(self, env):
        """The sleep's slot and the interrupt land in the same tick, the
        interrupt first: the slot must not resume the process again."""
        log = []
        procs = {}

        def attacker():
            yield 50.0
            procs["victim"].interrupt("race")

        def victim():
            try:
                yield 50.0
                log.append("slept")  # pragma: no cover - interrupt wins
            except Interrupt:
                log.append("interrupted")
            yield 1.0
            log.append(env.now)

        # attacker first, so its t=50 slot precedes the victim's
        env.process(attacker())
        procs["victim"] = env.process(victim())
        env.run()
        assert log == ["interrupted", 51.0]

    def test_deadlock_report_calls_a_sleep_a_timeout(self, env):
        def sleeper():
            yield 1e9

        env.process(sleeper(), name="napper")
        env.run(until=10.0)
        assert "napper" in env.describe_alive()
        assert "waiting on Timeout" in env.describe_alive()


def test_the_engine_works_per_instant_not_per_entry(env):
    """The engine's work guard (the frames' are
    ``test_an_uncontended_local_op_is_one_leaf_frame_per_step`` and
    ``test_a_verb_is_one_generator_frame``): eight processes sleeping on
    a shared 5 ns grid push each distinct future time on the heap once,
    and pop it once, however many entries share it."""
    def sleeper(i):
        for _ in range(6):
            yield 5.0 * (1 + i % 3)

    for i in range(8):
        env.process(sleeper(i))
    calls = []

    def profiler(frame, event, arg):
        if event == "c_call" and arg in (heapq.heappush, heapq.heappop):
            calls.append(arg)

    with profiling(profiler):
        env.run()
    wakeups = {5.0 * (1 + i % 3) * k for i in range(8) for k in range(1, 7)}
    assert env.event_count == 8 + 8 * 6 + 8   # boots, sleeps, completions
    assert len(wakeups) == 12
    assert calls.count(heapq.heappush) == calls.count(heapq.heappop) == 12


class TestConditions:
    def test_any_of_first_wins(self, env):
        t1 = env.timeout(10, value="fast")
        t2 = env.timeout(20, value="slow")
        got = {}

        def proc():
            got["r"] = yield AnyOf(env, [t1, t2])

        env.process(proc())
        env.run()
        assert got["r"] == {t1: "fast"}
        # env.run() drains t2 as well

    def test_all_of_waits_for_all(self, env):
        t1 = env.timeout(10, value=1)
        t2 = env.timeout(20, value=2)
        got = {}

        def proc():
            got["r"] = yield AllOf(env, [t1, t2])
            got["t"] = env.now

        env.process(proc())
        env.run()
        assert got["r"] == {t1: 1, t2: 2}
        assert got["t"] == 20

    def test_empty_condition_triggers_immediately(self, env):
        got = {}

        def proc():
            got["r"] = yield env.all_of([])

        env.process(proc())
        env.run()
        assert got["r"] == {}

    def test_any_of_failure_propagates(self, env):
        ev = env.event()
        caught = {}

        def proc():
            try:
                yield env.any_of([ev, env.timeout(100)])
            except KeyError as exc:
                caught["e"] = exc

        env.process(proc())
        ev.fail(KeyError("bad"))
        env.run()
        assert isinstance(caught["e"], KeyError)

    def test_cross_environment_condition_rejected(self, env):
        other = Environment()
        ev = other.event()
        with pytest.raises(SimulationError):
            env.any_of([ev])


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        def build_and_run():
            env = Environment()
            log = []

            def worker(i, delay):
                yield env.timeout(delay)
                log.append((i, env.now))
                yield env.timeout(delay * 2)
                log.append((i, env.now))

            for i in range(5):
                env.process(worker(i, 10 + i * 3))
            env.run()
            return log, env.event_count

        a = build_and_run()
        b = build_and_run()
        assert a == b

    def test_event_count_increments(self, env):
        def proc():
            for _ in range(10):
                yield env.timeout(1)

        env.process(proc())
        env.run()
        assert env.event_count >= 10


class TestSchedulePolicyHook:
    """The same-time tie-break hook (exercised end to end by
    ``tests/schedcheck``; these are the engine-level contracts)."""

    def build(self, policy):
        env = Environment()
        log = []

        def worker(i):
            yield env.timeout(10)        # all three tie at t=10
            log.append(i)
            yield env.timeout(5)         # and again at t=15
            log.append(i)

        for i in range(3):
            env.process(worker(i))
        env.set_schedule_policy(policy)
        env.run()
        return env, log

    def test_index_zero_policy_matches_default(self):
        class AlwaysDefault:
            def choose(self, ready):
                return 0

        _, unpoliced = self.build(None)
        _, policied = self.build(AlwaysDefault())
        assert policied == unpoliced

    def test_choices_and_fanouts_are_recorded(self):
        class AlwaysSecond:
            def choose(self, ready):
                return min(1, len(ready) - 1)

        _, default_log = self.build(None)
        env, log = self.build(AlwaysSecond())
        assert log != default_log        # the ties really were reordered
        assert sorted(log) == sorted(default_log)  # same work, other order
        assert env.schedule_decisions
        assert all(f >= 2 for f in env.schedule_fanouts)
        assert len(env.schedule_decisions) == len(env.schedule_fanouts)

    def test_a_newly_reached_instant_is_a_choice_point(self):
        """Two processes sleep to the same future instant: its first
        dispatch is already a tie, so a policy that always picks index 1
        runs the second sleeper first — whether ``run()`` or ``step()``
        drives the environment."""
        class AlwaysSecond:
            def choose(self, ready):
                return 1

        def drive(by_step):
            env = Environment()
            order = []

            def sleeper(i):
                yield 10.0
                order.append(i)

            for i in range(2):
                env.process(sleeper(i))
            env.run(until=0.0)       # both boot, unpoliced, in order
            env.set_schedule_policy(AlwaysSecond())
            if by_step:
                while env.peek() <= 100.0:
                    env.step()
            else:
                env.run(until=100.0)
            return order, env.schedule_decisions, env.schedule_fanouts

        order, decisions, fanouts = drive(by_step=False)
        assert order == [1, 0]
        # the instant's first dispatch, then the finished sleeper's
        # completion beside the other sleeper
        assert (decisions, fanouts) == ([1, 1], [2, 2])
        assert drive(by_step=True) == (order, decisions, fanouts)

    def test_singleton_ready_list_skips_policy(self):
        calls = []

        class Spy:
            def choose(self, ready):
                calls.append(len(ready))
                return 0

        env = Environment()

        def lone():
            for _ in range(4):
                yield env.timeout(3)

        env.process(lone())
        env.set_schedule_policy(Spy())
        env.run()
        assert calls == []               # no ties -> policy never consulted
        assert env.schedule_decisions == []

    def test_out_of_range_choice_raises(self):
        class Bad:
            def choose(self, ready):
                return len(ready)

        with pytest.raises(SimulationError):
            self.build(Bad())


def test_core_info_is_the_constant_pure():
    # the perf ledger records this next to its numbers and refuses to
    # compare ledgers whose kind differs
    assert core_info() == {"kind": "pure"}


class TestNegativeDelayGuard:
    """``schedule()`` must reject negative delays instead of putting an
    entry behind the clock."""

    def test_schedule_rejects_negative_delay(self):
        env = Environment()
        with pytest.raises(ConfigError, match="negative delay"):
            env.schedule(env.event(), delay=-1.0)

    def test_message_names_delay_and_now(self):
        env = Environment()
        ev = env.event()
        with pytest.raises(ConfigError, match=r"-0\.5.*in the past"):
            env.schedule(ev, delay=-0.5)

    def test_zero_and_positive_still_fine(self):
        env = Environment()
        env.schedule(env.event(), delay=0.0)
        env.schedule(env.event(), delay=2.5)
        assert env._has_work()

    def test_timeout_rejects_negative_delay(self):
        env = Environment()
        with pytest.raises(SimulationError, match="negative timeout delay"):
            env.timeout(-3)

    def test_nan_delay_is_rejected_too(self):
        """NaN compares false with everything: ``delay < 0`` let it in,
        and it fired at the current instant."""
        env = Environment()
        with pytest.raises(ConfigError, match="NaN delay nan"):
            env.schedule(env.event(), delay=float("nan"))
        with pytest.raises(SimulationError, match="NaN timeout delay"):
            env.timeout(float("nan"))
        assert not env._has_work()


# -- frozen dispatch order -------------------------------------------------
def _digest(trace: list) -> str:
    return hashlib.blake2b(repr(trace).encode(), digest_size=8).hexdigest()


def _run_random_workload(seed: int, sleep_form: bool = False) -> list:
    """A randomized mix of sleeps, same-tick bursts, wakeup events,
    failures, and interrupts (cancellations); returns the full trace.
    With ``sleep_form`` every bare wait is ``yield delay`` instead of
    ``yield env.timeout(delay)``."""
    rng = random.Random(0xA10C ^ seed)
    env = Environment()
    trace = []
    gates = [Event(env) for _ in range(4)]

    def wait(delay, value=None):
        return delay if sleep_form else env.timeout(delay, value=value)

    def sleeper(pid, rounds):
        for i in range(rounds):
            delay = rng.choice([0.0, 1.0, 1.0, 7.5, 1000.0, 1e308])
            try:
                yield wait(delay, value=(pid, i))
                trace.append(("tick", pid, i, env.now))
            except Interrupt as intr:
                trace.append(("intr", pid, i, env.now, str(intr.cause)))
                return

    def waiter(pid, gate):
        try:
            value = yield gate
            trace.append(("woke", pid, value, env.now))
        except RuntimeError as exc:
            trace.append(("failed", pid, str(exc), env.now))

    def driver():
        procs = [env.process(sleeper(pid, rng.randrange(2, 6)), name=f"s{pid}")
                 for pid in range(6)]
        for pid, gate in enumerate(gates):
            env.process(waiter(pid, gate), name=f"w{pid}")
        yield wait(3.0)
        gates[0].succeed("early")
        gates[1].fail(RuntimeError("boom"))
        yield wait(2.0)
        procs[0].interrupt("cancelled")
        procs[1].interrupt("cancelled")
        gates[2].succeed("mid")
        yield wait(10.0)
        gates[3].succeed("late")
        trace.append(("driver-done", env.now))

    env.process(driver(), name="driver")
    env.run()
    trace.append(("final", env.now, env.event_count))
    return trace


def _run_conditions() -> list:
    env = Environment()
    out = []

    def worker(i):
        yield env.timeout(i * 2.0)
        return i * 10

    def main():
        procs = [env.process(worker(i)) for i in range(4)]
        got = yield env.all_of(procs)
        out.append(("all", sorted(got.values()), env.now))
        fast = env.timeout(1.0, value="t")
        slow = env.timeout(9.0, value="s")
        first = yield env.any_of([fast, slow])
        out.append(("any", sorted(map(str, first.values())), env.now))

    env.process(main())
    env.run()
    out.append(("final", env.now, env.event_count))
    return out


class TestGoldenOrder:
    """Traces recorded on the calendar-queue engine of PR 10 (commit
    d20b424) just before it was replaced: the scheduler may change, the
    order it produces may not."""

    GOLDEN = {
        0: "43e59d0438d0c4c3", 1: "4183f3787d5b3311",
        2: "103e0f17c45deebe", 3: "a61e4167f214a179",
        4: "8c4ee760e11f9ad3", 5: "d9ec187359ea54d2",
        6: "e70a4d5e97535f71", 7: "752113dced59753d",
    }

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_random_workload_trace(self, seed):
        assert _digest(_run_random_workload(seed)) == self.GOLDEN[seed]

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_sleep_form_is_the_same_trace(self, seed):
        assert _digest(_run_random_workload(seed, sleep_form=True)) \
            == self.GOLDEN[seed]

    def test_condition_combinators_trace(self):
        assert _run_conditions() == [
            ("all", [0, 10, 20, 30], 6.0), ("any", ["t"], 7.0),
            ("final", 15.0, 18)]
