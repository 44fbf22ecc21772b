"""Model-checking the appendix properties (and confirming the checker
has teeth against injected bugs).  Each configuration is explored once
per module (``_check``), however many tests read its result."""

import functools

import pytest

from repro.common.errors import ConfigError
from repro.verification import PROPERTIES, ALockSpec, check


@functools.cache
def _check(n_processes, budget, bug):
    return check(ALockSpec(n_processes, budget, bug=bug))


#: EXPERIMENTS.md, Appendix A, one row per configuration: the violated
#: property (None: all three hold), the states explored, and what the
#: counterexample must show.
APPENDIX_A = [
    *[(1, b, None, None, 33, "") for b in (1, 2, 3)],
    *[(2, b, None, None, 730, "") for b in (1, 2, 3)],
    (3, 1, None, None, 68_361, ""),
    (3, 2, None, None, 81_319, ""),
    (3, 3, None, None, 97_937, ""),
    (3, 2, "skip_handoff_wait", "MutualExclusion", 5_726, "trace length: 25"),
    (2, 1, "no_victim_check", "StarvationFree", 730, "through 9 state(s)"),
    (3, 1, "no_victim_check", "StarvationFree", 67_065, "through 9 state(s)"),
]


@pytest.mark.parametrize(
    "n_processes,budget,bug,violated,states,shape", APPENDIX_A,
    ids=[f"NP{n}-B{b}" + (f"-{bug}" if bug else "")
         for n, b, bug, *_ in APPENDIX_A])
def test_appendix_a_row(n_processes, budget, bug, violated, states, shape):
    result = _check(n_processes, budget, bug)
    assert result.holds == (violated is None)
    assert result.property_name == (violated or PROPERTIES)
    assert result.states_explored == states
    assert (result.counterexample is None) == (violated is None)
    if violated:
        assert shape in str(result.counterexample)


class TestCheckerHasTeeth:
    def test_skip_handoff_wait_breaks_mutual_exclusion(self):
        """Skipping the budget await lets a waiter enter alongside its
        predecessor — the checker must find it and produce a trace."""
        result = _check(3, 2, "skip_handoff_wait")
        assert not result.holds
        cex = result.counterexample
        assert cex is not None and cex.loop_start is None
        # trace ends in a state with two processes in cs
        final = cex.states[-1]
        assert len([l for l in final.pc if l == "cs"]) > 1
        # trace is a valid run: starts at an initial state
        assert cex.states[0] in ALockSpec(3, 2, bug="skip_handoff_wait").initial_states()
        assert len(cex.actions) == len(cex.states) - 1

    def test_counterexample_trace_is_executable(self):
        """Replaying the counterexample's actions reproduces its states."""
        spec = ALockSpec(3, 2, bug="skip_handoff_wait")
        cex = _check(3, 2, "skip_handoff_wait").counterexample
        state = cex.states[0]
        for pid, expected in zip(cex.actions, cex.states[1:]):
            state = spec.step(state, pid)
            assert state == expected

    def test_no_victim_check_livelocks(self):
        """Without the victim yield, two cohort leaders block each other
        forever: no deadlock (they keep spinning, so the safety pass
        completes) but a fair cycle keeps one from cs — a livelock."""
        result = _check(2, 1, "no_victim_check")
        assert result.property_name == "StarvationFree"
        assert result.states_explored == _check(2, 1, None).states_explored

    def test_buggy_spec_reaches_double_cs_states(self):
        """The buggy reachable space contains states the invariant
        forbids; the correct one does not."""
        assert _check(3, 2, "skip_handoff_wait").property_name == "MutualExclusion"
        assert _check(3, 2, None).holds


class TestCounterexampleRendering:
    """str(Counterexample) is what lands in failure reports — it has to
    carry the violation, the trace, and who moved at each step."""

    @pytest.fixture(scope="class")
    def cex(self):
        return _check(3, 2, "skip_handoff_wait").counterexample

    def test_header_lines(self, cex):
        text = str(cex)
        lines = text.splitlines()
        assert lines[0] == f"violation: {cex.violation}"
        assert lines[1] == f"trace length: {len(cex.states)}"

    def test_one_line_per_step_with_state_fields(self, cex):
        lines = str(cex).splitlines()
        assert len(lines) == 2 + len(cex.states)
        for i, state in enumerate(cex.states):
            line = lines[2 + i]
            assert line.startswith(f"  step {i}")
            assert f"pc={state.pc}" in line
            assert f"victim={state.victim}" in line
            assert f"budget={state.budget}" in line

    def test_movers_annotated_after_initial_step(self, cex):
        lines = str(cex).splitlines()
        assert "moved" not in lines[2]  # initial state has no mover
        for i, pid in enumerate(cex.actions, start=1):
            assert f"(pid {pid} moved)" in lines[2 + i]

    def test_progress_counterexample_renders(self):
        """A livelock lasso renders the same way, plus the line naming
        the step its loop returns to."""
        cex = _check(2, 1, "no_victim_check").counterexample
        lines = str(cex).splitlines()
        assert lines[0].startswith("violation: pid ")
        assert lines[2] == f"loop: the last step returns to step {cex.loop_start}"
        assert len(lines) == 3 + len(cex.states)


class TestExploreBounds:
    def test_max_states_raises_not_truncates(self):
        with pytest.raises(ConfigError, match="max_states=100"):
            check(ALockSpec(3, 1), max_states=100)

    def test_reachability_counts_deterministic(self):
        a = check(ALockSpec(2, 2)).states_explored
        b = check(ALockSpec(2, 2)).states_explored
        assert a == b == 730
