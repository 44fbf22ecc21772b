"""Model-checking the appendix properties (and confirming the checker
has teeth against injected bugs)."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.common.errors import ConfigError
from repro.verification import (
    ALockSpec,
    check_deadlock_freedom,
    check_mutual_exclusion,
    check_progress_possibility,
    explore,
)


class TestMutualExclusion:
    def test_holds_two_processes(self):
        result = check_mutual_exclusion(ALockSpec(2, 1))
        assert result.holds
        assert result.states_explored > 100

    def test_holds_two_processes_budget_two(self):
        assert check_mutual_exclusion(ALockSpec(2, 2)).holds

    def test_holds_two_processes_budget_three(self):
        assert check_mutual_exclusion(ALockSpec(2, 3)).holds

    def test_holds_three_processes(self):
        """NP=3 exercises intra-cohort passing (pids 1 and 3 share a
        cohort) on top of the Peterson competition."""
        result = check_mutual_exclusion(ALockSpec(3, 2))
        assert result.holds
        assert result.states_explored > 50_000

    def test_single_process_trivially_holds(self):
        assert check_mutual_exclusion(ALockSpec(1, 1)).holds


class TestDeadlockFreedom:
    def test_holds_two_processes(self):
        assert check_deadlock_freedom(ALockSpec(2, 2)).holds

    def test_holds_three_processes_budget_one(self):
        assert check_deadlock_freedom(ALockSpec(3, 1)).holds

    def test_holds_three_processes_budget_two(self):
        """EXPERIMENTS.md, Appendix A: NP=3 at both budgets."""
        assert check_deadlock_freedom(ALockSpec(3, 2)).holds


class TestProgressPossibility:
    def test_holds_two_processes(self):
        result = check_progress_possibility(ALockSpec(2, 2))
        assert result.holds

    def test_holds_three_processes_budget_one(self):
        result = check_progress_possibility(ALockSpec(3, 1))
        assert result.holds


class TestCheckerHasTeeth:
    def test_skip_handoff_wait_breaks_mutual_exclusion(self):
        """Skipping the budget await lets a waiter enter alongside its
        predecessor — the checker must find it and produce a trace."""
        result = check_mutual_exclusion(ALockSpec(3, 2, bug="skip_handoff_wait"))
        assert not result.holds
        cex = result.counterexample
        assert cex is not None
        # trace ends in a state with two processes in cs
        final = cex.states[-1]
        assert len([l for l in final.pc if l == "cs"]) > 1
        # trace is a valid run: starts at an initial state
        assert cex.states[0] in ALockSpec(3, 2, bug="skip_handoff_wait").initial_states()
        assert len(cex.actions) == len(cex.states) - 1

    def test_counterexample_trace_is_executable(self):
        """Replaying the counterexample's actions reproduces its states."""
        spec = ALockSpec(3, 2, bug="skip_handoff_wait")
        cex = check_mutual_exclusion(spec).counterexample
        state = cex.states[0]
        for pid, expected in zip(cex.actions, cex.states[1:]):
            state = spec.step(state, pid)
            assert state == expected

    def test_no_victim_check_livelocks(self):
        """Without the victim yield, two cohort leaders block each other
        forever: still deadlock-'free' (they keep spinning) but progress
        becomes impossible — exactly a livelock."""
        spec = ALockSpec(2, 1, bug="no_victim_check")
        assert check_deadlock_freedom(spec).holds  # spinning is 'enabled'
        result = check_progress_possibility(spec)
        assert not result.holds

    def test_buggy_spec_reaches_double_cs_states(self):
        """The buggy reachable space contains states the invariant
        forbids; the correct one does not."""
        spec = ALockSpec(3, 2, bug="skip_handoff_wait")
        assert not check_mutual_exclusion(spec).holds
        assert check_mutual_exclusion(ALockSpec(3, 2)).holds


class TestCounterexampleRendering:
    """str(Counterexample) is what lands in failure reports — it has to
    carry the violation, the trace, and who moved at each step."""

    @pytest.fixture(scope="class")
    def cex(self):
        spec = ALockSpec(3, 2, bug="skip_handoff_wait")
        return check_mutual_exclusion(spec).counterexample

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
        """Livelock traces (progress violation) render the same way."""
        result = check_progress_possibility(ALockSpec(2, 1, bug="no_victim_check"))
        assert not result.holds
        text = str(result.counterexample)
        assert text.startswith("violation: ")
        assert "step 0" in text


class TestWitnessDeterminism:
    def test_progress_witness_stable_across_hash_seeds(self):
        """The livelock witness picked by check_progress_possibility must
        not depend on PYTHONHASHSEED (BFS over insertion-ordered lists,
        not set iteration)."""
        script = (
            "from repro.verification import ALockSpec, "
            "check_progress_possibility\n"
            "r = check_progress_possibility("
            "ALockSpec(2, 1, bug='no_victim_check'))\n"
            "print(str(r.counterexample))\n")
        repo_root = Path(__file__).resolve().parents[2]
        outs = []
        for seed in ("0", "1", "31337"):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True,
                env={"PYTHONHASHSEED": seed,
                     "PYTHONPATH": str(repo_root / "src")})
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1] == outs[2]


class TestExploreBounds:
    def test_max_states_raises_not_truncates(self):
        with pytest.raises(ConfigError):
            explore(ALockSpec(3, 1), max_states=100)

    def test_reachability_counts_deterministic(self):
        a = explore(ALockSpec(2, 2)).states_explored
        b = explore(ALockSpec(2, 2)).states_explored
        assert a == b == 730
