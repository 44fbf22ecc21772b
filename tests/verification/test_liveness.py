"""StarvationFree under weak fairness (appendix liveness): the SCC
search over the explored graph and its replayable lasso."""

import pytest

from repro.verification import ALockSpec, check
from repro.verification.checker import _explore, _sccs


@pytest.fixture(scope="module")
def livelock():
    spec = ALockSpec(2, 1, bug="no_victim_check")
    return spec, check(spec)


class TestStarvationDetected:
    def test_no_victim_check_starves_a_leader(self, livelock):
        """Without the victim yield, both cohort leaders spin forever in
        gwait/g2/g3 — a *fair* cycle (both keep stepping) in which
        neither reaches cs.  This is the livelock the victim word
        prevents, caught as a liveness violation."""
        _spec, result = livelock
        assert not result.holds
        assert "starves" in result.counterexample.violation
        # the starving pid is in the Peterson wait all along the loop
        cex = result.counterexample
        assert any(label in ("gwait", "g2", "g3")
                   for label in cex.states[cex.loop_start].pc)

    def test_detected_cycle_is_fair(self, livelock):
        """The reported loop satisfies weak fairness: every process
        steps inside it or is disabled somewhere on it."""
        spec, result = livelock
        assert "stepping pids" in result.detail
        cex = result.counterexample
        loop = cex.states[cex.loop_start:]
        movers = set(cex.actions[cex.loop_start:])
        for q in spec.pids:
            assert q in movers or any(spec.step(s, q) is None for s in loop)

    def test_lasso_replays_from_an_initial_state(self, livelock):
        """The counterexample is a run, not a snapshot: its actions
        replay through ``spec.step`` from an initial state, and its loop
        closes on the state it started from, with the starving pid never
        at cs or idle on it."""
        spec, result = livelock
        cex = result.counterexample
        assert cex.states[0] in spec.initial_states()
        assert len(cex.actions) == len(cex.states) - 1
        state = cex.states[0]
        for pid, expected in zip(cex.actions, cex.states[1:]):
            state = spec.step(state, pid)
            assert state == expected
        assert 0 <= cex.loop_start < len(cex.states) - 1
        assert cex.states[-1] == cex.states[cex.loop_start]
        starving = int(cex.violation.split()[1])
        assert all(s.pc[starving - 1] not in ("p1", "ncs", "cs")
                   for s in cex.states[cex.loop_start:])


class TestMechanics:
    def test_scc_decomposition_covers_graph(self):
        graph = _explore(ALockSpec(2, 1), 10_000)[2]
        components = _sccs(graph)
        assert sum(len(c) for c in components) == len(graph)
        seen = set()
        for c in components:
            for s in c:
                assert s not in seen  # components are disjoint
                seen.add(s)

    def test_scc_nontrivial_components_exist(self):
        """The protocol loops forever (p1 -> ... -> p1), so the graph
        must contain at least one big SCC."""
        components = _sccs(_explore(ALockSpec(2, 1), 10_000)[2])
        assert max(len(c) for c in components) > 100
