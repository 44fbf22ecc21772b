"""Tests for the Table-1 race auditor, fed as the run's access sink."""

import pytest

from repro.cluster import Cluster
from repro.common.errors import AtomicityViolation, SimulationError
from repro.memory.races import RaceAuditor, UNSAFE_PAIRS
from repro.memory.region import (LOCAL_READ, LOCAL_RMW, LOCAL_WRITE, PRIVATE_WRITE,
                                 REMOTE_CAS, RMW_END)

WINDOW_NS = 100.0


@pytest.fixture()
def auditor():
    return RaceAuditor("record", WINDOW_NS)


def open_window(auditor, node=0, addr=64, start=100.0, op=REMOTE_CAS,
                actor="remote"):
    """An RMW's read lands at ``start``: its window is [start, start + 100)."""
    auditor.access(node, addr, op, actor, start)


def retire(auditor, node=0, addr=64, actor="remote"):
    auditor.access(node, addr, RMW_END, actor, 200.0)


def local(auditor, kind, node=0, addr=64, time=150.0):
    auditor.access(node, addr, kind, "t0", time)


class TestTable1Matrix:
    """The UNSAFE_PAIRS set must mirror the paper's Table 1 exactly."""

    def test_local_write_vs_rcas_unsafe(self):
        assert (LOCAL_WRITE, REMOTE_CAS) in UNSAFE_PAIRS

    def test_local_rmw_vs_rcas_unsafe(self):
        assert (LOCAL_RMW, REMOTE_CAS) in UNSAFE_PAIRS

    def test_local_read_always_safe(self):
        assert all(local != LOCAL_READ for local, _ in UNSAFE_PAIRS)

    def test_exactly_two_unsafe_cells(self):
        assert len(UNSAFE_PAIRS) == 2


class TestDetection:
    def test_local_write_in_window_flagged(self, auditor):
        open_window(auditor)
        local(auditor, LOCAL_WRITE)
        assert auditor.violation_count == 1
        rec = auditor.violations[0]
        assert rec.local_op == LOCAL_WRITE
        assert rec.remote_op == "rCAS"
        assert rec.addr == 64

    def test_local_rmw_in_window_flagged(self, auditor):
        open_window(auditor)
        local(auditor, LOCAL_RMW)
        assert auditor.violation_count == 1

    def test_private_write_judged_as_local_write(self, auditor):
        open_window(auditor)
        local(auditor, PRIVATE_WRITE)
        assert [r.local_op for r in auditor.violations] == [LOCAL_WRITE]

    def test_local_read_in_window_clean(self, auditor):
        open_window(auditor)
        local(auditor, LOCAL_READ)
        assert auditor.violation_count == 0

    def test_outside_window_clean(self, auditor):
        open_window(auditor, start=100.0)
        local(auditor, LOCAL_WRITE, time=99.0)
        local(auditor, LOCAL_WRITE, time=200.0)  # end exclusive
        assert auditor.violation_count == 0

    def test_window_start_inclusive(self, auditor):
        open_window(auditor, start=100.0)
        local(auditor, LOCAL_WRITE, time=100.0)
        assert auditor.violation_count == 1

    def test_different_address_clean(self, auditor):
        open_window(auditor, addr=64)
        local(auditor, LOCAL_WRITE, addr=72)
        assert auditor.violation_count == 0

    def test_different_node_clean(self, auditor):
        open_window(auditor, node=0)
        local(auditor, LOCAL_WRITE, node=1)
        assert auditor.violation_count == 0

    def test_retired_window_clean(self, auditor):
        open_window(auditor)
        retire(auditor)
        local(auditor, LOCAL_WRITE)
        assert auditor.violation_count == 0

    def test_overlapping_windows_both_checked(self, auditor):
        open_window(auditor, start=100.0)
        open_window(auditor, start=150.0, actor="remote2")
        local(auditor, LOCAL_WRITE, time=160.0)
        assert auditor.violation_count == 2


class TestModes:
    def test_strict_raises(self):
        auditor = RaceAuditor("strict", WINDOW_NS)
        open_window(auditor)
        with pytest.raises(AtomicityViolation) as exc:
            local(auditor, LOCAL_WRITE)
        assert exc.value.address == 64

    def test_off_mode_no_bookkeeping(self):
        """``audit="off"`` builds no auditor and hands the regions no sink."""
        cluster = Cluster(2, audit="off")
        assert cluster.auditor is None
        assert [r.sink for r in cluster.regions] == [None, None]
        assert cluster.stats()["atomicity_violations"] == 0

    def test_assert_clean_raises_on_violation(self, auditor):
        open_window(auditor)
        local(auditor, LOCAL_WRITE)
        with pytest.raises(AtomicityViolation):
            auditor.assert_clean()

    def test_assert_clean_passes_when_clean(self, auditor):
        auditor.assert_clean()


class TestWindowConsistency:
    """Retiring a window the auditor never saw is an internal bug of the
    verbs layer (double retire / unmatched begin-end), not a Table-1
    violation — counted always, raised in strict mode."""

    def test_double_retire_counted(self, auditor):
        open_window(auditor)
        retire(auditor)
        retire(auditor)
        assert auditor.consistency_errors == 1
        assert auditor.violation_count == 0  # not a Table-1 violation

    def test_unknown_window_counted(self, auditor):
        open_window(auditor, actor="r")
        retire(auditor, actor="someone else")
        assert auditor.consistency_errors == 1

    def test_wrong_node_counted(self, auditor):
        open_window(auditor, node=0)
        retire(auditor, node=1)
        assert auditor.consistency_errors == 1
        # the real window is still live and keeps detecting races
        local(auditor, LOCAL_WRITE)
        assert auditor.violation_count == 1

    def test_strict_mode_raises(self):
        auditor = RaceAuditor("strict", WINDOW_NS)
        open_window(auditor)
        retire(auditor)
        with pytest.raises(SimulationError, match="unknown RMW window"):
            retire(auditor)
        assert auditor.consistency_errors == 1

    def test_record_mode_does_not_raise(self, auditor):
        open_window(auditor)
        retire(auditor)
        retire(auditor)  # swallowed but counted

    def test_matched_retire_not_counted(self, auditor):
        open_window(auditor)
        retire(auditor)
        assert auditor.consistency_errors == 0
