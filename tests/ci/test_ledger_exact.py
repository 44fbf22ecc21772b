"""The perf gate trips on any exact value that moved and on nothing
else.  Synthetic ledger dicts only; no simulation runs here."""

import importlib.util
import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]

spec = importlib.util.spec_from_file_location(
    "check_ledger_exact", REPO / "scripts" / "check_ledger_exact.py")
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)

WORKLOADS = {"alock_local", "alock_contended", "baseline_rdma", "fig_grid",
             "schedcheck_walk"}


def _ledger() -> dict:
    def traced(name: str) -> dict:
        per_layer = {"sim.host_us_per_event": 1.5, "trace.overhead_x": 2.0}
        for layer in ("sim", "locks", "obs", "other"):
            per_layer.update({f"{layer}.self_s": 0.5, f"{layer}.share_pct": 2.0,
                              f"{layer}.calls_per_op": 7.25,
                              f"{layer}.resumes_per_op": 3.5})
        return {"attempted": 100, "failed": 0, "problems": [], "per_layer": per_layer,
                "info": {"digest": "d" + name, "sim_p50_us": 0.5, "sim_p999_us": 9.0,
                         "sim_samples": 90,
                         "counters": {"sim.events_per_op": 11.5, "rdma.verbs_per_op": 0.0}}}

    return {"schema": "alock-ledger/1", "env": {"python": "3.11.7"},
            "workloads": {name: {"traced": traced(name)} for name in sorted(WORKLOADS)}}


def _check(capsys, edit=lambda ledger, traced: None, workload="baseline_rdma"):
    """The gate's verdict on a run one edit away from the committed values."""
    ledger = _ledger()
    edit(ledger, ledger["workloads"][workload]["traced"])
    status = gate.check(gate.project(_ledger()), ledger)
    return status, capsys.readouterr().out


def test_identical_passes(capsys):
    status, out = _check(capsys)
    assert status == 0
    assert "0 of 60 exact values differ" in out     # 12 columns x 5, no other.*
    # the totals a frame diet is judged in: three repo layers, no other.*
    assert ("alock_local Σ calls/op, Σ resumes/op, resumes/event: "
            "21.75, 10.50, 0.91 → 21.75, 10.50, 0.91") in out


def test_totals_line_carries_engine_calls_per_event(capsys):
    # the unit an engine diet is judged in: sim.calls_per_op / events
    status, out = _check(capsys, lambda _, t: t["per_layer"].update(
        {"sim.calls_per_op": 2.3}), "alock_local")
    assert status == 1
    assert ("alock_local Σ calls/op, Σ resumes/op, resumes/event: "
            "21.75, 10.50, 0.91 → 16.80, 10.50, 0.91; "
            "engine calls/event: 0.63 → 0.20") in out


@pytest.mark.parametrize("named, edit", [
    ("sim.events_per_op: 11.5 → 11.75",
     lambda _, t: t["info"]["counters"].update({"sim.events_per_op": 11.75})),
    ("locks.calls_per_op: 7.25 → 8.25",
     lambda _, t: t["per_layer"].update({"locks.calls_per_op": 8.25})),
    ("obs.resumes_per_op: 3.5 → 4",
     lambda _, t: t["per_layer"].update({"obs.resumes_per_op": 4})),
    ("digest: 'dbaseline_rdma' → 'moved'", lambda _, t: t["info"].update(digest="moved")),
    ("sim_p999_us: 9.0 → None", lambda _, t: t["info"].update(sim_p999_us=None)),
    ("digest: 'dbaseline_rdma' → None",      # the whole workload is missing
     lambda ledger, _: ledger["workloads"].pop("baseline_rdma")),
    ("failed: 3 of 100 ops", lambda _, t: t.update(failed=3)),
    ("problems: lost update", lambda _, t: t["problems"].append("lost update")),
])
def test_any_exact_change_fails_naming_workload_and_column(named, edit, capsys):
    status, out = _check(capsys, edit)
    assert status == 1
    assert f"baseline_rdma {named}" in out


@pytest.mark.parametrize("key", [
    "other.calls_per_op", "other.resumes_per_op", "sim.self_s", "locks.share_pct",
    "sim.host_us_per_event", "trace.overhead_x"])
def test_timings_and_foreign_call_counts_are_ignored(key, capsys):
    assert _check(capsys, lambda _, t: t["per_layer"].update({key: 99.0}))[0] == 0


def test_ring_budget_gates_default_retention_workloads_only(capsys):
    def share(pct):
        return lambda _, t: t["per_layer"].update({"obs.share_pct": pct})

    status, out = _check(capsys, share(3.1), "alock_local")
    assert status == 1 and "alock_local obs.share_pct: 3.10 % is over" in out
    assert _check(capsys, share(2.9), "alock_local")[0] == 0
    assert _check(capsys, share(5.5), "schedcheck_walk")[0] == 0


def test_a_ring_share_near_the_budget_is_judged_by_its_median(capsys):
    def run(first, more):
        ledger = _ledger()
        ledger["workloads"]["alock_local"]["traced"]["per_layer"]["obs.share_pct"] = first
        status = gate.check(gate.project(_ledger()), ledger, {"alock_local": more})
        return status, capsys.readouterr().out

    assert gate.RING_PASSES == {"alock_local": 3}
    # one slow pass does not fail a tree whose other two read under it ...
    status, out = run(3.06, [2.64, 2.80])
    assert status == 0
    assert "alock_local obs.share_pct: 2.80 % (median of 3.06, 2.64, 2.80)" in out
    # ... and one fast pass does not pass a tree over budget
    status, out = run(2.64, [3.42, 3.30])
    assert status == 1 and "alock_local obs.share_pct: 3.30 % is over" in out


def test_other_python_minor_or_schema_is_refused(capsys):
    assert _check(capsys, lambda ledger, _: ledger["env"].update(python="3.12.1"))[0] == 2
    assert _check(capsys, lambda ledger, _: ledger.update(schema="alock-ledger/2"))[0] == 2


def test_committed_baseline_holds_exact_values_only():
    committed = json.loads(pathlib.Path(gate.BASELINE).read_text())
    assert set(committed) == {"python", "values"}
    assert {key.split()[0] for key in committed["values"]} == WORKLOADS
    assert len(committed["values"]) >= 200
    assert not [key for key in committed["values"]
                if " other." in key or key.endswith(
                    (".self_s", ".share_pct", "host_us_per_event", "overhead_x"))]
