"""Per-rule fixture tests: every shipped rule must fire on its seeded
fixture file and stay quiet on that fixture's ``fine`` section."""

from pathlib import Path

import pytest

from repro.lint import default_rules, lint_file
from repro.lint.engine import lint_source_file
from repro.lint.findings import ERROR, WARNING
from repro.lint.source import SourceFile

FIXTURES = Path(__file__).parent / "fixtures"

#: fixtures are linted as if they lived inside the simulation tree, so
#: package-scoped rules apply.
SIM_MODULE = "repro.sim.fixture"


def lint_fixture(name: str, module: str = SIM_MODULE):
    return lint_file(FIXTURES / name, module=module)


def rules_fired(findings) -> set[str]:
    return {f.rule for f in findings}


class TestNondetSourceRule:
    def test_fires_on_every_hazard_class(self):
        findings = [f for f in lint_fixture("nondet.py")
                    if f.rule == "nondet-source"]
        messages = " | ".join(f.message for f in findings)
        assert "'random.random()'" in messages
        assert "'time.time()'" in messages
        assert "'time.perf_counter()'" in messages
        assert "'datetime.now()'" in messages
        assert "un-seeded np.random.default_rng()" in messages
        assert "'np.random.randint()'" in messages
        assert "'id()'" in messages
        assert "'hash()'" in messages
        assert "import of the global 'random' module" in messages
        assert "import from the global 'random' module" in messages

    def test_seeded_default_rng_and_streams_are_clean(self):
        findings = lint_fixture("nondet.py")
        fine_lines = {f.line for f in findings if f.line >= 28}
        assert not fine_lines, findings

    def test_id_and_hash_are_warnings(self):
        findings = lint_fixture("nondet.py")
        by_sev = {f.severity for f in findings
                  if "'id()'" in f.message or "'hash()'" in f.message}
        assert by_sev == {WARNING}
        assert all(f.severity == ERROR for f in findings
                   if "wall clock" in f.message)

    def test_silent_outside_sim_packages(self):
        assert lint_file(FIXTURES / "nondet.py",
                         module="tests.lint.fixture") == []


class TestUnorderedIterRule:
    def test_fires_on_iteration_forms(self):
        findings = [f for f in lint_fixture("unordered.py")
                    if f.rule == "unordered-iter"]
        lines = sorted(f.line for f in findings)
        # self-attr in another method, set() name, set literal,
        # list(set-comp), deque(set-name)
        assert lines == [11, 17, 19, 21, 22]

    def test_sorted_and_membership_are_clean(self):
        findings = lint_fixture("unordered.py")
        assert not [f for f in findings if f.line >= 26], findings

    def test_silent_outside_sensitive_packages(self):
        assert lint_file(FIXTURES / "unordered.py",
                         module="repro.analysis.fixture") == []


class TestRegionBypassRule:
    def test_fires_on_raw_writes_and_remote_api(self):
        findings = [f for f in lint_fixture("region.py",
                                            module="repro.locks.fixture")
                    if f.rule == "region-bypass"]
        messages = " | ".join(f.message for f in findings)
        assert len(findings) == 6
        assert "'._store()'" in messages
        assert "'._words'" in messages
        assert "'.remote_write()'" in messages
        assert "'.remote_rmw_commit()'" in messages
        assert messages.count("raw check-then-park") == 2  # lines 9, 10

    def test_audited_accessors_and_peek_are_clean(self):
        findings = lint_fixture("region.py", module="repro.locks.fixture")
        assert not [f for f in findings if f.line >= 13], findings

    def test_only_the_wait_layers_may_park(self):
        for module in ("repro.cluster.context", "repro.memory.region"):
            findings = lint_file(FIXTURES / "region.py", module=module)
            assert not [f for f in findings if f.line in (9, 10)], module

    def test_verbs_layer_may_use_remote_api(self):
        findings = lint_file(FIXTURES / "region.py",
                             module="repro.rdma.network")
        messages = " | ".join(f.message for f in findings)
        assert "remote_write" not in messages
        # _store/_words stay region-internal even inside the verbs layer
        assert "'._store()'" in messages


class TestProcessBoundaryRule:
    MODULE = "repro.parallel.fixture"

    def findings(self, module=MODULE):
        return [f for f in lint_file(FIXTURES / "boundary.py", module=module)
                if f.rule == "process-boundary"]

    def test_fires_on_every_hazard_class(self):
        messages = " | ".join(f.message for f in self.findings())
        assert "process-pool import" in messages
        assert "direct multiprocessing use" in messages
        assert "'nested_entry' is nested" in messages
        assert "'bare_function' is submitted" in messages
        assert "blob (de)serialization in a sensitive package" in messages
        assert len(self.findings()) == 6

    def test_marked_and_foreign_submits_are_fine(self):
        lines = {f.line for f in self.findings()}
        src = (FIXTURES / "boundary.py").read_text().splitlines()
        fine_start = next(i for i, line in enumerate(src, start=1)
                          if "fine section" in line)
        assert not {ln for ln in lines if ln > fine_start}

    def test_engine_chokepoint_may_import_pools(self):
        findings = self.findings(module="repro.parallel.engine")
        messages = " | ".join(f.message for f in findings)
        assert "process-pool import" not in messages
        assert "direct multiprocessing use" not in messages
        # ... but even the engine may not (de)serialize blobs itself.
        assert "blob (de)serialization" in messages

    def test_store_may_neither_serialize_nor_spawn(self):
        """The corpus store reads and writes JSON entries: no module
        is a blob (de)serialization chokepoint."""
        assert len(self.findings(module="repro.schedcheck.corpus")) == 6

    def test_silent_outside_sensitive_packages(self):
        assert not self.findings(module="benchmarks.fixture")

    def test_repro_parallel_is_sensitive(self):
        from repro.lint.rules import DEFAULT_SENSITIVE_PACKAGES
        assert "repro.parallel" in DEFAULT_SENSITIVE_PACKAGES


class TestEngineChokepointRule:
    MODULE = "repro.sim.fixture"

    def findings(self, module=MODULE):
        return [f for f in lint_file(FIXTURES / "engine_choke.py",
                                     module=module)
                if f.rule == "engine-chokepoint"]

    def test_fires_on_every_hazard_class(self):
        messages = " | ".join(f.message for f in self.findings())
        assert "'heapq' import outside the engine chokepoint" in messages
        assert "'bisect' import outside the engine chokepoint" in messages
        assert len(self.findings()) == 2

    def test_core_imports_are_fine(self):
        lines = {f.line for f in self.findings()}
        src = (FIXTURES / "engine_choke.py").read_text().splitlines()
        fine_start = next(i for i, line in enumerate(src, start=1)
                          if "fine --" in line)
        assert not {ln for ln in lines if ln > fine_start}

    def test_engine_modules_may_import_scheduler_structures(self):
        assert not self.findings(module="repro.sim.core")

    def test_silent_outside_sensitive_packages(self):
        assert not self.findings(module="benchmarks.fixture")


class TestEmitFormatRule:
    def findings(self, module=SIM_MODULE):
        return [f for f in lint_fixture("emit_format.py", module=module)
                if f.rule == "emit-format"]

    def test_fires_on_every_formatted_argument(self):
        findings = self.findings()
        assert len(findings) == 5, findings
        messages = " | ".join(f.message for f in findings)
        assert "'ctx.emit(...)'" in messages
        assert "'lock._emit(...)'" in messages

    def test_raw_fields_are_clean(self):
        src = (FIXTURES / "emit_format.py").read_text().splitlines()
        fine_start = next(i for i, line in enumerate(src, start=1)
                          if "fine --" in line)
        assert not [f for f in self.findings() if f.line > fine_start]

    def test_silent_outside_sim_packages(self):
        assert not self.findings(module="tests.fixture")

    def test_obs_package_is_exempt_and_registered(self):
        """The views live in repro.obs and are the one place that turns
        event fields into text."""
        from repro.lint.rules import DEFAULT_SENSITIVE_PACKAGES, OBS_PACKAGE
        assert OBS_PACKAGE in DEFAULT_SENSITIVE_PACKAGES
        assert not self.findings(module="repro.obs.fixture")

    def test_real_call_sites_are_all_raw(self, simlint_tree):
        """The shipped tree must satisfy its own rule (lock hot paths,
        faults, network, scheduler): the tree scan finds no formatted
        ``emit`` argument under ``src``, where at least ten modules emit."""
        import repro.locks.alock.alock as _  # anchor: src layout on path
        root = Path(_.__file__).resolve().parents[3]
        emitters = sum("emit(" in path.read_text()
                       for path in root.rglob("*.py"))
        bad = [f for f in simlint_tree.report["findings"]
               if f["rule"] == "emit-format" and f["file"].startswith("src/")]
        assert emitters >= 10 and not bad, bad


class TestRuleFrameworkContracts:
    def test_every_shipped_rule_has_a_distinct_id(self):
        ids = [r.rule_id for r in default_rules()]
        assert len(ids) == len(set(ids))
        assert all(ids), "every rule needs a non-empty id"

    @pytest.mark.parametrize("name,module", [
        ("nondet.py", SIM_MODULE),
        ("unordered.py", SIM_MODULE),
        ("region.py", "repro.locks.fixture"),
    ])
    def test_finding_order_is_canonical(self, name, module):
        findings = lint_file(FIXTURES / name, module=module)
        assert findings == sorted(findings)
        assert all(f.line >= 1 and f.col >= 0 for f in findings)

    def test_rules_never_execute_the_target(self, tmp_path):
        """Parsing only: a file whose import would explode lints fine."""
        bad = tmp_path / "explosive.py"
        bad.write_text("raise SystemExit('linting must not import me')\n")
        sf = SourceFile.parse(bad, module="repro.sim.explosive")
        assert lint_source_file(sf, default_rules()) == []
