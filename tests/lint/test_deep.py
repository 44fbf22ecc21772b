"""The deep pass: CFG/dataflow core, raise summaries, and the two
project-wide rules, each proven against its seeded-bad-lock fixture.

Fixtures live in ``fixtures/deep/`` (excluded from the repo gate); each
models the seeded ``lost_wakeup`` mutation or a lifecycle defect the
per-file rules cannot see, plus ``clean_lock.py`` as the
false-positive regression net.
"""

import ast
from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.dataflow import (
    EXC, FALSE, TRUE, ForwardAnalysis, build_cfg, run_forward,
)
from repro.lint.deep import deep_scope, run_deep_rules
from repro.lint.effects import INTRINSICS, EffectEngine
from repro.lint.ir import ProjectIndex
from repro.lint.source import SourceFile

FIXTURES = Path(__file__).parent / "fixtures" / "deep"

#: fixture stem → the one deep rule it must trip
EXPECTED_RULE = {
    "lost_wakeup": "deep-blocking",
    "leaked_descriptor": "deep-lockset",
    "missing_note": "deep-lockset",
}


def deep_fixture(name: str):
    path = FIXTURES / f"{name}.py"
    sf = SourceFile.parse(path, display=f"fixtures/deep/{name}.py",
                          module=f"fixtures.deep.{name}")
    return run_deep_rules([sf])


def parse_snippet(source: str, module: str = "repro.locks.snippet"):
    sf = SourceFile.from_source(source, path=Path("/snippet.py"),
                                display="snippet.py", module=module)
    return ProjectIndex.build([sf])


# ---------------------------------------------------------------------------
# fixture-driven rule checks


class TestSeededFixtures:
    @pytest.mark.parametrize("name,rule", sorted(EXPECTED_RULE.items()))
    def test_each_seeded_bug_trips_its_rule(self, name, rule):
        findings = deep_fixture(name)
        assert findings, f"{name}: no findings"
        assert {f.rule for f in findings} == {rule}, findings

    def test_clean_lock_is_clean(self):
        assert deep_fixture("clean_lock") == []

    def test_lost_wakeup_flags_the_raw_park(self):
        (finding,) = deep_fixture("lost_wakeup")
        assert "watcher is armed at yield time" in finding.message
        src = (FIXTURES / "lost_wakeup.py").read_text()
        assert "watch" in src.splitlines()[finding.line - 1]

    def test_leaked_descriptor_reports_every_raising_verb(self):
        findings = deep_fixture("leaked_descriptor")
        assert len(findings) == 2  # r_write and r_cas, both unguarded
        assert all("descriptor" in f.message for f in findings)

    def test_missing_note_covers_lock_and_unlock(self):
        findings = deep_fixture("missing_note")
        messages = " | ".join(f.message for f in findings)
        assert "MissingNoteLock.lock() can return without recording" in messages
        assert "MissingReleaseLock.unlock() can return without recording" \
            in messages

    def test_deep_runs_are_deterministic(self):
        sfs = [SourceFile.parse(p, display=f"fixtures/deep/{p.name}",
                                module=f"fixtures.deep.{p.stem}")
               for p in sorted(FIXTURES.glob("*.py"))]
        first = run_deep_rules(sfs)
        second = run_deep_rules(list(reversed(sfs)))
        assert first == second


# ---------------------------------------------------------------------------
# scope


class TestDeepScope:
    def test_machinery_modules_are_never_reported(self):
        path = FIXTURES / "lost_wakeup.py"
        sf = SourceFile.parse(path, display="fixtures/deep/lost_wakeup.py",
                              module="repro.sim.fixture")
        assert run_deep_rules([sf]) == []

    def test_subclass_by_name_without_import_is_in_scope(self):
        index = parse_snippet(
            "class MyLock(DistributedLock):\n"
            "    def lock(self, ctx):\n"
            "        yield from ctx.r_write(self.word_ptr, 1)\n")
        names = [c.name for c in index.subclasses_of("DistributedLock")]
        assert names == ["MyLock"]

    def test_a_function_kept_as_data_stays_in_scope(self):
        """ALock keeps each cohort's Peterson side in a record; the call
        through the record resolves to nothing, so the *mention* is what
        keeps ``peterson.py`` under the path checks."""
        index = parse_snippet(
            "def side(ctx, lock):\n"
            "    yield from ctx.read(lock.w)\n"
            "class L(DistributedLock):\n"
            "    def __init__(self):\n"
            "        self.sides = (side,)\n"
            "    def lock(self, ctx):\n"
            "        yield from self.sides[0](ctx, self)\n")
        assert "repro.locks.snippet:side" in deep_scope(index)

    def test_nested_class_is_not_indexed(self):
        index = parse_snippet(
            "def make():\n"
            "    class HiddenLock(DistributedLock):\n"
            "        def lock(self, ctx):\n"
            "            yield\n"
            "    return HiddenLock\n")
        assert index.subclasses_of("DistributedLock") == []


# ---------------------------------------------------------------------------
# CFG / dataflow core


def _fn_node(source: str) -> ast.AST:
    tree = ast.parse(source)
    return tree.body[0]


class _ReachedLines(ForwardAnalysis):
    """Toy analysis: the set of statement lines on some path to a node."""

    def initial(self):
        return frozenset()

    def join(self, a, b):
        return a | b

    def transfer(self, node, state):
        if node.heads:
            state = state | {node.heads[0].lineno}
        return state


class TestCfg:
    def test_if_has_true_and_false_edges(self):
        cfg = build_cfg(_fn_node(
            "def f(x):\n"
            "    if x:\n"
            "        a = 1\n"
            "    else:\n"
            "        a = 2\n"
            "    return a\n"))
        kinds = {kind for _, _, kind in cfg.edges()}
        assert TRUE in kinds and FALSE in kinds

    def test_while_true_has_no_normal_exit(self):
        cfg = build_cfg(_fn_node(
            "def f():\n"
            "    while True:\n"
            "        pass\n"))
        assert not [e for e in cfg.edges() if e[1] == cfg.exit]

    def test_break_escapes_while_true(self):
        cfg = build_cfg(_fn_node(
            "def f(x):\n"
            "    while True:\n"
            "        if x:\n"
            "            break\n"
            "    return 1\n"))
        assert [e for e in cfg.edges() if e[1] == cfg.exit]

    def test_cond_node_heads_carry_only_the_test(self):
        cfg = build_cfg(_fn_node(
            "def f(x):\n"
            "    if x > 0:\n"
            "        helper()\n"))
        cond = next(n for n in cfg.nodes if n.kind == "cond")
        # the branch *body* must not be walked at the condition node,
        # or its effects get applied before the branch is taken
        assert len(cond.heads) == 1
        assert isinstance(cond.heads[0], ast.Compare)

    def test_raising_statement_gets_exc_edge(self):
        cfg = build_cfg(_fn_node(
            "def f():\n"
            "    risky()\n"), raises=lambda stmt: True)
        assert any(kind == EXC and dst == cfg.raise_exit
                   for _, dst, kind in cfg.edges())

    def test_bare_except_catches_everything(self):
        cfg = build_cfg(_fn_node(
            "def f():\n"
            "    try:\n"
            "        risky()\n"
            "    except BaseException:\n"
            "        pass\n"),
            raises=lambda s: isinstance(s, ast.Expr))
        exc_edges = [(s, d) for s, d, k in cfg.edges() if k == EXC]
        assert exc_edges
        assert all(d != cfg.raise_exit for s, d in exc_edges
                   if cfg.node(s).kind == "stmt" and cfg.node(s).heads)

    def test_finally_runs_on_both_paths(self):
        fn = _fn_node(
            "def f():\n"
            "    try:\n"
            "        risky()\n"
            "    finally:\n"
            "        cleanup()\n")
        cfg = build_cfg(fn, raises=lambda s: isinstance(s, ast.Expr)
                        and isinstance(s.value, ast.Call)
                        and s.value.func.id == "risky")
        before = run_forward(cfg, _ReachedLines())
        cleanup = next(idx for idx in before
                       if cfg.node(idx).heads
                       and cfg.node(idx).heads[0].lineno == 5)
        assert 3 in before[cleanup]  # reachable from the risky() body

    def test_solver_reaches_fixpoint_on_loops(self):
        cfg = build_cfg(_fn_node(
            "def f(n):\n"
            "    x = 0\n"
            "    while n:\n"
            "        x = 1\n"
            "    return x\n"))
        before = run_forward(cfg, _ReachedLines())
        ret = next(idx for idx in before
                   if cfg.node(idx).heads
                   and cfg.node(idx).heads[0].lineno == 5)
        assert {2, 3, 4} <= before[ret]


# ---------------------------------------------------------------------------
# effect summaries


class TestEffects:
    def test_intrinsics_cover_the_verbs_contract(self):
        assert INTRINSICS["wait_local"] and INTRINSICS["wait_local_cond"]
        assert all(INTRINSICS[v] for v in ("r_read", "r_write", "r_cas", "r_faa"))
        assert not any(INTRINSICS[op] for op in ("read", "write", "cas", "faa"))

    def test_a_cohort_op_has_the_join_of_both_families(self):
        """``cohort.tail_cas`` is ``ctx.cas`` or ``ctx.r_cas`` depending
        on data, so it must be assumed to do what either can."""
        assert INTRINSICS["tail_cas"] == (INTRINSICS["cas"] or INTRINSICS["r_cas"])
        assert INTRINSICS["neighbor_write"] == (
            INTRINSICS["write"] or INTRINSICS["r_write"])

    def test_effects_propagate_through_helpers(self):
        index = parse_snippet(
            "class L(DistributedLock):\n"
            "    def unlock(self, ctx):\n"
            "        yield from self._pass(ctx)\n"
            "    def _pass(self, ctx):\n"
            "        yield from ctx.r_write(self.word_ptr, 0)\n")
        engine = EffectEngine(index)
        unlock = index.functions["repro.locks.snippet:L.unlock"]
        assert engine.function_raises(unlock)

    def test_recursive_helpers_converge(self):
        index = parse_snippet(
            "class L(DistributedLock):\n"
            "    def lock(self, ctx):\n"
            "        yield from self._spin(ctx)\n"
            "    def _spin(self, ctx):\n"
            "        yield from self._step(ctx)\n"
            "    def _step(self, ctx):\n"
            "        yield from ctx.r_read(self.word_ptr)\n"
            "        yield from self._spin(ctx)\n")
        engine = EffectEngine(index)
        lock = index.functions["repro.locks.snippet:L.lock"]
        assert engine.function_raises(lock)

    def test_unresolved_acquire_is_assumed_to_raise(self):
        index = parse_snippet(
            "class L(DistributedLock):\n"
            "    def lock(self, ctx):\n"
            "        yield from self.gate.acquire(ctx)\n")
        engine = EffectEngine(index)
        lock = index.functions["repro.locks.snippet:L.lock"]
        assert engine.function_raises(lock)

    def test_unresolved_helpers_default_inert(self):
        index = parse_snippet(
            "class L(DistributedLock):\n"
            "    def lock(self, ctx):\n"
            "        self.stats.bump('x')\n"
            "        yield\n")
        engine = EffectEngine(index)
        lock = index.functions["repro.locks.snippet:L.lock"]
        assert not engine.function_raises(lock)


# ---------------------------------------------------------------------------
# interprocedural reach: the rules see through helpers


class TestInterprocedural:
    def test_lock_delegating_to_helper_checks_out(self):
        index_src = (
            "class L(DistributedLock):\n"
            "    def lock(self, ctx):\n"
            "        yield from self._do_lock(ctx)\n"
            "    def _do_lock(self, ctx):\n"
            "        yield from ctx.wait_local(self.w, lambda v: v == 0)\n"
            "        self._note_acquired(ctx)\n"
            "    def unlock(self, ctx):\n"
            "        self._note_released(ctx)\n"
            "        yield from ctx.r_write(self.w, 0)\n")
        sf = SourceFile.from_source(index_src, path=Path("/l.py"),
                                    display="l.py",
                                    module="repro.locks.snippet")
        assert run_deep_rules([sf]) == []

    def test_helper_that_forgets_the_note_is_still_caught(self):
        index_src = (
            "class L(DistributedLock):\n"
            "    def lock(self, ctx):\n"
            "        yield from self._do_lock(ctx)\n"
            "    def _do_lock(self, ctx):\n"
            "        yield from ctx.wait_local(self.w, lambda v: v == 0)\n"
            "    def unlock(self, ctx):\n"
            "        self._note_released(ctx)\n"
            "        yield from ctx.r_write(self.w, 0)\n")
        sf = SourceFile.from_source(index_src, path=Path("/l.py"),
                                    display="l.py",
                                    module="repro.locks.snippet")
        findings = run_deep_rules([sf])
        assert [f.rule for f in findings] == ["deep-lockset"]
        assert "without recording the acquisition" in findings[0].message


# ---------------------------------------------------------------------------
# engine integration: deep findings flow through suppressions


class TestDeepThroughEngine:
    def _project(self, tmp_path, body: str):
        (tmp_path / "badlock.py").write_text(body)
        return tmp_path

    BAD = ("class BadLock(DistributedLock):\n"
           "    def lock(self, ctx):\n"
           "        yield from ctx.wait_local(self.w, lambda v: v == 0)\n")

    def test_deep_findings_reach_the_report(self, tmp_path):
        root = self._project(tmp_path, self.BAD)
        report = run_lint(["badlock.py"], root=root)
        assert [f.rule for f in report.findings] == ["deep-lockset"]

    def test_inline_suppression_scopes_to_the_one_path(self, tmp_path):
        root = self._project(
            tmp_path,
            "class BadLock(DistributedLock):\n"
            "    def lock(self, ctx):\n"
            "        # simlint: ignore[deep-lockset] -- measured fast path\n"
            "        yield from ctx.wait_local(self.w, lambda v: v == 0)\n")
        report = run_lint(["badlock.py"], root=root)
        assert report.findings == []
        assert [f.rule for f in report.suppressed] == ["deep-lockset"]

    def test_strict_with_deep_flags_truly_unused_deep_pragma(self, tmp_path):
        root = self._project(
            tmp_path,
            "class FineLock(DistributedLock):\n"
            "    def lock(self, ctx):\n"
            "        yield from ctx.wait_local(self.w, lambda v: v == 0)\n"
            "        # simlint: ignore[deep-lockset]\n"
            "        self._note_acquired(ctx)\n")
        report = run_lint(["badlock.py"], root=root)
        assert [f.rule for f in report.findings] == ["unused-suppression"]
