"""The content-addressed sweep cache: hits, misses, invalidation scope,
resume, and corruption handling.

The acceptance gates: an unchanged grid re-run is all hits and
byte-identical to the uncached serial path; editing any source file of
the package invalidates every cell; an interrupted sweep resumes
recomputing only the missing cells; a corrupted store entry is a miss,
never a crash.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.parallel import (ResultCache, enumerate_grid, run_sweep_parallel,
                            source_fingerprint)
from repro.parallel.cache import CACHE_FORMAT, PACKAGE_ROOT
from repro.workload.spec import WorkloadSpec

BASE = WorkloadSpec(n_nodes=2, threads_per_node=1, n_locks=20,
                    ops_per_thread=10, audit="off")

AXES = {"lock_kind": ["alock", "spinlock", "mcs"],
        "locality_pct": [90.0, 100.0]}

N_CELLS = 6


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path / "store"))


def _fresh(tmp_path) -> ResultCache:
    """A new cache instance over the same store — models a new process
    resuming against the on-disk state."""
    return ResultCache(str(tmp_path / "store"))


class TestHitMiss:
    def test_first_run_is_all_misses_and_writes(self, cache):
        res = run_sweep_parallel(BASE, AXES, workers=0, cache=cache)
        assert res.cache_misses == N_CELLS
        assert res.cache_hits == 0
        assert cache.stats.writes == N_CELLS

    def test_unchanged_rerun_is_all_hits_and_byte_identical(self, cache, tmp_path):
        uncached = run_sweep_parallel(BASE, AXES, workers=0)
        run_sweep_parallel(BASE, AXES, workers=0, cache=cache)
        rerun = run_sweep_parallel(BASE, AXES, workers=0,
                                   cache=_fresh(tmp_path))
        assert rerun.cache_hits == N_CELLS
        assert rerun.cache_misses == 0
        assert rerun.to_json_bytes() == uncached.to_json_bytes()
        assert rerun.to_csv_bytes() == uncached.to_csv_bytes()

    def test_cached_parallel_run_byte_identical(self, cache, tmp_path):
        uncached = run_sweep_parallel(BASE, AXES, workers=0)
        run_sweep_parallel(BASE, AXES, workers=2, cache=cache)
        rerun = run_sweep_parallel(BASE, AXES, workers=2,
                                   cache=_fresh(tmp_path))
        assert rerun.cache_hits == N_CELLS
        assert rerun.to_json_bytes() == uncached.to_json_bytes()
        assert rerun.to_csv_bytes() == uncached.to_csv_bytes()

    def test_different_metric_is_a_different_address(self, cache):
        run_sweep_parallel(BASE, AXES, workers=0, cache=cache)
        res = run_sweep_parallel(BASE, AXES, workers=0, metric="p50",
                                 cache=cache)
        assert res.cache_hits == 0
        assert res.cache_misses == N_CELLS

    def test_different_seed_is_a_different_address(self, cache):
        run_sweep_parallel(BASE, AXES, seeds=[0], workers=0, cache=cache)
        res = run_sweep_parallel(BASE, AXES, seeds=[1], workers=0,
                                 cache=cache)
        assert res.cache_hits == 0

    def test_failed_cells_are_not_cached(self, cache, hang):
        axes = {"lock_kind": ["alock", hang]}
        first = run_sweep_parallel(BASE, axes, workers=0, cache=cache)
        assert len(first.failures) == 1
        assert cache.stats.writes == 1  # only the successful cell
        second = run_sweep_parallel(BASE, axes, workers=0, cache=cache)
        assert second.cache_hits == 1  # alock
        assert second.cache_misses == 1  # the failing cell retried


@pytest.fixture
def tree(tmp_path):
    """A copy of the package's source to edit."""
    root = tmp_path / "src" / "repro"
    shutil.copytree(PACKAGE_ROOT, root,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


class TestInvalidationScope:
    """The code fingerprint is every ``.py`` under the package: editing
    any one file, lock or not, invalidates every cell."""

    def _edited(self, tree, rel):
        with open(tree / rel, "a", encoding="utf-8") as fh:
            fh.write("# edited\n")
        return source_fingerprint(str(tree))

    def _hits(self, tmp_path, code):
        cache = ResultCache(str(tmp_path / "store"), code=code)
        return [cache.get(cell.spec, "throughput") is not None
                for cell in enumerate_grid(BASE, AXES)]

    def test_editing_any_source_file_changes_the_digest(self, tree, tmp_path):
        """A cell runs the NIC model and memory as much as its lock:
        an edit to either must change the address of every cell."""
        spec = BASE.with_(seed=7)
        code = source_fingerprint(str(tree))
        assert code == source_fingerprint()  # the copy is the tree
        digests = [ResultCache(str(tmp_path), code=code).cell_digest(spec, "p99")]
        for rel in ("rdma/config.py", "memory/region.py"):
            code = self._edited(tree, rel)
            digests.append(ResultCache(str(tmp_path), code=code)
                           .cell_digest(spec, "p99"))
        assert len(set(digests)) == 3

    def test_editing_an_imported_helper_invalidates_its_lock(self, cache, tree,
                                                             tmp_path):
        """peterson.py is not a registered kind but ALock runs it."""
        run_sweep_parallel(BASE, AXES, workers=0, cache=cache)
        assert self._hits(tmp_path, cache.code) == [True] * N_CELLS
        code = self._edited(tree, "locks/alock/peterson.py")
        assert self._hits(tmp_path, code) == [False] * N_CELLS

    def test_editing_shared_core_invalidates_everything(self, cache, tree,
                                                        tmp_path):
        run_sweep_parallel(BASE, AXES, workers=0, cache=cache)
        code = self._edited(tree, "sim/core.py")
        assert self._hits(tmp_path, code) == [False] * N_CELLS


class TestResume:
    def test_interrupted_sweep_resumes_only_missing_cells(self, cache, tmp_path):
        """Interrupt after 2 completed cells; the re-run recomputes
        exactly the other cells and serializes byte-identically."""
        uncached = run_sweep_parallel(BASE, AXES, workers=0)
        seen = {"n": 0}

        def interrupt(cell, result):
            seen["n"] += 1
            if seen["n"] == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_sweep_parallel(BASE, AXES, workers=0, chunk_size=1,
                               on_result=interrupt, cache=cache)
        # Write-back happens before the progress callback: both
        # completed cells are durable.
        assert cache.stats.writes == 2

        resumed = run_sweep_parallel(BASE, AXES, workers=0,
                                     cache=_fresh(tmp_path))
        assert resumed.cache_hits == 2
        assert resumed.cache_misses == N_CELLS - 2
        assert resumed.to_json_bytes() == uncached.to_json_bytes()
        assert resumed.to_csv_bytes() == uncached.to_csv_bytes()

    def test_all_hit_sweep_never_builds_a_pool(self, cache, tmp_path):
        """With every cell cached, workers=8 must not spawn anything —
        the executor seam would blow up if touched."""
        run_sweep_parallel(BASE, AXES, workers=0, cache=cache)

        def forbidden_factory(workers):
            raise AssertionError("pool built for an all-hit sweep")

        res = run_sweep_parallel(BASE, AXES, workers=8,
                                 executor_factory=forbidden_factory,
                                 cache=_fresh(tmp_path))
        assert res.cache_hits == N_CELLS


class TestCorruption:
    AXES = {"lock_kind": ["alock"]}
    SPEC = BASE.with_(lock_kind="alock")

    def test_corrupted_entry_is_a_miss_not_a_crash(self, cache):
        run_sweep_parallel(BASE, self.AXES, cache=cache)
        digest = cache.cell_digest(self.SPEC, "throughput")
        path = cache.store.json_path(digest)
        with open(path, "wb") as fh:
            fh.write(b"\x00garbage{{{")
        fresh = ResultCache(cache.cache_dir)
        res = run_sweep_parallel(BASE, self.AXES, cache=fresh)
        assert len(res.rows) == 1
        assert fresh.stats.hits == 0
        assert fresh.stats.misses == 1
        # ... and the recompute repaired the entry.
        repaired = ResultCache(cache.cache_dir)
        assert repaired.get(self.SPEC, "throughput") is not None

    def test_wrong_format_version_is_a_miss(self, cache):
        run_sweep_parallel(BASE, self.AXES, cache=cache)
        digest = cache.cell_digest(self.SPEC, "throughput")
        cache.store.put_json(digest, {"format": CACHE_FORMAT + 1,
                                      "row": {"metric": 1.0}})
        fresh = ResultCache(cache.cache_dir)
        assert fresh.get(self.SPEC, "throughput") is None
        assert fresh.stats.invalid == 1

    def test_non_primitive_row_fails_the_boundary_audit(self, cache):
        digest = cache.cell_digest(self.SPEC, "throughput")
        cache.store.put_json(digest, {"format": CACHE_FORMAT,
                                      "row": {"metric": [1.0, {"a": None}]}})
        # Nested primitives are fine ...
        assert ResultCache(cache.cache_dir).get(
            self.SPEC, "throughput") is not None
        # ... a row that is not a dict is not.
        cache.store.put_json(digest, {"format": CACHE_FORMAT, "row": 7})
        fresh = ResultCache(cache.cache_dir)
        assert fresh.get(self.SPEC, "throughput") is None
        assert fresh.stats.invalid == 1


class TestDigestStability:
    def test_digest_is_stable_across_instances(self, cache, tmp_path):
        spec = BASE.with_(seed=7)
        assert cache.cell_digest(spec, "p99") == \
               _fresh(tmp_path).cell_digest(spec, "p99")

    def test_digest_depends_on_every_keyed_part(self, cache):
        spec = BASE.with_(seed=7)
        base = cache.cell_digest(spec, "p99")
        assert cache.cell_digest(spec.with_(seed=8), "p99") != base
        assert cache.cell_digest(spec, "p50") != base
        assert cache.cell_digest(spec.with_(n_locks=21), "p99") != base

    def test_store_entry_is_canonical_json(self, cache):
        run_sweep_parallel(BASE, {"lock_kind": ["alock"]}, cache=cache)
        digest = cache.cell_digest(BASE.with_(lock_kind="alock"), "throughput")
        with open(cache.store.json_path(digest), "rb") as fh:
            raw = fh.read()
        payload = json.loads(raw)
        assert payload["format"] == CACHE_FORMAT
        assert json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8") == raw
