"""The content-addressed sweep cache: hits, misses, invalidation scope,
resume, and corruption handling.

The acceptance gates: an unchanged grid re-run is all hits and
byte-identical to the uncached serial path; editing one lock's source
invalidates only that lock's cells; an interrupted sweep resumes
recomputing only the missing cells; a corrupted store entry is a miss,
never a crash.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster import Cluster
from repro.locks import LOCK_TYPES, make_lock
from repro.parallel import (ResultCache, SourceFingerprinter, enumerate_grid,
                            run_cells, run_sweep_parallel)
from repro.parallel.cache import CACHE_FORMAT
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

    def test_failed_cells_are_not_cached(self, cache):
        axes = {"lock_kind": ["alock", "no-such-lock"]}
        first = run_sweep_parallel(BASE, axes, workers=0, cache=cache)
        assert len(first.failures) == 1
        assert cache.stats.writes == 1  # only the successful cell
        second = run_sweep_parallel(BASE, axes, workers=0, cache=cache)
        assert second.cache_hits == 1  # alock
        assert second.cache_misses == 1  # the failing cell retried


class TestInvalidationScope:
    """Editing a lock's source (modelled via the fingerprinter overlay)
    invalidates exactly that lock's cells."""

    def _hits_by_lock(self, tmp_path, overlay):
        cache = ResultCache(str(tmp_path / "store"),
                            fingerprinter=SourceFingerprinter(overlay))
        cells = enumerate_grid(BASE, AXES)
        hits = {}
        for cell in cells:
            kind = dict(cell.key[1:])["lock_kind"]
            hit = cache.lookup_cell(cell, "throughput")
            hits.setdefault(kind, []).append(hit is not None)
        return hits

    def test_editing_one_lock_invalidates_only_its_cells(self, cache, tmp_path):
        run_sweep_parallel(BASE, AXES, workers=0, cache=cache)
        hits = self._hits_by_lock(
            tmp_path,
            overlay={"repro.locks.baselines.spinlock": b"# edited\n"})
        assert hits["spinlock"] == [False, False]
        assert hits["alock"] == [True, True]
        assert hits["mcs"] == [True, True]

    def test_editing_an_imported_helper_invalidates_its_lock(self, cache, tmp_path):
        """peterson.py is not a registered kind but ALock imports it —
        the closure walk must catch the dependency."""
        run_sweep_parallel(BASE, AXES, workers=0, cache=cache)
        hits = self._hits_by_lock(
            tmp_path,
            overlay={"repro.locks.alock.peterson": b"# edited\n"})
        assert hits["alock"] == [False, False]
        assert hits["spinlock"] == [True, True]
        assert hits["mcs"] == [True, True]

    def test_every_shipped_kind_resolves_to_its_defining_module(self):
        """Kinds are registered as their classes, not as factory
        functions; either way ``__module__`` must name the file whose
        edit invalidates the kind's cells."""
        shipped = sorted(kind for kind, factory in LOCK_TYPES.items()
                         if factory.__module__.startswith("repro.locks."))
        assert len(shipped) == 7
        fingerprinter, cluster = SourceFingerprinter(), Cluster(2, seed=0)
        for kind in shipped:
            assert fingerprinter._resolve_lock_module(kind) == \
                type(make_lock(kind, cluster, 0)).__module__

    def test_editing_shared_core_invalidates_everything(self, cache, tmp_path):
        run_sweep_parallel(BASE, AXES, workers=0, cache=cache)
        hits = self._hits_by_lock(
            tmp_path, overlay={"repro.sim.core": b"# edited\n"})
        assert all(not any(flags) for flags in hits.values())


class TestResume:
    def test_interrupted_sweep_resumes_only_missing_cells(self, cache, tmp_path):
        """Interrupt after 2 completed cells; the re-run recomputes
        exactly the other cells and serializes byte-identically."""
        uncached = run_sweep_parallel(BASE, AXES, workers=0)
        seen = {"n": 0}

        def interrupt(result):
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
    def _one_cell(self):
        return enumerate_grid(BASE, {"lock_kind": ["alock"]})

    def test_corrupted_entry_is_a_miss_not_a_crash(self, cache):
        cells = self._one_cell()
        run_cells(cells, cache=cache)
        digest = cache.cell_digest(cells[0].spec, "throughput")
        path = cache.store.json_path(digest)
        with open(path, "wb") as fh:
            fh.write(b"\x00garbage{{{")
        fresh = ResultCache(cache.cache_dir)
        results = run_cells(cells, cache=fresh)
        assert results[0].ok
        assert fresh.stats.hits == 0
        assert fresh.stats.misses == 1
        # ... and the recompute repaired the entry.
        repaired = ResultCache(cache.cache_dir)
        assert repaired.lookup_cell(cells[0], "throughput") is not None

    def test_wrong_format_version_is_a_miss(self, cache):
        cells = self._one_cell()
        run_cells(cells, cache=cache)
        digest = cache.cell_digest(cells[0].spec, "throughput")
        cache.store.put_json(digest, {"format": CACHE_FORMAT + 1,
                                      "row": {"metric": 1.0}})
        fresh = ResultCache(cache.cache_dir)
        assert fresh.lookup_cell(cells[0], "throughput") is None
        assert fresh.stats.invalid == 1

    def test_non_primitive_row_fails_the_boundary_audit(self, cache):
        cells = self._one_cell()
        digest = cache.cell_digest(cells[0].spec, "throughput")
        cache.store.put_json(digest, {"format": CACHE_FORMAT,
                                      "row": {"metric": [1.0, {"a": None}]}})
        # Nested primitives are fine ...
        assert ResultCache(cache.cache_dir).lookup_cell(
            cells[0], "throughput") is not None
        # ... a row that is not a dict is not.
        cache.store.put_json(digest, {"format": CACHE_FORMAT, "row": 7})
        fresh = ResultCache(cache.cache_dir)
        assert fresh.lookup_cell(cells[0], "throughput") is None
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
        cells = enumerate_grid(BASE, {"lock_kind": ["alock"]})
        run_cells(cells, cache=cache)
        digest = cache.cell_digest(cells[0].spec, "throughput")
        with open(cache.store.json_path(digest), "rb") as fh:
            raw = fh.read()
        payload = json.loads(raw)
        assert payload["format"] == CACHE_FORMAT
        assert json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8") == raw
