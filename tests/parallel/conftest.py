"""Fixtures shared by the parallel-engine tests."""

import pytest

from repro.locks import LOCK_TYPES, register_lock_type
from tests.obs.test_postmortem import HangLock


@pytest.fixture
def hang():
    """A registered lock kind whose every cell deadlocks inside the run
    (pool workers fork after registration, so they see it too)."""
    register_lock_type("hang", HangLock)
    yield "hang"
    del LOCK_TYPES["hang"]
