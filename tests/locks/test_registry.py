"""The lock registry lists every built-in kind by module path and
imports a kind's module the first time a lock of that kind is made.

Each probe runs in a fresh interpreter: the test session has long
loaded every lock module.
"""

import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: each built-in kind and the modules its implementation loads
KIND_MODULES = {
    "alock": ("repro.locks.alock", "repro.locks.alock.alock",
              "repro.locks.alock.descriptors", "repro.locks.alock.peterson"),
    "spinlock": ("repro.locks.baselines", "repro.locks.baselines.spinlock"),
    "mcs": ("repro.locks.baselines", "repro.locks.baselines.mcs"),
    "filter": ("repro.locks.extensions", "repro.locks.extensions.filter"),
    "bakery": ("repro.locks.extensions", "repro.locks.extensions.bakery"),
    "rpc": ("repro.locks.extensions", "repro.locks.extensions.rpc_lock",
            "repro.rdma.rpc"),
    "mixedcas": ("repro.locks.extensions", "repro.locks.extensions.coherent"),
}
IMPLEMENTATIONS = sorted({m for mods in KIND_MODULES.values() for m in mods})


def _run(code):
    """Run ``code`` in a fresh interpreter; return the implementation
    modules it left loaded."""
    probe = (f"{code}\nimport sys\n"
             f"print(' '.join(m for m in {IMPLEMENTATIONS!r} if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run([sys.executable, "-c", probe], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_every_builtin_kind_is_listed_before_any_lock_module_loads():
    loaded = _run(f"""\
import pytest
from repro.common.errors import ConfigError
from repro.locks import LOCK_TYPES, make_lock, register_lock_type
from repro.cluster import Cluster
assert sorted(LOCK_TYPES) == {sorted(KIND_MODULES)!r}, sorted(LOCK_TYPES)
assert "alock" in LOCK_TYPES and "nope" not in LOCK_TYPES
with pytest.raises(ConfigError) as info:
    make_lock("nope", Cluster(2, seed=0), 0)
assert str(info.value) == (
    "unknown lock type 'nope'; known: {sorted(KIND_MODULES)!r}"), info.value
for kind in {sorted(KIND_MODULES)!r}:
    with pytest.raises(ConfigError, match=f"lock type '{{kind}}' already registered"):
        register_lock_type(kind, lambda *a, **k: None)
""")
    assert loaded == []


@pytest.mark.parametrize("kind", sorted(KIND_MODULES))
def test_make_lock_loads_only_its_kind(kind):
    loaded = _run(f"""\
import pytest
from repro.common.errors import ConfigError
from repro.cluster import Cluster
from repro.locks import make_lock, register_lock_type
cluster = Cluster(2, seed=0)
lock = make_lock({kind!r}, cluster, 1)
assert lock.kind == {kind!r} and lock.home_node == 1
assert type(make_lock({kind!r}, cluster, 0)) is type(lock)
with pytest.raises(ConfigError, match="already registered"):
    register_lock_type({kind!r}, lambda *a, **k: None)
""")
    assert loaded == sorted(KIND_MODULES[kind])
