"""What a single-process run loads: the schedule walk and the workload
runner must not import the process-pool stack.

The fleet (:mod:`repro.schedcheck.fleet`) fans walks over worker
processes through :mod:`repro.parallel`, which brings in
:mod:`multiprocessing`, :mod:`concurrent.futures` and some forty more
modules (≈ 2 MiB of peak RSS).  Nothing a walk or a workload run does
uses them, so ``repro.schedcheck`` does not re-export the fleet; this
test keeps a re-export (or any other import of the pool) from coming
back unnoticed.  Each module is imported in a fresh interpreter, since
the test session itself has long loaded everything.
"""

import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: modules only the process pool needs
POOL_MODULES = ("repro.parallel", "repro.schedcheck.fleet",
                "multiprocessing", "concurrent.futures")

PROBE = """\
import importlib, sys
importlib.import_module(sys.argv[1])
print(" ".join(m for m in sys.argv[2:] if m in sys.modules))
"""


@pytest.mark.parametrize("module", ["repro.schedcheck", "repro.workload.runner"])
def test_single_process_run_does_not_load_the_pool(module):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run([sys.executable, "-c", PROBE, module, *POOL_MODULES],
                          cwd=REPO, env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
