"""Fixture for the process-boundary rule.

Linted as if it were ``repro.parallel.fixture`` — inside the sensitive
tree but NOT the engine chokepoint, so pool imports here must fire.
"""

from concurrent.futures import ProcessPoolExecutor  # finding: pool import
import multiprocessing  # finding: multiprocessing import
import pickle  # finding: blob (de)serializer import
from marshal import dumps  # finding: blob (de)serializer import


def worker_entry(fn):  # stand-in for repro.parallel.cells.worker_entry
    fn.__is_worker_entry__ = True
    return fn


@worker_entry
def good_entry(chunk):
    return list(chunk)


def bare_function(chunk):
    return list(chunk)


def outer():
    @worker_entry
    def nested_entry(chunk):  # finding: nested worker entry
        return chunk

    return nested_entry


def submit_sites(executor):
    executor.submit(good_entry, ())  # fine: marked
    executor.submit(bare_function, ())  # finding: unmarked submit


# -- fine section ---------------------------------------------------------

def fine_uses(executor, items):
    # submitting a name this module does not define is out of scope for a
    # module-local rule (cross-module resolution is the runtime audit's job)
    executor.submit(items.pop)
    futures = [executor.submit(good_entry, (i,)) for i in items]
    return futures
