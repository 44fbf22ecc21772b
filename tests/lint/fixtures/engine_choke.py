"""Fixture for the engine-chokepoint rule.

Linted as if it were ``repro.sim.fixture`` — inside the sensitive tree
but NOT the event core, so scheduler-structure imports here must fire.
"""

import heapq  # finding: scheduler structure outside the engine
from bisect import insort  # finding: scheduler structure outside the engine


# -- fine -----------------------------------------------------------------
from repro.sim.core import Environment  # using the engine is the point
from repro.sim import Event  # package re-export of the same


def uses_engine() -> Environment:
    return Environment()
