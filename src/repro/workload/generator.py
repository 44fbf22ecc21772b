"""Per-thread lock-choice streams.

Each client thread owns an independent RNG stream (derived from the
spec seed + its identity), so runs are reproducible and adding threads
does not perturb existing streams.  Locality is sampled per operation:
with probability ``locality_pct`` the thread picks among locks homed on
its node, otherwise among all other locks — Definition 4.1/4.2 applied
to the workload, matching the paper's "95% locality" phrasing.

Within the chosen class the lock is uniform by default; the Zipfian
option (an extension beyond the paper, standard in lock-service
benchmarks) skews popularity to stress passing behaviour further.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigError
from repro.common.rng import Draws
from repro.workload.spec import WorkloadSpec


def _zipf_cdf(n: int, theta: float) -> np.ndarray:
    """CDF of a Zipfian distribution over ranks 1..n with skew theta."""
    weights = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), theta)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf


class LockPicker:
    """Chooses the target lock index for each of one thread's operations.

    The picker owns ``rng``: its draws go through :class:`Draws` over the
    generator's bit generator, which reads ahead, so nothing else may
    draw from ``rng``.  The choices are exactly those of the generator's
    own scalar ``random()``/``integers()`` calls, in the same order —
    including drawing nothing to pick from a single lock.  The index
    lists are the table's own, shared by the node's threads: read-only.
    """

    def __init__(self, spec: WorkloadSpec, node: int, thread: int,
                 local_indices: list[int], remote_indices: list[int],
                 rng: np.random.Generator):
        if not local_indices:
            raise ConfigError(
                f"node {node} holds no locks — increase n_locks so every "
                f"node has a partition")
        if spec.locality_pct < 100.0 and not remote_indices:
            raise ConfigError("workload has remote accesses but only one partition")
        self.spec = spec
        self.node = node
        self.thread = thread
        self._draws = Draws(rng.bit_generator)
        self._local = local_indices
        self._remote = remote_indices
        self._p_local = spec.locality_pct / 100.0
        if spec.distribution == "zipfian":
            self._local_cdf = _zipf_cdf(len(self._local), spec.zipf_theta)
            self._remote_cdf = (_zipf_cdf(len(self._remote), spec.zipf_theta)
                                if len(self._remote) else None)
        else:
            self._local_cdf = None
            self._remote_cdf = None

    def next_lock(self) -> int:
        """Lock index for the thread's next operation."""
        draws = self._draws
        if self._p_local >= 1.0 or draws.random() < self._p_local:
            indices, cdf = self._local, self._local_cdf
        else:
            indices, cdf = self._remote, self._remote_cdf
        if cdf is None:
            return indices[draws.below(len(indices))]
        rank = int(np.searchsorted(cdf, draws.random(), side="right"))
        return indices[min(rank, len(indices) - 1)]
