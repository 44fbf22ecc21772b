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

from itertools import accumulate

from repro.common.errors import ConfigError
from repro.common.rng import Draws
from repro.workload.spec import WorkloadSpec


def _zipf_weight(rank: int, theta: float) -> float:
    try:
        return 1.0 / float(rank) ** theta
    except OverflowError:   # numpy's power is inf there, its inverse 0
        return 0.0


def _zipf_cdf(n: int, theta: float) -> list[float]:
    """CDF of a Zipfian distribution over ranks 1..n with skew theta.

    Float for float what ``np.cumsum(1.0 / np.power(np.arange(1, n + 1,
    dtype=np.float64), theta))`` divided by its last element gives: a
    running sum in rank order, then one division per rank."""
    cdf = list(accumulate(_zipf_weight(rank, theta)
                          for rank in range(1, n + 1)))
    total = cdf[-1]
    return [c / total for c in cdf]


def _zipf_rank(cdf: list[float], u: float) -> int:
    """How many CDF values are ``<= u``: ``np.searchsorted(cdf, u,
    side="right")``, the binary search of ``bisect.bisect_right`` (which
    simlint's engine-chokepoint rule keeps to the event core)."""
    lo, hi = 0, len(cdf)
    while lo < hi:
        mid = (lo + hi) // 2
        if u < cdf[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo


class LockPicker:
    """Chooses the target lock index for each of one thread's operations.

    Each choice draws from ``draws``, the thread's stream: ``random()``
    for the locality coin and the Zipfian rank, ``below()`` for a
    uniform pick — nothing to pick from a single lock.  The index lists
    are the table's own, shared by the node's threads: read-only.
    """

    def __init__(self, spec: WorkloadSpec, node: int, thread: int,
                 local_indices: list[int], remote_indices: list[int],
                 draws: Draws):
        if not local_indices:
            raise ConfigError(
                f"node {node} holds no locks — increase n_locks so every "
                f"node has a partition")
        if spec.locality_pct < 100.0 and not remote_indices:
            raise ConfigError("workload has remote accesses but only one partition")
        self.spec = spec
        self.node = node
        self.thread = thread
        self._draws = draws
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
        rank = _zipf_rank(cdf, draws.random())
        return indices[min(rank, len(indices) - 1)]
