"""Decision strings: the portable record of one explored schedule.

A run's schedule is fully determined by what the policy chose at each
*choice point* (a step where two or more events were ready at the same
sim time).  Since choice 0 is the default scheduler's pick, only the
non-default choices carry information — a decision string is the sparse
map ``{choice_index: ready_list_index}`` of those, rendered as
``"17:2,45:1"``.

Sparseness is what makes shrinking work: deleting one entry leaves every
other entry attached to the same choice point (the run up to the first
*remaining* entry is unchanged), so delta debugging can remove
interventions independently instead of shifting a dense string.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.common.errors import ConfigError

#: Version of the schedule that decision strings index into.  A string
#: names choice points by their position in dispatch order and options
#: by their position in the tie set, so it describes a run only under
#: the slot layout it was recorded with.  Bump whenever a change adds,
#: removes or reorders schedule slots, i.e. whenever ``GOLDEN_SCHED``
#: (tests/ci/test_hashseed_identity.py) is re-recorded; corpus entries
#: carry the version they were recorded under and strict replay reports
#: any other as stale (docs/architecture.md, "Re-recording the
#: schedule").  1: one slot per grant and per hold at every NIC stage;
#: 2: PCIe/TX departures computed, free slots and unparked watchers
#: take no slot; 3: a thread's private steps (fences, stores to its own
#: unpublished descriptor or leader budget word) take no slot of their
#: own but ride with its next visible step's sleep, and a local wait
#: registers its watcher at the round's first failed read.
SCHEDULE_VERSION = 3


class Decisions:
    """An immutable sparse decision string.

    ``len()`` counts the non-default decisions — the "number of
    scheduling decisions" a counterexample needs.
    """

    __slots__ = ("_map",)

    def __init__(self, entries: Iterable[tuple[int, int]] = ()):
        m: dict[int, int] = {}
        for k, v in entries:
            k, v = int(k), int(v)
            if k < 0 or v < 0:
                raise ConfigError(f"decision entries must be >= 0, got {k}:{v}")
            if v != 0:
                m[k] = v
        # insertion order = sorted order, kept for stable iteration/repr
        self._map = dict(sorted(m.items()))

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_dense(cls, log: Iterable[int]) -> "Decisions":
        """From an :attr:`Environment.schedule_decisions` dense log."""
        return cls((k, v) for k, v in enumerate(log) if v != 0)

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, int]) -> "Decisions":
        return cls(mapping.items())

    @classmethod
    def parse(cls, text: str) -> "Decisions":
        """Inverse of :meth:`to_string` (``"17:2,45:1"``; "" = empty)."""
        text = text.strip()
        if not text:
            return cls()
        entries = []
        for part in text.split(","):
            try:
                k, v = part.split(":")
                entries.append((int(k), int(v)))
            except ValueError:
                raise ConfigError(
                    f"bad decision string component {part!r}; expected "
                    f"'choice_index:option' pairs like '17:2,45:1'") from None
        return cls(entries)

    # -- queries --------------------------------------------------------
    def get(self, choice_index: int, default: int = 0) -> int:
        return self._map.get(choice_index, default)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(self._map.items())

    def __len__(self) -> int:
        return len(self._map)

    def __bool__(self) -> bool:
        return bool(self._map)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Decisions) and self._map == other._map

    def __hash__(self) -> int:
        # Tuples of ints hash identically across processes (only str
        # hashing is PYTHONHASHSEED-randomized), and this hash never
        # feeds scheduling — only dict/set membership in callers.
        return hash(tuple(self._map.items()))  # simlint: ignore[nondet-source]

    @property
    def last_index(self) -> int:
        """Largest choice index mentioned (-1 when empty)."""
        return max(self._map) if self._map else -1

    # -- editing (used by the shrinker) --------------------------------
    def without(self, keys: Iterable[int]) -> "Decisions":
        """A copy with the given choice indices reset to the default."""
        drop = set(keys)
        return Decisions((k, v) for k, v in self._map.items() if k not in drop)

    def replace(self, key: int, value: int) -> "Decisions":
        entries = dict(self._map)
        entries[key] = value
        return Decisions(entries.items())

    # -- rendering ------------------------------------------------------
    def to_string(self) -> str:
        return ",".join(f"{k}:{v}" for k, v in self._map.items())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Decisions({self.to_string()!r})"


__all__ = ["SCHEDULE_VERSION", "Decisions"]
