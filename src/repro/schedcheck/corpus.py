"""The counterexample corpus: every bug ever found, forever replayable.

A *corpus entry* freezes one shrunk failing schedule as plain JSON
(schema ``alock-corpus/<schedule version>``): the complete scenario
recipe, the minimized sparse decision string, the failure kind, the
failing execution's digest, and a relative reference to the post-mortem
dump captured at the moment of failure.  Entries committed under
``tests/schedcheck/corpus/`` become tier-1 regression tests — see
``tests/schedcheck/test_corpus_replay.py`` — replayed in strict mode so
an entry recorded under another
:data:`~repro.schedcheck.decisions.SCHEDULE_VERSION`, or a scenario that
drifts under a recording, is reported as *stale* (with a re-shrink
hint) rather than silently replaying a different schedule.

Files are content-addressed: the filename embeds a digest of the
canonical entry JSON, so identical failures collapse, concurrent fleet
workers never collide, and any edit to a committed entry is visible as
a name/content mismatch.  Serialization is the repo-wide canonical
form (sorted keys, fixed separators, trailing newline) — byte-identical
across worker counts and ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, fields
from typing import Optional

from repro.common.errors import ConfigError
from repro.faults.plan import CrashWindow, FaultPlan
from repro.schedcheck.decisions import SCHEDULE_VERSION
from repro.schedcheck.explore import ScheduleResult, replay
from repro.schedcheck.scenario import LockScenario

#: the schema names the schedule version the decisions were recorded under
SCHEMA_PREFIX = "alock-corpus/"
SCHEMA = f"{SCHEMA_PREFIX}{SCHEDULE_VERSION}"

#: subdirectory (of the corpus dir) holding referenced post-mortem dumps
DUMPS_SUBDIR = "dumps"


# -- scenario (de)serialization -----------------------------------------

def scenario_payload(scenario: LockScenario) -> dict:
    """A :class:`LockScenario` as a JSON-safe dict (round-trips through
    :func:`scenario_from_payload`)."""
    payload: dict = {}
    for f in fields(scenario):
        value = getattr(scenario, f.name)
        if f.name == "lock_options":
            payload[f.name] = [[k, v] for k, v in value]
        elif f.name == "faults":
            payload[f.name] = None if value is None else _faults_payload(value)
        else:
            payload[f.name] = value
    return payload


def _faults_payload(plan: FaultPlan) -> dict:
    payload: dict = {}
    for f in fields(plan):
        value = getattr(plan, f.name)
        if f.name == "crash_windows":
            payload[f.name] = [[w.node, w.start_ns, w.end_ns] for w in value]
        else:
            payload[f.name] = value
    return payload


def scenario_from_payload(payload: dict) -> LockScenario:
    kwargs = dict(payload)
    kwargs["lock_options"] = tuple(
        (k, v) for k, v in kwargs.get("lock_options", []))
    faults = kwargs.get("faults")
    if faults is not None:
        fkwargs = dict(faults)
        fkwargs["crash_windows"] = tuple(
            CrashWindow(node=n, start_ns=s, end_ns=e)
            for n, s, e in fkwargs.get("crash_windows", []))
        kwargs["faults"] = FaultPlan(**fkwargs)
    return LockScenario(**kwargs)


def scenario_digest(scenario: LockScenario) -> str:
    """Content digest of the scenario recipe itself (stable across
    processes; independent of where the entry file lives)."""
    blob = json.dumps(scenario_payload(scenario), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return hashlib.blake2b(blob, digest_size=8).hexdigest()


# -- entries ------------------------------------------------------------

@dataclass(frozen=True)
class CorpusEntry:
    """One shrunk counterexample, ready to replay.

    Attributes:
        name: human label, usually the seeded-bug or scenario name.
        failure_kind: the taxonomy tag the replay must reproduce
            (``deadlock`` / ``stall`` / ``exception`` / ``checker``).
        scenario: the complete scenario recipe.
        decisions: the minimized sparse decision string.
        digest: execution digest of the confirming replay — strict
            replay must land on *exactly* this execution.
        detail: the failure's one-line detail at capture time.
        dump_ref: corpus-dir-relative path of the post-mortem dump
            captured from the confirming replay (None when the failure
            produced no dump).
        provenance: how the entry was found — schedules spent, fleet
            seed, shrink stats.  Informational; not part of identity.
        schedule_version: the
            :data:`~repro.schedcheck.decisions.SCHEDULE_VERSION` the
            decisions index into (the number in the entry's schema).
    """

    name: str
    failure_kind: str
    scenario: LockScenario
    decisions: str
    digest: str
    detail: str = ""
    dump_ref: Optional[str] = None
    provenance: tuple = ()
    schedule_version: int = SCHEDULE_VERSION

    def payload(self) -> dict:
        return {
            "schema": f"{SCHEMA_PREFIX}{self.schedule_version}",
            "name": self.name,
            "failure_kind": self.failure_kind,
            "scenario": scenario_payload(self.scenario),
            "scenario_digest": scenario_digest(self.scenario),
            "decisions": self.decisions,
            "digest": self.digest,
            "detail": self.detail,
            "dump_ref": self.dump_ref,
            "provenance": {k: v for k, v in self.provenance},
        }

    def entry_digest(self) -> str:
        """Content address: digest of the identity fields (everything
        except the dump reference, whose name embeds this digest)."""
        payload = self.payload()
        del payload["dump_ref"]
        del payload["provenance"]
        blob = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        return hashlib.blake2b(blob, digest_size=8).hexdigest()

    def stem(self) -> str:
        return f"{self.name}-{self.failure_kind}-{self.entry_digest()}"


def entry_from_payload(payload: dict) -> CorpusEntry:
    # An entry recorded under an earlier schedule version loads — so
    # check_entry can call it stale — but one from a later version, or
    # anything else, is not a schema this code knows.
    schema = str(payload.get("schema"))
    version = schema.removeprefix(SCHEMA_PREFIX)
    if not (schema.startswith(SCHEMA_PREFIX) and version.isdecimal()
            and 1 <= int(version) <= SCHEDULE_VERSION):
        raise ConfigError(f"unknown corpus schema {schema!r}; "
                          f"expected {SCHEMA!r} (or an earlier version)")
    return CorpusEntry(
        schedule_version=int(version),
        name=payload["name"],
        failure_kind=payload["failure_kind"],
        scenario=scenario_from_payload(payload["scenario"]),
        decisions=payload["decisions"],
        digest=payload["digest"],
        detail=payload.get("detail", ""),
        dump_ref=payload.get("dump_ref"),
        provenance=tuple(sorted(payload.get("provenance", {}).items())))


# -- store --------------------------------------------------------------

def entry_json(entry: CorpusEntry) -> str:
    """Canonical committed form: sorted keys, 2-space indent (the file
    is reviewed by humans), trailing newline."""
    return json.dumps(entry.payload(), sort_keys=True, indent=2,
                      ensure_ascii=True) + "\n"


def write_entry(entry: CorpusEntry, corpus_dir: str,
                dump: Optional[str] = None) -> str:
    """Persist ``entry`` (and its dump, when given) under ``corpus_dir``.

    Returns the entry file's path.  Writing is atomic and idempotent:
    the same entry always produces the same bytes at the same name, so
    concurrent writers and re-runs collapse.
    """
    stem = entry.stem()
    if dump is not None:
        dump_ref = os.path.join(DUMPS_SUBDIR, f"{stem}.dump.json")
        entry = CorpusEntry(**{**_entry_kwargs(entry), "dump_ref": dump_ref})
        dump_path = os.path.join(corpus_dir, dump_ref)
        os.makedirs(os.path.dirname(dump_path), exist_ok=True)
        _atomic_write(dump_path, dump if dump.endswith("\n") else dump + "\n")
    os.makedirs(corpus_dir, exist_ok=True)
    path = os.path.join(corpus_dir, f"{stem}.json")
    _atomic_write(path, entry_json(entry))
    return path


def _entry_kwargs(entry: CorpusEntry) -> dict:
    return {f.name: getattr(entry, f.name) for f in fields(entry)}


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def load_entry(path: str) -> CorpusEntry:
    with open(path, encoding="utf-8") as fh:
        return entry_from_payload(json.load(fh))


def load_corpus(corpus_dir: str) -> list[tuple[str, CorpusEntry]]:
    """Every entry in ``corpus_dir``, as ``(path, entry)`` sorted by
    filename.  Missing directory = empty corpus."""
    if not os.path.isdir(corpus_dir):
        return []
    out = []
    for fname in sorted(os.listdir(corpus_dir)):
        if fname.endswith(".json"):
            path = os.path.join(corpus_dir, fname)
            out.append((path, load_entry(path)))
    return out


def load_dump(corpus_dir: str, entry: CorpusEntry) -> Optional[str]:
    """The referenced post-mortem dump's text, if present on disk."""
    if entry.dump_ref is None:
        return None
    path = os.path.join(corpus_dir, entry.dump_ref)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# -- replay -------------------------------------------------------------

def check_entry(entry: CorpusEntry) -> tuple[str, ScheduleResult]:
    """Strict-replay ``entry`` against the current code.

    Returns ``(status, result)``:

    * ``"reproduced"`` — the replay failed with the recorded kind *and*
      landed on the recorded execution digest (byte-identical replay);
    * ``"stale"`` — the entry was recorded under another schedule
      version (it is then not run at all), or the scenario drifted
      under the recording (see :func:`~repro.schedcheck.explore.replay`
      strict mode); the entry needs re-finding and re-shrinking, not
      debugging;
    * ``"passed"`` — the schedule completed cleanly (the bug is gone —
      expected when replaying against fixed code);
    * ``"mismatch"`` — it failed, faithfully, but differently than
      recorded (kind or digest changed): the code under the scenario
      has materially changed and the entry needs review.
    """
    result = replay(entry.scenario, entry.decisions, strict=True,
                    recorded_version=entry.schedule_version)
    if result.failure_kind == "stale":
        return "stale", result
    if result.ok:
        return "passed", result
    if (result.failure_kind == entry.failure_kind
            and result.digest == entry.digest):
        return "reproduced", result
    return "mismatch", result


__all__ = [
    "SCHEMA", "SCHEMA_PREFIX", "DUMPS_SUBDIR", "CorpusEntry", "check_entry",
    "entry_json", "entry_from_payload", "load_corpus", "load_dump",
    "load_entry",
    "scenario_digest", "scenario_from_payload", "scenario_payload",
    "write_entry",
]
