"""Content-addressed blob store backing the sweep cache.

The only place in the sensitive packages that writes result blobs to
disk, in one format: canonical JSON, so what comes back is primitives
only (``pickle``/``marshal``/… are a simlint ``process-boundary``
finding here too — a pickled file is a process boundary stretched over
time).  **Corruption is a miss, never a crash**: a truncated, garbled
or hand-edited blob makes its cell recompute.  Layout is a git-style
fan-out, ``<root>/<digest[:2]>/<digest>.json``; digests come from
:mod:`repro.parallel.cache`.  Writes are atomic (temp file +
``os.replace``), so an interrupted sweep leaves a whole entry or none —
which makes re-running it with ``sweep --cache DIR`` a sound resume.
"""

from __future__ import annotations

import json
import os
from typing import Optional

_JSON_EXT = ".json"


class BlobStore:
    """A directory of content-addressed blobs with atomic writes.

    The store is deliberately dumb: ``get_json`` returns ``None`` for
    anything it cannot fully load and validate as a JSON object (missing,
    truncated, corrupt, wrong type), and ``put_json`` unconditionally
    (re)writes.  All keying/invalidations live in the digest.
    """

    def __init__(self, root: str) -> None:
        self.root = str(root)

    def _path(self, digest: str, ext: str) -> str:
        if not digest or not all(c in "0123456789abcdef" for c in digest):
            raise ValueError(f"malformed digest {digest!r}")
        return os.path.join(self.root, digest[:2], digest + ext)

    def _write_atomic(self, path: str, data: bytes) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):  # failed mid-write: leave no debris
                os.unlink(tmp)

    # -- JSON blobs (cell rows) ------------------------------------------
    def get_json(self, digest: str) -> Optional[dict]:
        """Load a JSON blob; ``None`` if absent or not a JSON object."""
        try:
            with open(self._path(digest, _JSON_EXT), "rb") as fh:
                payload = json.loads(fh.read().decode("utf-8"))
        except (OSError, ValueError, UnicodeDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def put_json(self, digest: str, payload: dict) -> None:
        data = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        self._write_atomic(self._path(digest, _JSON_EXT), data)

    # -- introspection ----------------------------------------------------
    def json_path(self, digest: str) -> str:
        """Where a JSON entry lives (for tests and debugging)."""
        return self._path(digest, _JSON_EXT)
