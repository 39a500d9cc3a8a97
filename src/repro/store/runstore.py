"""The content-addressed, crash-safe result store behind checkpoint/resume.

A :class:`RunStore` is a campaign directory holding one JSON file per
completed unit of work, named by the digest of the unit's full inputs (see
:mod:`repro.store.keys`)::

    <campaign-dir>/
        store.json            # format marker
        runs/<sha256>.json    # {"format": 2, "key": ..., "inputs": ..., "record": ...}

Properties the batch engines rely on:

* **content addressing** — the digest covers everything that determines the
  outcome (circuit factory, parameters, integration style, firmware source,
  stimulus family, seed, fault spec, duration/timestep/method), so a hit is
  a *semantic* hit: the stored record is the result the engine would have
  recomputed bit-identically;
* **atomic commits** — every file is published with
  :func:`~repro.store.atomic.atomic_write_json`; killing a campaign at any
  instant leaves the store with only whole records (plus at most ignorable
  ``.tmp`` orphans);
* **concurrent writers** — worker processes commit as they finish.  Distinct
  units write distinct files; identical units write identical content; both
  races are harmless under ``os.replace``;
* **exact round-trip** — records are JSON with Python's shortest-round-trip
  float rendering, and every waveform-sized float sequence (a list of at
  least :data:`BLOCK_MIN` Python floats, or a 1-D float ndarray that long)
  is one binary block ``{"$f64": <base64 of little-endian float64>}``, so
  waveforms and metrics reload bit-identically.  :meth:`RunStore.load`
  turns blocks back into lists of Python floats.
"""

from __future__ import annotations

import base64
import binascii
import json
import sys
from array import array
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from ..errors import StoreError
from ..obs.tracer import TRACER
from .atomic import atomic_write_json
from .keys import digest_key

#: Schema version written into the marker and every record.  Format 2
#: writes float sequences as binary blocks.
STORE_FORMAT = 2

#: The key of a binary float block; a record may not use it otherwise.
BLOCK = "$f64"
#: Shortest float sequence written as a block; shorter ones stay JSON lists.
BLOCK_MIN = 16

#: Types JSON renders as they are.  Matched by exact type: a numpy scalar
#: (``np.float64`` subclasses ``float``) must still go through ``.item()``.
_PRIMITIVES = frozenset({float, int, str, bool, type(None)})
_BIG_ENDIAN = sys.byteorder == "big"


def _block(data: bytes) -> dict:
    return {BLOCK: base64.b64encode(data).decode("ascii")}


def _jsonable(value: object) -> object:
    """Recursively convert a record into JSON types, float sequences into
    blocks, numpy scalars into Python numbers."""
    if type(value) in _PRIMITIVES:
        return value
    if isinstance(value, np.ndarray):
        if value.ndim == 1 and value.dtype.kind == "f" and value.size >= BLOCK_MIN:
            return _block(value.astype("<f8").tobytes())
        return [_jsonable(item) for item in value.tolist()]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, Mapping):
        if BLOCK in value:
            raise StoreError(f"a store record may not use the reserved key {BLOCK!r}")
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        if len(value) >= BLOCK_MIN and set(map(type, value)) == {float}:
            samples = array("d", value)
            if _BIG_ENDIAN:
                samples.byteswap()
            return _block(samples.tobytes())
        return [_jsonable(item) for item in value]
    return value


def _unblock(obj: dict) -> object:
    """``json.loads`` object hook: a block becomes its list of floats."""
    if BLOCK not in obj:
        return obj
    if len(obj) != 1:
        raise ValueError(f"a {BLOCK!r} block carries other keys")
    try:
        data = base64.b64decode(obj[BLOCK], validate=True)
    except (binascii.Error, TypeError) as exc:
        raise ValueError(f"undecodable {BLOCK!r} block: {exc}") from exc
    if len(data) % 8:
        raise ValueError(f"a {BLOCK!r} block of {len(data)} bytes is not float64 data")
    samples = array("d", data)
    if _BIG_ENDIAN:
        samples.byteswap()
    return samples.tolist()


class RunStore:
    """Directory of content-addressed run records with atomic commits."""

    MARKER = "store.json"
    RUNS_DIR = "runs"

    def __init__(self, directory: "str | Path") -> None:
        self.directory = Path(directory)
        self._check_marker()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunStore({str(self.directory)!r})"

    # -- layout ------------------------------------------------------------------------
    @property
    def runs_directory(self) -> Path:
        return self.directory / self.RUNS_DIR

    def path_for(self, key: str) -> Path:
        return self.runs_directory / f"{key}.json"

    def _check_marker(self) -> None:
        marker = self.directory / self.MARKER
        if not marker.exists():
            return
        try:
            payload = json.loads(marker.read_text(encoding="utf-8"))
            found = int(payload["format"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise StoreError(f"malformed store marker {marker}: {exc}") from exc
        if found != STORE_FORMAT:
            raise StoreError(
                f"{self.directory} is a format-{found} store; this version "
                f"reads and writes format {STORE_FORMAT}"
            )

    def _ensure_marker(self) -> None:
        marker = self.directory / self.MARKER
        if not marker.exists():
            atomic_write_json(marker, {"format": STORE_FORMAT})

    # -- addressing --------------------------------------------------------------------
    @staticmethod
    def key(inputs: object) -> str:
        """The content digest of a unit of work's canonical input payload."""
        return digest_key(inputs)

    # -- persistence -------------------------------------------------------------------
    def contains(self, key: str) -> bool:
        return self.path_for(key).exists()

    def commit(
        self,
        key: str,
        record: Mapping,
        inputs: object = None,
    ) -> Path:
        """Atomically publish ``record`` under ``key``.

        ``inputs`` (the pre-digest key payload) is stored alongside the
        record for auditability — a hit can always be traced back to the
        exact inputs it was computed from.  Committing the same key twice
        is allowed; the last write wins atomically.  A record using the
        reserved block key :data:`BLOCK` anywhere raises
        :class:`StoreError`.
        """
        payload = {
            "format": STORE_FORMAT,
            "key": key,
            "inputs": _jsonable(inputs),
            "record": _jsonable(record),
        }
        self._ensure_marker()
        # Compact JSON: records are dominated by waveform arrays, which
        # pretty-printing would blow up to one line per sample.
        path = atomic_write_json(self.path_for(key), payload, indent=None)
        TRACER.add("store.commits")
        return path

    def load(self, key: str) -> "dict | None":
        """The record committed under ``key``, or ``None`` when absent.

        A present-but-unreadable record raises :class:`StoreError` naming
        the offending file — a store that lies about its contents must
        never silently degrade into re-execution with half a cache.
        """
        entry = self.entry(key)
        return None if entry is None else entry["record"]

    def entry(self, key: str) -> "dict | None":
        """Everything committed under ``key``: ``format``, ``key``, the
        ``inputs`` the record was computed from, and the ``record``.

        ``None`` when absent; validated and decoded like :meth:`load`.
        """
        path = self.path_for(key)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            TRACER.add("store.misses")
            return None
        except OSError as exc:
            raise StoreError(f"cannot read store record {path}: {exc}") from exc
        try:
            payload = json.loads(text, object_hook=_unblock)
            if int(payload["format"]) != STORE_FORMAT:
                raise ValueError(f"record format {payload['format']}")
            if payload["key"] != key:
                raise ValueError(
                    f"content digest mismatch (file claims {payload['key']!r})"
                )
            record = payload["record"]
            if not isinstance(record, dict):
                raise ValueError("record payload is not an object")
        except (ValueError, KeyError, TypeError) as exc:
            raise StoreError(f"malformed store record {path}: {exc}") from exc
        TRACER.add("store.hits")
        return payload

    # -- enumeration -------------------------------------------------------------------
    def keys(self) -> list[str]:
        """Digests of every committed record (sorted).

        Temp orphans from interrupted writes are invisible by construction:
        they are named ``.<name>.json.<random>.tmp`` and never match the
        ``*.json`` glob.
        """
        if not self.runs_directory.exists():
            return []
        return sorted(path.stem for path in self.runs_directory.glob("*.json"))

    def __len__(self) -> int:
        return len(self.keys())

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())


def as_run_store(store: "RunStore | str | Path | None") -> "RunStore | None":
    """Coerce a user-supplied ``store=`` argument (path or store) to a store."""
    if store is None or isinstance(store, RunStore):
        return store
    return RunStore(store)
