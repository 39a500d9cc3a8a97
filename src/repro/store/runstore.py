"""The content-addressed, crash-safe result store behind checkpoint/resume.

A :class:`RunStore` is a campaign directory holding one JSON file per
completed unit of work, named by the digest of the unit's full inputs (see
:mod:`repro.store.keys`), plus one binary file per distinct waveform::

    <campaign-dir>/
        store.json            # format marker
        runs/<sha256>.json    # {"format": 4, "key": ..., "inputs": ..., "record": ...}
        blocks/<sha256>.f64   # little-endian float64 samples, named by their digest

Properties the batch engines rely on:

* **content addressing** — the digest covers everything that determines the
  outcome (circuit factory, parameters, integration style, firmware source,
  stimulus family, seed, fault spec, duration/timestep/method), so a hit is
  a *semantic* hit: the stored record is the result the engine would have
  recomputed bit-identically;
* **atomic commits** — every file is published with
  :func:`~repro.store.atomic.atomic_write_bytes`, and a record's blocks
  before the record; killing a campaign at any instant leaves the store
  with only whole files (plus at most ignorable ``.tmp`` orphans), and no
  record naming a block that is not there;
* **concurrent writers** — worker processes commit as they finish.  Distinct
  units write distinct files; identical units, and identical blocks, write
  identical content; both races are harmless under ``os.replace``;
* **exact round-trip** — records are JSON with Python's shortest-round-trip
  float rendering.  Every waveform-sized float sequence (a list of at least
  :data:`BLOCK_MIN` Python floats, or a 1-D float ndarray that long) is
  written once as a block file named by the SHA-256 of its bytes, and the
  record refers to it as ``{"$f64": "<sha256>"}``, so the many runs of a
  campaign that share the golden trace share one file.  :meth:`RunStore.load`
  checks and decodes each block once per ``blocks`` dict and hands every
  record its own list of Python floats.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from array import array
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from ..errors import StoreError
from ..obs.tracer import TRACER
from .atomic import atomic_write_bytes, atomic_write_json
from .keys import digest_key

#: Schema version written into the marker and every record.  Format 3
#: writes each distinct float sequence once, as a content-addressed block;
#: format 4 records a crash mid-burst at the raising instruction's cycle,
#: where a format-3 record may hold the burst's start; format 5 records a
#: misaligned RAM word access or fetch as an address-error crash, where a
#: format-4 record holds the run that went on with shifted bytes.
STORE_FORMAT = 5

#: The key of a block reference; a record may not use it otherwise.
BLOCK = "$f64"
#: Shortest float sequence written as a block; shorter ones stay JSON lists.
BLOCK_MIN = 16

#: Types JSON renders as they are.  Matched by exact type: a numpy scalar
#: (``np.float64`` subclasses ``float``) must still go through ``.item()``.
_PRIMITIVES = frozenset({float, int, str, bool, type(None)})
_BIG_ENDIAN = sys.byteorder == "big"
#: A block reference: the lowercase hex SHA-256 of the block's bytes.
_DIGEST = re.compile(r"[0-9a-f]{64}")


def _block(data: bytes, blocks: dict) -> dict:
    """The reference to block ``data``, which is collected in ``blocks``."""
    digest = hashlib.sha256(data).hexdigest()
    blocks[digest] = data
    return {BLOCK: digest}


def _jsonable(value: object, blocks: dict) -> object:
    """Recursively convert a record into JSON types, float sequences into
    block references (their bytes collected in ``blocks``), numpy scalars
    into Python numbers."""
    if type(value) in _PRIMITIVES:
        return value
    if isinstance(value, np.ndarray):
        if value.ndim == 1 and value.dtype.kind == "f" and value.size >= BLOCK_MIN:
            return _block(value.astype("<f8").tobytes(), blocks)
        return [_jsonable(item, blocks) for item in value.tolist()]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, Mapping):
        if BLOCK in value:
            raise StoreError(f"a store record may not use the reserved key {BLOCK!r}")
        return {str(key): _jsonable(item, blocks) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        if len(value) >= BLOCK_MIN and set(map(type, value)) == {float}:
            samples = array("d", value)
            if _BIG_ENDIAN:
                samples.byteswap()
            return _block(samples.tobytes(), blocks)
        return [_jsonable(item, blocks) for item in value]
    return value


class RunStore:
    """Directory of content-addressed run records with atomic commits."""

    MARKER = "store.json"
    RUNS_DIR = "runs"
    BLOCKS_DIR = "blocks"

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

    @property
    def blocks_directory(self) -> Path:
        return self.directory / self.BLOCKS_DIR

    def block_path(self, digest: str) -> Path:
        return self.blocks_directory / f"{digest}.f64"

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
        :class:`StoreError`.  Every block the record or its inputs name is
        on disk before the record: a block file already present is kept,
        an absent one is published first.
        """
        blocks: dict[str, bytes] = {}
        payload = {
            "format": STORE_FORMAT,
            "key": key,
            "inputs": _jsonable(inputs, blocks),
            "record": _jsonable(record, blocks),
        }
        self._ensure_marker()
        for digest, data in blocks.items():
            block = self.block_path(digest)
            if not block.exists():
                atomic_write_bytes(block, data)
                TRACER.add("store.block_writes")
        # Compact JSON: records are dominated by waveform arrays, which
        # pretty-printing would blow up to one line per sample.
        path = atomic_write_json(self.path_for(key), payload, indent=None)
        TRACER.add("store.commits")
        return path

    def load(self, key: str, blocks: "dict | None" = None) -> "dict | None":
        """The record committed under ``key``, or ``None`` when absent.

        A present-but-unreadable record, or one naming a missing or corrupt
        block, raises :class:`StoreError` naming the offending files — a
        store that lies about its contents must never silently degrade
        into re-execution with half a cache.

        ``blocks`` is the caller's memo of decoded blocks (digest →
        samples) for one pass over the store: pass the same dict to every
        load of the pass and each block file is read, checked and decoded
        once.  Every loaded sequence is still a list of its own; lists
        decoded from one block share their float objects.
        """
        entry = self.entry(key, blocks)
        return None if entry is None else entry["record"]

    def entry(self, key: str, blocks: "dict | None" = None) -> "dict | None":
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
        if blocks is None:
            blocks = {}

        def resolve(obj: dict) -> object:
            """``json.loads`` object hook: a block reference becomes a list."""
            if BLOCK not in obj:
                return obj
            if len(obj) != 1:
                raise ValueError(f"a {BLOCK!r} reference carries other keys")
            return list(self._block_samples(obj[BLOCK], path, blocks))

        try:
            payload = json.loads(text, object_hook=resolve)
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

    def _block_samples(self, digest: object, record: Path, blocks: dict) -> list:
        """The decoded block ``digest`` that ``record`` names: from
        ``blocks``, or read, checked against its name and added there."""
        if isinstance(digest, str) and digest in blocks:
            return blocks[digest]
        path = self.block_path(digest)
        where = f"store record {record} names block {path}"
        if not (isinstance(digest, str) and _DIGEST.fullmatch(digest)):
            raise StoreError(f"{where}, but {digest!r} is not a SHA-256 digest")
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise StoreError(f"{where}, which cannot be read: {exc}") from exc
        if len(data) % 8:
            raise StoreError(f"{where}, whose {len(data)} bytes are not float64 data")
        if hashlib.sha256(data).hexdigest() != digest:
            raise StoreError(f"{where}, whose bytes do not match its digest")
        decoded = array("d", data)
        if _BIG_ENDIAN:
            decoded.byteswap()
        samples = blocks[digest] = decoded.tolist()
        TRACER.add("store.block_reads")
        return samples

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
