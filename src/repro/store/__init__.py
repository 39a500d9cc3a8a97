"""Durable campaign state (the ``repro.store`` subsystem).

The batch engines (:class:`~repro.sweep.runner.SweepRunner`,
:class:`~repro.sweep.platform.PlatformSweepRunner`,
:class:`~repro.fault.campaign.FaultCampaignRunner`) can sweep hundreds of
scenarios in one call — and before this subsystem an interruption lost all
of them.  ``repro.store`` is the persistence substrate underneath
checkpoint/resume:

* :mod:`~repro.store.atomic` — write-temp-then-``os.replace`` file
  publication, the crash-safety primitive shared by every persistence path;
* :mod:`~repro.store.keys` — address-free structural fingerprints and
  canonical-JSON SHA-256 digests of a unit of work's full inputs;
* :mod:`~repro.store.runstore` — :class:`RunStore`, the content-addressed
  campaign directory that the campaign executor
  (:mod:`repro.sweep.executor`) consults before simulating and commits
  into as results complete.

Pass ``store=<dir>`` to any batch runner to persist results as they are
produced, and ``resume=True`` to load completed units instead of
re-executing them; see ``docs/campaign_store.md`` for layout, digest keys
and resume semantics.
"""

from ..errors import CampaignInterrupted, StoreError
from .atomic import atomic_write_bytes, atomic_write_json, atomic_write_text
from .keys import canonical_json, digest_key, fingerprint
from .runstore import STORE_FORMAT, RunStore, as_run_store

__all__ = [
    "CampaignInterrupted",
    "RunStore",
    "STORE_FORMAT",
    "StoreError",
    "as_run_store",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "canonical_json",
    "digest_key",
    "fingerprint",
]
