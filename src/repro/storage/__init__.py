"""Sealed spill/scan storage under the operator simulator.

When a working set exceeds the enclave's EPC/static budget, operators can
partition to *sealed* untrusted storage instead of paying EDMM growth or
paging: blocks are AES-GCM sealed on the way out, unsealed (and
integrity-checked) on the way back in, and every byte is priced through
the calibrated cycle-accounting path (`hardware/calibration.py`).

* :class:`~repro.storage.config.StorageConfig` — the ``--storage BUDGET``
  knob, carried as the ``storage`` field of the ambient
  :class:`~repro.runconfig.RunConfig`.
* :class:`~repro.storage.sealed.SealedStore` — per-block seal/unseal/IO
  pricing plus traffic counters.
* :mod:`~repro.storage.spill` — spill-aware operator variants
  (grace-partitioned join, external aggregate) that produce bag-identical
  results to their in-memory counterparts.
"""

from repro.storage.config import StorageConfig, parse_size
from repro.storage.sealed import SealedStore, SpillModel
from repro.storage.spill import ExternalGroupAggregate, GraceHashJoin

__all__ = [
    "StorageConfig",
    "SealedStore",
    "SpillModel",
    "GraceHashJoin",
    "ExternalGroupAggregate",
    "parse_size",
]
