"""Canonical cache keys: content-addressed hashes of run configurations.

A cache key is the SHA-256 of a canonical JSON rendering of everything
that determines a costed result: the experiment id, the operator/fidelity
parameters, the :class:`~repro.enclave.runtime.ExecutionSetting`, the base
seed, and a digest of the calibration constants plus hardware spec.  Keys
are *content-addressed*: changing any calibration constant (or the cache
format) changes every key, so stale entries are never served — they are
simply never looked up again.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any, Dict, Optional

from repro.errors import CacheError
from repro.hardware.calibration import CostParameters, paper_calibration
from repro.hardware.spec import HardwareSpec, paper_testbed
from repro.runconfig import RunConfig

#: Bump to invalidate every existing cache entry (serialization changes,
#: cost-model semantics changes that the calibration digest cannot see).
#: 2: keys gained a fault-plan component.
#: 3: keys gained a planner-mode component.
#: 4: keys gained a cluster-topology component.
#: 5: per-query profile-memo entries joined the store (catalog pricing and
#:    planner candidate estimates are memoized below the experiment level;
#:    experiment keys are unchanged in shape but rotate with the format).
#: 6: keys gained a sealed-storage component (``--storage`` budgets spill
#:    overflow to sealed untrusted storage; calibrations also grew the
#:    seal/unseal/IO constants, so pre-storage entries price differently).
#: 7: keys gained a backend component (``--backend sqlite|duckdb`` prices
#:    serving arms from calibrated engine profiles through the SGX cost
#:    envelope; ``None`` and ``"sim"`` key identically, so sim sessions
#:    share entries with default ones).
#: 8: keys gained a rewrite component (``--rewrite prove|race|learned``
#:    runs the logical-rewrite layer before physical planning; ``None``
#:    and ``"off"`` key identically, so pre-rewrite entries stay valid
#:    for default sessions while rewriting runs never alias them).
#: 9: the six subsystem components folded into one normalized
#:    :class:`~repro.runconfig.RunConfig` component.
#: 10: trace texts moved out of the JSON entry into raw ``<key>.trace.jsonl``
#:     / ``<key>.trace.csv`` sidecar files (see :mod:`repro.cache.store`).
CACHE_FORMAT = 10


def canonical(value: Any) -> Any:
    """Reduce ``value`` to a JSON-safe form with a stable rendering.

    Dataclasses (settings, calibrations, specs) and enums carry their type
    name so two structurally identical but semantically different objects
    never collide; dict keys must be strings (JSON cannot represent
    anything else losslessly).
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__dataclass__": type(value).__name__, **fields}
    if isinstance(value, enum.Enum):
        return {"__enum__": f"{type(value).__name__}.{value.name}"}
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise CacheError("cache-key dicts must have string keys")
        return {key: canonical(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise CacheError(
        f"cannot build a canonical cache key from {type(value).__name__!r}"
    )


def fingerprint(**components: Any) -> str:
    """SHA-256 hex digest of the canonical JSON of ``components``."""
    payload = json.dumps(
        {name: canonical(value) for name, value in components.items()},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def calibration_digest(
    params: Optional[CostParameters] = None,
    spec: Optional[HardwareSpec] = None,
) -> str:
    """Digest of the calibration constants and hardware spec in effect.

    Part of every experiment key, so editing any constant (a
    ``dataclasses.replace`` calibration, a different testbed) automatically
    invalidates all results priced under the old model.
    """
    return fingerprint(
        params=params or paper_calibration(),
        spec=spec or paper_testbed(),
    )


def experiment_key(
    experiment_id: str,
    *,
    quick: bool,
    base_seed: int,
    traced: bool = False,
    params: Optional[CostParameters] = None,
    spec: Optional[HardwareSpec] = None,
    run: Optional[RunConfig] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> str:
    """The cache key of one experiment run.

    ``quick`` folds in the fidelity mode (repetition count and physical row
    caps), ``traced`` whether the entry must carry a replayable trace,
    ``run`` the session's :class:`~repro.runconfig.RunConfig` (``None``:
    the default one), and ``extra`` any additional operator parameters a
    caller wants keyed (e.g. an
    :class:`~repro.enclave.runtime.ExecutionSetting`).  ``run`` is keyed
    in its normalized form, so configs that serve identically (``None``
    and ``"static"``, ``--faults none`` and no plan) share entries, while
    every non-default field — each fault spec, shard-map field, storage
    budget — keys apart.
    """
    return fingerprint(
        format=CACHE_FORMAT,
        experiment=experiment_id,
        quick=bool(quick),
        base_seed=int(base_seed),
        traced=bool(traced),
        calibration=calibration_digest(params, spec),
        run=run if run is not None else RunConfig(),
        extra=extra or {},
    )


def query_profile_key(
    *,
    kind: str,
    template: Any,
    setting: Any,
    candidate: Any,
    pricing_seed: int,
    row_cap: int,
    sf_cap: float,
    params: Optional[CostParameters] = None,
    spec: Optional[HardwareSpec] = None,
    storage=None,
) -> str:
    """The memo key of one priced query profile or candidate estimate.

    This is the sub-experiment memoization level: a catalog pricing run or
    a planner candidate estimate is a pure function of the template (full
    logical shape including plan hints), the resolved physical plan
    candidate, the execution setting, the physical stand-in caps, the
    pricing seed, and the calibration digest — so two experiments (or two
    shards of one cluster run) asking for the same profile share one
    operator execution.  ``kind`` separates the caller vocabularies
    (``"catalog-price"`` returns seconds+footprint, ``"plan-estimate"``
    returns cycles breakdowns) so they can never alias.
    """
    return fingerprint(
        format=CACHE_FORMAT,
        kind=kind,
        template=template,
        setting=setting,
        candidate=candidate,
        pricing_seed=int(pricing_seed),
        row_cap=int(row_cap),
        sf_cap=float(sf_cap),
        calibration=calibration_digest(params, spec),
        storage=storage,
    )
