"""Bridge engine backends into the serving catalog's pricing path.

When an engine backend mode is active (``--backend sqlite|duckdb``),
:meth:`repro.workload.jobs.JobCatalog.profile` delegates here instead of
running the operator simulator: the template's service seconds come from
the engine's *calibrated* profile (the checked-in artifact), priced
through the :class:`~repro.backends.envelope.SgxCostEnvelope` —

* ``Plain CPU``      → the envelope's ``plain_s`` (engine, no enclave);
* ``SGX (Data in Enclave)`` → ``in_enclave_s`` (init + penalized
  execution + EPC paging).

Before any engine-priced profile is handed out, the **equivalence gate**
runs once per catalog and template: the operator simulator and the live
engine execute the same query over the same materialized rows, and their
result bags must hold the same rows column by column; their shared
digest must also match the one the calibration artifact recorded.
Result *bags* are deterministic even though engine *timings* are not,
so the gate keeps engine-priced arms byte-deterministic while proving
the two renderings of the query agree.

Both steps announce themselves on the ambient tracer (``backend.envelope``
and ``backend.equivalence`` events) so the backend breakdown reporter can
attribute an engine arm's seconds; neither event appears unless an engine
mode is active, preserving the default path's trace bytes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.backends.dataset import Dataset, materialize
from repro.backends.engines import make_engine
from repro.backends.envelope import (
    EngineProfile,
    SgxCostEnvelope,
    get_profile,
    load_profiles,
)
from repro.backends.equivalence import ColumnBag, assert_equivalent
from repro.backends.sqlgen import output_columns, render_sql
from repro.enclave.runtime import ExecutionSetting
from repro.errors import ConfigurationError, EquivalenceError
from repro.planner.candidates import static_candidate
from repro.planner.standin import run_silently, standin_key
from repro.trace.breakdown import BACKEND_ENVELOPE, BACKEND_EQUIVALENCE
from repro.trace.tracer import current_tracer
from repro.workload.jobs import JobCatalog, JobKind, JobProfile, JobTemplate

#: Module-level artifact cache: the checked-in file never changes within
#: a process, and loading it once keeps repeated catalog builds cheap.
_PROFILES_CACHE: Dict[str, Dict[Tuple[str, str], EngineProfile]] = {}


def _artifact_profiles() -> Dict[Tuple[str, str], EngineProfile]:
    cached = _PROFILES_CACHE.get("default")
    if cached is None:
        cached = load_profiles()
        _PROFILES_CACHE["default"] = cached
    return cached


def _gate_memo(catalog: JobCatalog) -> Set[Tuple[str, str]]:
    """The catalog's per-experiment gate memo (lazily attached).

    Per *catalog*, not per process: one catalog serves one experiment, so
    the gate (and its trace event) fires exactly once per experiment and
    template regardless of whether experiments share a process (serial
    sessions) or not (``--jobs N`` workers) — trace bytes stay identical
    across session compositions.
    """
    memo = getattr(catalog, "_backend_gated", None)
    if memo is None:
        memo = set()
        catalog._backend_gated = memo
    return memo


def sim_rows(catalog: JobCatalog, dataset: Dataset) -> ColumnBag:
    """The operator simulator's result bag for ``dataset``'s template.

    One :func:`~repro.planner.standin.run_silently` run of the catalog's
    static plan under a plain-CPU context, over the dataset's own tables:
    the row computation is gate bookkeeping, not priced serving work.
    Columns follow the SQL rendering's projection
    (:func:`~repro.backends.sqlgen.output_columns`) and stay the
    operator's own arrays: a join's matched payload pairs, a scan's
    qualifying values, a TPC-H plan's count.
    """
    template = dataset.template
    tables = dataset.tables
    result = run_silently(
        catalog.machine_prototype(),
        ExecutionSetting.plain_cpu(),
        template,
        static_candidate(template, catalog.variant),
        tables,
    ).result
    if template.kind is JobKind.JOIN:
        if result.match_index is None:  # pragma: no cover
            raise ConfigurationError(
                f"{result.algorithm} returned no match index"
            )
        matched = result.match_index >= 0
        return ColumnBag(
            [
                tables["s"]["payload"][matched],
                tables["r"]["payload"][result.match_index[matched]],
            ]
        )
    if template.kind is JobKind.SCAN:
        column = tables["scan_values"].column("v")
        mask = np.unpackbits(result.bitvector)[: len(column)].astype(bool)
        return ColumnBag([column.data[mask]])
    return ColumnBag([np.array([int(result.count)], dtype=np.int64)])


def _check_calibration(
    catalog: JobCatalog, artifact: EngineProfile
) -> None:
    """The artifact must have been captured at the catalog's pricing caps."""
    mismatches = []
    if artifact.row_cap != catalog.row_cap:
        mismatches.append(
            f"row_cap {artifact.row_cap} != {catalog.row_cap}"
        )
    if artifact.sf_cap != catalog.sf_cap:
        mismatches.append(f"sf_cap {artifact.sf_cap} != {catalog.sf_cap}")
    if artifact.pricing_seed != catalog.pricing_seed:
        mismatches.append(
            f"pricing_seed {artifact.pricing_seed} != {catalog.pricing_seed}"
        )
    if mismatches:
        raise ConfigurationError(
            f"calibrated profile {artifact.backend}/{artifact.template} "
            f"does not match the catalog's pricing caps "
            f"({'; '.join(mismatches)}); re-capture with "
            "'python -m repro.backends.calibrate'"
        )


def gate_templates(
    catalog: JobCatalog,
    templates: Sequence[JobTemplate],
    mode: str,
    *,
    failures: Optional[Dict[str, EquivalenceError]] = None,
) -> Dict[str, str]:
    """Run the cross-backend equivalence gate on ``templates``; return
    each passing template's digest by name.

    Each template executes through the operator simulator *and* the live
    engine over one materialized dataset, and both bags must hold the
    same rows in the columns of the declared projection
    (:func:`~repro.backends.sqlgen.output_columns`).  Templates whose
    stand-in data is the same (:func:`~repro.planner.standin.standin_key`:
    every TPC-H query at one scale, every join of one physical shape at
    the catalog's row cap) share one dataset: it is materialized,
    prepared in the engine and closed once.

    A disagreement raises :class:`~repro.errors.EquivalenceError` — an
    engine arm must never report a timing for a query the engine answers
    differently — unless ``failures`` is given: then each failing
    template's error is stored there by name and the gate goes on.
    """
    groups: Dict[Tuple, List[JobTemplate]] = {}
    for template in templates:
        key = standin_key(template, catalog.row_cap)
        groups.setdefault(key, []).append(template)
    engine = make_engine(mode)
    digests: Dict[str, str] = {}
    for group in groups.values():
        dataset = materialize(
            group[0],
            seed=catalog.pricing_seed,
            row_cap=catalog.row_cap,
            sf_cap=catalog.sf_cap,
        )
        handle = engine.prepare(dataset)
        try:
            for template in group:
                shared = replace(dataset, template=template)
                # Rows only, no pricing: the gate compares result bags,
                # and pricing the sim arm here would re-enter the
                # catalog mid-delegation.
                sim_bag = sim_rows(catalog, shared)
                engine_bag, _ = engine.execute(
                    handle, render_sql(template, shared)
                )
                projection = output_columns(template)
                try:
                    digests[template.name] = assert_equivalent(
                        {"sim": sim_bag, mode: engine_bag},
                        columns={"sim": projection, mode: projection},
                        context=f"template {template.name!r}",
                    )
                except EquivalenceError as error:
                    if failures is None:
                        raise
                    failures[template.name] = error
        finally:
            engine.close(handle)
    return digests


def gate_template(
    catalog: JobCatalog, template: JobTemplate, mode: str
) -> str:
    """:func:`gate_templates` for one template: its digest, or raise."""
    return gate_templates(catalog, [template], mode)[template.name]


def engine_profile(
    catalog: JobCatalog, template: JobTemplate, mode: str
) -> JobProfile:
    """Price ``template`` from ``mode``'s calibrated engine profile.

    The equivalence gate runs first (once per catalog and template); the
    returned :class:`~repro.workload.jobs.JobProfile` carries the
    envelope's plain/in-enclave seconds under the catalog's two standard
    setting labels, so schedulers and reporters consume engine-priced
    arms exactly like simulated ones.
    """
    artifact = get_profile(mode, template, _artifact_profiles())
    _check_calibration(catalog, artifact)
    tracer = current_tracer()

    memo = _gate_memo(catalog)
    gate_key = (template.name, mode)
    if gate_key not in memo:
        digest = gate_template(catalog, template, mode)
        if artifact.bag_digest != digest:
            raise ConfigurationError(
                f"calibrated profile {mode}/{template.name} recorded bag "
                f"digest {artifact.bag_digest[:12]} but the live engines "
                f"now agree on {digest[:12]}; the data generators and the "
                "artifact are out of sync — re-capture with "
                "'python -m repro.backends.calibrate'"
            )
        memo.add(gate_key)
        tracer.event(
            BACKEND_EQUIVALENCE,
            {
                "backend": mode,
                "template": template.name,
                "digest": digest,
                "rows": artifact.rows,
            },
        )

    envelope = SgxCostEnvelope(catalog.machine_prototype())
    cost = envelope.price(artifact, template)
    tracer.event(BACKEND_ENVELOPE, cost.as_event_attrs())
    plain, enclave = JobCatalog.SETTINGS
    return JobProfile(
        name=template.name,
        threads=template.threads,
        working_set_bytes=cost.working_set_bytes,
        service_seconds_by_setting={
            plain.label: cost.plain_s,
            enclave.label: cost.in_enclave_s,
        },
    )
