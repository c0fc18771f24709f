"""SGX-aware cost-based query planning with online adaptive refinement.

The figure experiments and the serving layer historically hardcoded one
physical operator per job (``RadixJoin`` everywhere).  The paper's central
practical lesson is that this is wrong: the best join is *not* the same
inside and outside the enclave (CrkJoin wins on SGXv1, RHO wins on SGXv2,
and the crossover moves with EPC pressure — Fig. 3/8, ext06).  This
package turns the repo from "replays fixed configurations" into "chooses
configurations":

* :mod:`repro.planner.stats` — logical table/column statistics and
  cardinality estimates derived from a job template (no data touched);
* :mod:`repro.planner.candidates` — enumeration of candidate physical
  plans: join algorithm {PHT, RHO, RHO-unrolled, MWAY, INL, CrkJoin},
  code variant, thread count, static vs EDMM enclave sizing, and
  partitioning fan-out, optionally pinned by a template's ``plan_hints``;
* :mod:`repro.planner.costing` — prices each candidate analytically
  through :class:`~repro.memory.cost_model.MemoryCostModel` under the
  active :class:`~repro.hardware.spec.HardwareSpec` without executing it
  on real data;
* :mod:`repro.planner.choose` — selects per query under the current EPC
  residency and renders ``explain()`` reports;
* :mod:`repro.planner.adaptive` — seeded epsilon-greedy refinement over
  the top-k candidates from observed serving latencies, with every draw
  taken from decision identity (like :mod:`repro.faults`) so adaptive
  runs stay byte-identical across serial / ``--jobs N`` / cached replay.

Planner *modes* select how much of this machinery a run uses:

* ``static`` (the default) — today's exact hardcoded choices; outputs are
  byte-identical to pre-planner builds;
* ``cost`` — the analytical best candidate per template, fixed for the
  whole run;
* ``adaptive`` — serving runs refine the top-k candidates online;
* ``oracle`` — an experiment-only upper bound that picks per dispatch
  with knowledge of the momentary EPC headroom.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.planner.adaptive import (
    ArmCost,
    CostSelector,
    EpsilonGreedySelector,
    OracleSelector,
    PlanSelector,
)
from repro.planner.candidates import (
    JOIN_ALGORITHMS,
    PlanCandidate,
    PlanHints,
    build_join,
    enumerate_candidates,
    static_candidate,
)
from repro.planner.choose import PlanDecision, Planner
from repro.planner.costing import CandidateEstimate, estimate_candidate
from repro.planner.stats import WorkStats

#: The planner modes the CLI exposes.  ``oracle`` additionally exists for
#: experiments (wl05's upper-bound arm) but is not a CLI mode: it requires
#: momentary scheduler state no production planner can see.
PLANNER_MODES = ("static", "cost", "adaptive")
ALL_MODES = PLANNER_MODES + ("oracle",)

#: The default mode: preserve today's exact operator choices.
DEFAULT_MODE = "static"


def validate_mode(mode: str, *, allow_oracle: bool = True) -> str:
    """Return ``mode`` if known, raise :class:`ConfigurationError` if not."""
    known = ALL_MODES if allow_oracle else PLANNER_MODES
    if mode not in known:
        raise ConfigurationError(
            f"unknown planner mode {mode!r}; known: {', '.join(known)}"
        )
    return mode


__all__ = [
    "ALL_MODES",
    "ArmCost",
    "CandidateEstimate",
    "CostSelector",
    "DEFAULT_MODE",
    "EpsilonGreedySelector",
    "JOIN_ALGORITHMS",
    "OracleSelector",
    "PLANNER_MODES",
    "PlanCandidate",
    "PlanDecision",
    "PlanHints",
    "PlanSelector",
    "Planner",
    "WorkStats",
    "build_join",
    "enumerate_candidates",
    "estimate_candidate",
    "static_candidate",
    "validate_mode",
]
