"""One run configuration for the six optional serving subsystems.

A :class:`RunConfig` holds what a session applies to every serving run:
the fault plan (``--faults``), planner mode (``--planner``), cluster
topology (``--cluster``), sealed-storage budget (``--storage``), engine
backend (``--backend``), and rewrite mode (``--rewrite``).  It is the one
value that every layer carries:

* the CLI builds and validates it once (exit 2 on any bad flag);
* ``run_session`` hashes it into each cache key and pickles it into
  each spawned worker;
* ``run_experiment`` installs it through :func:`use_run_config`;
* serving code reads it through :func:`current_run_config`, unless a
  ``WorkloadConfig`` pins its own value.

Construction normalizes.  ``None`` becomes each mode's default
(``static``, ``sim``, ``off``), a fault plan without specs becomes
``None``, and spec strings become their config objects.  So any two
configs that serve identically compare, hash and key equal.  The
subsystem config modules are imported inside the methods, so any module
can import this one without an import cycle.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Union

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.cluster.config import ClusterConfig
    from repro.faults.plan import FaultPlan
    from repro.storage.config import StorageConfig


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """The session-wide subsystem settings of one run (all default: off)."""

    #: A :class:`~repro.faults.FaultPlan` or a plan name (``"chaos"``);
    #: ``None`` or an empty plan injects nothing.
    faults: Union[FaultPlan, str, None] = None
    #: ``"static"`` (the historical plans), ``"cost"`` or ``"adaptive"``.
    planner: Optional[str] = "static"
    #: A :class:`~repro.cluster.ClusterConfig` or a spec string
    #: (``"2x4:load-aware"``); ``None`` serves on one enclave.
    cluster: Union[ClusterConfig, str, None] = None
    #: A :class:`~repro.storage.StorageConfig` or a spec string
    #: (``"200m"``); ``None`` has no sealed spill path.
    storage: Union[StorageConfig, str, None] = None
    #: ``"sim"`` (the operator simulator), ``"sqlite"`` or ``"duckdb"``.
    backend: Optional[str] = "sim"
    #: ``"off"``, ``"prove"``, ``"race"`` or ``"learned"``.
    rewrite: Optional[str] = "off"

    def __post_init__(self) -> None:
        normalized = {
            "faults": _fault_plan(self.faults),
            "planner": _default(self.planner, "static"),
            "cluster": _spec(self.cluster, "cluster"),
            "storage": _spec(self.storage, "storage"),
            "backend": _default(self.backend, "sim"),
            "rewrite": _default(self.rewrite, "off"),
        }
        for name, value in normalized.items():
            object.__setattr__(self, name, value)

    def validate(self) -> "RunConfig":
        """Return ``self`` if it can run here, else raise
        :class:`~repro.errors.ConfigurationError` naming the reason.

        Checks every mode is known (``oracle`` is experiment-only, not a
        session planner mode), that an engine backend is importable, and
        the cross-flag rules.
        """
        from repro.backends.config import require_available
        from repro.planner import validate_mode as validate_planner
        from repro.rewrite.config import validate_mode as validate_rewrite

        validate_planner(self.planner, allow_oracle=False)
        require_available(self.backend)
        validate_rewrite(self.rewrite)
        if self.backend != "sim" and self.planner != "static":
            raise ConfigurationError(
                f"--backend {self.backend} prices templates from calibrated "
                "engine profiles, which cover only the static plans; it "
                f"cannot be combined with --planner {self.planner}"
            )
        if self.rewrite != "off" and self.backend != "sim":
            raise ConfigurationError(
                f"--rewrite {self.rewrite} races logical rewrites through "
                "the operator simulator's costing; it cannot be combined "
                f"with --backend {self.backend} (engine profiles cover "
                "only the reference plans)"
            )
        return self


def _default(mode: Optional[str], default: str) -> str:
    return default if mode is None else mode


def _fault_plan(value):
    """The plan ``value`` names or holds; ``None`` if it injects nothing."""
    if value is None:
        return None
    from repro.faults.plan import FaultPlan, get_fault_plan

    plan = get_fault_plan(value) if isinstance(value, str) else value
    if not isinstance(plan, FaultPlan):
        raise ConfigurationError(
            f"faults must be a FaultPlan or a plan name, "
            f"got {type(value).__name__}"
        )
    return None if plan.empty else plan


def _spec(value, field: str):
    """``value`` as the ``field``'s config object, parsing spec strings."""
    if value is None:
        return None
    if field == "cluster":
        from repro.cluster.config import ClusterConfig as kind
    else:
        from repro.storage.config import StorageConfig as kind
    if isinstance(value, str):
        return kind.parse(value)
    if not isinstance(value, kind):
        raise ConfigurationError(
            f"{field} must be a {kind.__name__} or a spec string, "
            f"got {type(value).__name__}"
        )
    return value


_ACTIVE: List[RunConfig] = [RunConfig()]


def current_run_config() -> RunConfig:
    """The ambient run config (all defaults unless one is installed)."""
    return _ACTIVE[-1]


@contextlib.contextmanager
def use_run_config(run: RunConfig) -> Iterator[RunConfig]:
    """Install ``run`` as the ambient run config for the ``with`` scope.

    To override one field, scope ``dataclasses.replace(current_run_config(),
    field=value)``.  A ``WorkloadConfig`` that pins a field explicitly is
    never overridden.
    """
    _ACTIVE.append(run)
    try:
        yield run
    finally:
        _ACTIVE.pop()

