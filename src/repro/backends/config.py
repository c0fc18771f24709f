"""Backend modes: which engine prices the serving templates.

``--backend sqlite`` asks the serving layer to price engine-in-enclave
arms from a real engine's calibrated profile instead of the operator
simulator.  The session's choice is the ``backend`` field of the ambient
:class:`~repro.runconfig.RunConfig`; ``--backend`` unset (or ``sim``)
leaves every code path byte-identical to the pre-backends build.
"""

from __future__ import annotations

import importlib.util
from typing import Optional

from repro.errors import ConfigurationError

#: Every selectable backend.  ``sim`` is the operator-level simulator (the
#: default and the only backend the figure experiments ever use); the
#: engine modes execute the same logical queries on a real SQL engine.
BACKEND_MODES = ("sim", "sqlite", "duckdb")

#: The real-engine subset: modes whose serving costs come from the SGX
#: cost envelope over a calibrated engine profile.
ENGINE_MODES = ("sqlite", "duckdb")

#: The pip extra that provides the optional engine wheels.
BACKENDS_EXTRA = "repro[backends]"


def validate_mode(mode: str) -> str:
    """Return ``mode`` if known, else raise :class:`ConfigurationError`."""
    if mode not in BACKEND_MODES:
        raise ConfigurationError(
            f"unknown backend {mode!r}; known: {', '.join(BACKEND_MODES)}"
        )
    return mode


def missing_reason(mode: str) -> Optional[str]:
    """Why ``mode`` cannot run here (``None``: it can).

    The one-line message names the pip extra, so an unavailable engine
    fails fast with an actionable hint instead of an ImportError traceback
    from deep inside a serving run.
    """
    validate_mode(mode)
    if mode == "duckdb" and importlib.util.find_spec("duckdb") is None:
        return (
            "backend 'duckdb' needs the duckdb wheel; "
            f"pip install '{BACKENDS_EXTRA}'"
        )
    return None


def require_available(mode: str) -> str:
    """Validate ``mode`` and raise if its engine is not importable."""
    reason = missing_reason(mode)
    if reason is not None:
        raise ConfigurationError(reason)
    return mode
