"""Rewrite modes: how much of the logical-rewrite layer a run uses.

``--rewrite learned`` asks the serving layer to generate logical rewrite
candidates per TPC-H-style template, prove each bag-identical to the
reference plan, race the survivors through the planner's real-operator
costing, and append per-template winners to the adaptive bandit's arm
set.  The session's mode is the ``rewrite`` field of the ambient
:class:`~repro.runconfig.RunConfig`; ``--rewrite`` unset (or ``off``)
leaves every code path byte-identical to the pre-rewrite build.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

#: Every selectable rewrite mode, in increasing order of involvement:
#: ``off`` is the pre-rewrite behaviour (and the default), ``prove``
#: generates candidates and runs the exact-equivalence proofs without
#: racing anything, ``race`` additionally prices the proof survivors
#: through the planner's real-operator costing, and ``learned``
#: additionally persists per-template winners into the adaptive bandit's
#: arm set.
REWRITE_MODES = ("off", "prove", "race", "learned")

#: The modes under which candidates are generated and proven at all.
ACTIVE_MODES = ("prove", "race", "learned")


def validate_mode(mode: str) -> str:
    """Return ``mode`` if known, else raise :class:`ConfigurationError`."""
    if mode not in REWRITE_MODES:
        raise ConfigurationError(
            f"unknown rewrite mode {mode!r}; known: {', '.join(REWRITE_MODES)}"
        )
    return mode
