"""Admission policies: which pending query (if any) gets dispatched next.

The scheduler keeps one arrival-ordered queue and asks its policy for the
next admissible query whenever resources change.  Policies differ in what
"admissible" means:

* :class:`FifoPolicy` — strict arrival order, cores are the only gate.  A
  query whose working set exceeds the remaining EPC budget is admitted
  anyway and pays the EDMM/paging penalty for the overflowing share (the
  Fig. 11 failure mode: the enclave grows mid-query).
* :class:`EpcAwarePolicy` — arrival order, but a query is held back until
  both cores *and* EPC headroom fit its measured working set, so no
  admitted query ever grows the enclave.  Queueing delay is traded for
  full-speed service.

Both accept a **small-query bypass lane**: when the head of the queue is
blocked, the first queued query whose working set is at most
``bypass_bytes`` (and which fits the policy's gates) may jump ahead —
interactive point-queries are not stuck behind a bulk join waiting for
half the EPC.

The scheduler asks through :meth:`AdmissionPolicy.pick`, which takes the
free cores and the EPC headroom (clamped at zero) as plain numbers.
"""

from __future__ import annotations

from typing import Deque, NamedTuple, Optional

from repro.errors import ConfigurationError
from repro.units import GiB

#: Upper bound for a plausible small-query bypass threshold: one socket's
#: EPC (Table 1, 64 GB).  A threshold above the whole EPC would classify
#: every query as "small" and turn the bypass lane into queue reordering.
MAX_BYPASS_BYTES = 64 * GiB


class AdmissionDecision(NamedTuple):
    """The policy's pick: a queue index plus how it may be admitted."""

    queue_index: int
    overflow_bytes: int = 0  # EPC demand beyond the budget (FIFO only)
    bypassed: bool = False


#: The common pick, shared: the head fits without overflow.
_HEAD_FITS = AdmissionDecision(0)


class AdmissionPolicy:
    """Base policy: arrival order with an optional small-query bypass lane."""

    name = "base"

    def __init__(self, bypass_bytes: Optional[int] = None) -> None:
        if bypass_bytes is not None:
            if bypass_bytes <= 0:
                raise ConfigurationError("bypass threshold must be positive")
            if bypass_bytes > MAX_BYPASS_BYTES:
                raise ConfigurationError(
                    f"bypass threshold {bypass_bytes} B exceeds any "
                    f"plausible EPC budget (max {MAX_BYPASS_BYTES} B, one "
                    "socket's EPC)"
                )
        self.bypass_bytes = bypass_bytes
        #: Why the last ``pick`` returned nothing ("cores" / "epc" / None).
        self.last_block_reason: Optional[str] = None

    @property
    def label(self) -> str:
        return self.name + ("+bypass" if self.bypass_bytes else "")

    # -- hooks -----------------------------------------------------------

    def _admissible(
        self, pending, free_cores: int, headroom_bytes: float
    ) -> Optional[int]:
        """``pending``'s overflow bytes if this policy would admit it now."""
        raise NotImplementedError

    def _block_reason(
        self, pending, free_cores: int, headroom_bytes: float
    ) -> str:
        """Why ``pending`` cannot be admitted (diagnostic counter key)."""
        raise NotImplementedError

    # -- public API ------------------------------------------------------

    def pick(
        self, queue: Deque, free_cores: int, headroom_bytes: float
    ) -> Optional[AdmissionDecision]:
        """The next query to dispatch, or None (with a block reason).

        ``headroom_bytes`` must already be clamped at zero: an EPC squeeze
        can shrink the budget below what running queries hold, and a
        negative headroom would over-penalise FIFO overflow and make
        EPC-aware admission depend on sign conventions.
        """
        self.last_block_reason = None
        if not queue:
            return None
        head = queue[0]
        overflow = self._admissible(head, free_cores, headroom_bytes)
        if overflow is not None:
            return AdmissionDecision(0, overflow) if overflow else _HEAD_FITS
        bypass_bytes = self.bypass_bytes
        if bypass_bytes is not None:
            for index, pending in enumerate(queue):
                if index == 0 or pending.working_set_bytes > bypass_bytes:
                    continue
                overflow = self._admissible(
                    pending, free_cores, headroom_bytes
                )
                if overflow is not None:
                    return AdmissionDecision(index, overflow, True)
        self.last_block_reason = self._block_reason(
            head, free_cores, headroom_bytes
        )
        return None


class FifoPolicy(AdmissionPolicy):
    """First come, first served; EPC overflow is admitted and penalized."""

    name = "fifo"

    def _admissible(
        self, pending, free_cores: int, headroom_bytes: float
    ) -> Optional[int]:
        if pending.threads > free_cores:
            return None
        overflow = pending.working_set_bytes - headroom_bytes
        return int(overflow) if overflow > 0.0 else 0

    def _block_reason(
        self, pending, free_cores: int, headroom_bytes: float
    ) -> str:
        return "cores"


class EpcAwarePolicy(AdmissionPolicy):
    """Admit only queries whose working set fits the remaining EPC budget."""

    name = "epc-aware"

    def _admissible(
        self, pending, free_cores: int, headroom_bytes: float
    ) -> Optional[int]:
        if pending.threads > free_cores:
            return None
        if pending.working_set_bytes > headroom_bytes:
            return None
        return 0

    def _block_reason(
        self, pending, free_cores: int, headroom_bytes: float
    ) -> str:
        if pending.threads > free_cores:
            return "cores"
        return "epc"


def make_policy(name: str, *, bypass_bytes: Optional[int] = None) -> AdmissionPolicy:
    """Policy factory: ``fifo`` or ``epc-aware``, optionally ``+bypass``.

    The ``+bypass`` suffix requires ``bypass_bytes`` (the small-query
    threshold comes from the workload, not from the policy).
    """
    base = name
    if name.endswith("+bypass"):
        base = name[: -len("+bypass")]
        if bypass_bytes is None:
            raise ConfigurationError(
                f"policy {name!r} needs an explicit bypass_bytes threshold"
            )
    policies = {"fifo": FifoPolicy, "epc-aware": EpcAwarePolicy}
    try:
        cls = policies[base]
    except KeyError:
        known = ", ".join(sorted(policies))
        raise ConfigurationError(
            f"unknown admission policy {name!r}; known: {known}"
        ) from None
    return cls(bypass_bytes=bypass_bytes)
