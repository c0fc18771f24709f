"""The admission policies' scalar path decides like the reference policies.

The scheduler calls :meth:`AdmissionPolicy.pick` with plain numbers
instead of building a resource-state object per dispatch round.  The
reference policies below are the state-based implementations the scalar
path replaced, kept verbatim over this module's own :class:`_State`;
hypothesis drives random queues, core pools, bypass thresholds and
squeezed budgets (``budget < used`` exercises the headroom clamp) through
both and requires the same decision and the same block reason.
"""

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload import EpcAwarePolicy, FifoPolicy
from repro.workload.scheduler import PendingQuery

MB = 1_000_000


@dataclass(frozen=True)
class _State:
    """The resources the reference policies decide against."""

    free_cores: int
    total_cores: int
    epc_used_bytes: float
    epc_budget_bytes: float

    @property
    def epc_headroom_bytes(self) -> float:
        # An EPC_SQUEEZE fault can shrink the budget below what running
        # queries already hold; headroom never goes negative.
        return max(0.0, self.epc_budget_bytes - self.epc_used_bytes)


@dataclass
class _RefDecision:
    queue_index: int
    overflow_bytes: int = 0
    bypassed: bool = False


class _RefPolicy:
    def __init__(self, bypass_bytes: Optional[int] = None) -> None:
        self.bypass_bytes = bypass_bytes
        self.last_block_reason: Optional[str] = None

    def pick(
        self, queue: Deque, state: _State
    ) -> Optional[_RefDecision]:
        self.last_block_reason = None
        if not queue:
            return None
        head = self._admissible(queue[0], state)
        if head is not None:
            head.queue_index = 0
            return head
        if self.bypass_bytes is not None:
            for index, pending in enumerate(queue):
                if index == 0 or pending.working_set_bytes > self.bypass_bytes:
                    continue
                decision = self._admissible(pending, state)
                if decision is not None:
                    decision.queue_index = index
                    decision.bypassed = True
                    return decision
        self.last_block_reason = self._block_reason(queue[0], state)
        return None


class _RefFifo(_RefPolicy):
    def _admissible(self, pending, state):
        if pending.threads > state.free_cores:
            return None
        overflow = max(
            0.0, pending.working_set_bytes - state.epc_headroom_bytes
        )
        return _RefDecision(queue_index=0, overflow_bytes=int(overflow))

    def _block_reason(self, pending, state):
        return "cores"


class _RefEpcAware(_RefPolicy):
    def _admissible(self, pending, state):
        if pending.threads > state.free_cores:
            return None
        if pending.working_set_bytes > state.epc_headroom_bytes:
            return None
        return _RefDecision(queue_index=0)

    def _block_reason(self, pending, state):
        if pending.threads > state.free_cores:
            return "cores"
        return "epc"


#: name -> (reference policy, shipped policy)
POLICIES = {
    "fifo": (_RefFifo, FifoPolicy),
    "epc-aware": (_RefEpcAware, EpcAwarePolicy),
}


def _pending(query_id, threads, working_set_bytes):
    return PendingQuery(
        query_id=query_id, stream="s", template="t", client=-1, arrival_s=0.0,
        threads=threads, service_s=0.01, working_set_bytes=working_set_bytes,
    )


def _outcome(decision):
    if decision is None:
        return None
    return (decision.queue_index, decision.overflow_bytes, decision.bypassed)


@st.composite
def scenarios(draw):
    queue = deque(
        _pending(i, threads, ws)
        for i, (threads, ws) in enumerate(
            draw(
                st.lists(
                    st.tuples(
                        st.integers(1, 8),
                        st.integers(0, 600).map(lambda m: m * MB),
                    ),
                    max_size=8,
                )
            )
        )
    )
    used = draw(st.floats(0.0, 800.0 * MB, allow_nan=False))
    budget = draw(
        st.one_of(
            st.floats(1.0, 800.0 * MB, allow_nan=False),
            # A squeeze: the budget shrinks below what is already held.
            st.floats(0.0, 1.0).map(lambda f: max(1.0, used * f)),
            st.just(math.inf),
        )
    )
    return {
        "policy": draw(st.sampled_from(sorted(POLICIES))),
        "bypass": draw(
            st.one_of(st.none(), st.integers(1, 300).map(lambda m: m * MB))
        ),
        "queue": queue,
        "free_cores": draw(st.integers(0, 8)),
        "used": used,
        "budget": budget,
    }


@given(scenario=scenarios())
@settings(max_examples=400, deadline=None)
def test_scalar_path_matches_resource_state_reference(scenario):
    ref_cls, cls = POLICIES[scenario["policy"]]
    state = _State(
        free_cores=scenario["free_cores"],
        total_cores=8,
        epc_used_bytes=scenario["used"],
        epc_budget_bytes=scenario["budget"],
    )
    reference = ref_cls(scenario["bypass"])
    expected = _outcome(reference.pick(scenario["queue"], state))

    via_scalars = cls(bypass_bytes=scenario["bypass"])
    headroom = max(0.0, scenario["budget"] - scenario["used"])
    decision = via_scalars.pick(
        scenario["queue"], scenario["free_cores"], headroom
    )
    assert _outcome(decision) == expected
    assert via_scalars.last_block_reason == reference.last_block_reason
    if decision is not None:
        assert type(decision.overflow_bytes) is int


def test_empty_queue_clears_the_block_reason():
    policy = EpcAwarePolicy()
    queue = deque([_pending(0, 8, 0)])
    assert policy.pick(queue, 0, 0.0) is None
    assert policy.last_block_reason == "cores"
    assert policy.pick(deque(), 8, 0.0) is None
    assert policy.last_block_reason is None
