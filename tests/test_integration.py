"""Cross-module integration scenarios.

These exercise interactions the per-module tests cannot: EPC accounting
across a whole query, context lifecycle edge cases, several operators
sharing one machine, and the consistency ties between figures that the
paper's narrative depends on.
"""

import numpy as np
import pytest

from repro.core.joins import ParallelHashJoin, RadixJoin
from repro.core.queries import QueryExecutor, TPCH_QUERIES
from repro.core.scans import BitvectorScan, RangePredicate
from repro.enclave.enclave import EnclaveState
from repro.enclave.runtime import ExecutionSetting
from repro.errors import AccessViolationError, EnclaveStateError
from repro.machine import SimMachine
from repro.memory.access import CodeVariant
from repro.tables import generate_join_relation_pair, generate_tpch
from repro.tables.table import Column

PLAIN = ExecutionSetting.plain_cpu()
SGX = ExecutionSetting.sgx_data_in_enclave()


class TestEpcAccountingEndToEnd:
    def test_query_epc_footprint_tracked_and_released(self):
        machine = SimMachine()
        data = generate_tpch(1.0, seed=2, physical_sf_cap=0.01)
        tables = data.named
        assert machine.allocator.epc_used(0) == 0
        with machine.context(SGX, threads=8) as ctx:
            QueryExecutor().run(ctx, TPCH_QUERIES["Q12"](), tables)
            assert machine.allocator.epc_used(0) > 0
        assert machine.allocator.epc_used(0) == 0
        assert machine.allocator.peak_epc_bytes > 0

    def test_sequential_contexts_on_one_machine(self, small_join_tables):
        machine = SimMachine()
        build, probe = small_join_tables
        cycles = []
        for _ in range(3):
            with machine.context(SGX, threads=8) as ctx:
                cycles.append(RadixJoin().run(ctx, build, probe).cycles)
        # Deterministic: identical runs cost identical cycles, and no EPC
        # leaks across contexts.
        assert cycles[0] == cycles[1] == cycles[2]
        assert machine.allocator.epc_used(0) == 0

    def test_concurrent_contexts_share_epc(self, small_join_tables):
        from repro.enclave.enclave import EnclaveConfig
        from repro.units import GiB

        machine = SimMachine()
        config = EnclaveConfig(heap_bytes=4 * GiB, node=0)
        ctx_a = machine.context(SGX, threads=4, enclave_config=config)
        ctx_b = machine.context(SGX, threads=4, enclave_config=config)
        used = machine.allocator.epc_used(0)
        assert used > 0  # two enclaves' heaps are both reserved
        ctx_a.close()
        after_one = machine.allocator.epc_used(0)
        assert 0 < after_one < used
        ctx_b.close()
        assert machine.allocator.epc_used(0) == 0


class TestContextLifecycle:
    def test_enclave_destroyed_on_context_exit(self):
        machine = SimMachine()
        with machine.context(SGX) as ctx:
            enclave = ctx.enclave
            assert enclave.state is EnclaveState.INITIALIZED
        assert enclave.state is EnclaveState.DESTROYED

    def test_allocation_after_close_fails(self, small_join_tables):
        machine = SimMachine()
        ctx = machine.context(SGX)
        ctx.close()
        with pytest.raises((EnclaveStateError, AttributeError)):
            ctx.allocate("late", 1024)

    def test_double_close_is_safe(self):
        machine = SimMachine()
        ctx = machine.context(PLAIN)
        ctx.allocate("buf", 1024)
        ctx.close()
        ctx.close()  # idempotent

    def test_plain_regions_released(self):
        machine = SimMachine()
        with machine.context(PLAIN) as ctx:
            ctx.allocate("buf", 1 << 20)
            assert machine.allocator.dram_used(0) == 1 << 20
        assert machine.allocator.dram_used(0) == 0

    def test_use_after_free_detected(self):
        machine = SimMachine()
        with machine.context(PLAIN) as ctx:
            region = ctx.allocate("buf", 1024)
        with pytest.raises(AccessViolationError):
            _ = region.locality


class TestCrossFigureConsistency:
    """The paper's narrative ties figures together; so does the model."""

    def test_fig3_and_fig8_agree_on_naive_rho(self, small_join_tables):
        # The "RHO / SGX" bar of Fig. 3 and the "SGX naive" bar of Fig. 8
        # are the same configuration; the model must price them identically.
        build, probe = small_join_tables

        def run_once():
            machine = SimMachine()
            with machine.context(SGX, threads=16) as ctx:
                return RadixJoin(CodeVariant.NAIVE).run(ctx, build, probe).cycles

        assert run_once() == run_once()

    def test_histogram_micro_predicts_rho_hist_phase(self, small_join_tables):
        # Fig. 7's in-enclave histogram slowdown must show up as the hist
        # phase slowdown inside the full RHO join (Fig. 6).
        build, probe = small_join_tables
        results = {}
        for setting in (PLAIN, SGX):
            machine = SimMachine()
            with machine.context(setting, threads=1) as ctx:
                results[setting.label] = RadixJoin().run(ctx, build, probe)
        hist_slowdown = (
            results["SGX (Data in Enclave)"].phase_cycles["hist1"]
            / results["Plain CPU"].phase_cycles["hist1"]
        )
        assert hist_slowdown == pytest.approx(3.3, rel=0.1)

    def test_scan_and_join_share_bandwidth_model(self, rng):
        # A 16-thread scan and the streaming passes of a join both bottom
        # out at the same socket bandwidth limit.
        machine = SimMachine()
        column = Column("v", rng.integers(0, 256, 100_000, dtype=np.uint8))
        with machine.context(PLAIN, threads=16) as ctx:
            scan = BitvectorScan().run(
                ctx, column, RangePredicate(0, 128),
                sim_scale=4e9 / column.nbytes,
            )
        throughput = scan.read_throughput_bytes_per_s(machine.frequency_hz)
        assert throughput <= machine.spec.socket_stream_bandwidth_bytes() * 1.001


class TestMixedOperatorsOneEnclave:
    def test_scan_then_join_in_one_context(self, small_join_tables, rng):
        """A mini query session: scan a column, then join, in one enclave."""
        build, probe = small_join_tables
        machine = SimMachine()
        with machine.context(SGX, threads=8) as ctx:
            column = Column("v", rng.integers(0, 256, 50_000, dtype=np.uint8))
            scan = BitvectorScan().run(ctx, column, RangePredicate(10, 200))
            join = ParallelHashJoin().run(ctx, build, probe)
        assert scan.matches > 0
        assert join.matches == probe.num_rows
        assert machine.allocator.epc_used(0) == 0  # all released
