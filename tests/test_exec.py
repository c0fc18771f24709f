"""Execution layer: clock, placement, task-queue model, phase executor."""

import pytest

from repro.enclave.runtime import ExecutionSetting
from repro.enclave.sync import LockKind
from repro.errors import ConfigurationError, ExecutionError
from repro.exec.executor import ParallelExecutor
from repro.exec.placement import Placement
from repro.exec.queue import TaskQueueModel
from repro.exec.simclock import SimClock
from repro.hardware import Topology, paper_calibration, paper_testbed
from repro.memory.access import AccessProfile, Locality
from repro.memory.cost_model import MemoryCostModel


@pytest.fixture
def topology():
    return Topology(paper_testbed())


@pytest.fixture
def cost_model():
    return MemoryCostModel(paper_testbed(), paper_calibration())


class TestSimClock:
    def test_advance_and_seconds(self):
        clock = SimClock(2.9e9)
        clock.advance(2.9e9)
        assert clock.seconds == pytest.approx(1.0)

    def test_negative_advance_rejected(self):
        clock = SimClock(1e9)
        with pytest.raises(ConfigurationError):
            clock.advance(-1)

    def test_marks_nest(self):
        clock = SimClock(1e9)
        clock.mark()
        clock.advance(100)
        clock.mark()
        clock.advance(50)
        assert clock.elapsed_since_mark() == 50
        assert clock.elapsed_since_mark() == 150

    def test_elapsed_without_mark_rejected(self):
        with pytest.raises(ConfigurationError):
            SimClock(1e9).elapsed_since_mark()


class TestPlacement:
    def test_on_node(self, topology):
        placement = Placement.on_node(topology, 1, 4)
        assert placement.threads == 4
        assert placement.nodes() == [1, 1, 1, 1]

    def test_all_cores(self, topology):
        placement = Placement.all_cores(topology)
        assert placement.threads == 32
        assert set(placement.nodes()) == {0, 1}

    def test_single(self, topology):
        placement = Placement.single(topology, core=17)
        assert placement.node_of(0) == 1

    def test_duplicate_cores_rejected(self, topology):
        with pytest.raises(ConfigurationError):
            Placement((0, 0), topology)

    def test_empty_placement_rejected(self, topology):
        with pytest.raises(ConfigurationError):
            Placement((), topology)

    def test_unknown_thread_index_rejected(self, topology):
        placement = Placement.single(topology)
        with pytest.raises(ConfigurationError):
            placement.node_of(1)


class TestTaskQueueModel:
    def test_uncontended_single_thread(self):
        model = TaskQueueModel(LockKind.SDK_MUTEX, paper_calibration())
        usage = model.resolve(
            tasks=100, threads=1, task_cycles=1000, enclave_mode=True
        )
        assert usage.contention_ratio == 0.0

    def test_small_tasks_force_contention(self):
        model = TaskQueueModel(LockKind.SDK_MUTEX, paper_calibration())
        usage = model.resolve(
            tasks=100_000, threads=16, task_cycles=100, enclave_mode=True
        )
        assert usage.contention_ratio > 0.9

    def test_enclave_mutex_costlier_than_plain(self):
        model = TaskQueueModel(LockKind.SDK_MUTEX, paper_calibration())
        sgx = model.resolve(tasks=10_000, threads=16, task_cycles=500,
                            enclave_mode=True)
        plain = model.resolve(tasks=10_000, threads=16, task_cycles=500,
                              enclave_mode=False)
        assert sgx.lock_cycles > 10 * plain.lock_cycles

    def test_lock_free_cheap_even_contended(self):
        model = TaskQueueModel(LockKind.LOCK_FREE, paper_calibration())
        usage = model.resolve(
            tasks=100_000, threads=16, task_cycles=100, enclave_mode=True
        )
        assert usage.lock_cycles < 500

    def test_ops_split_across_threads(self):
        model = TaskQueueModel(LockKind.LOCK_FREE, paper_calibration())
        usage = model.resolve(tasks=160, threads=16, task_cycles=1e4,
                              enclave_mode=False)
        assert usage.operations_per_thread == 20  # 2 ops/task / 16 threads

    def test_invalid_inputs_rejected(self):
        model = TaskQueueModel(LockKind.SPIN_LOCK, paper_calibration())
        with pytest.raises(ConfigurationError):
            model.resolve(tasks=-1, threads=1, task_cycles=1, enclave_mode=False)
        with pytest.raises(ConfigurationError):
            model.resolve(tasks=1, threads=0, task_cycles=1, enclave_mode=False)


class TestParallelExecutor:
    def _executor(self, topology, cost_model, threads=4):
        placement = Placement.on_node(topology, 0, threads)
        return ParallelExecutor(
            cost_model, ExecutionSetting.plain_cpu(), placement
        )

    def _profile(self, cycles):
        profile = AccessProfile()
        profile.compute(cycles)
        return profile

    def test_phase_takes_slowest_thread(self, topology, cost_model):
        executor = self._executor(topology, cost_model)
        result = executor.run_phase(
            "p", [self._profile(c) for c in (100, 400, 200, 300)]
        )
        assert max(result.per_thread_cycles) == 400
        assert result.cycles > 400  # barrier cost on top

    def test_uniform_phase_replicates(self, topology, cost_model):
        executor = self._executor(topology, cost_model)
        result = executor.run_uniform_phase("p", self._profile(123))
        assert result.threads == 4
        assert all(c == 123 for c in result.per_thread_cycles)

    def test_single_thread_skips_barrier(self, topology, cost_model):
        executor = self._executor(topology, cost_model, threads=1)
        result = executor.run_phase("p", [self._profile(100)])
        assert result.cycles == 100

    def test_trace_accumulates(self, topology, cost_model):
        executor = self._executor(topology, cost_model, threads=1)
        executor.run_phase("a", [self._profile(100)])
        executor.run_phase("b", [self._profile(200)])
        executor.run_phase("a", [self._profile(50)])
        assert executor.total_cycles() == 350
        assert executor.trace.phase_cycles("a") == 150
        assert executor.trace.breakdown() == {"a": 150, "b": 200}

    def test_imbalance_metric(self, topology, cost_model):
        executor = self._executor(topology, cost_model, threads=2)
        result = executor.run_phase("p", [self._profile(100), self._profile(300)])
        assert result.imbalance == pytest.approx(1.5)

    def test_too_many_profiles_rejected(self, topology, cost_model):
        executor = self._executor(topology, cost_model, threads=2)
        with pytest.raises(ExecutionError):
            executor.run_phase("p", [self._profile(1)] * 3)

    def test_empty_phase_rejected(self, topology, cost_model):
        executor = self._executor(topology, cost_model)
        with pytest.raises(ExecutionError):
            executor.run_phase("p", [])

    def test_environment_reflects_placement(self, topology, cost_model):
        placement = Placement.on_node(topology, 1, 2)
        executor = ParallelExecutor(
            cost_model, ExecutionSetting.sgx_data_in_enclave(), placement
        )
        env = executor.environment(0)
        assert env.enclave_mode
        assert env.thread_node == 1
        assert env.concurrency == 2


class TestPhasePricedOncePerNode:
    """Each distinct (profile, node) is priced once, bit-identically."""

    @pytest.fixture
    def executor(self, topology, cost_model):
        # Cores 0-3 sit on node 0 and 16-19 on node 1, interleaved.
        placement = Placement((0, 16, 1, 17, 2, 18, 3, 19), topology)
        assert set(placement.nodes()) == {0, 1}
        return ParallelExecutor(
            cost_model, ExecutionSetting.sgx_data_in_enclave(), placement
        )

    @staticmethod
    def _profile(rows, data_node=0):
        """A scan of enclave data on ``data_node``, remote to half the threads."""
        profile = AccessProfile()
        profile.seq_read(
            rows,
            8,
            Locality(node=data_node, in_enclave=True),
            working_set_bytes=1e9,
        )
        profile.compute(rows * 0.5)
        return profile

    @staticmethod
    def _reference(executor, profiles):
        """Price every thread on its own, as the executor once did."""
        return tuple(
            executor.cost_model.profile_cycles(
                profile, executor.environment(index, len(profiles))
            )
            for index, profile in enumerate(profiles)
        )

    def _calls(self, executor, monkeypatch):
        calls = []
        price = executor.cost_model.profile_cycles

        def counting(profile, env):
            calls.append((id(profile), env.thread_node))
            return price(profile, env)

        monkeypatch.setattr(executor.cost_model, "profile_cycles", counting)
        return calls

    def test_uniform_phase_across_nodes(self, executor, monkeypatch):
        profile = self._profile(1e6, data_node=1)
        expected = self._reference(executor, [profile] * executor.threads)
        # Cross-NUMA data: the node-0 threads are slower than node 1's.
        assert expected[0] != expected[1]
        calls = self._calls(executor, monkeypatch)
        result = executor.run_uniform_phase("scan", profile)
        assert result.per_thread_cycles == expected
        assert result.cycles == max(expected) + 200.0 + 30.0 * executor.threads
        assert sorted(calls) == sorted({(id(profile), 0), (id(profile), 1)})

    def test_distinct_profiles(self, executor, monkeypatch):
        profiles = [
            self._profile(1e5 * (index + 1), data_node=index % 2)
            for index in range(executor.threads)
        ]
        expected = self._reference(executor, profiles)
        calls = self._calls(executor, monkeypatch)
        result = executor.run_phase("mixed", profiles)
        assert result.per_thread_cycles == expected
        assert len(calls) == executor.threads == len(set(calls))

    def test_repeated_profile_on_fewer_threads(self, executor, monkeypatch):
        profile = self._profile(5e5)
        active = 3
        expected = self._reference(executor, [profile] * active)
        calls = self._calls(executor, monkeypatch)
        result = executor.run_phase("crack", [profile] * active)
        assert result.per_thread_cycles == expected
        assert result.threads == active
        assert sorted(calls) == [(id(profile), 0), (id(profile), 1)]

    def test_equal_but_distinct_profiles_priced_separately(
        self, executor, monkeypatch
    ):
        first, second = self._profile(2e5), self._profile(2e5)
        profiles = [first, second, first, second]
        expected = self._reference(executor, profiles)
        calls = self._calls(executor, monkeypatch)
        result = executor.run_phase("pair", profiles)
        assert result.per_thread_cycles == expected
        # Threads 0 and 2 are on node 0, threads 1 and 3 on node 1.
        assert calls == [(id(first), 0), (id(second), 1)]
