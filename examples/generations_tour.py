"""A tour across SGX generations and engine design choices.

Walks the full arc of the paper plus this library's extensions:

1. SGXv1: why CrkJoin existed (EPC paging collapses standard joins);
2. SGXv2: why it is obsolete (the radix join wins by an order of magnitude);
3. compression: bit-packed scans as a free enclave win;
4. aggregation: the histogram effect on a real group-by;
5. pipelining: what the materializing scheme of Sec. 6 actually costs.

Usage::

    python examples/generations_tour.py
"""

import numpy as np

from repro import CodeVariant, ExecutionSetting, SimMachine
from repro.core.joins import CrkJoin, RadixJoin
from repro.core.ops.aggregate import AggFunc, HashAggregate
from repro.core.queries import QueryExecutor, TPCH_QUERIES
from repro.core.scans.packed_scan import PackedScan
from repro.core.scans.predicate import RangePredicate
from repro.enclave.enclave import EnclaveConfig
from repro.hardware.platforms import sgxv1_calibration, sgxv1_testbed
from repro.tables import generate_join_relation_pair, generate_tpch
from repro.tables.bitpack import BitPackedColumn
from repro.units import GiB, format_throughput_rows

SGX = ExecutionSetting.sgx_data_in_enclave()


def act1_sgxv1() -> None:
    print("=== Act 1: SGXv1 — the world CrkJoin was built for ===")
    build, probe = generate_join_relation_pair(
        50e6, 200e6, seed=4, physical_row_cap=120_000
    )
    for label, join in (("CrkJoin", CrkJoin()), ("RHO", RadixJoin())):
        machine = SimMachine(sgxv1_testbed(), sgxv1_calibration())
        config = EnclaveConfig(heap_bytes=2 * GiB, node=0)
        with machine.context(SGX, threads=4, enclave_config=config) as ctx:
            result = join.run(ctx, build, probe)
        throughput = result.throughput_rows_per_s(machine.frequency_hz)
        print(f"  {label:8s} in a 93 MB-EPC enclave: "
              f"{format_throughput_rows(throughput)}")
    print("  -> paging murders the radix join; cracking in place wins.\n")


def act2_sgxv2() -> None:
    print("=== Act 2: SGXv2 — the bottleneck is gone ===")
    build, probe = generate_join_relation_pair(
        50e6, 200e6, seed=4, physical_row_cap=120_000
    )
    for label, join in (
        ("CrkJoin", CrkJoin()),
        ("RHO optimized", RadixJoin(CodeVariant.UNROLLED)),
    ):
        machine = SimMachine()
        with machine.context(SGX, threads=16) as ctx:
            result = join.run(ctx, build, probe)
        throughput = result.throughput_rows_per_s(machine.frequency_hz)
        print(f"  {label:14s} in a 64 GB-EPC enclave: "
              f"{format_throughput_rows(throughput)}")
    print("  -> same algorithms, new hardware: the ordering inverts.\n")


def act3_compression() -> None:
    print("=== Act 3: compression — narrow codes, same tiny SGX cost ===")
    rng = np.random.default_rng(8)
    scan = PackedScan()
    for bits in (32, 8):
        column = BitPackedColumn(
            rng.integers(0, 1 << bits, 60_000, dtype=np.uint64), bits
        )
        machine = SimMachine()
        with machine.context(SGX, threads=16) as ctx:
            result = scan.run(
                ctx, column, RangePredicate(0, 1 << (bits - 1)),
                sim_scale=4e9 / column.num_values,
            )
        rate = scan.values_per_second(result, machine.frequency_hz)
        print(f"  {bits:2d}-bit codes: {rate / 1e9:5.1f} G values/s "
              f"({column.compression_ratio():.0f}x smaller EPC footprint)")
    print("  -> dictionary compression multiplies enclave scan rates.\n")


def act4_aggregation() -> None:
    print("=== Act 4: aggregation — the histogram effect on group-by ===")
    rng = np.random.default_rng(15)
    keys = rng.integers(0, 1000, 80_000)
    values = rng.integers(0, 100, 80_000)
    for variant in (CodeVariant.NAIVE, CodeVariant.UNROLLED):
        times = {}
        for setting in (ExecutionSetting.plain_cpu(), SGX):
            machine = SimMachine()
            with machine.context(setting, threads=16) as ctx:
                result = HashAggregate(variant).run(
                    ctx, keys, values, (AggFunc.COUNT, AggFunc.SUM),
                    sim_scale=625.0,
                )
            times[setting.label] = result.cycles
        relative = times["Plain CPU"] / times["SGX (Data in Enclave)"]
        print(f"  {variant.value:8s} group-by keeps {relative:.0%} of native")
    print("  -> unroll/reorder matters for every RMW loop, not just joins.\n")


def act5_pipelining() -> None:
    print("=== Act 5: pipelining — is materialization the problem? ===")
    data = generate_tpch(10, seed=5, physical_sf_cap=0.02)
    tables = data.named
    for pipelined in (False, True):
        machine = SimMachine()
        with machine.context(SGX, threads=16) as ctx:
            result = QueryExecutor(
                CodeVariant.UNROLLED, pipelined=pipelined
            ).run(ctx, TPCH_QUERIES["Q3"](), tables)
        label = "pipelined" if pipelined else "materializing"
        print(f"  Q3 {label:13s}: {result.seconds(machine.frequency_hz) * 1e3:.1f} ms")
    print(
        "  -> barely: with a pre-sized enclave, sequential writes are "
        "nearly free in SGXv2.\n     (With an EDMM-growing enclave the "
        "picture flips — see `sgxv2-bench ext05`.)"
    )


def main() -> None:
    act1_sgxv1()
    act2_sgxv2()
    act3_compression()
    act4_aggregation()
    act5_pipelining()


if __name__ == "__main__":
    main()
