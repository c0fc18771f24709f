"""One benchmark sample, run in its own fresh process by ``perf/run.py``.

Usage: ``python -m perf.child WORKLOAD SEED MODE`` with the program's
``src`` directory on ``PYTHONPATH``; MODE is ``plain``, ``layers`` (one
timed pass, with the per-layer wrappers installed) or ``setup`` (exit
once set up).  The child writes ``{"ready": true}`` to stdout once set-up
is done (the parent times set-up from its own spawn of the child to this
line), then one JSON line with the sample's result.  Everything else the
program prints is sent to stderr.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from repro.cache import profile_memo

from perf.layers import LayerClock, install
from perf.workloads import WORKLOADS


def _cpu_s() -> float:
    """User plus system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """The larger ``ru_maxrss`` of self and children, in MiB (Linux: KiB)."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024


def _send(channel, message: dict) -> None:
    channel.write(json.dumps(message) + "\n")
    channel.flush()


def main(argv) -> None:
    name, seed, mode = argv[1], int(argv[2]), argv[3]
    channel = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    workload = WORKLOADS[name]()
    workload.setup(seed)
    _send(channel, {"ready": True})
    if mode == "setup":
        return
    workload.warmup()
    clock = None
    if mode == "layers":
        clock = LayerClock()
        install(clock)
    memo = profile_memo()
    memo_before = (memo.hits, memo.misses)
    pass_s, cpu_s, errors, mismatches = [], [], {}, []
    first = None
    for _ in range(1 if clock else workload.timed_passes):
        cpu_before = _cpu_s()
        start = time.perf_counter()
        timed = workload.run_pass()
        pass_s.append(time.perf_counter() - start)
        cpu_s.append(_cpu_s() - cpu_before)
        errors.update((o.name, o.error) for o in timed if o.error)
        mismatches += workload.cross_check(timed)
        if first is None:
            first = timed
        mismatches += [
            (o.name, "differs from the first timed pass")
            for o, reference in zip(timed, first)
            if o.digest != reference.digest
        ]
    result = {
        "pass_s": pass_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "digests": {o.name: o.digest for o in first},
        "errors": errors,
        "mismatches": mismatches,
    }
    if clock is not None:
        result["layers"] = clock.metrics(
            pass_s[0], memo.hits - memo_before[0], memo.misses - memo_before[1]
        )
    _send(channel, result)


if __name__ == "__main__":
    main(sys.argv)
