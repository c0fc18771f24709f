"""Every entry point the layered benchmark wraps still resolves.

``perf/run.py --layers`` replaces each ``module:qualname`` in
``perf.layers.LAYERS`` with a timed wrapper; a renamed or deleted entry
point would break that run, so this test resolves each one (and each
observed one) the way the benchmark does.  It only reads ``perf/``.
"""

import pytest

from perf import layers

TARGETS = sorted({t for targets in layers.LAYERS.values() for t in targets})


def test_the_layer_table_is_populated():
    assert len(TARGETS) == sum(map(len, layers.LAYERS.values())) > 0
    assert set(layers._OBSERVERS) <= set(TARGETS)


@pytest.mark.parametrize("target", TARGETS)
def test_entry_point_resolves(target):
    owner, attr = layers._resolve(target)
    assert callable(getattr(owner, attr)), target
