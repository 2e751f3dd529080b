"""Metrics-instrumentation overhead on the batched hot path.

The observability plane records a handful of counter increments, histogram
observations and phase spans per coalesced dispatch.  That cost must stay
in the noise floor of chip compute: this benchmark drives the same
coalesced ``infer_many`` hot path — the exact path the async server's
dynamic batcher drains through — once with a live
:class:`~repro.serve.metrics.MetricsRegistry` and once with the disabled
``NULL_REGISTRY`` (every record call short-circuits), and holds the
instrumented run to under 5% overhead.

Best-of-N wall times on a multi-request dispatch keep the comparison
stable on shared runners; the acceptance bar is generous precisely because
the expected overhead is orders of magnitude below it (microseconds of
bookkeeping against milliseconds of spiking simulation).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import ArchitectureConfig
from repro.serve import ChipPool, InferenceRequest
from repro.serve.metrics import NULL_REGISTRY, MetricsRegistry
from repro.snn import Dense, Network, convert_to_snn

BATCH = 32
REQUESTS = 8
FEATURES = 64
TIMESTEPS = 6
#: One session: process workers would run the session and plan-cache
#: instruments in the children's default registries, outside the comparison.
JOBS = 1
ROUNDS = 7

#: The instrumented hot path may cost at most this fraction extra.
OVERHEAD_CEILING = 0.05


@pytest.fixture(scope="module")
def overhead_workload():
    rng = np.random.default_rng(47)
    network = Network(
        (FEATURES,),
        [
            Dense(FEATURES, 32, use_bias=False, rng=rng, name="fc1"),
            Dense(32, 10, activation=None, use_bias=False, rng=rng, name="out"),
        ],
        name="metrics-overhead-mlp",
    )
    snn = convert_to_snn(network, rng.random((16, FEATURES)))
    config = ArchitectureConfig(crossbar_rows=16, crossbar_columns=16)
    requests = [
        InferenceRequest(
            inputs=rng.random((BATCH, FEATURES)), sample_offset=i * BATCH
        )
        for i in range(REQUESTS)
    ]
    return snn, config, requests


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="sub-5% overhead comparison is unreliable on a single busy core",
)
def test_bench_metrics_overhead_on_batched_hot_path(
    overhead_workload, persist_result
):
    """Live registry vs no-op registry on the coalesced dispatch path.

    The rounds interleave between the two pools, so a machine-load drift
    during the benchmark biases both sides equally instead of whichever
    registry happened to run second.
    """
    snn, config, requests = overhead_workload

    def pool_for(registry: MetricsRegistry) -> ChipPool:
        return ChipPool(
            snn,
            jobs=JOBS,
            config=config,
            timesteps=TIMESTEPS,
            seed=0,
            registry=registry,
        )

    disabled_s = float("inf")
    enabled_s = float("inf")
    with pool_for(NULL_REGISTRY) as disabled_pool, pool_for(
        MetricsRegistry(enabled=True)
    ) as enabled_pool:
        # Warm both paths (plan arenas) before timing.
        disabled_pool.infer_many(requests)
        enabled_pool.infer_many(requests)
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            disabled_pool.infer_many(requests)
            disabled_s = min(disabled_s, time.perf_counter() - t0)
            t0 = time.perf_counter()
            enabled_pool.infer_many(requests)
            enabled_s = min(enabled_s, time.perf_counter() - t0)
    overhead = enabled_s / disabled_s - 1.0
    print(
        f"\nmetrics overhead ({REQUESTS}x{BATCH} coalesced, jobs={JOBS}): "
        f"disabled {disabled_s * 1e3:.2f}ms, enabled {enabled_s * 1e3:.2f}ms, "
        f"overhead {overhead:+.2%}"
    )
    persist_result(
        "metrics_overhead",
        "batched_hot_path",
        {
            "requests": REQUESTS,
            "batch": BATCH,
            "jobs": JOBS,
            "timesteps": TIMESTEPS,
            "disabled_s": disabled_s,
            "enabled_s": enabled_s,
            "overhead_fraction": overhead,
            "ceiling": OVERHEAD_CEILING,
        },
    )
    assert overhead < OVERHEAD_CEILING, (
        f"metrics instrumentation costs {overhead:.2%} on the batched hot "
        f"path — above the {OVERHEAD_CEILING:.0%} ceiling"
    )
