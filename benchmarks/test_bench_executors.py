"""Wall-clock comparison of process shard workers against one session.

A ``jobs > 1`` pool shards across process workers: each worker owns (and
compiled) its own chip, and every dispatch hands all its shards to the
workers in one call, moving their arrays through one shared-memory segment
plus a compact JSON hop per shard.  This benchmark
records ``jobs=4`` process sharding on a batch of 256 so the BENCH trends
catch regressions, and asserts it stays within sane bounds of a single
session (it must not collapse to pathological serialisation costs) while
remaining result-identical.  On a host with fewer than four cores, jobs=4
over-subscribes it, so the bound is a sanity check, not a speedup claim.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import ArchitectureConfig
from repro.serve import ChipPool, InferenceRequest
from repro.snn import Dense, Network, convert_to_snn

BATCH = 256
TIMESTEPS = 8
JOBS = 4

#: jobs=4 process sharding must stay within this factor of one session on a
#: multi-core machine.  Generous on purpose: it guards against
#: pathological regressions (per-request chip rebuilds, quadratic JSON
#: costs), not against the inherent IPC overhead.
PROCESS_SANITY_FACTOR = 25.0


@pytest.fixture(scope="module")
def executor_workload():
    """A wider MLP and a large batch, sized so per-shard work dominates."""
    rng = np.random.default_rng(29)
    network = Network(
        (256,),
        [
            Dense(256, 128, use_bias=False, rng=rng, name="fc1"),
            Dense(128, 10, activation=None, use_bias=False, rng=rng, name="out"),
        ],
        name="executor-mlp",
    )
    snn = convert_to_snn(network, rng.random((24, 256)))
    config = ArchitectureConfig(crossbar_rows=32, crossbar_columns=32)
    inputs = rng.random((BATCH, 256))
    return snn, config, inputs


def _best_time(pool: ChipPool, request: InferenceRequest, rounds: int = 3):
    best = float("inf")
    response = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        response = pool.infer(request)
        best = min(best, time.perf_counter() - t0)
    return best, response


def test_bench_process_executor(benchmark, executor_workload):
    """Timing reference: jobs=4 process workers, shards via shared memory."""
    snn, config, inputs = executor_workload
    request = InferenceRequest(inputs=inputs)
    with ChipPool(
        snn, jobs=JOBS, config=config, timesteps=TIMESTEPS, seed=0
    ) as pool:
        response = benchmark.pedantic(lambda: pool.infer(request), iterations=1, rounds=3)
    assert response.predictions.shape == (BATCH,)
    assert response.jobs == JOBS


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="executor throughput comparison needs >= 2 cores",
)
def test_process_executor_within_sane_bounds(executor_workload, persist_result):
    """jobs=4 process sharding must stay within bounds of one session."""
    snn, config, inputs = executor_workload
    request = InferenceRequest(inputs=inputs)
    with ChipPool(snn, jobs=1, config=config, timesteps=TIMESTEPS, seed=0) as pool:
        single_s, single_response = _best_time(pool, request)
    with ChipPool(
        snn, jobs=JOBS, config=config, timesteps=TIMESTEPS, seed=0
    ) as pool:
        process_s, process_response = _best_time(pool, request)

    ratio = process_s / single_s
    print(
        f"\nexecutor wall-clock (batch {BATCH}): one session {single_s:.3f}s, "
        f"process jobs={JOBS} {process_s:.3f}s, process/session {ratio:.2f}x"
    )
    persist_result(
        "executors",
        "session_vs_process",
        {
            "batch": BATCH,
            "jobs": JOBS,
            "timesteps": TIMESTEPS,
            "single_s": single_s,
            "process_s": process_s,
            "process_over_single": ratio,
        },
    )
    assert process_s < PROCESS_SANITY_FACTOR * single_s, (
        f"process workers {ratio:.1f}x slower than one session "
        f"({process_s:.3f}s vs {single_s:.3f}s) — beyond the sane-overhead bound"
    )
    # Sharding must not change the answer.
    np.testing.assert_array_equal(
        single_response.predictions, process_response.predictions
    )
    np.testing.assert_array_equal(
        single_response.spike_counts, process_response.spike_counts
    )
    assert process_response.energy.total_j == pytest.approx(
        single_response.energy.total_j, rel=1e-9
    )
