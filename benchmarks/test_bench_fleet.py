"""Elastic-fleet benchmark: autoscaling vs a static replica under a burst.

The fleet subsystem's value proposition is tail latency under load: when a
4x-oversubscribed open-loop burst lands on one replica, queue-wait grows
linearly with the backlog; an autoscaled fleet converts the same backlog
into replicas and the p95 client-observed wait drops.  This benchmark pins
that down with the same machine-independent trick as the load-shedding
bench — every replica sleeps a scripted per-dispatch latency, so the
oversubscription (and the win) does not depend on chip compute speed:

* **static** — a fleet pinned to one replica (``max_replicas=1``; the
  controller has nothing to do) absorbs the whole burst serially;
* **autoscaled** — the same burst against ``max_replicas=3``: the
  controller must scale up at least once, and the admitted p95 wait must
  beat the static baseline.

Exactness always runs: every response in both runs must match the serial
single-session answers bit-for-bit — autoscaling changes placement and
throughput, never numbers.  The load-dependent threshold (p95 win) skips
on single-core runners like the other concurrency benchmarks.

Results land in ``benchmarks/results/fleet.json`` (override with
``FLEET_BENCH_RESULTS``).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import ArchitectureConfig
from repro.serve import ChipSession, InferenceRequest
from repro.serve.distributed.executors import SessionSpec
from repro.serve.fleet import ElasticFleet, FleetPolicy, ReplicaSpec
from repro.snn import Dense, Network, convert_to_snn

#: Scripted artificial latency per dispatch in every replica.
DISPATCH_DELAY_S = 0.05
#: The burst: enough requests to keep one replica busy for
#: REQUESTS * DISPATCH_DELAY_S ~ 2s — 4x what the autoscaled fleet's
#: sustained-pressure window needs to grow to its ceiling.
REQUESTS = 40
SAMPLES_PER_REQUEST = 4
MAX_REPLICAS = 3

#: Legacy per-module override; unset falls through to the shared
#: ``persist_result`` results directory (``BENCH_RESULTS_DIR``).
RESULTS_OVERRIDE = os.environ.get("FLEET_BENCH_RESULTS")


@pytest.fixture(scope="module")
def fleet_workload():
    rng = np.random.default_rng(29)
    network = Network(
        (48,),
        [
            Dense(48, 24, use_bias=False, rng=rng, name="fc1"),
            Dense(24, 10, activation=None, use_bias=False, rng=rng, name="out"),
        ],
        name="fleet-mlp",
    )
    snn = convert_to_snn(network, rng.random((16, 48)))
    config = ArchitectureConfig(crossbar_rows=16, crossbar_columns=16)
    requests = [
        InferenceRequest(
            inputs=rng.random((SAMPLES_PER_REQUEST, 48)),
            sample_offset=i * SAMPLES_PER_REQUEST,
        )
        for i in range(REQUESTS)
    ]
    primary = ChipSession(snn, config=config, timesteps=4, encoder="poisson", seed=13)
    assert primary.encoder_state is not None
    session_spec = SessionSpec(
        snn=snn,
        config=primary.config,
        library=None,
        timesteps=4,
        backend="vectorized",
        seed=13,
        encoder_state=primary.encoder_state,
    )
    serial = ChipSession(snn, config=config, timesteps=4, encoder="poisson", seed=13)
    expected = [serial.infer(request) for request in requests]
    return session_spec, requests, expected


def _policy(max_replicas: int) -> FleetPolicy:
    return FleetPolicy(
        min_replicas=1,
        max_replicas=max_replicas,
        interval_s=0.05,
        target_backlog=1.0,
        scale_up_stable_s=0.1,
        idle_backlog=0.25,
        scale_down_stable_s=30.0,  # no scale-down mid-burst; close() drains
        cooldown_s=0.2,
    )


def _drive_burst(session_spec, requests, expected, max_replicas: int) -> dict:
    """One open-loop burst against a fleet; returns the measured metrics."""
    spec = ReplicaSpec(
        session_spec=session_spec,
        workload=f"fleet-bench-{max_replicas}",
        dispatch_delay_s=DISPATCH_DELAY_S,
    )
    with ElasticFleet(
        spec,
        policy=_policy(max_replicas),
        name=f"bench-fleet-{max_replicas}",
    ) as fleet:
        started = time.perf_counter()
        submitted = [
            (index, time.perf_counter(), fleet.submit(request))
            for index, request in enumerate(requests)
        ]
        waits = []
        for index, submitted_at, future in submitted:
            response = future.result(timeout=120)
            waits.append(time.perf_counter() - submitted_at)
            np.testing.assert_array_equal(
                response.predictions, expected[index].predictions
            )
            np.testing.assert_array_equal(
                response.spike_counts, expected[index].spike_counts
            )
        elapsed = time.perf_counter() - started
        status = fleet.fleet_status()
    p50, p95 = np.percentile(waits, [50, 95])
    return {
        "max_replicas": max_replicas,
        "requests": len(requests),
        "dispatch_delay_s": DISPATCH_DELAY_S,
        "elapsed_s": float(elapsed),
        "wait_p50_s": float(p50),
        "wait_p95_s": float(p95),
        "replicas_peak": max(
            int(event.get("replicas_after", 1))
            for event in status["controller"]["events"]
        )
        if status["controller"]["events"]
        else 1,
        "scale_up_actions": int(status["controller"]["actions"]["scale_up"]),
    }


def test_bench_fleet_autoscaling_beats_static_p95(fleet_workload, persist_result):
    """Autoscaled p95 queue-wait under a 4x burst beats the static replica."""
    session_spec, requests, expected = fleet_workload
    static = _drive_burst(session_spec, requests, expected, max_replicas=1)
    autoscaled = _drive_burst(
        session_spec, requests, expected, max_replicas=MAX_REPLICAS
    )
    print(
        f"\nfleet burst ({REQUESTS} requests open-loop, "
        f"{DISPATCH_DELAY_S * 1e3:.0f}ms/dispatch): "
        f"static p95 {static['wait_p95_s'] * 1e3:.0f}ms "
        f"({static['elapsed_s']:.2f}s total) vs autoscaled p95 "
        f"{autoscaled['wait_p95_s'] * 1e3:.0f}ms "
        f"({autoscaled['elapsed_s']:.2f}s total, "
        f"{autoscaled['scale_up_actions']} scale-ups, "
        f"peak {autoscaled['replicas_peak']} replicas)"
    )
    persist_result("fleet", "static", static, path=RESULTS_OVERRIDE)
    persist_result("fleet", "autoscaled", autoscaled, path=RESULTS_OVERRIDE)

    assert static["scale_up_actions"] == 0, "a max=1 fleet must never scale"
    if (os.cpu_count() or 1) < 2:
        pytest.skip("fleet speedup thresholds need >= 2 cores (replica processes)")
    assert autoscaled["scale_up_actions"] >= 1, (
        "the burst never scaled the fleet past one replica"
    )
    assert autoscaled["wait_p95_s"] < static["wait_p95_s"], (
        f"autoscaling did not improve p95 queue-wait: "
        f"{autoscaled['wait_p95_s']:.3f}s vs static {static['wait_p95_s']:.3f}s"
    )
