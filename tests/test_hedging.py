"""Tail-latency machinery: hedged dispatch, retry budgets, backoff.

The invariants under test:

* a hedge duplicates a straggling shard onto a sibling, the first answer
  wins, and the merged response stays bit-identical to a single session —
  with the hedge recorded in counters, response metadata and the
  per-endpoint hedged-against load signal;
* a hedge never fires past the request deadline (the timer is simply not
  armed when the threshold cannot precede it), and the deadline runs from
  dispatch, so a shard still queued for a dispatch thread is hedged too;
* cancelling the losing attempt is best-effort — a broken cancel channel
  must never fail a request the winner already answered;
* shed/drain retries draw from one per-request :class:`RetryBudget`; when
  it runs dry the caller gets the structured
  :class:`RetryBudgetExhausted` naming the attempts, and the gateway
  counts it;
* the jittered-exponential backoff helper shared by the remote client and
  the gateway stays bounded and jittered.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import CancelledError, Future

import numpy as np
import pytest

from repro.core import ArchitectureConfig
from repro.serve import (
    ChipSession,
    InferenceRequest,
    RetryBudget,
    RetryBudgetExhausted,
    retry_backoff,
)
from repro.serve.distributed import (
    GatewayEndpoint,
    InferenceGateway,
    RemoteServerError,
)
from repro.serve.distributed.gateway import _HEDGE_FLOOR_S
from repro.serve.schema import ERROR_OVERLOADED
from repro.snn import Dense, Network, convert_to_snn


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(19)
    network = Network(
        (32,),
        [
            Dense(32, 16, use_bias=False, rng=rng, name="fc1"),
            Dense(16, 10, activation=None, use_bias=False, rng=rng, name="out"),
        ],
        name="hedge-mlp",
    )
    snn = convert_to_snn(network, rng.random((12, 32)))
    config = ArchitectureConfig(crossbar_rows=16, crossbar_columns=16)
    inputs = rng.random((6, 32))
    return snn, config, inputs


def _session(workload) -> ChipSession:
    snn, config, _ = workload
    return ChipSession(snn, config=config, timesteps=4, encoder="poisson", seed=11)


class _GatedTarget:
    """Holds every dispatch until released — a deterministic straggler."""

    def __init__(self, session: ChipSession):
        self.session = session
        self.release = threading.Event()

    def infer(self, request: InferenceRequest):
        if not self.release.wait(timeout=60):
            raise RuntimeError("gate never released")
        return self.session.infer(request)


def _drain_inflight(gateway: InferenceGateway, timeout_s: float = 30.0) -> None:
    """Every endpoint's inflight charge must return to zero (no leaks)."""
    deadline = time.monotonic() + timeout_s
    while True:
        loads = gateway.endpoint_loads()
        if all(load["backlog"] == 0 for load in loads.values()):
            return
        assert time.monotonic() < deadline, f"inflight never drained: {loads}"
        time.sleep(0.01)


class TestHedgedDispatch:
    def test_hedge_wins_exactly_and_is_recorded(self, workload):
        snn, config, inputs = workload
        expected = _session(workload).infer(InferenceRequest(inputs=inputs))
        gate = _GatedTarget(_session(workload))
        gateway = InferenceGateway(
            [
                GatewayEndpoint(target=gate, name="straggler"),
                GatewayEndpoint(target=_session(workload), name="sibling"),
            ],
            adaptive=False,
            hedge_after_s=0.02,
        )
        try:
            response = gateway.submit(InferenceRequest(inputs=inputs)).result(
                timeout=60
            )
            np.testing.assert_array_equal(response.predictions, expected.predictions)
            np.testing.assert_array_equal(
                response.spike_counts, expected.spike_counts
            )
            tail = gateway.tail_stats()
            assert tail["hedges_issued"] == 1
            assert tail["hedge_wins"] == 1
            assert tail["budget_exhausted"] == 0
            hedged = [
                shard
                for shard in response.metadata["shards"]
                if shard.get("hedged_from") == "straggler"
            ]
            assert hedged and all(s["endpoint"] == "sibling" for s in hedged)
            assert all(s["hedged_to"] == "sibling" for s in hedged)
            # The straggler was hedged against: the controller's signal.
            assert gateway.endpoint_loads()["straggler"]["hedges"] == 1
        finally:
            gate.release.set()
            # The losing attempt (blocking infer; uncancellable) must still
            # complete, count as wasted compute and release its charge.
            _drain_inflight(gateway)
            gateway.close()
        assert gateway.tail_stats()["hedge_wasted_compute"] == 1

    def test_hedge_threshold_is_the_floored_fixed_value(self, workload):
        endpoint = _session(workload)
        for after_s, expected in ((None, None), (1e-4, _HEDGE_FLOOR_S), (0.25, 0.25)):
            with InferenceGateway([endpoint], hedge_after_s=after_s) as gateway:
                assert gateway.hedge_threshold() == expected

    def test_hedge_never_fires_past_deadline(self, workload):
        snn, config, inputs = workload
        expected = _session(workload).infer(InferenceRequest(inputs=inputs))
        slow = _GatedTarget(_session(workload))
        gateway = InferenceGateway(
            [
                GatewayEndpoint(target=slow, name="straggler"),
                GatewayEndpoint(target=_session(workload), name="sibling"),
            ],
            adaptive=False,
            hedge_after_s=0.05,
        )
        try:
            # Threshold (50ms) cannot precede the deadline (20ms): the
            # straggler timer must not be armed at all.  Local sessions do
            # not enforce deadlines, so the request still completes once
            # the gate opens — without a single hedge.
            future = gateway.submit(
                InferenceRequest(inputs=inputs), deadline_s=0.02
            )
            time.sleep(0.15)  # well past both threshold and deadline
            slow.release.set()
            response = future.result(timeout=60)
            np.testing.assert_array_equal(response.predictions, expected.predictions)
            tail = gateway.tail_stats()
            assert tail["hedges_issued"] == 0
            assert tail["hedge_wins"] == 0
            assert gateway.endpoint_loads()["straggler"]["hedges"] == 0
        finally:
            slow.release.set()
            _drain_inflight(gateway)
            gateway.close()

    def test_queued_shard_is_hedged_under_a_deadline(self, workload):
        """A primary still queued in the dispatch pool is a straggler too.

        The deadline runs from dispatch, so a shard that never got a
        dispatch thread is hedged like one blocked on its endpoint.
        """
        snn, config, inputs = workload
        serial = _session(workload)
        # Capacity 3:1 puts every one-sample request wholly on the
        # straggler.  The two-endpoint gateway has 4 dispatch threads, so
        # the first 4 primaries block on the gate (or its endpoint lock)
        # and the rest stay queued in the pool when their timers fire.
        requests = [
            InferenceRequest(inputs=inputs[i : i + 1], sample_offset=i)
            for i in range(len(inputs))
        ]
        expected = [serial.infer(request) for request in requests]
        gate = _GatedTarget(_session(workload))
        gateway = InferenceGateway(
            [
                GatewayEndpoint(target=gate, capacity=3, name="straggler"),
                GatewayEndpoint(target=_session(workload), capacity=1, name="sibling"),
            ],
            adaptive=False,
            hedge_after_s=0.02,
        )
        try:
            futures = [
                gateway.submit(request, deadline_s=60.0) for request in requests
            ]
            deadline = time.monotonic() + 10
            while gateway.tail_stats()["hedges_issued"] < len(requests):
                assert time.monotonic() < deadline, (
                    f"queued shards were never hedged: {gateway.tail_stats()}"
                )
                time.sleep(0.01)
            gate.release.set()
            for want, future in zip(expected, futures):
                response = future.result(timeout=60)
                np.testing.assert_array_equal(response.predictions, want.predictions)
                np.testing.assert_array_equal(
                    response.spike_counts, want.spike_counts
                )
                assert response.energy.total_j == pytest.approx(
                    want.energy.total_j, rel=1e-9
                )
                [shard] = response.metadata["shards"]
                assert shard["hedged_to"] == "sibling"
            assert gateway.endpoint_loads()["straggler"]["hedges"] == len(requests)
        finally:
            gate.release.set()
            _drain_inflight(gateway)
            gateway.close()

    def test_losing_cancel_failure_never_fails_the_request(self, workload):
        snn, config, inputs = workload
        expected = _session(workload).infer(InferenceRequest(inputs=inputs))

        class _BrokenCancelFuture(Future):
            def cancel(self) -> bool:
                raise RuntimeError("cancel channel broken")

        class _StuckSubmitTarget:
            """Cancellable-looking endpoint that never answers."""

            def __init__(self):
                self.futures: list[Future] = []

            def infer(self, request: InferenceRequest):
                raise AssertionError("submit path expected")

            def submit(self, request: InferenceRequest) -> Future:
                future = _BrokenCancelFuture()
                self.futures.append(future)
                return future

        stuck = _StuckSubmitTarget()
        gateway = InferenceGateway(
            [
                GatewayEndpoint(target=stuck, name="straggler"),
                GatewayEndpoint(target=_session(workload), name="sibling"),
            ],
            adaptive=False,
            hedge_after_s=0.02,
        )
        try:
            response = gateway.submit(InferenceRequest(inputs=inputs)).result(
                timeout=60
            )
            # The stuck endpoint's shard only has an answer because the
            # hedge won on the sibling; its cancel raised and was ignored.
            np.testing.assert_array_equal(response.predictions, expected.predictions)
            tail = gateway.tail_stats()
            assert tail["hedges_issued"] == 1
            assert tail["hedge_wins"] == 1
            assert stuck.futures, "the straggler was never dispatched to"
        finally:
            # Unblock the worker parked on the stuck future, then close.
            for future in stuck.futures:
                future.set_exception(CancelledError())
            _drain_inflight(gateway)
            gateway.close()


class _AlwaysShedTarget:
    """Sheds every dispatch with the structured ``overloaded`` error."""

    def __init__(self):
        self.calls = 0

    def infer(self, request: InferenceRequest):
        self.calls += 1
        raise RemoteServerError("server overloaded", code=ERROR_OVERLOADED)


class TestRetryBudgets:
    def test_shed_retry_moves_shard_and_is_recorded(self, workload):
        snn, config, inputs = workload
        expected = _session(workload).infer(InferenceRequest(inputs=inputs))

        class _ShedOnceTarget:
            def __init__(self, session: ChipSession):
                self.session = session
                self.calls = 0

            def infer(self, request: InferenceRequest):
                self.calls += 1
                if self.calls == 1:
                    raise RemoteServerError("overloaded", code=ERROR_OVERLOADED)
                return self.session.infer(request)

        flaky = _ShedOnceTarget(_session(workload))
        gateway = InferenceGateway(
            [
                # Capacity skew: the whole batch plans onto the flaky
                # endpoint; the healthy one exists to absorb the retry.
                GatewayEndpoint(target=flaky, capacity=100, name="flaky"),
                GatewayEndpoint(target=_session(workload), capacity=1, name="ok"),
            ],
            adaptive=False,
        )
        with gateway:
            response = gateway.infer(InferenceRequest(inputs=inputs))
        np.testing.assert_array_equal(response.predictions, expected.predictions)
        assert flaky.calls == 1
        shards = response.metadata["shards"]
        assert [s["endpoint"] for s in shards] == ["ok"]
        assert shards[0]["retried_from"] == "flaky"
        assert shards[0]["retries"] == 1
        assert gateway.tail_stats()["retries"] == 1
        assert gateway.tail_stats()["budget_exhausted"] == 0

    def test_budget_exhaustion_surfaces_structured_error(self, workload):
        snn, config, inputs = workload
        shed_a, shed_b = _AlwaysShedTarget(), _AlwaysShedTarget()
        gateway = InferenceGateway(
            [
                GatewayEndpoint(target=shed_a, capacity=100, name="a"),
                GatewayEndpoint(target=shed_b, capacity=1, name="b"),
            ],
            adaptive=False,
        )
        budget = RetryBudget(2, backoff_base_s=0.001, backoff_cap_s=0.002)
        request = InferenceRequest(inputs=inputs).with_retry_budget(budget)
        with gateway:
            future = gateway.submit(request)
            with pytest.raises(RetryBudgetExhausted, match=r"2 attempt"):
                future.result(timeout=60)
        # 2 attempts total: the plan's dispatch plus one budgeted retry.
        assert shed_a.calls + shed_b.calls == 2
        assert budget.remaining == 0
        tail = gateway.tail_stats()
        assert tail["retries"] == 1
        assert tail["budget_exhausted"] == 1
        _drain_inflight(gateway, timeout_s=5.0)

    def test_default_budget_is_one_retry_per_planned_shard(self, workload):
        # A request without its own budget gets 1 + k attempts pooled over
        # its k planned shards.
        _, _, inputs = workload
        targets = [_AlwaysShedTarget() for _ in range(3)]
        gateway = InferenceGateway(
            [GatewayEndpoint(target=t, name=f"shed-{i}") for i, t in enumerate(targets)],
            adaptive=False,
        )
        with gateway:
            assert len(gateway.shard_plan(len(inputs))) == 3
            future = gateway.submit(InferenceRequest(inputs=inputs))
            with pytest.raises(RetryBudgetExhausted) as excinfo:
                future.result(timeout=60)
            _drain_inflight(gateway, timeout_s=5.0)
        assert excinfo.value.attempts == 1 + 3
        assert gateway.tail_stats()["retries"] == 3

    def test_exhaustion_error_names_attempts_and_cause(self):
        budget = RetryBudget(3)
        assert budget.try_consume() == 0
        assert budget.try_consume() == 1
        assert budget.try_consume() is None
        error = budget.exhausted(ValueError("boom"))
        assert isinstance(error, RetryBudgetExhausted)
        assert error.attempts == 3
        assert error.retries == 2
        assert "3 attempt(s)" in str(error)
        assert "ValueError: boom" in str(error)
        assert isinstance(error.__cause__, ValueError)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            RetryBudget(0)
        with pytest.raises(ValueError):
            RetryBudget(1, backoff_base_s=-0.1)


class TestSharedBackoff:
    def test_backoff_grows_and_jitters(self):
        for attempt, base in ((0, 0.05), (1, 0.1), (2, 0.2)):
            for _ in range(20):
                delay = retry_backoff(attempt)
                assert base * 0.5 <= delay <= base * 1.5

    def test_backoff_cap(self):
        for _ in range(20):
            assert retry_backoff(10, base_s=0.05, cap_s=0.2) <= 0.2 * 1.5
