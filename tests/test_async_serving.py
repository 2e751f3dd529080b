"""The async serving core: pipelined protocol, dynamic batching, resilience.

Four seams of the PR-4 refactor, each held to the established parity bar
(results must be *exactly* what a single :class:`~repro.serve.ChipSession`
returns — parallelism, pipelining and coalescing may change throughput,
never numbers):

* the **wire protocol**: tagged frames allow several requests in flight per
  connection, replies matched by request id;
* the **pool's** :meth:`~repro.serve.ChipPool.infer_many` dynamic-batching
  seam: many requests coalesce into one pool dispatch and split back
  per request, exactly;
* the **server's** cross-client dynamic batcher, driven through gate
  targets so coalescing is deterministic rather than timing-dependent;
* **client/gateway resilience**: resubmission across a server restart,
  non-blocking gateway dispatch, and failure surfacing instead of a hung
  merge.
"""

from __future__ import annotations

import contextlib
import re
import socket
import threading
import time
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import ArchitectureConfig
from repro.serve import ChipPool, ChipSession, InferenceRequest
from repro.serve.distributed import (
    ChipServer,
    GatewayEndpoint,
    InferenceGateway,
    PipelinedSession,
    RemoteServerError,
    parse_endpoint,
)
from repro.serve.schema import (
    ERROR_CANCELLED,
    ERROR_DEADLINE_EXCEEDED,
    ERROR_OVERLOADED,
    PROTOCOL_VERSION,
    request_envelope,
)
from repro.snn import Dense, Network, convert_to_snn

ENERGY_RTOL = 1e-9


def _mlp(seed: int, dims: tuple[int, ...]):
    rng = np.random.default_rng(seed)
    layers = []
    for i, (n_in, n_out) in enumerate(zip(dims[:-1], dims[1:])):
        last = i == len(dims) - 2
        layers.append(
            Dense(
                n_in,
                n_out,
                activation=None if last else "relu",
                use_bias=False,
                rng=rng,
                name=f"fc{i}",
            )
        )
    network = Network((dims[0],), layers, name=f"async-{'x'.join(map(str, dims))}")
    return convert_to_snn(network, rng.random((12, dims[0])))


@pytest.fixture(scope="module")
def workload():
    snn = _mlp(9, (48, 24, 10))
    config = ArchitectureConfig(crossbar_rows=16, crossbar_columns=16)
    rng = np.random.default_rng(33)
    inputs = rng.random((13, 48))
    labels = rng.integers(0, 10, size=13)
    return snn, config, inputs, labels


@pytest.fixture(scope="module")
def single_session(workload):
    snn, config, _, _ = workload
    return ChipSession(snn, config=config, timesteps=5, encoder="poisson", seed=21)


def _fresh_session(workload):
    snn, config, _, _ = workload
    return ChipSession(snn, config=config, timesteps=5, encoder="poisson", seed=21)


def _assert_identical(expected, actual):
    np.testing.assert_array_equal(expected.predictions, actual.predictions)
    np.testing.assert_array_equal(expected.spike_counts, actual.spike_counts)
    assert expected.accuracy == actual.accuracy
    e, a = expected.counters.as_dict(), actual.counters.as_dict()
    for name, value in e.items():
        if name == "crossbar_device_energy_j":
            assert a[name] == pytest.approx(value, rel=ENERGY_RTOL)
        else:
            assert a[name] == value, f"counter {name}: {a[name]} != {value}"
    assert actual.energy.total_j == pytest.approx(
        expected.energy.total_j, rel=ENERGY_RTOL
    )


# -- wire protocol ------------------------------------------------------------------


class TestWireProtocol:
    @pytest.fixture(scope="class")
    def served_session(self, workload):
        snn, config, _, _ = workload
        session = ChipSession(snn, config=config, timesteps=5, encoder="poisson", seed=21)
        with ChipServer(session, port=0, workload="wire-test").start() as server:
            yield server

    def test_tagged_requests_pipeline_on_one_connection(
        self, served_session, workload, single_session, raw_frames
    ):
        _, _, inputs, _ = workload
        first = InferenceRequest(inputs=inputs[:4])
        second = InferenceRequest(inputs=inputs[4:9], sample_offset=4)
        raw = raw_frames(served_session.address)
        # Both requests go out before either reply is read: the server must
        # accept the pipelined frames and tag each reply with its id.
        for request_id, request in [("a", first), ("b", second)]:
            raw.send("infer", request_id=request_id, request=request)
        replies = [raw.read() for _ in range(2)]
        by_id = {reply["id"]: reply for reply in replies}
        assert set(by_id) == {"a", "b"}
        for reply in replies:
            assert reply["ok"] is True
            assert reply["reply"] == "infer"
            assert reply["v"] == PROTOCOL_VERSION
        expected = single_session.infer(InferenceRequest(inputs=inputs[:9]))
        merged = np.concatenate(
            [
                np.asarray(by_id["a"]["response"]["predictions"]),
                np.asarray(by_id["b"]["response"]["predictions"]),
            ]
        )
        np.testing.assert_array_equal(expected.predictions, merged)

    def test_unsupported_protocol_version_rejected(self, served_session, raw_frames):
        raw = raw_frames(served_session.address)
        raw.send_envelope({"v": 99, "op": "ping", "id": 1})
        reply = raw.read()
        assert reply["ok"] is False
        assert "unsupported protocol version" in reply["error"]
        # The error reply must stay routable: a pipelined client matches
        # replies by id, and the bad line still carried one.
        assert reply["id"] == 1
        assert reply["reply"] == "ping"
        # The frame was well-delimited: the connection keeps serving.
        raw.send("info", request_id=2)
        info = raw.read()
        assert info["ok"] is True and info["id"] == 2
        assert info["info"]["workload"] == "wire-test"
        assert info["info"]["protocol_version"] == PROTOCOL_VERSION

    def test_large_request_frames_cross_the_wire(self, served_session, single_session):
        # A production batch serialises to hundreds of kilobytes per frame —
        # past the stdlib stream buffer of 64 KiB and the server's inline
        # decode threshold, so the payload is read in pieces and decoded
        # off the event loop.
        rng = np.random.default_rng(4)
        request = InferenceRequest(inputs=rng.random((600, 48)))
        expected = single_session.infer(request)
        with PipelinedSession.connect(
            served_session.address, connections=1, timeout=60
        ) as remote:
            response = remote.submit(request).result(timeout=60)
        np.testing.assert_array_equal(expected.predictions, response.predictions)
        np.testing.assert_array_equal(expected.spike_counts, response.spike_counts)

    def test_request_envelope_shape(self):
        envelope = request_envelope("infer", request_id=7, request={"inputs": [[1.0]]})
        assert envelope == {
            "v": PROTOCOL_VERSION,
            "op": "infer",
            "id": 7,
            "request": {"inputs": [[1.0]]},
        }
        assert "id" not in request_envelope("ping")


# -- pool dynamic batching ----------------------------------------------------------


class TestPoolInferMany:
    @pytest.mark.parametrize("jobs", [1, 3])
    def test_coalesced_requests_split_back_exactly(
        self, workload, single_session, jobs
    ):
        snn, config, inputs, labels = workload
        requests = [
            InferenceRequest(inputs=inputs[:5], labels=labels[:5]),
            InferenceRequest(inputs=inputs, labels=labels),
            InferenceRequest(inputs=inputs[:1]),
            InferenceRequest(inputs=inputs[:6], timesteps=3),
        ]
        expected = [single_session.infer(request) for request in requests]
        with ChipPool(
            snn,
            jobs=jobs,
            config=config,
            timesteps=5,
            encoder="poisson",
            seed=21,
        ) as pool:
            responses = pool.infer_many(requests)
        assert len(responses) == len(requests)
        for want, got in zip(expected, responses):
            _assert_identical(want, got)

    def test_more_requests_than_jobs_share_one_dispatch(
        self, workload, single_session
    ):
        snn, config, inputs, labels = workload
        requests = [
            InferenceRequest(inputs=inputs[i : i + 2], labels=labels[i : i + 2],
                             sample_offset=i)
            for i in range(0, 10, 2)
        ]
        expected = [single_session.infer(request) for request in requests]
        with ChipPool(
            snn, jobs=2, config=config, timesteps=5, encoder="poisson", seed=21
        ) as pool:
            responses = pool.infer_many(requests)
        for want, got in zip(expected, responses):
            _assert_identical(want, got)

    def test_shard_allocation_properties(self, workload):
        snn, config, inputs, _ = workload

        def req(n):
            return InferenceRequest(inputs=inputs[:n])

        with ChipPool(
            snn, jobs=4, config=config, timesteps=5, encoder="poisson", seed=21
        ) as pool:
            # Proportional with a floor of one shard per request.
            assert pool._shard_allocation([req(8), req(2)]) == [3, 1]
            # A batch-1 request can never be split further.
            assert pool._shard_allocation([req(1), req(1), req(1)]) == [1, 1, 1]
            # One request soaks up every worker slot.
            assert pool._shard_allocation([req(13)]) == [4]
            # More requests than slots: one shard each, one dispatch.
            assert pool._shard_allocation([req(2)] * 6) == [1] * 6
        with ChipPool(
            snn, jobs=2, config=config, timesteps=5, encoder="poisson", seed=21
        ) as pool:
            with pytest.raises(ValueError, match="at least one request"):
                pool.infer_many([])

    def test_infer_still_matches_single_session(self, workload, single_session):
        snn, config, inputs, labels = workload
        request = InferenceRequest(inputs=inputs, labels=labels)
        expected = single_session.infer(request)
        with ChipPool(
            snn, jobs=3, config=config, timesteps=5, encoder="poisson", seed=21
        ) as pool:
            response = pool.infer(request)
        assert response.jobs == 3
        _assert_identical(expected, response)

    def test_oversized_request_splits_into_sub_shards(self, workload):
        # Shard-level re-batching: a request larger than the ideal makespan
        # is split into several sub-shards instead of pinning one worker
        # with a monolithic whole-request shard.
        snn, config, inputs, _ = workload

        def req(n):
            return InferenceRequest(inputs=np.random.default_rng(1).random((n, 48)))

        with ChipPool(
            snn, jobs=2, config=config, timesteps=5, encoder="poisson", seed=21
        ) as pool:
            # 13 + 2 samples on 2 workers: ideal makespan 8, so the big
            # request becomes 2 sub-shards (7+6) and the small stays whole.
            assert pool._shard_allocation([req(13), req(2)]) == [2, 1]
            # 100 + 2 on 2 workers: the big request is cut in balanced
            # halves rather than run as one 100-sample shard.
            assert pool._shard_allocation([req(100), req(2)]) == [2, 1]
            # 6 + 2 on 4 workers fit one dispatch: big sub-shards (2+2+2) pack
            # worker slots alongside the small request.
        with ChipPool(
            snn, jobs=4, config=config, timesteps=5, encoder="poisson", seed=21
        ) as pool:
            assert pool._shard_allocation([req(6), req(2)]) == [3, 1]

    def test_run_shards_gets_one_largest_first_stable_list(
        self, workload, single_session
    ):
        # Every shard of a dispatch reaches the workers in one call, largest
        # first; the stable sort keeps equal sizes in plan order.
        snn, config, inputs, labels = workload
        requests = [
            InferenceRequest(inputs=inputs[:2], labels=labels[:2]),
            InferenceRequest(inputs=inputs[2:9], sample_offset=2),
            InferenceRequest(inputs=inputs[9:12], labels=labels[9:12], sample_offset=9),
        ]
        expected = [single_session.infer(request) for request in requests]
        with ChipPool(
            snn, jobs=2, config=config, timesteps=5, encoder="poisson", seed=21
        ) as pool:
            calls = []
            run_shards = pool._workers.run_shards

            def recording(shards):
                calls.append([(s.sample_offset, s.batch_size) for s in shards])
                return run_shards(shards)

            pool._workers.run_shards = recording
            responses = pool.infer_many(requests)
        # 12 samples on 2 jobs: the 7-sample request is cut 4 + 3.
        assert calls == [[(2, 4), (6, 3), (9, 3), (0, 2)]]
        for want, got in zip(expected, responses):
            _assert_identical(want, got)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_mixed_small_and_oversized_requests_split_back_exactly(
        self, workload, single_session, jobs
    ):
        # The acceptance bar for shard-level re-batching: an oversized
        # request (split into sub-shards) coalesced with small requests must
        # return responses exactly identical to serial single-session runs.
        snn, config, inputs, labels = workload
        requests = [
            InferenceRequest(inputs=inputs, labels=labels),  # oversized: 13
            InferenceRequest(inputs=inputs[:2], sample_offset=4),  # small
            InferenceRequest(inputs=inputs[:3], labels=labels[:3], timesteps=3),
        ]
        expected = [single_session.infer(request) for request in requests]
        with ChipPool(
            snn,
            jobs=jobs,
            config=config,
            timesteps=5,
            encoder="poisson",
            seed=21,
        ) as pool:
            # With workers, the oversized request really is re-batched into
            # sub-shards; one session runs each request whole.
            assert (pool._shard_allocation(requests)[0] > 1) == (jobs > 1)
            responses = pool.infer_many(requests)
        for want, got in zip(expected, responses):
            _assert_identical(want, got)


# -- server-side dynamic batching ---------------------------------------------------


class _GateTarget:
    """Inference target that blocks until released and records dispatch sizes.

    Lets a test hold the server's single work thread busy while more
    requests queue up, making cross-client coalescing deterministic instead
    of timing-dependent.
    """

    def __init__(self, session: ChipSession):
        self.session = session
        self.entered = threading.Event()
        self.release = threading.Event()
        self.dispatches: list[int] = []

    @property
    def backend(self) -> str:
        return self.session.backend

    @property
    def timesteps(self) -> int:
        return self.session.timesteps

    def infer(self, request):
        return self.infer_many([request])[0]

    def infer_many(self, requests):
        self.entered.set()
        assert self.release.wait(timeout=30), "gate never released"
        self.dispatches.append(len(requests))
        return [self.session.infer(request) for request in requests]


class TestServerDynamicBatching:
    def _wait_for_queue(self, server: ChipServer, depth: int) -> None:
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if server._queue is not None and server._queue.qsize() >= depth:
                return
            time.sleep(0.005)
        raise AssertionError(f"server queue never reached depth {depth}")

    def test_queued_compatible_requests_coalesce(self, workload, single_session):
        _, _, inputs, labels = workload
        gate = _GateTarget(_fresh_session(workload))
        first = InferenceRequest(inputs=inputs[:3], labels=labels[:3])
        second = InferenceRequest(inputs=inputs, labels=labels)
        third = InferenceRequest(inputs=inputs[:6], sample_offset=7)
        with ChipServer(gate, port=0, workload="gate").start() as server:
            with PipelinedSession.connect(server.address, connections=1) as client_a:
                with PipelinedSession.connect(server.address, connections=1) as client_b:
                    future_1 = client_a.submit(first)
                    # While the work thread is gated on the first dispatch,
                    # two more requests (one per client) pile up in the
                    # server queue.
                    assert gate.entered.wait(timeout=10), "first dispatch never ran"
                    future_2 = client_a.submit(second)
                    future_3 = client_b.submit(third)
                    self._wait_for_queue(server, 2)
                    gate.release.set()
                    responses = [
                        future.result(timeout=60)
                        for future in (future_1, future_2, future_3)
                    ]
        # The gated head dispatched alone; the two queued requests (from two
        # different clients) coalesced into one dispatch.
        assert gate.dispatches == [1, 2]
        assert server.stats["max_coalesced"] == 2
        assert server.stats["requests"] == 3
        for request, response in zip((first, second, third), responses):
            _assert_identical(single_session.infer(request), response)

    def test_bad_request_fails_alone_when_coalesced(self, workload, single_session):
        # One client's malformed request (47 features for a 48-input chip)
        # coalesces with another client's valid one.  The failed dispatch
        # re-runs each request alone: the bad one gets its own error, its
        # batch-mate the exact single-session answer.
        _, _, inputs, _ = workload
        gate = _GateTarget(_fresh_session(workload))
        head = InferenceRequest(inputs=inputs[:3])
        bad = InferenceRequest(inputs=inputs[:4, :47])
        good = InferenceRequest(inputs=inputs[4:9], sample_offset=4)
        with ChipServer(gate, port=0, workload="gate").start() as server:
            with PipelinedSession.connect(server.address, connections=1) as client_a:
                with PipelinedSession.connect(server.address, connections=1) as client_b:
                    head_future = client_a.submit(head)
                    assert gate.entered.wait(timeout=10), "first dispatch never ran"
                    bad_future = client_a.submit(bad)
                    good_future = client_b.submit(good)
                    self._wait_for_queue(server, 2)
                    gate.release.set()
                    head_response = head_future.result(timeout=60)
                    good_response = good_future.result(timeout=60)
                    with pytest.raises(
                        RemoteServerError, match="layer 0 expects 48 inputs, got 47"
                    ):
                        bad_future.result(timeout=60)
        assert server.stats["max_coalesced"] == 2
        assert gate.dispatches[:2] == [1, 2]
        _assert_identical(single_session.infer(head), head_response)
        _assert_identical(single_session.infer(good), good_response)

    def test_incompatible_timesteps_never_coalesce(self, workload, single_session):
        _, _, inputs, _ = workload
        gate = _GateTarget(_fresh_session(workload))
        plain = InferenceRequest(inputs=inputs[:3])
        override = InferenceRequest(inputs=inputs[:3], timesteps=3)
        with ChipServer(gate, port=0, workload="gate").start() as server:
            with PipelinedSession.connect(server.address, connections=1) as client:
                futures = [client.submit(plain)]
                assert gate.entered.wait(timeout=10), "first dispatch never ran"
                futures += [client.submit(plain), client.submit(override)]
                self._wait_for_queue(server, 2)
                gate.release.set()
                responses = [future.result(timeout=60) for future in futures]
        # The differing timesteps override must stay in its own dispatch.
        assert gate.dispatches == [1, 1, 1]
        _assert_identical(single_session.infer(override), responses[-1])
        assert responses[-1].timesteps == 3

    def test_concurrent_clients_match_single_session(self, workload, single_session):
        # No gating: whatever interleaving/batching happens under real
        # concurrency, every client must still get the single-session answer.
        snn, config, inputs, labels = workload
        request = InferenceRequest(inputs=inputs, labels=labels)
        expected = single_session.infer(request)
        with ChipPool(
            snn, jobs=2, config=config, timesteps=5, encoder="poisson", seed=21
        ) as pool:
            with ChipServer(pool, port=0, workload="pool").start() as server:

                def one_client(_):
                    with PipelinedSession.connect(server.address) as remote:
                        return remote.infer_many([request] * 3)

                with ThreadPoolExecutor(max_workers=2) as clients:
                    batches = list(clients.map(one_client, range(2)))
        for batch in batches:
            for response in batch:
                _assert_identical(expected, response)


# -- load control: backpressure, deadlines, cancellation ----------------------------


def _wait_for_info(client: PipelinedSession, predicate, timeout: float = 20.0):
    """Poll the server's info op until ``predicate(info)`` holds."""
    deadline = time.monotonic() + timeout
    info: dict = {}
    while time.monotonic() < deadline:
        info = client.info(refresh=True)
        if predicate(info):
            return info
        time.sleep(0.01)
    raise AssertionError(f"server info never satisfied the predicate; last: {info}")


class TestLoadControl:
    def test_server_validates_queue_arguments(self, workload):
        session = _fresh_session(workload)
        with pytest.raises(ValueError, match="max_queue must be >= 0"):
            ChipServer(session, port=0, max_queue=-1)

    def test_info_reports_load_stats_and_start_time(self, workload):
        before = time.time()
        with ChipServer(_fresh_session(workload), port=0, max_queue=7) as server:
            info = server.info()
        assert info["protocol_version"] == PROTOCOL_VERSION
        assert info["max_queue"] == 7
        assert info["queue_depth"] == 0
        assert info["inflight"] == 0
        assert before <= info["started_at"] <= time.time()
        assert info["uptime_s"] >= 0.0
        for counter in ("shed", "deadline_exceeded", "cancelled"):
            assert info["stats"][counter] == 0

    def test_flood_sheds_with_structured_reply_and_bounded_queue(
        self, workload, single_session
    ):
        # The acceptance scenario: queue bound N, 4N submitted.  The head
        # request occupies the (gated) work thread, N fill the queue, the
        # rest must come back as structured `overloaded` errors — and every
        # admitted request must return the exact serial answer.
        _, _, inputs, _ = workload
        n_bound = 2
        gate = _GateTarget(_fresh_session(workload))
        head = InferenceRequest(inputs=inputs[:3])
        admitted = [
            InferenceRequest(inputs=inputs[3:8], sample_offset=3),
            InferenceRequest(inputs=inputs[8:13], sample_offset=8),
        ]
        flood = [InferenceRequest(inputs=inputs[:2]) for _ in range(4 * n_bound - 1 - n_bound)]
        with ChipServer(
            gate, port=0, workload="bounded", max_queue=n_bound
        ).start() as server:
            with PipelinedSession.connect(server.address, connections=1) as client:
                future_head = client.submit(head)
                assert gate.entered.wait(timeout=10), "head dispatch never ran"
                admitted_futures = []
                for depth, request in enumerate(admitted, start=1):
                    admitted_futures.append(client.submit(request))
                    _wait_for_info(client, lambda i, d=depth: i["queue_depth"] == d)
                shed_errors = []
                for request in flood:
                    with pytest.raises(RemoteServerError) as excinfo:
                        client.submit(request).result(timeout=20)
                    shed_errors.append(excinfo.value)
                info = client.info(refresh=True)
                # The bound holds while the flood hammers the full queue.
                assert info["queue_depth"] == n_bound
                gate.release.set()
                results = [future_head.result(timeout=60)] + [
                    future.result(timeout=60) for future in admitted_futures
                ]
                final = client.info(refresh=True)
        assert len(shed_errors) == 4 * n_bound - 1 - n_bound  # 5 of 8 shed
        for error in shed_errors:
            assert error.code == ERROR_OVERLOADED
            assert "queue is full" in str(error)
        for request, response in zip([head, *admitted], results):
            _assert_identical(single_session.infer(request), response)
        assert final["stats"]["shed"] == len(shed_errors)
        assert final["stats"]["requests"] == 1 + n_bound
        assert final["queue_depth"] == 0

    def test_deadline_expires_before_dispatch(self, workload, single_session):
        _, _, inputs, _ = workload
        gate = _GateTarget(_fresh_session(workload))
        head = InferenceRequest(inputs=inputs[:3])
        doomed = InferenceRequest(inputs=inputs[3:6], sample_offset=3)
        with ChipServer(gate, port=0, workload="deadline").start() as server:
            with PipelinedSession.connect(server.address, connections=1) as client:
                future_head = client.submit(head)
                assert gate.entered.wait(timeout=10), "head dispatch never ran"
                future_doomed = client.submit(doomed, deadline_s=0.2)
                _wait_for_info(client, lambda i: i["queue_depth"] == 1)
                time.sleep(0.35)  # sail past the deadline while gated
                gate.release.set()
                with pytest.raises(RemoteServerError) as excinfo:
                    future_doomed.result(timeout=20)
                assert excinfo.value.code == ERROR_DEADLINE_EXCEEDED
                _assert_identical(
                    single_session.infer(head), future_head.result(timeout=60)
                )
                final = client.info(refresh=True)
        assert final["stats"]["deadline_exceeded"] == 1
        # The expired request never reached the work thread.
        assert gate.dispatches == [1]

    def test_invalid_deadline_is_rejected(self, workload):
        with ChipServer(
            _fresh_session(workload), port=0, workload="validate"
        ).start() as server:
            with PipelinedSession.connect(server.address, connections=1) as client:
                with pytest.raises(
                    RemoteServerError, match="deadline_s must be a positive number"
                ):
                    client.submit(
                        InferenceRequest(inputs=[[1.0] * 48]), deadline_s=-1
                    ).result(timeout=20)

    def test_cancel_removes_queued_request(self, workload, single_session):
        # Satellite: PipelinedSession future cancellation.  Cancelling the
        # future sends a cancel op; the server drops the queued work (it
        # never reaches the work thread) and counts the cancellation.
        _, _, inputs, _ = workload
        gate = _GateTarget(_fresh_session(workload))
        head = InferenceRequest(inputs=inputs[:3])
        doomed = InferenceRequest(inputs=inputs[3:6], sample_offset=3)
        with ChipServer(gate, port=0, workload="cancel").start() as server:
            with PipelinedSession.connect(server.address, connections=1) as client:
                future_head = client.submit(head)
                assert gate.entered.wait(timeout=10), "head dispatch never ran"
                future_doomed = client.submit(doomed)
                _wait_for_info(client, lambda i: i["queue_depth"] == 1)
                assert future_doomed.cancel(), "pending future refused to cancel"
                with pytest.raises(CancelledError):
                    future_doomed.result(timeout=5)
                _wait_for_info(client, lambda i: i["stats"]["cancelled"] == 1)
                gate.release.set()
                _assert_identical(
                    single_session.infer(head), future_head.result(timeout=60)
                )
                # A finished future can no longer cancel.
                assert not future_head.cancel()
                final = client.info(refresh=True)
        assert final["stats"]["cancelled"] == 1
        assert final["stats"]["requests"] == 1
        assert gate.dispatches == [1], "cancelled request was still dispatched"

    def test_cancel_yields_structured_cancelled_reply_on_the_wire(
        self, workload, raw_frames
    ):
        # The raw protocol view of cancellation: the cancelled infer's reply
        # is a structured error carrying code "cancelled" (not a dropped
        # frame), and the cancel op acknowledges with cancelled=true.
        _, _, inputs, _ = workload
        gate = _GateTarget(_fresh_session(workload))
        head = InferenceRequest(inputs=inputs[:2])
        queued = InferenceRequest(inputs=inputs[2:4], sample_offset=2)
        with ChipServer(gate, port=0, workload="cancel-wire").start() as server:
            raw = raw_frames(server.address)
            raw.send("infer", request_id="a", request=head)
            assert gate.entered.wait(timeout=10), "head dispatch never ran"
            raw.send("infer", request_id="b", request=queued)
            deadline = time.monotonic() + 10
            while server._backlog < 1:  # noqa: SLF001 - in-process observation
                assert time.monotonic() < deadline, "request b never queued"
                time.sleep(0.005)
            raw.send("cancel", request_id="c", target="b")
            replies = {reply["id"]: reply for reply in (raw.read() for _ in range(2))}
            gate.release.set()
            final = raw.read()
        assert set(replies) == {"b", "c"}
        assert replies["c"]["ok"] is True and replies["c"]["cancelled"] is True
        assert replies["b"]["ok"] is False
        assert replies["b"]["code"] == ERROR_CANCELLED
        assert "cancelled" in replies["b"]["error"]
        assert final["id"] == "a" and final["ok"] is True

    def test_cancel_after_dispatch_reports_false_and_delivers_result(
        self, workload, single_session, raw_frames
    ):
        # Dispatch wins: once a request is on the work thread, cancel must
        # report false, the computed result must still be delivered, and
        # the cancelled/requests counters must not double-count.
        _, _, inputs, _ = workload
        gate = _GateTarget(_fresh_session(workload))
        head = InferenceRequest(inputs=inputs[:2])
        with ChipServer(gate, port=0, workload="dispatch-wins").start() as server:
            raw = raw_frames(server.address)
            raw.send("infer", request_id="a", request=head)
            assert gate.entered.wait(timeout=10), "head dispatch never ran"
            raw.send("cancel", request_id="c", target="a")
            cancel_reply = raw.read()
            gate.release.set()
            infer_reply = raw.read()
            final = server.stats.copy()
        assert cancel_reply["id"] == "c"
        assert cancel_reply["ok"] is True and cancel_reply["cancelled"] is False
        assert infer_reply["id"] == "a" and infer_reply["ok"] is True
        expected = single_session.infer(head)
        np.testing.assert_array_equal(
            np.asarray(infer_reply["response"]["predictions"]), expected.predictions
        )
        assert final["cancelled"] == 0
        assert final["requests"] == 1

    def test_cancel_op_with_unknown_target_reports_false(self, workload, raw_frames):
        with ChipServer(
            _fresh_session(workload), port=0, workload="cancel-miss"
        ).start() as server:
            raw = raw_frames(server.address, timeout=10)
            raw.send("cancel", request_id=1, target=999)
            reply = raw.read()
        assert reply["ok"] is True
        assert reply["cancelled"] is False
        assert reply["target"] == 999


# -- structured error replies (client side) ------------------------------------------


def _canned_reply_server(reply: dict, raw_frames):
    """A one-shot fake server answering every request frame with ``reply``.

    The canned reply echoes each request's id, so the pipelined client can
    route it like a real server's.
    """
    srv = socket.create_server(("127.0.0.1", 0))

    def run():
        try:
            conn, _ = srv.accept()
        except OSError:
            return
        peer = raw_frames(conn)
        with contextlib.suppress(OSError):
            while (message := peer.read()) is not None:
                peer.send_envelope({**reply, "id": message.get("id")})

    threading.Thread(target=run, daemon=True).start()
    return srv


class TestStructuredErrorReplies:
    def test_canned_structured_error_raises_with_code(self, raw_frames):
        srv = _canned_reply_server(
            {
                "ok": False,
                "error": "server queue is full; request shed",
                "code": "overloaded",
            },
            raw_frames,
        )
        try:
            with PipelinedSession(*srv.getsockname()[:2], connections=1) as remote:
                with pytest.raises(RemoteServerError, match="queue is full") as excinfo:
                    remote.submit(InferenceRequest(inputs=[[1.0, 2.0]])).result(10)
            assert excinfo.value.code == ERROR_OVERLOADED
        finally:
            srv.close()

    def test_canned_unknown_error_shape_still_raises(self, raw_frames):
        # An error reply with no message and no code must still raise —
        # never hang, never be mistaken for success.
        srv = _canned_reply_server({"ok": False}, raw_frames)
        try:
            with PipelinedSession(*srv.getsockname()[:2], connections=1) as remote:
                with pytest.raises(
                    RemoteServerError, match="unknown server error"
                ) as excinfo:
                    remote.submit(InferenceRequest(inputs=[[1.0, 2.0]])).result(10)
            assert excinfo.value.code is None
        finally:
            srv.close()

    def test_pipelined_session_raises_on_structured_error(self, workload):
        # Against a real server: shed replies surface through submit()
        # futures with their code intact (exercised via a full queue in
        # TestLoadControl; here the cheap path — an invalid op).
        with ChipServer(
            _fresh_session(workload), port=0, workload="errors"
        ).start() as server:
            with PipelinedSession.connect(server.address, connections=1) as client:
                future = client._submit_op("definitely-not-an-op")
                with pytest.raises(RemoteServerError, match="unknown op"):
                    future.result(timeout=20)


class TestParseEndpoint:
    @pytest.mark.parametrize("bad", ["host:0", "host:-7", "127.0.0.1:65536"])
    def test_out_of_range_ports_name_the_endpoint_string(self, bad):
        with pytest.raises(ValueError, match=re.escape(repr(bad))) as excinfo:
            parse_endpoint(bad)
        assert "[1, 65535]" in str(excinfo.value)

    @pytest.mark.parametrize("bad", ["host:seventy", "host:7.5", "host:"])
    def test_non_numeric_ports_name_the_endpoint_string(self, bad):
        with pytest.raises(ValueError, match=re.escape(repr(bad))) as excinfo:
            parse_endpoint(bad)
        assert "must be an integer" in str(excinfo.value)


# -- connection resilience ----------------------------------------------------------


class TestReconnect:
    def test_pipelined_session_survives_server_restart(self, workload, single_session):
        _, _, inputs, _ = workload
        request = InferenceRequest(inputs=inputs[:4])
        expected = single_session.infer(request)
        server = ChipServer(_fresh_session(workload), port=0, workload="restart").start()
        host, port = server.address
        pipelined = PipelinedSession(host, port, timeout=30)
        try:
            _assert_identical(expected, pipelined.infer(request))
            server.close()
            reborn = ChipServer(
                _fresh_session(workload), host=host, port=port, workload="restart"
            ).start()
            try:
                _assert_identical(expected, pipelined.infer(request))
            finally:
                reborn.close()
        finally:
            pipelined.close()
            server.close()

    def test_slow_server_raises_timeout_without_retry(self, workload):
        # A slow server is not a dead one: the timeout must surface as a
        # TimeoutError after ONE attempt — resending would duplicate work.
        _, _, inputs, _ = workload
        gate = _GateTarget(_fresh_session(workload))
        with ChipServer(gate, port=0, workload="slow").start() as server:
            remote = PipelinedSession(*server.address, connections=1)
            try:
                started = time.monotonic()
                with pytest.raises(TimeoutError):
                    remote.submit(InferenceRequest(inputs=inputs[:2])).result(0.4)
                elapsed = time.monotonic() - started
                # One timeout window, not two (no retry of the slow request).
                assert elapsed < 0.75, f"timed out after {elapsed:.2f}s — retried?"
            finally:
                gate.release.set()
                remote.close()
        assert gate.dispatches == [1], "the timed-out request was re-dispatched"

    def test_idle_pipelined_connection_stays_alive(self, workload, single_session):
        # The pipelined client's timeout governs connection establishment
        # only; an established connection idle for longer than the timeout
        # must keep working (a long-lived gateway endpoint is mostly idle).
        _, _, inputs, _ = workload
        request = InferenceRequest(inputs=inputs[:3])
        expected = single_session.infer(request)
        with ChipServer(
            _fresh_session(workload), port=0, workload="idle"
        ).start() as server:
            with PipelinedSession(*server.address, timeout=0.3) as pipelined:
                _assert_identical(expected, pipelined.infer(request))
                time.sleep(0.6)  # well past the (establishment) timeout
                _assert_identical(expected, pipelined.infer(request))

    def test_fire_and_forget_shutdown_still_stops_server(self, workload, raw_frames):
        # An operator script may send the shutdown op and hang up without
        # reading the acknowledgement; the stop must not be lost with it.
        server = ChipServer(_fresh_session(workload), port=0, workload="ff").start()
        raw = raw_frames(server.address, timeout=10)
        raw.send("shutdown")
        raw.close()
        deadline = time.monotonic() + 10
        while server._thread.is_alive() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not server._thread.is_alive(), "server kept serving after shutdown op"
        server.close()

    def test_closed_sessions_reject_use(self, workload):
        server = ChipServer(_fresh_session(workload), port=0, workload="closing").start()
        pipelined = PipelinedSession(*server.address)
        pipelined.close()
        pipelined.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            pipelined.ping()
        server.close()


# -- gateway ------------------------------------------------------------------------


class _FailingTarget:
    capacity = 1

    def infer(self, request):
        raise RuntimeError("endpoint exploded mid-batch")


class _SlowTarget:
    capacity = 1

    def __init__(self, session, delay_s):
        self._session = session
        self._delay_s = delay_s

    def infer(self, request):
        time.sleep(self._delay_s)
        return self._session.infer(request)


class TestAsyncGateway:
    def test_zero_capacity_endpoint_rejected(self, workload, single_session):
        with pytest.raises(ValueError, match="capacity must be > 0, got 0"):
            GatewayEndpoint(target=single_session, capacity=0)

    def test_single_endpoint_bypasses_sharding(self, workload, single_session):
        snn, config, inputs, labels = workload
        request = InferenceRequest(inputs=inputs, labels=labels)
        expected = single_session.infer(request)
        with InferenceGateway([_fresh_session(workload)], name="solo") as gateway:
            plan = gateway.shard_plan(request.batch_size)
            assert [(shard.start, shard.stop) for shard in plan] == [(0, 13)]
            response = gateway.infer(request)
        _assert_identical(expected, response)
        assert response.metadata["gateway"] == "solo"

    def test_failing_endpoint_surfaces_instead_of_hanging(self, workload):
        good = _fresh_session(workload)
        _, _, inputs, _ = workload
        with InferenceGateway(
            [
                GatewayEndpoint(target=good, capacity=1, name="good"),
                GatewayEndpoint(target=_FailingTarget(), capacity=1, name="bad"),
            ]
        ) as gateway:
            future = gateway.submit(InferenceRequest(inputs=inputs))
            with pytest.raises(RuntimeError, match="'bad' failed on shard"):
                future.result(timeout=30)

    def test_pipelined_failures_resolve_every_batch(self, workload):
        # Regression: a shard failure cancels its pending sibling, and
        # Future.cancel() runs the sibling's done-callback inline on the
        # failing thread — the merge state must survive that re-entrancy.
        # Several pipelined batches keep shard futures queued behind the
        # per-endpoint locks so cancellations actually hit pending futures.
        _, _, inputs, _ = workload
        slow_good = _SlowTarget(_fresh_session(workload), delay_s=0.05)
        with InferenceGateway(
            [
                GatewayEndpoint(target=slow_good, capacity=1, name="good"),
                GatewayEndpoint(target=_FailingTarget(), capacity=1, name="bad"),
            ]
        ) as gateway:
            futures = [
                gateway.submit(InferenceRequest(inputs=inputs)) for _ in range(6)
            ]
            for future in futures:
                with pytest.raises(RuntimeError, match="'bad' failed on shard"):
                    future.result(timeout=30)

    def test_mismatched_endpoints_error_instead_of_hanging(self, workload):
        # Endpoints serving different networks violate the operator
        # contract; the resulting merge error must reach the caller, not
        # disappear inside a future callback.
        snn, config, inputs, _ = workload
        other_snn = _mlp(17, (48, 20, 6))  # different output width
        a = ChipSession(snn, config=config, timesteps=5, encoder="poisson", seed=21)
        b = ChipSession(
            other_snn, config=config, timesteps=5, encoder="poisson", seed=21
        )
        with InferenceGateway(
            [
                GatewayEndpoint(target=a, capacity=1, name="a"),
                GatewayEndpoint(target=b, capacity=1, name="b"),
            ]
        ) as gateway:
            with pytest.raises(Exception):  # noqa: B017 - any error beats a hang
                gateway.submit(InferenceRequest(inputs=inputs)).result(timeout=30)

    def test_submit_is_non_blocking_and_batches_pipeline(
        self, workload, single_session
    ):
        _, _, inputs, labels = workload
        request = InferenceRequest(inputs=inputs, labels=labels)
        expected = single_session.infer(request)
        slow = _SlowTarget(_fresh_session(workload), delay_s=0.3)
        with InferenceGateway([GatewayEndpoint(target=slow, name="slow")]) as gateway:
            started = time.monotonic()
            first = gateway.submit(request)
            second = gateway.submit(request)
            submit_s = time.monotonic() - started
            assert submit_s < 0.25, "submit() must not wait for the endpoint"
            assert not first.done()
            _assert_identical(expected, first.result(timeout=30))
            _assert_identical(expected, second.result(timeout=30))

    def test_infer_many_pipelines_batches(self, workload, single_session):
        snn, config, inputs, labels = workload
        requests = [
            InferenceRequest(inputs=inputs, labels=labels),
            InferenceRequest(inputs=inputs[:5], labels=labels[:5]),
        ]
        expected = [single_session.infer(request) for request in requests]
        endpoints = [
            GatewayEndpoint(target=_fresh_session(workload), capacity=1, name="a"),
            GatewayEndpoint(target=_fresh_session(workload), capacity=2, name="b"),
        ]
        with InferenceGateway(endpoints) as gateway:
            responses = gateway.infer_many(requests)
        for want, got in zip(expected, responses):
            _assert_identical(want, got)


class _SheddingTarget:
    """Endpoint whose server always sheds (structured overloaded error)."""

    capacity = 1

    def __init__(self):
        self.calls = 0

    def infer(self, request):
        self.calls += 1
        raise RemoteServerError(
            "server queue is full (1/1 requests waiting); request shed",
            code=ERROR_OVERLOADED,
        )


class _DeadlineRecorder:
    """Pipelined endpoint recording the deadline_s its submit() receives."""

    capacity = 1

    def __init__(self, session: ChipSession):
        self._session = session
        self.seen: list[float | None] = []

    def infer(self, request):
        raise AssertionError("a target with submit() must be called through it")

    def submit(self, request, deadline_s: float | None = None) -> Future:
        self.seen.append(deadline_s)
        future: Future = Future()
        future.set_result(self._session.infer(request))
        return future


def _hold_shards(gateway, gate, request, gated: str, count: int):
    """Submit ``count`` batches and wait until ``gated`` holds one shard each.

    The gate keeps every shard on the gated endpoint unfinished; the wait
    lets the other endpoints' shards finish, so the gateway's books show
    backlog on the gated endpoint only.  Returns the pending futures.  (An
    adaptive gateway moves waiting shards to an idle endpoint, so there a
    gated endpoint only ever keeps the one shard it is running.)
    """
    futures = [gateway.submit(request) for _ in range(count)]
    assert gate.entered.wait(timeout=30)
    deadline = time.monotonic() + 30
    while True:
        loads = gateway.endpoint_loads()
        if all(
            load["backlog"] == (count if name == gated else 0)
            for name, load in loads.items()
        ):
            return futures
        assert time.monotonic() < deadline, f"backlog never settled: {loads}"
        time.sleep(0.01)


class TestAdaptiveGateway:
    def test_backlogged_endpoint_receives_fewer_samples(
        self, workload, single_session
    ):
        # The backlog is the gateway's own books: shards it placed on an
        # endpoint and has not seen finish.  Hold one on a gated endpoint.
        _, _, inputs, labels = workload
        gate = _GateTarget(_fresh_session(workload))
        request = InferenceRequest(inputs=inputs[:12])
        with InferenceGateway(
            [
                GatewayEndpoint(
                    target=_fresh_session(workload), capacity=1, name="idle"
                ),
                GatewayEndpoint(target=gate, capacity=1, name="busy"),
            ],
        ) as gateway:
            try:
                held = _hold_shards(gateway, gate, request, "busy", 1)
                plan = gateway.shard_plan(12)
                sizes = {p.endpoint.name: p.stop - p.start for p in plan}
                # Effective capacities 1 vs 1/2: the busy endpoint's share
                # drops from the static 6 to round(12 / 3) = 4.
                assert sizes == {"idle": 8, "busy": 4}
            finally:
                gate.release.set()
            # Adaptivity changes placement, never numbers.
            expected = single_session.infer(request)
            for future in held:
                _assert_identical(expected, future.result(timeout=60))
            full = InferenceRequest(inputs=inputs, labels=labels)
            _assert_identical(single_session.infer(full), gateway.infer(full))

    def test_waiting_shard_moves_to_an_idle_endpoint(self, workload, single_session):
        # Three batches split across a gated and a plain endpoint: the gate
        # holds the first busy shard, and the two queued behind it move to
        # the plain endpoint once it has nothing else to do.
        _, _, inputs, _ = workload
        gate = _GateTarget(_fresh_session(workload))
        request = InferenceRequest(inputs=inputs[:12])
        expected = single_session.infer(request)
        with InferenceGateway(
            [
                GatewayEndpoint(
                    target=_fresh_session(workload), capacity=1, name="idle"
                ),
                GatewayEndpoint(target=gate, capacity=1, name="busy"),
            ],
        ) as gateway:
            try:
                futures = [gateway.submit(request) for _ in range(3)]
                deadline = time.monotonic() + 30
                while sum(f.done() for f in futures) < 2:
                    assert time.monotonic() < deadline, "queued shards never moved"
                    time.sleep(0.01)
                # Only the batch whose shard the gate holds is pending.
                done = [f for f in futures if f.done()]
                assert len(done) == 2
                for future in done:
                    response = future.result()
                    _assert_identical(expected, response)
                    assert {s["endpoint"] for s in response.metadata["shards"]} == {
                        "idle"
                    }
                assert gateway.endpoint_loads()["busy"]["backlog"] == 1
            finally:
                gate.release.set()
            for future in futures:
                _assert_identical(expected, future.result(timeout=60))
        assert gate.dispatches == [1]

    def test_adaptive_off_restores_static_plan(self, workload, single_session):
        _, _, inputs, _ = workload
        gate = _GateTarget(_fresh_session(workload))
        request = InferenceRequest(inputs=inputs[:12])
        with InferenceGateway(
            [
                GatewayEndpoint(
                    target=_fresh_session(workload), capacity=1, name="idle"
                ),
                GatewayEndpoint(target=gate, capacity=1, name="busy"),
            ],
            adaptive=False,
        ) as gateway:
            try:
                held = _hold_shards(gateway, gate, request, "busy", 3)
                plan = gateway.shard_plan(12)
                assert [(p.start, p.stop) for p in plan] == [(0, 6), (6, 12)]
            finally:
                gate.release.set()
            expected = single_session.infer(request)
            for future in held:
                _assert_identical(expected, future.result(timeout=60))

    def test_idle_endpoints_keep_the_static_plan(self, workload):
        # Zero backlog everywhere: adaptive must plan exactly like the
        # static capacity-weighted planner (the historical behaviour).
        a = _fresh_session(workload)
        b = _fresh_session(workload)
        with InferenceGateway(
            [
                GatewayEndpoint(target=a, capacity=1, name="a"),
                GatewayEndpoint(target=b, capacity=3, name="b"),
            ]
        ) as gateway:
            plan = gateway.shard_plan(13)
            assert [(p.start, p.stop) for p in plan] == [(0, 3), (3, 13)]

    def test_shed_shard_retries_on_other_endpoint(self, workload, single_session):
        _, _, inputs, labels = workload
        shedder = _SheddingTarget()
        good = _fresh_session(workload)
        request = InferenceRequest(inputs=inputs, labels=labels)
        with InferenceGateway(
            [
                GatewayEndpoint(target=shedder, capacity=1, name="flaky"),
                GatewayEndpoint(target=good, capacity=1, name="good"),
            ]
        ) as gateway:
            response = gateway.infer(request)
            loads = gateway.endpoint_loads()
        _assert_identical(single_session.infer(request), response)
        assert shedder.calls == 1, "shed shard retried on the shedding endpoint"
        # The gateway books the ``overloaded`` refusal against the shedder.
        assert loads["flaky"]["sheds"] == 1
        assert loads["good"]["sheds"] == 0
        retried = [
            s for s in response.metadata["shards"] if s.get("retried_from") == "flaky"
        ]
        assert len(retried) == 1
        assert retried[0]["endpoint"] == "good"

    def test_all_endpoints_shedding_surfaces_the_error(self, workload):
        _, _, inputs, _ = workload
        with InferenceGateway(
            [GatewayEndpoint(target=_SheddingTarget(), capacity=1, name="flaky")]
        ) as gateway:
            future = gateway.submit(InferenceRequest(inputs=inputs))
            with pytest.raises(RuntimeError, match="'flaky' failed on shard"):
                future.result(timeout=30)

    def test_non_overload_errors_are_not_retried(self, workload):
        _, _, inputs, _ = workload
        good = _fresh_session(workload)
        with InferenceGateway(
            [
                GatewayEndpoint(target=_FailingTarget(), capacity=1, name="bad"),
                GatewayEndpoint(target=good, capacity=1, name="good"),
            ]
        ) as gateway:
            future = gateway.submit(InferenceRequest(inputs=inputs))
            with pytest.raises(RuntimeError, match="'bad' failed on shard"):
                future.result(timeout=30)

    def test_deadline_propagates_to_supporting_endpoints(
        self, workload, single_session
    ):
        # A pipelined endpoint receives the time left of the deadline; a
        # local one gets plain infer(request) (a ChipSession would reject
        # a deadline_s keyword).
        _, _, inputs, labels = workload
        recorder = _DeadlineRecorder(_fresh_session(workload))
        plain = _fresh_session(workload)
        request = InferenceRequest(inputs=inputs, labels=labels)
        with InferenceGateway(
            [
                GatewayEndpoint(target=recorder, capacity=1, name="aware"),
                GatewayEndpoint(target=plain, capacity=1, name="plain"),
            ]
        ) as gateway:
            response = gateway.infer(request, deadline_s=7.5)
        _assert_identical(single_session.infer(request), response)
        assert len(recorder.seen) == 1
        assert 0 < recorder.seen[0] <= 7.5

    def test_deadline_runs_from_gateway_submit_not_from_each_hop(
        self, workload, single_session
    ):
        # A shard that waited for its endpoint past the request deadline is
        # not sent with a fresh deadline: it fails with the server's
        # structured code and never reaches the server.
        _, _, inputs, labels = workload
        gate = _GateTarget(_fresh_session(workload))
        head = InferenceRequest(inputs=inputs, labels=labels)
        late = InferenceRequest(inputs=inputs[:4], sample_offset=4)
        with ChipServer(gate, port=0, workload="remaining-deadline").start() as server:
            with PipelinedSession.connect(server.address) as client:
                with InferenceGateway(
                    [GatewayEndpoint(target=client, name="remote")]
                ) as gateway:
                    first = gateway.submit(head)
                    assert gate.entered.wait(timeout=10), "head dispatch never ran"
                    doomed = gateway.submit(late, deadline_s=0.2)
                    time.sleep(0.35)  # sail past the deadline behind the head
                    gate.release.set()
                    _assert_identical(
                        single_session.infer(head), first.result(timeout=30)
                    )
                    with pytest.raises(RuntimeError) as excinfo:
                        doomed.result(timeout=30)
                final = client.info(refresh=True)
        cause = excinfo.value.__cause__
        assert isinstance(cause, RemoteServerError), excinfo.value
        assert cause.code == ERROR_DEADLINE_EXCEEDED
        assert gate.dispatches == [1], "the expired shard still reached the server"
        assert final["stats"]["requests"] == 1


# -- experiment wiring --------------------------------------------------------------


class TestExperimentDeadline:
    def test_wedged_server_fails_the_run_instead_of_hanging(self, monkeypatch):
        # A server that accepts the connection and reads requests but never
        # replies must blow the remote deadline AND let the gateway/session
        # teardown finish — the whole call must return, not hang.
        from repro.experiments import ExperimentSettings, WorkloadContext
        from repro.experiments import common as experiments_common

        wedged = socket.create_server(("127.0.0.1", 0))

        def accept_loop():
            while True:
                try:
                    conn, _ = wedged.accept()
                except OSError:
                    return
                threading.Thread(
                    target=_drain_forever, args=(conn,), daemon=True
                ).start()

        def _drain_forever(conn):
            try:
                while conn.recv(65536):
                    pass
            except OSError:
                pass

        threading.Thread(target=accept_loop, daemon=True).start()
        monkeypatch.setattr(experiments_common, "REMOTE_DEADLINE_S", 1.0)
        context = WorkloadContext(
            ExperimentSettings(
                timesteps=4, eval_samples=2, train_samples=16, test_samples=8,
                train_epochs=0, network_scale=0.15, seed=11,
            )
        )
        prepared = context.prepare("mnist-mlp")
        host, port = wedged.getsockname()[:2]
        # The served-workload lookup talks to the same wedged endpoint and
        # must be bounded by the same deadline.
        lookup = WorkloadContext(
            ExperimentSettings(
                timesteps=4, eval_samples=2, train_samples=16, test_samples=8,
                train_epochs=0, network_scale=0.15, seed=11,
                chip_endpoint=f"{host}:{port}",
            )
        )
        try:
            started = time.monotonic()
            with pytest.raises(TimeoutError):
                context.evaluate_chip(prepared, endpoint=f"{host}:{port}")
            elapsed = time.monotonic() - started
            assert elapsed < 20, f"teardown took {elapsed:.1f}s — hang regression"
            started = time.monotonic()
            with pytest.raises(TimeoutError):
                lookup.served_workload_name()
            elapsed = time.monotonic() - started
            assert elapsed < 20, f"workload lookup took {elapsed:.1f}s — hang"
        finally:
            wedged.close()


# -- CLI ----------------------------------------------------------------------------


class TestServeCli:
    @pytest.mark.parametrize(
        "argv",
        [
            ["infer", "--endpoint", "127.0.0.1:7070", "--timeout", "0"],
            ["infer", "--endpoint", "127.0.0.1:7070", "--timeout", "-3"],
            ["infer", "--endpoint", "127.0.0.1:7070", "--deadline", "0"],
            ["infer", "--endpoint", "127.0.0.1:7070", "--deadline", "-2"],
            ["infer", "--endpoint", "127.0.0.1:0"],
            ["infer", "--endpoint", "127.0.0.1:7070", "--wire", "json"],
            ["smoke", "--timeout", "0"],  # retired: the smoke takes no bounds
            ["smoke", "--wire", "json"],
            ["smoke", "--jobs", "2"],  # retired: the smoke server runs jobs=1
            ["serve", "--max-batch", "0"],  # retired: servers batch up to 8
            ["serve", "--max-queue", "-1"],
            ["serve", "--shed-policy", "block"],  # retired: a full queue sheds
            ["serve", "--executor", "thread"],  # retired: jobs picks sharding
        ],
    )
    def test_cli_rejects_bad_arguments_early(self, argv):
        from repro.serve.distributed.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2  # argparse usage error, not a traceback

    @pytest.mark.parametrize(
        "argv",
        [
            ["--deadline", "5"],  # needs --endpoint
            ["--deadline", "0", "--endpoint", "127.0.0.1:7070"],
        ],
    )
    def test_runner_rejects_bad_deadline_arguments(self, argv):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    def test_experiment_settings_validate_deadline(self):
        from repro.experiments import ExperimentSettings

        with pytest.raises(ValueError, match="chip_deadline_s must be > 0"):
            ExperimentSettings(chip_deadline_s=0)
        assert ExperimentSettings(chip_deadline_s=30.0).chip_deadline_s == 30.0

    def test_cli_infer_passes_timeout_through(self, monkeypatch, workload):
        from repro.serve.distributed import cli

        server = ChipServer(
            _fresh_session(workload), port=0, workload="cli-test"
        ).start()
        seen: dict[str, float] = {}
        real_connect = PipelinedSession.connect.__func__

        def spying_connect(cls, endpoint, *, timeout=120.0, **kwargs):
            seen["timeout"] = timeout
            return real_connect(cls, endpoint, timeout=timeout, **kwargs)

        monkeypatch.setattr(
            cli.PipelinedSession, "connect", classmethod(spying_connect)
        )

        def tiny_inference(remote, args):
            _, _, inputs, labels = workload
            request = InferenceRequest(inputs=inputs[:2], labels=labels[:2])
            return request, remote.submit(request).result(args.timeout)

        monkeypatch.setattr(cli, "_client_inference", tiny_inference)
        try:
            code = cli.main(
                ["infer", "--endpoint", server.endpoint, "--timeout", "45"]
            )
        finally:
            server.close()
        assert code == 0
        assert seen["timeout"] == 45.0
