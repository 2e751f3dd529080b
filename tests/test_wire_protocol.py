"""Wire protocol: v3 frames end to end, and the wire's failure contracts.

Every message on a chip-server connection is a protocol-3 binary frame.
This suite pins what that carrier promises:

* the typed client (one connection or several) and a hand-driven raw peer
  both get responses bit-identical to a local ``ChipSession`` — and
  identical to the lossless JSON rendering of the same response;
* a peer that does not speak frames (a JSON line, say) gets one structured
  error frame and is hung up on at once, while frame clients keep being
  served;
* malformed and truncated frames surface as structured error replies
  (connection kept when the stream stays framed, hung up when it cannot
  be resynchronised);
* the graceful ``drain`` op over the wire: a draining server answers
  everything admitted and refuses new work with the structured
  ``draining`` error, and the typed client surfaces it as
  :class:`RemoteServerError` with ``.code == "draining"``;
* the satellite fixes: IPv6 endpoint parsing, jittered reconnect backoff,
  and ``infer_many`` cancelling outstanding work on failure.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.core import ArchitectureConfig
from repro.serve import ChipSession, InferenceRequest, InferenceResponse
from repro.serve.distributed import (
    ChipServer,
    InferenceGateway,
    PipelinedSession,
    RemoteServerError,
    parse_endpoint,
)
from repro.serve.distributed.client import CancellableFuture
from repro.serve.retry import retry_backoff
from repro.serve.schema import (
    ERROR_DRAINING,
    FRAME_HEADER_SIZE,
    FRAME_MAGIC,
    MAX_FRAME_BYTES,
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
    network = Network((dims[0],), layers, name=f"wire-{'x'.join(map(str, dims))}")
    return convert_to_snn(network, rng.random((12, dims[0])))


@pytest.fixture(scope="module")
def workload():
    snn = _mlp(5, (48, 24, 10))
    config = ArchitectureConfig(crossbar_rows=16, crossbar_columns=16)
    rng = np.random.default_rng(44)
    inputs = rng.random((13, 48))
    labels = rng.integers(0, 10, size=13)
    return snn, config, inputs, labels


@pytest.fixture(scope="module")
def single_session(workload):
    snn, config, _, _ = workload
    return ChipSession(snn, config=config, timesteps=5, encoder="poisson", seed=17)


@pytest.fixture(scope="module")
def server(workload):
    snn, config, _, _ = workload
    session = ChipSession(snn, config=config, timesteps=5, encoder="poisson", seed=17)
    with ChipServer(session, port=0, workload="wire-matrix").start() as served:
        yield served


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


# -- endpoint parsing (IPv6 regression) ---------------------------------------------


class TestParseEndpoint:
    def test_ipv4(self):
        assert parse_endpoint("127.0.0.1:7070") == ("127.0.0.1", 7070)

    def test_ipv6_brackets_are_stripped(self):
        # socket.create_connection wants the bare address, not "[::1]".
        assert parse_endpoint("[::1]:7070") == ("::1", 7070)
        assert parse_endpoint("[2001:db8::2]:80") == ("2001:db8::2", 80)

    @pytest.mark.parametrize(
        "endpoint",
        ["[::1]", "[]:7070", "[::1:7070", "7070", ":7070", "host:", "host:nan"],
    )
    def test_rejects_malformed(self, endpoint):
        with pytest.raises(ValueError):
            parse_endpoint(endpoint)


# -- graceful drain over the wire ---------------------------------------------------


class TestDrainOverTheWire:
    def test_raw_peer_drains_and_new_work_gets_structured_error(
        self, workload, single_session, raw_frames
    ):
        """A raw frame peer drives drain; the admitted request still gets its answer."""
        snn, config, inputs, _ = workload

        class _Gate:
            def __init__(self, session):
                self._session = session
                self.entered = threading.Event()
                self.release = threading.Event()

            def __getattr__(self, name):
                return getattr(self._session, name)

            def infer(self, request):
                self.entered.set()
                assert self.release.wait(timeout=60), "gate never released"
                return self._session.infer(request)

        gate = _Gate(
            ChipSession(snn, config=config, timesteps=5, encoder="poisson", seed=17)
        )
        request = InferenceRequest(inputs=inputs[:5])
        with ChipServer(gate, port=0, workload="drain-wire").start() as served:
            # One admitted request occupies the work thread: the drain below
            # must wait for it, keeping the server in the ``draining`` state
            # while the refusals are probed.
            held = raw_frames(served.address)
            held.send("infer", request_id="held", request=request)
            assert gate.entered.wait(timeout=30)
            peer = raw_frames(served.address)
            peer.send("drain", request_id="d1")
            ack = peer.read()
            assert ack["ok"] is True
            assert ack["id"] == "d1"
            assert ack["draining"] is True
            assert ack["pending"] == 1
            # New work on the same peer: a structured error envelope with
            # the machine-readable ``draining`` code, not a hangup.
            peer.send("infer", request_id="late", request=request)
            refusal = peer.read()
            assert refusal["ok"] is False
            assert refusal["id"] == "late"
            assert refusal["code"] == ERROR_DRAINING
            assert "draining" in refusal["error"]
            # The typed client surfaces the same refusal as a
            # RemoteServerError carrying the code.
            with PipelinedSession.connect(
                served.address, connections=1, timeout=30
            ) as remote:
                with pytest.raises(RemoteServerError) as excinfo:
                    remote.submit(request).result(timeout=30)
                assert excinfo.value.code == ERROR_DRAINING
            # Release the held request: it gets its exact answer even though
            # the server has been draining the whole time.
            gate.release.set()
            reply = held.read()
            assert reply["ok"] is True
            assert reply["id"] == "held"
            _assert_identical(
                single_session.infer(request),
                InferenceResponse.from_dict(reply["response"]),
            )


# -- frame parity -------------------------------------------------------------------


class TestFrameParity:
    def test_single_connection_client_is_exact(self, server, workload, single_session):
        _, _, inputs, labels = workload
        request = InferenceRequest(inputs=inputs, labels=labels)
        with PipelinedSession(*server.address, connections=1) as remote:
            assert remote.ping(timeout=30)
            _assert_identical(
                single_session.infer(request), remote.submit(request).result(30)
            )

    def test_frames_match_json_rendering_bit_for_bit(
        self, server, workload, single_session
    ):
        # JSON stays the lossless debug rendering of the schema: a response
        # read off the frame carrier equals the local response's JSON round
        # trip exactly, float for float.
        _, _, inputs, labels = workload
        request = InferenceRequest(inputs=inputs, labels=labels)
        with PipelinedSession(*server.address, connections=1) as remote:
            via_frames = remote.submit(request).result(30)
        via_json = InferenceResponse.from_json(single_session.infer(request).to_json())
        np.testing.assert_array_equal(via_frames.predictions, via_json.predictions)
        np.testing.assert_array_equal(via_frames.spike_counts, via_json.spike_counts)
        assert via_frames.counters == via_json.counters
        assert via_frames.energy.to_dict() == via_json.energy.to_dict()
        assert via_frames.accuracy == via_json.accuracy

    def test_pipelined_session_is_exact(self, server, workload, single_session):
        _, _, inputs, labels = workload
        requests = [
            InferenceRequest(inputs=inputs, labels=labels),
            InferenceRequest(inputs=inputs[:4], sample_offset=2),
        ]
        with PipelinedSession(*server.address, connections=2) as remote:
            responses = remote.infer_many(requests)
        for request, response in zip(requests, responses):
            _assert_identical(single_session.infer(request), response)

    def test_raw_v3_frame_round_trip(self, server, workload, single_session, raw_frames):
        _, _, inputs, labels = workload
        request = InferenceRequest(inputs=inputs, labels=labels)
        raw = raw_frames(server.address)
        raw.send("infer", request_id="raw-v3", request=request)
        reply = raw.read()
        assert reply["ok"] is True
        assert reply["id"] == "raw-v3"
        assert isinstance(reply["response"]["predictions"], np.ndarray)
        _assert_identical(
            single_session.infer(request),
            InferenceResponse.from_dict(reply["response"]),
        )


# -- peers that do not speak frames -------------------------------------------------


class TestNonFramePeers:
    def test_json_line_gets_one_error_frame_and_hangup(
        self, server, workload, single_session, raw_frames
    ):
        # A JSON line is shorter than a frame header: the server must answer
        # on its first byte, not wait for header bytes that never come.
        line = b'{"op":"ping"}\n'
        assert len(line) == 14 < FRAME_HEADER_SIZE
        _, _, inputs, _ = workload
        request = InferenceRequest(inputs=inputs[:3])
        with PipelinedSession(*server.address, connections=1) as client:
            in_flight = client.submit(request)
            peer = raw_frames(server.address, timeout=5)
            started = time.monotonic()
            peer.send_bytes(line)
            reply = peer.read()
            assert reply["ok"] is False
            assert "binary frame" in reply["error"]
            assert peer.at_eof(), "server kept the non-frame peer connected"
            assert time.monotonic() - started < 5
            # The frame client on its own connection is served normally.
            _assert_identical(single_session.infer(request), in_flight.result(30))
            assert client.ping(timeout=10)


# -- malformed and truncated frames -------------------------------------------------


class TestFrameErrors:
    def test_bad_magic_gets_error_reply_then_hangup(self, server, raw_frames):
        raw = raw_frames(server.address)
        raw.send_bytes(struct.pack("<4sIQ", b"\x93XXX", 0, 0))
        reply = raw.read()
        assert reply["ok"] is False
        assert "magic" in reply["error"]
        # The stream cannot be resynchronised: the server hangs up.
        assert raw.at_eof()

    def test_oversized_frame_gets_error_reply_then_hangup(self, server, raw_frames):
        raw = raw_frames(server.address)
        raw.send_bytes(struct.pack("<4sIQ", FRAME_MAGIC, 16, MAX_FRAME_BYTES))
        reply = raw.read()
        assert reply["ok"] is False
        assert "exceeds" in reply["error"]
        assert raw.at_eof()

    def test_corrupt_metadata_keeps_connection_serving(self, server, raw_frames):
        meta = b"this is not json"
        raw = raw_frames(server.address)
        raw.send_bytes(struct.pack("<4sIQ", FRAME_MAGIC, len(meta), 0) + meta)
        reply = raw.read()
        assert reply["ok"] is False
        assert "metadata" in reply["error"]
        # The frame was well-delimited, so the stream stays in sync: a valid
        # request on the same connection still gets served.
        raw.send("ping", request_id="after")
        reply = raw.read()
        assert reply["ok"] is True
        assert reply["id"] == "after"
        assert reply["pong"] is True

    @pytest.mark.parametrize(
        ("descriptor", "fragment"),
        [
            ({"dtype": "<f4", "shape": [1], "offset": 0}, "dtype"),
            # 2**70 elements: the count must not overflow a fixed-width int.
            ({"dtype": "<f8", "shape": [2**70], "offset": 0}, "payload holds"),
            ({"dtype": "<f8", "shape": [True, 1], "offset": 0}, "malformed"),
        ],
        ids=["unsupported-dtype", "overflowing-shape", "bool-dim"],
    )
    def test_bad_array_descriptor_echoes_request_id(
        self, server, raw_frames, descriptor, fragment
    ):
        # Valid framing, structurally broken metadata: the error reply is
        # structured AND tagged, so a pipelined client can route it — and
        # the connection keeps serving.
        meta = json.dumps(
            {
                "envelope": {"v": 3, "op": "ping", "id": "bad-descriptor"},
                "arrays": [descriptor],
            },
            separators=(",", ":"),
        ).encode()
        raw = raw_frames(server.address)
        raw.send_bytes(struct.pack("<4sIQ", FRAME_MAGIC, len(meta), 8) + meta + bytes(8))
        reply = raw.read()
        assert reply["ok"] is False
        assert reply["id"] == "bad-descriptor"
        assert fragment in reply["error"]
        raw.send("ping", request_id="after")
        after = raw.read()
        assert after["ok"] is True and after["id"] == "after"

    def test_truncated_frame_then_eof_drops_connection(self, server, raw_frames):
        raw = raw_frames(server.address)
        raw.send_bytes(
            struct.pack("<4sIQ", FRAME_MAGIC, 64, 128) + b"only-part-of-the-meta"
        )
        raw.socket.shutdown(socket.SHUT_WR)
        # There is nobody to answer: the server just drops the peer.
        assert raw.at_eof()

    def test_server_still_healthy_after_frame_abuse(self, server, workload):
        _, _, inputs, _ = workload
        with PipelinedSession(*server.address, connections=1) as remote:
            assert remote.ping(timeout=30)
            response = remote.submit(InferenceRequest(inputs=inputs[:2])).result(30)
            assert response.batch_size == 2


# -- reconnect backoff --------------------------------------------------------------


class TestReconnectBackoff:
    def test_backoff_is_jittered_and_grows(self):
        first = {retry_backoff(0) for _ in range(32)}
        assert all(0.025 <= delay <= 0.1 for delay in first)
        assert len(first) > 1, "backoff must be jittered, not constant"
        assert all(0.05 <= retry_backoff(1) <= 0.2 for _ in range(32))


# -- infer_many cancels outstanding work on failure ---------------------------------


class TestInferManyCancellation:
    def _wired_futures(self, count: int, failing: int):
        futures = [CancellableFuture() for _ in range(count)]
        revoked: list[int] = []
        for index, future in enumerate(futures):
            future._canceller = lambda index=index: revoked.append(index)
        futures[failing].set_exception(RemoteServerError("boom", code="overloaded"))
        return futures, revoked

    def test_pipelined_infer_many_cancels_outstanding(self, monkeypatch):
        futures, revoked = self._wired_futures(3, failing=0)
        session = PipelinedSession.__new__(PipelinedSession)
        handed = iter(futures)
        monkeypatch.setattr(
            PipelinedSession,
            "submit",
            lambda self, request, deadline_s=None: next(handed),
        )
        with pytest.raises(RemoteServerError):
            session.infer_many([object(), object(), object()])
        assert futures[1].cancelled() and futures[2].cancelled()
        # Cancelling a CancellableFuture also revokes the remote work.
        assert sorted(revoked) == [1, 2]

    def test_pipelined_infer_many_success_path_untouched(self, monkeypatch):
        futures = [CancellableFuture(), CancellableFuture()]
        revoked: list[int] = []
        for index, future in enumerate(futures):
            future._canceller = lambda index=index: revoked.append(index)
        futures[0].set_result("a")
        futures[1].set_result("b")
        session = PipelinedSession.__new__(PipelinedSession)
        handed = iter(futures)
        monkeypatch.setattr(
            PipelinedSession,
            "submit",
            lambda self, request, deadline_s=None: next(handed),
        )
        assert session.infer_many([object(), object()]) == ["a", "b"]
        assert revoked == []

    def test_gateway_infer_many_cancels_outstanding(self, monkeypatch):
        futures = [Future() for _ in range(3)]
        futures[0].set_exception(RemoteServerError("boom"))
        gateway = InferenceGateway.__new__(InferenceGateway)
        handed = iter(futures)
        monkeypatch.setattr(
            InferenceGateway,
            "submit",
            lambda self, request, deadline_s=None: next(handed),
        )
        with pytest.raises(RemoteServerError):
            gateway.infer_many([object(), object(), object()])
        assert futures[1].cancelled() and futures[2].cancelled()
