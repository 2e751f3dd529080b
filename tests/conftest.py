"""Shared fixtures for the RESPARC reproduction test suite."""

from __future__ import annotations

import contextlib
import socket

import numpy as np
import pytest

from repro.datasets import make_dataset
from repro.serve.schema import (
    FRAME_HEADER_SIZE,
    InferenceRequest,
    decode_frame_payload,
    encode_frame,
    parse_frame_header,
    request_envelope,
)
from repro.snn import AvgPool2D, Conv2D, Dense, Flatten, Network, SpikingSimulator, convert_to_snn
from repro.utils.rng import seeded_rng


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator shared by tests."""
    return seeded_rng(1234)


@pytest.fixture
def small_mlp(rng: np.random.Generator) -> Network:
    """A small dense network (MLP) used across architecture tests."""
    return Network(
        (36,),
        [
            Dense(36, 20, activation="relu", use_bias=False, rng=rng, name="fc1"),
            Dense(20, 10, activation=None, use_bias=False, rng=rng, name="out"),
        ],
        name="small-mlp",
    )


@pytest.fixture
def small_cnn(rng: np.random.Generator) -> Network:
    """A small convolutional network used across architecture tests."""
    return Network(
        (12, 12, 1),
        [
            Conv2D(1, 6, kernel_size=3, padding="same", use_bias=False, rng=rng, name="conv1"),
            AvgPool2D(2, name="pool1"),
            Flatten(),
            Dense(6 * 6 * 6, 10, activation=None, use_bias=False, rng=rng, name="out"),
        ],
        name="small-cnn",
    )


@pytest.fixture
def mnist_like_batch(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A tiny MNIST-like (images, labels) batch."""
    dataset = make_dataset("mnist", train_samples=24, test_samples=12, seed=3)
    return dataset.test_images, dataset.test_labels


@pytest.fixture
def traced_small_mlp(small_mlp, rng):
    """A converted small MLP together with an activity trace."""
    inputs = rng.random((6, 36))
    snn = convert_to_snn(small_mlp, inputs)
    simulator = SpikingSimulator(timesteps=12, encoder="deterministic")
    result = simulator.run(snn, inputs[:4])
    return snn, result.trace


class RawFrameConnection:
    """A bare socket speaking protocol-3 frames, for driving the wire by hand.

    Tests use it where the typed client would hide what is under test:
    hand-built or malformed envelopes, raw bytes, replies read in arrival
    order, or the server side of a canned peer.
    """

    def __init__(self, sock: socket.socket):
        self.socket = sock
        self._stream = sock.makefile("rwb")

    def send_bytes(self, data: bytes) -> None:
        self._stream.write(data)
        self._stream.flush()

    def send_envelope(self, envelope: dict) -> None:
        self.send_bytes(encode_frame(envelope))

    def send(self, op: str, *, request_id: object = None, **fields: object) -> None:
        """Frame one request envelope; ``InferenceRequest`` values ship raw."""
        for key, value in fields.items():
            if isinstance(value, InferenceRequest):
                fields[key] = value.to_wire_dict()
        self.send_envelope(request_envelope(op, request_id=request_id, **fields))

    def read(self) -> dict | None:
        """Read one whole frame's envelope (``None`` on EOF between frames)."""
        header = self._stream.read(FRAME_HEADER_SIZE)
        if not header:
            return None
        assert len(header) == FRAME_HEADER_SIZE, "truncated frame header"
        meta_len, payload_len = parse_frame_header(header)
        meta = self._stream.read(meta_len)
        return decode_frame_payload(meta, self._stream.read(payload_len))

    def at_eof(self) -> bool:
        """True when the peer hung up (the next read sees end of stream)."""
        return self._stream.read(1) == b""

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self._stream.close()
        self.socket.close()


@pytest.fixture
def raw_frames():
    """Open :class:`RawFrameConnection`\\ s (to an address, or over an
    accepted socket); every one is closed at teardown."""
    opened: list[RawFrameConnection] = []

    def open_connection(target, timeout: float = 30.0) -> RawFrameConnection:
        if not isinstance(target, socket.socket):
            target = socket.create_connection(tuple(target)[:2], timeout=timeout)
        connection = RawFrameConnection(target)
        opened.append(connection)
        return connection

    yield open_connection
    for connection in opened:
        connection.close()
