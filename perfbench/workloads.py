"""The benchmark's workloads: seeded request streams over served arrangements.

Each workload fixes a network, builds the arrangement that serves it (the
part timed as set-up) and generates its requests from the seed alone; the
program only ever sees the generated requests.

* ``bulk-b256``: one ``ChipSession`` called directly; the bench MLP
  256-128-10 on 32x32 MCAs (36 tiles) at batch 256, T=8; one caller.
* ``paper-mlp-mixed``: one ``ChipSession`` called directly; the paper's
  MNIST MLP 784-803-1565-10 on the default 64x64 MCAs (519 tiles), T=8,
  batch sizes drawn uniformly from 1..32; one caller.
* ``serve-small``: an ``InferenceGateway`` over two in-process
  ``ChipServer``\\ s (max_batch 8) reached through ``PipelinedSession``\\ s,
  each server serving a ``ChipPool`` at its defaults (jobs=2, thread
  executor); the bench MLP at batch 8, T=8; one generator thread keeping
  4 requests outstanding.

All three are closed loops: a caller sends its next request only when the
previous one has completed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.core import ArchitectureConfig
from repro.fastpath import VectorizedChipEngine, compile_chip
from repro.serve import ChipPool, ChipSession, InferenceRequest
from repro.serve.distributed import (
    ChipServer,
    GatewayEndpoint,
    InferenceGateway,
    PipelinedSession,
)
from repro.serve.distributed.server import load_benchmark_workload
from repro.snn import Dense, Network, convert_to_snn

__all__ = ["WORKLOADS", "Model", "Workload"]

#: Simulation window of every workload (timesteps per inference).
TIMESTEPS = 8
#: Session seed of every served chip (programming and encoder state).
SESSION_SEED = 0


@dataclass(frozen=True)
class Model:
    """A network ready to serve plus the corpus its requests draw from."""

    snn: object
    config: ArchitectureConfig
    corpus: np.ndarray | None = None


def bench_mlp() -> Model:
    """The ROADMAP anchor net: MLP 256-128-10 on 32x32 MCAs (36 tiles)."""
    rng = np.random.default_rng(23)
    network = Network(
        (256,),
        [
            Dense(256, 128, use_bias=False, rng=rng, name="fc1"),
            Dense(128, 10, activation=None, use_bias=False, rng=rng, name="out"),
        ],
        name="bench-mlp",
    )
    snn = convert_to_snn(network, rng.random((24, 256)))
    return Model(snn, ArchitectureConfig(crossbar_rows=32, crossbar_columns=32))


def paper_mnist_mlp() -> Model:
    """The paper's MNIST MLP 784-803-1565-10 at full scale, default MCAs."""
    served = load_benchmark_workload("mnist-mlp", test_samples=256)
    return Model(served.snn, ArchitectureConfig(), served.test_inputs)


def cycled_requests(seed: int, batch: int, count: int):
    """``count`` seeded uniform batches of the bench MLP's 256 inputs, cycled."""
    rng = np.random.default_rng([seed, batch])
    batches = [rng.random((batch, 256)) for _ in range(count)]
    for index, inputs in enumerate(itertools.cycle(batches)):
        yield index, InferenceRequest(inputs=inputs)


def registry_total(snapshot: dict, family: str, field: str = "value") -> float:
    """Sum of one field over every series of a ``MetricsRegistry`` family."""
    series = snapshot["families"].get(family, {}).get("series", [])
    return float(sum(entry[field] for entry in series))


def local_session(model: Model) -> ChipSession:
    return ChipSession(
        model.snn, config=model.config, timesteps=TIMESTEPS, seed=SESSION_SEED
    )


def chip_layers(session: ChipSession) -> list[dict[str, float]]:
    """Per chip layer shape counts of the compiled program (deterministic)."""
    layers = []
    for layer in compile_chip(session.chip).layers:
        fused = layer.fused
        tiles = fused.n_tiles
        bands = len(set(zip(fused.row_starts.tolist(), fused.row_stops.tolist())))
        rows, cols = fused.geometry
        useful = float(np.sum(fused.rows * fused.cols))
        layers.append(
            {
                "tiles": tiles,
                "row_bands": bands,
                "gather_repeat": tiles / bands,
                "useful_flop_ratio": useful / (tiles * rows * cols),
            }
        )
    return layers


# -- arrangements -----------------------------------------------------------------


class OfflineSession:
    """One ``ChipSession`` called directly by the benchmark's single caller."""

    def __init__(self, model: Model):
        self.session = local_session(model)

    def infer(self, request: InferenceRequest):
        # Looked up per call, so timing wrappers installed later apply.
        return self.session.infer(request)

    def counters(self) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass


#: Server registry series read per traced segment: ``key -> (family, field)``.
_SERVER_COUNTERS = {
    "server.requests": ("repro_server_requests_total", "value"),
    "server.batches": ("repro_server_batches_total", "value"),
    "server.queue_wait_s": ("repro_request_queue_wait_seconds", "sum"),
    "server.queue_wait_n": ("repro_request_queue_wait_seconds", "count"),
    "server.dispatch_s": ("repro_request_dispatch_seconds", "sum"),
    "server.dispatch_n": ("repro_request_dispatch_seconds", "count"),
}


class GatewayOverServers:
    """A gateway over two in-process chip servers (max_batch 8), each
    serving a ``ChipPool`` at its defaults through a ``PipelinedSession``."""

    def __init__(self, model: Model):
        self.pools: list[ChipPool] = []
        self.servers: list[ChipServer] = []
        self.clients: list[PipelinedSession] = []
        self.gateway: InferenceGateway | None = None
        try:
            for _ in range(2):
                pool = ChipPool(
                    model.snn,
                    config=model.config,
                    timesteps=TIMESTEPS,
                    seed=SESSION_SEED,
                )
                self.pools.append(pool)
                server = ChipServer(pool, workload="serve-small", max_batch=8).start()
                self.servers.append(server)
                self.clients.append(PipelinedSession.connect(server.address))
            self.gateway = InferenceGateway(
                [
                    GatewayEndpoint(target=client, name=f"server-{index}")
                    for index, client in enumerate(self.clients)
                ],
                name="serve-small",
            )
        except BaseException:
            self.close()
            raise

    def submit(self, request: InferenceRequest):
        # Looked up per call, so timing wrappers installed later apply.
        return self.gateway.submit(request)

    @property
    def session(self) -> ChipSession:
        """The first pool's primary session (every session serves one chip
        program of the same shapes)."""
        return self.pools[0].session

    def counters(self) -> dict[str, float]:
        """Cumulative server and gateway counters (registry snapshots)."""
        totals = dict.fromkeys(_SERVER_COUNTERS, 0.0)
        for server in self.servers:
            snapshot = server.metrics.snapshot()
            for key, (family, field) in _SERVER_COUNTERS.items():
                totals[key] += registry_total(snapshot, family, field)
        for key, value in self.gateway.tail_stats().items():
            totals[f"gateway.{key}"] = float(value)
        return totals

    def close(self) -> None:
        if self.gateway is not None:
            self.gateway.close()
        for part in (*self.clients, *self.servers, *self.pools):
            part.close()


# -- workloads --------------------------------------------------------------------


class Workload:
    """A named, seeded load over one arrangement.

    ``outstanding`` is the closed loop's number of requests in flight (1:
    the caller blocks on ``infer``); ``energy_requests`` is the fixed
    prefix of the stream that chip energy is reported over and that every
    run completes; ``gate_sample`` is how many of that prefix the
    exactness gate checks besides the first request of every shape;
    ``chunk`` is how many consecutive completions one throughput window
    spans; ``setup_reps`` is how often set-up is repeated per run.
    """

    name = ""
    outstanding = 1
    energy_requests = 8
    gate_sample = 2
    chunk = 8
    setup_reps = 3

    def model(self) -> Model:
        raise NotImplementedError

    def build(self, model: Model):
        raise NotImplementedError

    def requests(self, model: Model, seed: int):
        """Yield ``(index, request)`` for ever, deterministically in ``seed``."""
        raise NotImplementedError

    def warm_up(self, arrangement, model: Model) -> None:
        raise NotImplementedError

    def referee(self, arrangement, model: Model):
        """A function giving the ``(predictions, spike_counts)`` a request
        must be answered with, computed outside the served path."""
        raise NotImplementedError


class _OfflineWorkload(Workload):
    def build(self, model: Model) -> OfflineSession:
        return OfflineSession(model)

    def warm_up(self, arrangement: OfflineSession, model: Model) -> None:
        _, request = next(self.requests(model, seed=0))
        arrangement.infer(request)

    def referee(self, arrangement: OfflineSession, model: Model):
        """The per-tile reference kernel on the session's own encoded train."""
        session = arrangement.session
        engine = VectorizedChipEngine.from_chip(session.chip)

        def reference(request: InferenceRequest):
            train = session.encoder_state.shard(request.sample_offset).encode(
                request.batch, TIMESTEPS
            )
            outcome = engine.run_batch_reference(train)
            return outcome.predictions, outcome.spike_counts

        return reference


class BulkB256(_OfflineWorkload):
    """The kernel does almost all the work and the serving layers none."""

    name = "bulk-b256"
    energy_requests = 8
    gate_sample = 2
    chunk = 8
    setup_reps = 7

    def model(self) -> Model:
        return bench_mlp()

    def requests(self, model: Model, seed: int):
        return cycled_requests(seed, 256, self.energy_requests)


class PaperMlpMixed(_OfflineWorkload):
    """Per-tile dispatch over 519 tiles and plan builds dominate: 32 batch
    sizes are more shapes than a session's plan cache holds (8)."""

    name = "paper-mlp-mixed"
    energy_requests = 32
    gate_sample = 4
    chunk = 16
    setup_reps = 3

    def model(self) -> Model:
        return paper_mnist_mlp()

    def requests(self, model: Model, seed: int):
        rng = np.random.default_rng([seed, 784])
        corpus = model.corpus
        for index in itertools.count():
            rows = rng.integers(0, len(corpus), size=int(rng.integers(1, 33)))
            yield index, InferenceRequest(inputs=corpus[rows])


class ServeSmall(Workload):
    """Gateway, codec, sockets, server queue and pool threads outweigh the
    kernel, which runs on shards of two samples."""

    name = "serve-small"
    outstanding = 4
    energy_requests = 64
    gate_sample = 15
    chunk = 32
    setup_reps = 5

    def model(self) -> Model:
        return bench_mlp()

    def build(self, model: Model) -> GatewayOverServers:
        return GatewayOverServers(model)

    def requests(self, model: Model, seed: int):
        return cycled_requests(seed, 8, self.energy_requests)

    def warm_up(self, arrangement: GatewayOverServers, model: Model) -> None:
        stream = self.requests(model, seed=0)
        for _ in range(2):
            futures = [
                arrangement.submit(next(stream)[1]) for _ in range(self.outstanding)
            ]
            for future in futures:
                future.result()

    def referee(self, arrangement, model: Model):
        """A local ``ChipSession`` given the same request."""
        session = local_session(model)

        def reference(request: InferenceRequest):
            response = session.infer(request)
            return response.predictions, response.spike_counts

        return reference


WORKLOADS: dict[str, Workload] = {
    workload.name: workload for workload in (BulkB256(), PaperMlpMixed(), ServeSmall())
}
