"""Sharded inference across a pool of chip sessions.

:class:`ChipPool` owns a primary :class:`~repro.serve.ChipSession`, and
``jobs`` is its only sharding choice.  A ``jobs=1`` pool (the default) runs
every request whole on the primary session.  A ``jobs > 1`` pool cuts each
request batch into contiguous shards with
:func:`~repro.serve.schema.shard_bounds` — the split rule the gateway uses
too — and runs every shard of a dispatch in one pass on
:class:`~repro.serve.distributed.executors.ProcessExecutor` workers — one
``multiprocessing`` process per job, each holding its own programmed chip,
with shard arrays moving through shared memory.
:meth:`~repro.serve.schema.InferenceResponse.merge` folds the shards back,
and the merged response is *result-identical* to running the whole batch on
one session:

* encoding is shard-stable — every worker derives the pool's
  :class:`~repro.snn.encoding.EncoderState` and receives its shard's
  absolute ``sample_offset``, so sample ``i`` gets the same spike train no
  matter how (or where) the batch is partitioned;
* chip programming is a pure function of ``(snn, config, seed)``, so
  process workers rebuilding their own chip execute the same hardware;
* predictions and spike counts are per-sample and concatenate exactly;
* event counters are integer totals that sum exactly across shards, and
  every energy component is linear in its counters and in the shard's
  batch-duration, so the summed shard reports agree with a single-session
  run to floating-point accumulation order (<< 1e-9 relative).

The fused kernel already runs each chip layer as one stacked matmul per
timestep, so threads around it add hops and no parallelism; only worker
processes, on a host with a spare core per job, have been measured to beat
one session.  ``jobs`` beyond the core count over-subscribes the host.
"""

from __future__ import annotations

import threading
import time

from repro.core.config import ArchitectureConfig
from repro.energy.components import ComponentLibrary
from repro.serve.distributed.executors import ProcessExecutor, SessionSpec
from repro.serve.metrics import (
    PHASE_COMPUTE,
    PHASE_MERGE,
    MetricsRegistry,
    get_default_registry,
    record_phase,
)
from repro.serve.schema import InferenceRequest, InferenceResponse, shard_bounds
from repro.serve.session import ChipSession
from repro.snn.conversion import SpikingNetwork
from repro.snn.encoding import EncoderState

__all__ = ["ChipPool"]


class ChipPool:
    """N workers sharding large batches behind one ``infer`` call.

    Parameters
    ----------
    jobs:
        ``1`` (default) runs every request — each request of an
        :meth:`infer_many` dispatch too — on the primary session and starts
        no child process.  ``jobs > 1`` shards across that many
        :class:`ProcessExecutor` workers.  Both return identical results.
    """

    def __init__(
        self,
        snn: SpikingNetwork,
        jobs: int = 1,
        *,
        config: ArchitectureConfig | None = None,
        library: ComponentLibrary | None = None,
        timesteps: int = 32,
        encoder: str = "deterministic",
        backend: str = "vectorized",
        seed: int = 0,
        encoder_state: EncoderState | None = None,
        registry: MetricsRegistry | None = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.metrics = registry if registry is not None else get_default_registry()
        self._m_dispatches = self.metrics.counter(
            "repro_pool_dispatches_total", "coalesced pool dispatches"
        )
        self._m_shards = self.metrics.counter(
            "repro_pool_shards_total", "shards executed"
        )
        self._m_compute = self.metrics.histogram(
            "repro_pool_compute_seconds", "compute wall per dispatch"
        )
        self._m_merge = self.metrics.histogram(
            "repro_pool_merge_seconds", "shard merge wall per request"
        )
        primary = ChipSession(
            snn,
            config=config,
            library=library,
            timesteps=timesteps,
            encoder=encoder,
            backend=backend,
            seed=seed,
            encoder_state=encoder_state,
            registry=registry,
        )
        self._primary = primary
        assert primary.encoder_state is not None  # sessions built here are state-mode
        self._workers = None
        if jobs > 1:
            self._workers = ProcessExecutor(
                SessionSpec(
                    snn=snn,
                    config=primary.config,
                    library=library,
                    timesteps=timesteps,
                    backend=backend,
                    seed=seed,
                    encoder_state=primary.encoder_state,
                ),
                jobs,
                int(primary.chip.output_dim),
            )
        # The primary session and the worker pool each serve one batch at a
        # time, so only one dispatch may be in flight per pool.  Callers'
        # infer() calls serialise on this lock.
        self._infer_lock = threading.Lock()
        self._closed = False

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Shut down the workers (idempotent)."""
        if not self._closed:
            self._closed = True
            if self._workers is not None:
                self._workers.close()

    def __enter__(self) -> "ChipPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def session(self) -> ChipSession:
        """The primary session (shared chip / encoder state / energy context)."""
        return self._primary

    # -- inference ----------------------------------------------------------------

    def _shard_allocation(self, requests: list[InferenceRequest]) -> list[int]:
        """How many shards each request receives in one coalesced dispatch.

        Shard sizes are levelled against the dispatch's *ideal makespan* —
        ``ceil(total samples / jobs)``, the wall-clock of a perfectly
        balanced dispatch: request ``i`` is split into
        ``ceil(batch_i / ideal)`` shards, so no single shard ever exceeds
        the ideal and an oversized request is re-batched into sub-shards
        that share the workers with the small requests riding in the same
        dispatch, rather than one monolithic whole-request shard pinning a
        worker while its siblings idle.
        """
        sizes = [request.batch_size for request in requests]
        ideal = max(1, -(-sum(sizes) // self.jobs))
        return [-(-size // ideal) for size in sizes]

    def infer(self, request: InferenceRequest) -> InferenceResponse:
        """Shard one request across the workers and merge their responses.

        Thread-safe: concurrent callers are serialised, one dispatch in
        flight at a time (the workers parallelise *within* a dispatch).
        """
        return self.infer_many([request])[0]

    def infer_many(self, requests: list[InferenceRequest]) -> list[InferenceResponse]:
        """Run several requests as one coalesced pool dispatch.

        This is the dynamic-batching seam the async chip server drains its
        request queue through.  A ``jobs=1`` pool runs each request as itself
        on the primary session, one after another.  A ``jobs > 1`` pool cuts
        every request into contiguous shards with :func:`shard_bounds`
        (carrying its *own* absolute ``sample_offset``); an oversized request
        becomes several sub-shards no larger than the dispatch's ideal
        makespan, so its pieces share the workers with the small requests
        riding along.  Every shard of the dispatch goes to the workers in
        one call, largest first, and a worker that frees up takes the next
        shard.  :meth:`InferenceResponse.merge` folds each request's shards
        back.  Because encoding is shard-stable per absolute sample index,
        each returned response is result-identical to running that request
        alone on a single :class:`~repro.serve.ChipSession` — the cut changes
        throughput, never numbers.

        Requests may disagree on ``timesteps``/``labels``; each shard
        carries its request's own overrides.  A dispatch that cuts into one
        shard runs it on the primary session without a round trip to the
        workers.
        """
        if not requests:
            raise ValueError("infer_many needs at least one request")
        with self._infer_lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            started = time.monotonic()
            if self._workers is None:
                groups = [[self._primary.infer(request)] for request in requests]
            else:
                groups = self._run_sharded(requests)
            compute_s = time.monotonic() - started
        self._m_dispatches.inc()
        self._m_shards.inc(sum(len(parts) for parts in groups))
        self._m_compute.observe(compute_s)
        merged = []
        for request, parts in zip(requests, groups):
            merge_started = time.monotonic()
            response = InferenceResponse.merge(request, parts)
            # Every request waits for the whole dispatch, so the dispatch's
            # compute wall is each request's compute span; a request folded
            # from several shards also records its own merge span.
            record_phase(response.metadata, PHASE_COMPUTE, compute_s)
            if len(parts) > 1:
                merge_s = time.monotonic() - merge_started
                record_phase(response.metadata, PHASE_MERGE, merge_s)
                self._m_merge.observe(merge_s)
            merged.append(response)
        return merged

    def _run_sharded(
        self, requests: list[InferenceRequest]
    ) -> list[list[InferenceResponse]]:
        """Cut every request, run all shards in one pass, regroup per request."""
        plans = [
            [
                (start, stop)
                for start, stop in shard_bounds(request.batch_size, [1.0] * shards)
                if stop > start
            ]
            for request, shards in zip(requests, self._shard_allocation(requests))
        ]
        shards = [
            request.shard(start, stop)
            for request, bounds in zip(requests, plans)
            for start, stop in bounds
        ]
        if len(shards) == 1:
            responses = [self._primary.infer(shards[0])]
        else:
            # Largest first, stable: the long shards start at once and the
            # short ones fill the workers that free up behind them.
            order = sorted(range(len(shards)), key=lambda index: -shards[index].batch_size)
            responses = [None] * len(shards)
            for index, response in zip(
                order, self._workers.run_shards([shards[index] for index in order])
            ):
                responses[index] = response
        groups = []
        cursor = 0
        for bounds in plans:
            groups.append(responses[cursor : cursor + len(bounds)])
            cursor += len(bounds)
        return groups
