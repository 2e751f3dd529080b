"""Spans around the calls into each layer, installed at run time.

The program is not edited: :func:`install_layer_wrappers` replaces each
layer's public entry points with timing wrappers and :meth:`Tracer.uninstall`
puts the originals back.  A function that another module imported by name
(the frame codec) is replaced where that module looks it up, so every call
site is timed.

A span records its layer name, start and end (``time.perf_counter``), the
span that was open on the same thread when it started (its cause) and a
small ``info`` value the layer's wrapper extracts (a plan-cache hit flag, a
kernel shape, an encoded frame's size).  Spans stay in memory; the
benchmark reduces them to per-layer metrics when the run ends.
"""

from __future__ import annotations

import functools
import threading
import time

__all__ = ["Span", "Tracer", "install_layer_wrappers"]


class Span:
    """One timed call into a layer."""

    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name: str, start: float, parent: "Span | None"):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs timing wrappers and collects the spans they record."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._originals: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, name: str, fn, info, on_future):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, time.perf_counter(), stack[-1] if stack else None)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if info is not None:
                span.info = info(args, result)
            if on_future is not None:
                tracer._follow(on_future, span.start, result)
            return result

        return wrapper

    def _follow(self, name: str, start: float, future) -> None:
        """Record ``name`` from ``start`` until ``future`` resolves."""

        def finished(_done) -> None:
            span = Span(name, start, None)
            span.end = time.perf_counter()
            self.spans.append(span)

        future.add_done_callback(finished)

    def patch(self, owner, attr: str, name: str, *, info=None, on_future=None) -> None:
        """Time every call to ``owner.attr`` as a ``name`` span.

        ``info(args, result)`` extracts the span's info value; ``on_future``
        names a second span that runs from the call until the future the
        call returned resolves.
        """
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(
                self._timed(name, original.__func__, info, on_future)
            )
        else:
            replacement = self._timed(name, original, info, on_future)
        setattr(owner, attr, replacement)
        self._originals.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched attribute (most recent first)."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


def _kernel_info(args, _result) -> tuple[int, int]:
    timesteps, batch = args[1].shape[:2]
    return batch, timesteps


def _pool_info(args, responses) -> tuple[int, int, float, float]:
    from repro.serve.metrics import PHASE_COMPUTE, PHASE_MERGE, read_phases

    phases = [read_phases(response.metadata) for response in responses]
    return (
        len(args[1]),
        sum(response.jobs for response in responses),
        phases[0].get(PHASE_COMPUTE, 0.0),
        sum(phase.get(PHASE_MERGE, 0.0) for phase in phases),
    )


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap the public entry points of every benchmarked layer.

    ======================== ==================================================
    span                     wrapped call
    ======================== ==================================================
    ``encode``               ``snn.encoding.EncoderState.encode``
    ``plan``                 ``fastpath.plan.PlanCache.get`` (info: hit flag)
    ``kernel``               ``fastpath.engine.VectorizedChipEngine.run_batch``
    ``session``              ``serve.session.ChipSession.infer``
    ``energy``               ``serve.session.ChipSession.energy_for``
    ``pool``                 ``serve.pool.ChipPool.infer_many``
    ``codec``                ``encode_frame`` / ``decode_frame_payload`` in
                             ``serve.schema``, ``serve.distributed.client`` and
                             ``serve.distributed.server``, plus
                             ``InferenceRequest.from_dict`` and
                             ``InferenceResponse.from_dict``
    ``client.submit``        ``PipelinedSession.submit`` (``client.rtt`` runs
                             until its future resolves)
    ``gateway.submit``       ``InferenceGateway.submit``
    ======================== ==================================================
    """
    from repro.fastpath.engine import VectorizedChipEngine
    from repro.fastpath.plan import PlanCache
    from repro.serve import schema
    from repro.serve.distributed import client, gateway, server
    from repro.serve.pool import ChipPool
    from repro.serve.session import ChipSession
    from repro.snn.encoding import EncoderState

    tracer.patch(EncoderState, "encode", "encode")
    tracer.patch(PlanCache, "get", "plan", info=lambda _args, result: result[1])
    tracer.patch(VectorizedChipEngine, "run_batch", "kernel", info=_kernel_info)
    tracer.patch(ChipSession, "infer", "session")
    tracer.patch(ChipSession, "energy_for", "energy")
    tracer.patch(ChipPool, "infer_many", "pool", info=_pool_info)
    for module in (schema, client, server):
        tracer.patch(
            module, "encode_frame", "codec", info=lambda _args, frame: len(frame)
        )
        tracer.patch(module, "decode_frame_payload", "codec")
    tracer.patch(schema.InferenceRequest, "from_dict", "codec")
    tracer.patch(schema.InferenceResponse, "from_dict", "codec")
    tracer.patch(
        client.PipelinedSession, "submit", "client.submit", on_future="client.rtt"
    )
    tracer.patch(gateway.InferenceGateway, "submit", "gateway.submit")
