"""Process shard workers for :class:`~repro.serve.pool.ChipPool`.

A ``jobs > 1`` pool splits each request batch into contiguous shards and
runs them on :class:`ProcessExecutor` workers: ``multiprocessing``
processes, each holding its own programmed chip in its own interpreter.
The batch-sized arrays cross the process boundary through a
:mod:`multiprocessing.shared_memory` segment (written once by the pool,
read and filled in place by the workers), so inter-process transfer cost is
O(1) in the batch size; the scalar-sized remainder of each
request/response rides compact JSON.

The workers are **result-identical** to one
:class:`~repro.serve.session.ChipSession`: predictions, spike counts and
integer event counters match exactly, and energies agree to floating-point
accumulation order.  That identity holds because

* encoding is shard-stable (:class:`~repro.snn.encoding.EncoderState` seeds
  spike streams per absolute sample index),
* chip programming is a pure function of ``(snn, config, seed)``, so every
  worker holds an identically programmed chip, and
* counters are per-run deltas that sum exactly across shards.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.core.config import ArchitectureConfig
from repro.energy.components import ComponentLibrary
from repro.serve.schema import InferenceRequest, InferenceResponse
from repro.serve.session import ChipSession
from repro.snn.conversion import SpikingNetwork
from repro.snn.encoding import EncoderState

__all__ = ["SessionSpec", "ProcessExecutor"]


@dataclass(frozen=True)
class SessionSpec:
    """Picklable recipe for building interchangeable worker sessions.

    Everything a worker — in this process or another — needs to build a
    :class:`ChipSession` whose chip is programmed identically to the pool's
    primary session.  The spec always carries an explicit
    :class:`EncoderState` (never a legacy RNG stream), so worker encoding is
    shard-stable by construction.
    """

    snn: SpikingNetwork
    config: ArchitectureConfig
    library: ComponentLibrary | None
    timesteps: int
    backend: str
    seed: int
    encoder_state: EncoderState

    def build_session(self) -> ChipSession:
        """Build a session whose chip is programmed like the pool's."""
        return ChipSession(
            self.snn,
            config=self.config,
            library=self.library,
            timesteps=self.timesteps,
            backend=self.backend,
            seed=self.seed,
            encoder_state=self.encoder_state,
        )


# -- process workers ---------------------------------------------------------------
#
# Worker state lives in a module global because ``multiprocessing`` worker
# functions must be importable top-level callables.  Each worker process
# builds its own session (and therefore its own programmed chip) once, in the
# pool initializer, then serves shard requests from it.

_WORKER_SESSION: ChipSession | None = None


def _process_worker_init(spec: SessionSpec) -> None:
    global _WORKER_SESSION
    _WORKER_SESSION = spec.build_session()


def _pad8(offset: int) -> int:
    """Round ``offset`` up to the next 8-byte boundary (array slot alignment)."""
    return (offset + 7) & ~7


def _process_worker_infer_shm(task: str) -> str:
    """Run one shard whose arrays live in a shared-memory segment.

    ``task`` is compact JSON: the segment name, the request's scalar fields,
    and the offsets of the input/label slots to read and the
    prediction/spike-count slots to fill.  The return value is the
    response's scalar remainder (counters, energy, metadata) — the arrays
    never leave the segment.
    """
    if _WORKER_SESSION is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("process worker used before initialisation")
    info = json.loads(task)
    segment = shared_memory.SharedMemory(name=info["segment"])
    try:
        return _infer_into_segment(info, segment)
    finally:
        # An exception traceback can briefly pin array views of the buffer;
        # the mapping then frees with the frames instead of failing here.
        with contextlib.suppress(BufferError):
            segment.close()


def _infer_into_segment(
    info: dict[str, object], segment: shared_memory.SharedMemory
) -> str:
    n = int(info["n"])
    features = int(info["features"])
    output_dim = int(info["output_dim"])
    data = dict(info["request"])
    data["inputs"] = np.frombuffer(
        segment.buf, dtype="<f8", count=n * features, offset=int(info["inputs_offset"])
    ).reshape(n, features)
    labels_offset = info["labels_offset"]
    data["labels"] = (
        None
        if labels_offset is None
        else np.frombuffer(
            segment.buf, dtype="<i8", count=n, offset=int(labels_offset)
        )
    )
    response = _WORKER_SESSION.infer(InferenceRequest.from_dict(data))
    wire = response.to_wire_dict()
    predictions = np.asarray(wire.pop("predictions"), dtype="<i8")
    spike_counts = np.asarray(wire.pop("spike_counts"), dtype="<f8")
    if predictions.shape != (n,) or spike_counts.shape != (n, output_dim):
        raise RuntimeError(
            f"shard produced predictions {predictions.shape} / spike counts "
            f"{spike_counts.shape}, but the pool reserved slots for "
            f"({n},) / ({n}, {output_dim})"
        )
    np.frombuffer(
        segment.buf, dtype="<i8", count=n, offset=int(info["predictions_offset"])
    )[...] = predictions
    np.frombuffer(
        segment.buf,
        dtype="<f8",
        count=n * output_dim,
        offset=int(info["spike_counts_offset"]),
    ).reshape(n, output_dim)[...] = spike_counts
    return json.dumps(wire)


class ProcessExecutor:
    """``multiprocessing`` workers, one programmed chip per process.

    The workers sidestep the GIL entirely (which is what lets the
    structural backend's per-sample Python loop run in parallel), and each
    dispatch wave's arrays travel through one
    :mod:`multiprocessing.shared_memory` segment: the pool writes inputs
    and labels raw and reserves prediction/spike-count slots, workers
    attach by name and fill their slots in place, and only scalar-sized
    JSON (request overrides out, counters and energy back) crosses the pipe
    — inter-process transfer is O(1) in batch size.  Results are exact
    because float64/int64 arrays transfer bit-identically by construction.
    Workers start with the platform's default start method; every method
    works because :class:`SessionSpec` is picklable and segments are
    attached by name.

    ``output_dim`` is the chip's output width: the output slots are sized
    before dispatch, and every worker builds an identically-programmed chip
    from ``spec``.
    """

    def __init__(self, spec: SessionSpec, jobs: int, output_dim: int):
        self._output_dim = output_dim
        # Start the parent's resource tracker before the workers so they all
        # share it (spawned children always do; forked ones only inherit a
        # tracker that is already running).  A worker's attach then
        # registers the segment with the same tracker that the parent's
        # unlink() unregisters it from, so the segment stays tracked until
        # the parent unlinks it.
        resource_tracker.ensure_running()
        self._pool: multiprocessing.pool.Pool | None = multiprocessing.Pool(
            processes=jobs, initializer=_process_worker_init, initargs=(spec,)
        )

    def run_shards(self, shards: list[InferenceRequest]) -> list[InferenceResponse]:
        if self._pool is None:
            raise RuntimeError("process executor is closed")
        if not shards:
            return []
        # One segment per dispatch wave: lay out every shard's input/label
        # arrays plus its preallocated output slots, 8-byte aligned.
        entries = []
        size = 0
        for shard in shards:
            wire = shard.to_wire_dict()
            inputs = np.ascontiguousarray(wire.pop("inputs"), dtype="<f8")
            labels = wire.pop("labels")
            if labels is not None:
                labels = np.ascontiguousarray(labels, dtype="<i8")
            n = int(inputs.shape[0])
            inputs_offset = size
            size = _pad8(size + inputs.nbytes)
            labels_offset = None
            if labels is not None:
                labels_offset = size
                size = _pad8(size + labels.nbytes)
            predictions_offset = size
            size = _pad8(size + n * 8)
            spike_counts_offset = size
            size = _pad8(size + n * self._output_dim * 8)
            entries.append(
                (
                    wire,
                    inputs,
                    labels,
                    n,
                    inputs_offset,
                    labels_offset,
                    predictions_offset,
                    spike_counts_offset,
                )
            )
        segment = shared_memory.SharedMemory(create=True, size=max(size, 1))
        try:
            tasks = []
            for (
                wire,
                inputs,
                labels,
                n,
                inputs_offset,
                labels_offset,
                predictions_offset,
                spike_counts_offset,
            ) in entries:
                np.frombuffer(
                    segment.buf, dtype="<f8", count=inputs.size, offset=inputs_offset
                ).reshape(inputs.shape)[...] = inputs
                if labels is not None:
                    np.frombuffer(
                        segment.buf, dtype="<i8", count=n, offset=labels_offset
                    )[...] = labels
                tasks.append(
                    json.dumps(
                        {
                            "segment": segment.name,
                            "request": wire,
                            "n": n,
                            "features": int(inputs.shape[1]),
                            "output_dim": self._output_dim,
                            "inputs_offset": inputs_offset,
                            "labels_offset": labels_offset,
                            "predictions_offset": predictions_offset,
                            "spike_counts_offset": spike_counts_offset,
                        }
                    )
                )
            replies = self._pool.map(_process_worker_infer_shm, tasks, chunksize=1)
            responses = []
            for reply, entry in zip(replies, entries):
                n = entry[3]
                predictions_offset, spike_counts_offset = entry[6], entry[7]
                data = json.loads(reply)
                # Copy out before the segment dies: the responses outlive it.
                data["predictions"] = np.frombuffer(
                    segment.buf, dtype="<i8", count=n, offset=predictions_offset
                ).copy()
                data["spike_counts"] = (
                    np.frombuffer(
                        segment.buf,
                        dtype="<f8",
                        count=n * self._output_dim,
                        offset=spike_counts_offset,
                    )
                    .reshape(n, self._output_dim)
                    .copy()
                )
                responses.append(InferenceResponse.from_dict(data))
            return responses
        finally:
            # Only the creating process unlinks; close() tolerates views
            # briefly pinned by an in-flight exception's traceback.
            with contextlib.suppress(BufferError):
                segment.close()
            segment.unlink()

    def close(self) -> None:
        """Stop the worker processes (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
