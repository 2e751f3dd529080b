"""Per-request phase spans, carried on the response ``metadata`` dict.

A request's wall time decomposes into four phases as it crosses the
serving layers:

* ``queue_wait_s`` — admitted by the server, waiting for the dispatcher;
* ``dispatch_s``  — popped by the dispatcher, waiting for compute to start
  (executor/batch handoff);
* ``compute_s``   — the chip actually running (session/pool/executor);
* ``merge_s``     — shard results folded back into one response
  (pool and gateway, both through ``InferenceResponse.merge``).

Rather than invent a side channel, the spans ride the plumbing every
request already has: the ``metadata`` dict of
:class:`~repro.serve.schema.InferenceResponse`, keyed by request id at the
layer that measured them.  Each layer *adds* to the phases it owns
(``record_phase``), so a request that crosses pool → server → gateway
accumulates one dict with all four phases, and
``phases_total(metadata)`` is comparable to the measured wall time (the
span-accounting parity test pins this).
"""

from __future__ import annotations

__all__ = [
    "PHASES_KEY",
    "PHASE_COMPUTE",
    "PHASE_DISPATCH",
    "PHASE_KEYS",
    "PHASE_MERGE",
    "PHASE_QUEUE_WAIT",
    "merge_phases",
    "phases_total",
    "read_phases",
    "record_phase",
]

PHASES_KEY = "phases"

PHASE_QUEUE_WAIT = "queue_wait_s"
PHASE_DISPATCH = "dispatch_s"
PHASE_COMPUTE = "compute_s"
PHASE_MERGE = "merge_s"

PHASE_KEYS: tuple[str, ...] = (
    PHASE_QUEUE_WAIT,
    PHASE_DISPATCH,
    PHASE_COMPUTE,
    PHASE_MERGE,
)


def record_phase(metadata: dict, phase: str, seconds: float) -> None:
    """Add ``seconds`` to ``phase`` in ``metadata``'s span dict (in place)."""
    if seconds < 0:
        seconds = 0.0
    phases = metadata.get(PHASES_KEY)
    if not isinstance(phases, dict):
        phases = {}
        metadata[PHASES_KEY] = phases
    phases[phase] = float(phases.get(phase, 0.0)) + float(seconds)


def read_phases(metadata: dict | None) -> dict[str, float]:
    """The span dict (missing phases absent), ``{}`` when never recorded."""
    if not metadata:
        return {}
    phases = metadata.get(PHASES_KEY)
    if not isinstance(phases, dict):
        return {}
    return {str(key): float(value) for key, value in phases.items()}


def phases_total(metadata: dict | None) -> float:
    """Sum of all recorded phase spans — comparable to request wall time."""
    return sum(read_phases(metadata).values())


def merge_phases(target: dict, sources: list[dict | None]) -> None:
    """Fold shard-level spans into a merged response's metadata.

    Per phase the *maximum* across shards is kept, because shards run
    concurrently: the merged request's wall clock follows the critical
    path, not the sum of parallel work.
    """
    merged: dict[str, float] = read_phases(target)
    for source in sources:
        for phase, seconds in read_phases(source).items():
            if seconds > merged.get(phase, 0.0):
                merged[phase] = seconds
    if merged:
        target[PHASES_KEY] = merged
