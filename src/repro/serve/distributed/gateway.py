"""Multi-endpoint inference gateway: capacity-weighted sharding, exact merge.

:class:`InferenceGateway` fans one request batch out across several
endpoints — local :class:`~repro.serve.ChipSession`\\ s and
:class:`~repro.serve.ChipPool`\\ s, remote
:class:`~repro.serve.distributed.client.PipelinedSession`\\ s, anything with
the ``infer`` contract — and merges the shard responses into one exact
result.

Sharding is *capacity-weighted and load-aware*: an endpoint with capacity 3
(say, a remote pool with ``jobs=3``) receives three times the samples of a
capacity-1 session, via :func:`~repro.serve.schema.shard_bounds` (the split
rule :class:`~repro.serve.ChipPool` uses too) so the contiguous shard sizes
always sum to the batch exactly — but the static weight is discounted by the
endpoint's backlog, which the gateway keeps itself: the shards planned onto
the endpoint and not yet finished.  A congested endpoint thus receives less
of each new batch instead of stretching its queue further, and a shard still
waiting for its endpoint moves to a serving endpoint that holds none of the
gateway's shards — so a replica that joins mid-burst takes work admitted
before it existed.  The gateway never asks an endpoint for its load — no
``info`` poll, no background thread: a gateway-fronted server is expected to
serve that gateway alone (every deployment in this package does), so its
queue holds nothing the gateway has not already counted.  A shard that an
overloaded or draining server *sheds* (structured ``overloaded`` /
``draining`` error) is retried on the least-loaded sibling endpoint within
the request's :class:`~repro.serve.retry.RetryBudget` (jittered backoff
between hops; exhaustion surfaces as a structured
:class:`~repro.serve.retry.RetryBudgetExhausted`).

One rule says how an endpoint is called.  A target with ``submit`` is a
*pipelined* endpoint: it gets ``submit(request)`` — or
``submit(request, deadline_s=...)`` when the request has a deadline — and
hands back a cancellable :class:`~concurrent.futures.Future`.  Any other
target is *local* and gets ``infer(request)``: it computes at once, so a
deadline has nothing to shed there.  A request deadline runs from
:meth:`InferenceGateway.submit`, not from each hop: every pipelined attempt
is sent only the time that remains (time spent waiting for the endpoint or
backing off after a shed counts), and an attempt with no time left is not
sent at all but fails with a structured ``deadline_exceeded`` error.

The gateway also mitigates *stragglers*: with hedging enabled
(``hedge_after_s``), a shard whose wait exceeds that threshold is
**hedged** — duplicated to the least-loaded serving sibling.  The first attempt to finish wins the shard; the loser is
cancelled best-effort (over the wire via the ``cancel`` op, tagged
``reason="hedge"``, when the endpoint hands out cancellable futures), and a
losing attempt that still completes is counted as wasted compute.  Hedging
is exact for the same reason shed-retry is: shards are deterministic,
idempotent functions of their absolute sample range, so whichever attempt
wins returns bit-identical numbers.  A hedge never fires past the request
deadline, and a failed hedge cancel never fails the request.  Because every
shard carries its absolute ``sample_offset`` and every endpoint derives
spike trains from the same shard-stable
:class:`~repro.snn.encoding.EncoderState` seeding, the merged response is
result-identical to running the whole batch on any single endpoint — any
placement the load feedback picks yields the same numbers — provided the
endpoints serve the *same workload* (same SNN, config, seed, encoder and
timesteps), which is the operator's contract.

The gateway is **non-blocking**: :meth:`InferenceGateway.submit` dispatches
every shard concurrently and returns a :class:`concurrent.futures.Future`
immediately.  The gateway counts shard completions as they arrive and
folds them once the last one lands; the first shard failure resolves the
future with an error naming the endpoint instead of hanging the merge on the
survivors.
Multiple batches may be in flight at once; a per-endpoint lock keeps each
endpoint serving one shard at a time (endpoints own their internal
concurrency), so successive batches pipeline across endpoints instead of
running lock-step.

Membership is **dynamic**: :meth:`InferenceGateway.add_endpoint`,
:meth:`~InferenceGateway.drain_endpoint` and
:meth:`~InferenceGateway.remove_endpoint` change the fleet while batches are
in flight.  A shard plan holds direct references to its endpoints, so
in-flight batches complete against the endpoints they were planned on — or,
for a shard that was still waiting, against the idle endpoint it moved to;
the next ``submit()`` sees the updated membership.  Draining endpoints are
skipped by the planner (and by shed-retry and moves) but keep serving the
shards already placed on them — exactly the handshake a fleet controller
needs to retire a replica without failing work.

The merge is :meth:`~repro.serve.schema.InferenceResponse.merge`, the one
exact fold the pool uses too: predictions and spike counts concatenate
per-sample, event counters sum, and the energy report is the component-wise
sum of the shard reports.  Shards fold in plan order regardless of
completion order, so the merged numbers are deterministic.
"""

from __future__ import annotations

import contextlib
import threading
import time
from concurrent.futures import (
    CancelledError,
    Future,
    InvalidStateError,
    ThreadPoolExecutor,
)
from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.serve.distributed.client import RemoteServerError
from repro.serve.metrics import (
    PHASE_MERGE,
    MetricsRegistry,
    get_default_registry,
    merge_phases,
    record_phase,
)
from repro.serve.retry import RetryBudget, RetryBudgetExhausted
from repro.serve.schema import (
    ERROR_DEADLINE_EXCEEDED,
    ERROR_DRAINING,
    ERROR_OVERLOADED,
    InferenceRequest,
    InferenceResponse,
    shard_bounds,
)

__all__ = ["GatewayEndpoint", "InferenceGateway"]

#: Structured server errors that make a shard eligible for retry on a
#: sibling endpoint (the server refused the work without starting it).
_SHED_RETRY_CODES = frozenset({ERROR_OVERLOADED, ERROR_DRAINING})

#: Default retry budget of a request that carries none: shed/``draining``
#: retries per planned shard (pooled across the request), and the jittered
#: backoff between hops (first hop about the base, doubling up to the cap).
_RETRY_ATTEMPTS = 1
_RETRY_BACKOFF_BASE_S = 0.02
_RETRY_BACKOFF_CAP_S = 0.5

#: Floor on the hedge threshold: hedging sub-millisecond "stragglers" would
#: duplicate nearly every shard.
_HEDGE_FLOOR_S = 1e-3


@dataclass
class GatewayEndpoint:
    """One inference target behind the gateway, with its sharding weight.

    ``capacity`` defaults to the target's own ``capacity`` attribute (a
    :class:`PipelinedSession` reports its server's worker count), then to its
    ``jobs`` attribute (a local pool), then to 1.  An explicit capacity must
    be positive — a zero-capacity endpoint could never receive a shard.

    The gateway additionally keeps per-endpoint books: how many of its own
    shards are currently on the endpoint (``inflight``, the backlog that
    discounts the static capacity during adaptive sharding), and how many
    shards the endpoint straggled on (``hedges``) or shed (``sheds``).
    """

    target: object
    capacity: float | None = None
    name: str = ""
    #: Serialises this endpoint's shards across in-flight gateway batches.
    lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )
    #: Gateway shards planned onto this endpoint and not yet finished
    #: (queued behind the endpoint lock, executing, or mid-retry).
    inflight: int = field(default=0, init=False, repr=False, compare=False)
    #: Draining (graceful retirement): the planner, shed-retry and moves
    #: skip this endpoint, but shards already placed on it run to completion.
    draining: bool = field(default=False, init=False, repr=False, compare=False)
    #: Hedges issued *against* this endpoint (its shard straggled and was
    #: duplicated elsewhere) — a fleet controller's slow-replica signal.
    hedges: int = field(default=0, init=False, repr=False, compare=False)
    #: Shard attempts this endpoint refused with a structured ``overloaded``
    #: error — a fleet controller's saturation signal.  ``draining``
    #: refusals are a scale-down in progress, not load, and do not count.
    sheds: int = field(default=0, init=False, repr=False, compare=False)
    #: True when ``name`` was derived from the target's type: the gateway
    #: may then suffix it to keep endpoint names unique.
    auto_named: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not hasattr(self.target, "infer"):
            raise TypeError(
                f"gateway endpoint target must provide infer(); got "
                f"{type(self.target).__name__}"
            )
        if self.capacity is None:
            self.capacity = float(
                getattr(self.target, "capacity", 0)
                or getattr(self.target, "jobs", 0)
                or 1
            )
        self.capacity = float(self.capacity)
        if self.capacity <= 0:
            raise ValueError(f"endpoint capacity must be > 0, got {self.capacity}")
        if not self.name:
            self.name = type(self.target).__name__.lower()
            self.auto_named = True


@dataclass
class _ShardPlan:
    endpoint: GatewayEndpoint
    start: int
    stop: int
    response: InferenceResponse | None = field(default=None, repr=False)
    #: Name of the endpoint originally planned, when the shard was shed
    #: there and re-ran on ``endpoint`` instead.
    retried_from: str | None = None
    #: Sibling a hedge duplicate was dispatched to (set when it fires).
    hedged_to: str | None = None
    #: Straggler endpoint a *winning* hedge rescued this shard from.
    hedged_from: str | None = None
    #: Shed retries this shard consumed from the request's budget.
    retries: int = 0


class _MergeState:
    """Collects a request's shard completions and folds them into one response."""

    def __init__(
        self,
        gateway: "InferenceGateway",
        request: InferenceRequest,
        plan: list[_ShardPlan],
        result: Future,
    ):
        self.gateway = gateway
        self.request = request
        self.plan = plan
        self.result = result
        self.lock = threading.Lock()
        self.remaining = len(plan)
        self.resolved = False
        self.shard_futures: list[Future] = []

    def shard_done(self, shard: _ShardPlan, future: Future) -> None:
        try:
            self._absorb(shard, future)
        except Exception as exc:  # noqa: BLE001 - the caller only sees the future
            # A merge failure (say, endpoints serving different output
            # widths) must surface on the result, never vanish into the
            # callback machinery and leave the caller hanging.
            with self.lock:
                self.resolved = True
            try:
                self.result.set_exception(exc)
            except InvalidStateError:
                pass

    def _absorb(self, shard: _ShardPlan, future: Future) -> None:
        if future.cancelled():
            return
        exc = future.exception()
        if exc is not None:
            # First failure wins: surface it now, cancel what has not
            # started, and let the in-flight survivors finish idle.
            with self.lock:
                if self.resolved:
                    return
                self.resolved = True
                siblings = [f for f in self.shard_futures if f is not future]
            # Outside the lock: cancelling a pending future runs its
            # done-callback (this method, for the sibling shard) inline on
            # this very thread, which must not find the lock held.
            for other in siblings:
                other.cancel()
            if isinstance(exc, RetryBudgetExhausted):
                # Already a structured, self-describing error (attempts,
                # retries, chained cause): surface it unwrapped so callers
                # can branch on the type.
                self.result.set_exception(exc)
                return
            error = RuntimeError(
                f"gateway endpoint {shard.endpoint.name!r} failed on "
                f"shard [{shard.start}:{shard.stop}): "
                f"{type(exc).__name__}: {exc}"
            )
            # Chained, so callers can still read a structured ``code``.
            error.__cause__ = exc
            self.result.set_exception(error)
            return
        response: InferenceResponse = future.result()
        with self.lock:
            if self.resolved:
                return
            shard.response = response
            self.remaining -= 1
            if self.remaining > 0:
                return
            self.resolved = True
        self._finalise()

    def _finalise(self) -> None:
        merge_started = time.monotonic()
        plan, request = self.plan, self.request
        responses = [shard.response for shard in plan]
        # The plan is in sample order, so the fold is deterministic whatever
        # order the shards completed in.
        merged = InferenceResponse.merge(request, responses)
        metadata: dict[str, object] = {
            "gateway": self.gateway.name,
            "shards": [
                {
                    "endpoint": shard.endpoint.name,
                    "start": shard.start,
                    "stop": shard.stop,
                    "jobs": shard.response.jobs,
                    **(
                        {"retried_from": shard.retried_from}
                        if shard.retried_from is not None
                        else {}
                    ),
                    **({"retries": shard.retries} if shard.retries else {}),
                    **(
                        {"hedged_to": shard.hedged_to}
                        if shard.hedged_to is not None
                        else {}
                    ),
                    **(
                        {"hedged_from": shard.hedged_from}
                        if shard.hedged_from is not None
                        else {}
                    ),
                }
                for shard in plan
            ],
        }
        # Shards ran concurrently, so the merged request's phase spans
        # follow the critical path: per phase, the slowest shard's span.
        # The gateway's own merge work is then added on top.
        merge_phases(metadata, [r.metadata for r in responses])
        merge_s = time.monotonic() - merge_started
        record_phase(metadata, PHASE_MERGE, merge_s)
        self.gateway._m_merge.observe(merge_s)
        self.result.set_result(replace(merged, metadata=metadata))


class _ShardAttempt:
    """One dispatch of a shard onto one endpoint (primary or hedge)."""

    __slots__ = ("endpoint", "hedge", "task", "wire_future", "ended", "refused")

    def __init__(self, endpoint: GatewayEndpoint, *, hedge: bool):
        self.endpoint = endpoint
        self.hedge = hedge
        #: Endpoints that shed this attempt: it never moves back to them.
        self.refused: list[GatewayEndpoint] = []
        #: The dispatch pool task running this attempt (cancellable only
        #: while still queued).
        self.task: Future | None = None
        #: The endpoint's in-flight cancellable future, while blocked on it.
        self.wire_future: Future | None = None
        #: Set exactly once, when the attempt's inflight charge is released.
        self.ended = False


class _ShardRun:
    """One shard's dispatch lifecycle: primary attempt, hedge, budget retries.

    Every attempt is an independent dispatch-pool task; the run resolves
    ``result`` (what the merge consumes) with whichever attempt finishes
    first.  Nothing here ever blocks on another pool task, so hedging adds
    load to the pool but can never deadlock it.  The straggler timer fires
    on its own daemon thread and only *schedules* the hedge.
    """

    def __init__(
        self,
        gateway: "InferenceGateway",
        shard: _ShardPlan,
        sub_request: InferenceRequest,
        deadline_s: float | None,
        budget: RetryBudget,
        result: Future,
    ):
        self.gateway = gateway
        self.shard = shard
        self.sub_request = sub_request
        self.deadline_s = deadline_s
        self.budget = budget
        self.result = result
        self.lock = threading.Lock()
        self.attempts: list[_ShardAttempt] = []
        self.winner: _ShardAttempt | None = None
        self.hedged = False
        self.timer: threading.Timer | None = None
        #: ``time.monotonic()`` at dispatch; the request deadline runs from
        #: here, not from the primary's start (it may still be queued).
        self.started_at = 0.0

    # -- launch -------------------------------------------------------------------

    def start(self) -> None:
        """Dispatch the primary attempt and arm the straggler timer.

        The hedge timer is armed only when a threshold exists *and* it
        precedes the request deadline: past the deadline the server has
        already shed the primary, so a duplicate could never win — a hedge
        never fires past the request deadline.
        """
        self.started_at = time.monotonic()
        primary = _ShardAttempt(self.shard.endpoint, hedge=False)
        with self.lock:
            self.attempts.append(primary)
        threshold = self.gateway.hedge_threshold()
        if threshold is not None and (
            self.deadline_s is None or threshold < self.deadline_s
        ):
            self.timer = threading.Timer(threshold, self._fire_hedge)
            self.timer.daemon = True
            self.timer.start()
        primary.task = self.gateway._threads.submit(self._run_attempt, primary)

    def abandon(self) -> None:
        """The merged request no longer wants this shard; revoke best-effort."""
        if self.timer is not None:
            self.timer.cancel()
        with self.lock:
            pending = [a for a in self.attempts if not a.ended]
        for attempt in pending:
            if self.gateway._cancel_attempt(attempt):
                self._end_attempt(attempt)

    # -- hedging ------------------------------------------------------------------

    def _fire_hedge(self) -> None:
        """Timer body: duplicate the straggling shard onto a sibling."""
        with self.lock:
            if self.winner is not None or self.hedged or self.result.done():
                return
            primary = self.attempts[0]
            attempted = [a.endpoint for a in self.attempts]
        if self.deadline_s is not None:
            # Re-check at fire time: an early timer must still never hedge
            # work the deadline has already condemned.
            if time.monotonic() - self.started_at >= self.deadline_s:
                return
        sibling = self.gateway._fallback_for(primary.endpoint, exclude=attempted)
        if sibling is None:
            return
        attempt = _ShardAttempt(sibling, hedge=True)
        with self.lock:
            if self.winner is not None or self.result.done():
                return
            self.hedged = True
            self.attempts.append(attempt)
        self.shard.hedged_to = sibling.name
        with self.gateway._load_lock:
            sibling.inflight += 1
            primary.endpoint.hedges += 1
        self.gateway._count_tail("hedges_issued", self.gateway._m_hedges)
        try:
            attempt.task = self.gateway._threads.submit(self._run_attempt, attempt)
        except RuntimeError:  # gateway closed under the timer
            self._end_attempt(attempt)

    # -- attempt execution --------------------------------------------------------

    def _run_attempt(self, attempt: _ShardAttempt) -> None:
        with self.lock:
            already_won = self.winner is not None
        if already_won:  # lost before ever starting (pool queue)
            self._attempt_cancelled(attempt)
            return
        deadline_at = (
            None if self.deadline_s is None else self.started_at + self.deadline_s
        )
        while True:
            try:
                response = self.gateway._infer_on_attempt(
                    attempt, self.sub_request, deadline_at
                )
            except CancelledError:
                self._attempt_cancelled(attempt)
                return
            except RemoteServerError as exc:
                error: BaseException = exc
                if exc.code == ERROR_OVERLOADED:
                    with self.gateway._load_lock:
                        attempt.endpoint.sheds += 1
                if exc.code in _SHED_RETRY_CODES:
                    attempt.refused.append(attempt.endpoint)
                    with self.lock:
                        won = self.winner is not None
                    if not won:
                        moved = self._shed_retry(attempt, exc)
                        if moved is None:
                            continue
                        error = moved
                self._attempt_failed(attempt, error)
                return
            except BaseException as exc:  # noqa: BLE001 - routed into the future
                self._attempt_failed(attempt, exc)
                return
            self._attempt_finished(attempt, response)
            return

    def _shed_retry(
        self, attempt: _ShardAttempt, exc: RemoteServerError
    ) -> BaseException | None:
        """Move a shed attempt to a sibling within the request's budget.

        Returns ``None`` when the attempt moved (caller loops and re-runs),
        else the error to surface — the original shed error when no sibling
        is available, or the structured budget-exhaustion error.
        """
        with self.lock:
            attempted = [a.endpoint for a in self.attempts if a is not attempt]
        fallback = self.gateway._fallback_for(attempt.endpoint, exclude=attempted)
        if fallback is None:
            return exc
        consumed = self.budget.try_consume()
        if consumed is None:
            self.gateway._count_tail(
                "budget_exhausted", self.gateway._m_budget_exhausted
            )
            return self.budget.exhausted(exc)
        # Jittered backoff before the hop: an overloaded fleet being
        # hammered by synchronized immediate retries stays overloaded.
        time.sleep(self.budget.backoff_s(consumed))
        with self.gateway._load_lock:
            attempt.endpoint.inflight -= 1
            fallback.inflight += 1
            self.gateway._load_lock.notify_all()
        with self.lock:
            if not attempt.hedge and self.shard.retried_from is None:
                self.shard.retried_from = attempt.endpoint.name
            self.shard.retries += 1
            attempt.endpoint = fallback
        self.gateway._count_tail("retries", self.gateway._m_retries)
        return None

    # -- attempt outcomes ---------------------------------------------------------

    def _end_attempt(self, attempt: _ShardAttempt) -> None:
        """Release the attempt's inflight charge (idempotent)."""
        with self.lock:
            if attempt.ended:
                return
            attempt.ended = True
        with self.gateway._load_lock:
            attempt.endpoint.inflight -= 1
            self.gateway._load_lock.notify_all()

    def _attempt_finished(
        self, attempt: _ShardAttempt, response: InferenceResponse
    ) -> None:
        self._end_attempt(attempt)
        with self.lock:
            if self.winner is not None:
                # Lost the race but computed a full answer anyway: the
                # cancel could not save this work.
                wasted = True
                losers: list[_ShardAttempt] = []
            else:
                self.winner = attempt
                wasted = False
                losers = [a for a in self.attempts if a is not attempt and not a.ended]
        if wasted:
            self.gateway._count_tail("hedge_wasted_compute", self.gateway._m_wasted)
            return
        if self.timer is not None:
            self.timer.cancel()
        for loser in losers:
            # Best-effort: a failed cancel must never fail the request.
            if self.gateway._cancel_attempt(loser):
                self._end_attempt(loser)
        if attempt.hedge:
            self.shard.hedged_from = self.attempts[0].endpoint.name
            self.gateway._count_tail("hedge_wins", self.gateway._m_hedge_wins)
        self.shard.endpoint = attempt.endpoint
        with contextlib.suppress(InvalidStateError):
            self.result.set_result(response)

    def _attempt_failed(self, attempt: _ShardAttempt, exc: BaseException) -> None:
        self._end_attempt(attempt)
        with self.lock:
            if self.winner is not None:
                # A loser failing after the win (typically: its cancel
                # landed server-side as a structured ``cancelled`` error)
                # is the hedge working as intended.
                return
            if any(not a.ended for a in self.attempts if a is not attempt):
                # A sibling attempt is still live; give it the chance to
                # win before surfacing anything.
                return
        with contextlib.suppress(InvalidStateError):
            self.result.set_exception(exc)

    def _attempt_cancelled(self, attempt: _ShardAttempt) -> None:
        self._end_attempt(attempt)
        with self.lock:
            if self.winner is not None:
                return
            if any(not a.ended for a in self.attempts if a is not attempt):
                return
        # Every attempt revoked with no winner: the request abandoned us.
        self.result.cancel()


class InferenceGateway:
    """Fan batches out across endpoints and merge the responses exactly.

    Parameters
    ----------
    adaptive:
        When True (default), sharding weights are the endpoints' *effective*
        capacities — the static weight discounted by the endpoint's backlog
        (the gateway's own shards planned onto it and not yet finished):
        ``capacity / (1 + backlog)``.  Idle endpoints keep their static
        weights exactly, so a quiet gateway plans the same shards the
        static planner did.  A shard waiting for its busy endpoint also
        moves to any serving endpoint with no backlog at all.  Any
        placement is result-identical (sharding is exact), so adaptivity
        changes placement, never numbers; False pins every shard to the
        static capacity plan.
    hedge_after_s:
        Straggler threshold (floored at :data:`_HEDGE_FLOOR_S`): a shard
        still unfinished after this many seconds is duplicated onto the
        least-loaded serving sibling; the first attempt to finish wins, the
        loser is cancelled best-effort.  ``None`` (default) disables
        hedging.

    A request that carries no :class:`RetryBudget` gets a pooled one of
    :data:`_RETRY_ATTEMPTS` shed/``draining`` retries per planned shard,
    with jittered backoff from :data:`_RETRY_BACKOFF_BASE_S` up to
    :data:`_RETRY_BACKOFF_CAP_S` between hops.
    """

    def __init__(
        self,
        endpoints: Sequence[GatewayEndpoint | object],
        *,
        name: str = "gateway",
        adaptive: bool = True,
        registry: MetricsRegistry | None = None,
        hedge_after_s: float | None = None,
    ):
        if not endpoints:
            raise ValueError("gateway needs at least one endpoint")
        if hedge_after_s is not None and hedge_after_s <= 0:
            raise ValueError(f"hedge_after_s must be > 0, got {hedge_after_s}")
        self.name = name
        self.adaptive = adaptive
        self.hedge_after_s = hedge_after_s
        self.metrics = registry if registry is not None else get_default_registry()
        self._m_requests = self.metrics.counter(
            "repro_gateway_requests_total", "batches submitted"
        )
        self._m_shards = self.metrics.counter(
            "repro_gateway_shards_total", "shards planned"
        )
        self._m_retries = self.metrics.counter(
            "repro_gateway_retries_total", "shards retried on a sibling"
        )
        self._m_hedges = self.metrics.counter(
            "repro_gateway_hedges_issued_total",
            "straggling shards duplicated onto a sibling",
        )
        self._m_hedge_wins = self.metrics.counter(
            "repro_gateway_hedge_wins_total",
            "shards won by the hedged duplicate",
        )
        self._m_wasted = self.metrics.counter(
            "repro_gateway_hedge_wasted_compute_total",
            "losing attempts that still computed a full response",
        )
        self._m_budget_exhausted = self.metrics.counter(
            "repro_gateway_budget_exhausted_total",
            "shards failed by an exhausted retry budget",
        )
        self._m_merge = self.metrics.histogram(
            "repro_gateway_merge_seconds", "shard merge wall per request"
        )
        # Plain-int mirrors of the tail counters: load-bearing (controller
        # signals, tests, benches) even when the metrics registry is the
        # process-wide disabled default.  Guarded by _load_lock.
        self._tail = {
            "hedges_issued": 0,
            "hedge_wins": 0,
            "hedge_wasted_compute": 0,
            "retries": 0,
            "budget_exhausted": 0,
        }
        self._endpoints: list[GatewayEndpoint] = []
        for e in endpoints:
            self._join(e if isinstance(e, GatewayEndpoint) else GatewayEndpoint(target=e))
        # Guards membership changes (add/remove/drain) against concurrent
        # planners; planners work on snapshots, so holding it is brief.
        self._membership_lock = threading.Lock()
        # Guards the per-endpoint books (inflight, hedges, sheds) and the
        # tail counters (the endpoint `lock` is held for whole inferences —
        # too coarse here).  Notified whenever an endpoint may have freed
        # up: its lock released, its backlog shrunk, or a new one joined.
        self._load_lock = threading.Condition()
        #: Attempts waiting for an endpoint, in arrival order (guarded by
        #: _load_lock): each endpoint goes to the earliest one that can take it.
        self._waiting: list[_ShardAttempt] = []
        # Sized for several batches in flight: shards of batch k+1 queue up
        # behind the per-endpoint locks while batch k still computes.
        self._threads = ThreadPoolExecutor(
            max_workers=max(4, 2 * len(self._endpoints)),
            thread_name_prefix="gateway",
        )
        self._closed = False

    # -- lifecycle ----------------------------------------------------------------

    def close(self, *, close_endpoints: bool = False) -> None:
        """Shut down the dispatch threads; optionally the endpoints too."""
        if not self._closed:
            self._closed = True
            self._threads.shutdown(wait=True)
        if close_endpoints:
            for endpoint in self.endpoints:
                closer = getattr(endpoint.target, "close", None)
                if callable(closer):
                    closer()

    def __enter__(self) -> "InferenceGateway":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- membership ---------------------------------------------------------------

    @property
    def endpoints(self) -> list[GatewayEndpoint]:
        """Snapshot of the current membership (copy; mutation-safe)."""
        with self._membership_lock:
            return list(self._endpoints)

    def add_endpoint(
        self,
        target: GatewayEndpoint | object,
        *,
        capacity: float | None = None,
        name: str | None = None,
    ) -> GatewayEndpoint:
        """Join an endpoint to the fleet; the next ``submit()`` can use it.

        An adaptive gateway also moves shards still waiting on a busy
        endpoint here while it has nothing else to do; other in-flight work
        keeps its plan.  Endpoint names are unique (see :meth:`_join`).
        """
        endpoint = (
            target
            if isinstance(target, GatewayEndpoint)
            else GatewayEndpoint(target=target, capacity=capacity, name=name or "")
        )
        with self._membership_lock:
            if self._closed:
                raise RuntimeError("gateway is closed")
            self._join(endpoint)
            # Keep ~2 dispatch threads available per endpoint.  stdlib pools
            # have no public resize; raising the cap is how they grow (the
            # attribute is stable across supported CPythons).
            self._threads._max_workers = max(
                self._threads._max_workers, 4, 2 * len(self._endpoints)
            )
        # Shards waiting on a busy endpoint may move here (adaptive).
        with self._load_lock:
            self._load_lock.notify_all()
        return endpoint

    def _join(self, endpoint: GatewayEndpoint) -> None:
        """Append ``endpoint`` under a name no other member holds.

        Names are what :meth:`drain_endpoint`, :meth:`remove_endpoint` and
        :meth:`endpoint_loads` address, so they must be unique: an explicit
        duplicate raises, and a name derived from the target's type gets
        the first free ``-2``, ``-3``, ... suffix.
        """
        taken = {e.name for e in self._endpoints}
        if endpoint.name in taken:
            if not endpoint.auto_named:
                raise ValueError(
                    f"gateway already has an endpoint named {endpoint.name!r}"
                )
            base, suffix = endpoint.name, 2
            while f"{base}-{suffix}" in taken:
                suffix += 1
            endpoint.name = f"{base}-{suffix}"
        self._endpoints.append(endpoint)

    def drain_endpoint(self, name: str) -> GatewayEndpoint:
        """Stop planning new shards onto ``name`` (in-flight work finishes).

        The scale-down handshake: drain here first, then drain the server
        (it answers everything already admitted), then
        :meth:`remove_endpoint` once it exits.
        """
        with self._membership_lock:
            for endpoint in self._endpoints:
                if endpoint.name == name:
                    endpoint.draining = True
                    return endpoint
        raise KeyError(f"gateway has no endpoint named {name!r}")

    def remove_endpoint(self, name: str) -> GatewayEndpoint:
        """Leave the fleet.  In-flight plans still complete against it."""
        with self._membership_lock:
            for index, endpoint in enumerate(self._endpoints):
                if endpoint.name == name:
                    del self._endpoints[index]
                    return endpoint
        raise KeyError(f"gateway has no endpoint named {name!r}")

    def _serving_endpoints(self) -> list[GatewayEndpoint]:
        """Endpoints new shards may be planned onto (non-draining)."""
        with self._membership_lock:
            return [e for e in self._endpoints if not e.draining]

    # -- load tracking ------------------------------------------------------------

    def endpoint_loads(self) -> dict[str, dict[str, object]]:
        """Per-endpoint books snapshot (no I/O; safe to call from anywhere).

        What a fleet controller samples: the ``backlog`` (the gateway's own
        count of shards planned onto the endpoint and not yet finished),
        the draining flag, and the cumulative ``hedges`` (shards that
        straggled here) and ``sheds`` (shard attempts refused as
        ``overloaded``) counters.
        """
        snapshot = self.endpoints
        loads: dict[str, dict[str, object]] = {}
        with self._load_lock:
            for endpoint in snapshot:
                loads[endpoint.name] = {
                    "backlog": int(endpoint.inflight),
                    "draining": bool(endpoint.draining),
                    "hedges": int(endpoint.hedges),
                    "sheds": int(endpoint.sheds),
                }
        return loads

    def _effective_capacity(self, endpoint: GatewayEndpoint) -> float:
        """Static weight discounted by backlog (equal to it when idle)."""
        if not self.adaptive:
            return float(endpoint.capacity)
        return float(endpoint.capacity) / (1.0 + endpoint.inflight)

    # -- sharding -----------------------------------------------------------------

    @property
    def total_capacity(self) -> float:
        """Sum of the static capacities of the serving (non-draining) fleet."""
        return float(sum(e.capacity for e in self._serving_endpoints()))

    def shard_plan(self, batch: int) -> list[_ShardPlan]:
        """Load-aware contiguous shards covering ``[0, batch)`` exactly.

        :func:`~repro.serve.schema.shard_bounds` (the pool's split rule too)
        weights the endpoints by their effective capacities (static capacity
        discounted by backlog; see the class docstring) — on idle
        endpoints this is exactly the static capacity plan.  Endpoints whose
        rounded share is empty (small batches, heavy backlog) are skipped
        rather than sent degenerate requests.  Draining endpoints never
        appear in a new plan.  A single-endpoint plan degenerates to one
        whole-batch shard — no splitting, just the dispatch/merge envelope.
        """
        endpoints = self._serving_endpoints()
        if not endpoints:
            raise RuntimeError(
                f"gateway {self.name!r} has no serving endpoints (every "
                f"endpoint was removed or is draining)"
            )
        weights = [self._effective_capacity(e) for e in endpoints]
        plan = [
            _ShardPlan(endpoint=endpoint, start=start, stop=stop)
            for endpoint, (start, stop) in zip(endpoints, shard_bounds(batch, weights))
            if stop > start
        ]
        return plan

    # -- tail-latency accounting ----------------------------------------------------

    def _count_tail(self, key: str, metric) -> None:
        """Bump one tail counter in both the registry and the plain mirror."""
        with self._load_lock:
            self._tail[key] += 1
        metric.inc()

    def tail_stats(self) -> dict[str, int]:
        """Cumulative tail-latency counters (hedges, retries, exhaustions)."""
        with self._load_lock:
            return dict(self._tail)

    def hedge_threshold(self) -> float | None:
        """Straggler threshold in seconds, or None when not hedging.

        ``hedge_after_s`` floored at :data:`_HEDGE_FLOOR_S`.
        """
        if self.hedge_after_s is None:
            return None
        return max(self.hedge_after_s, _HEDGE_FLOOR_S)

    # -- inference ----------------------------------------------------------------

    def _claim_endpoint(self, attempt: _ShardAttempt) -> GatewayEndpoint:
        """Wait in line for the attempt's endpoint — or move to an idle one.

        Attempts take endpoints in arrival order: none overtakes an earlier
        one waiting for the same endpoint.  A waiting shard is not bound to
        its endpoint either: when the gateway is adaptive and another
        serving endpoint holds none of its shards (typically a replica that
        joined after the plan was made), the earliest attempt that may run
        there moves, inflight charge and all.  An idle endpoint holds no
        attempt of this shard, so a move never doubles one up.  Placement
        changes, numbers do not: shards are exact wherever they run.
        """
        with self._load_lock:
            self._waiting.append(attempt)
            try:
                while True:
                    endpoint = self._grant(attempt)
                    if endpoint is not None:
                        return endpoint
                    self._load_lock.wait()
            finally:
                self._waiting.remove(attempt)
                # Whoever queued behind this attempt may be next in line.
                self._load_lock.notify_all()

    def _grant(self, attempt: _ShardAttempt) -> GatewayEndpoint | None:
        """The endpoint ``attempt`` may run on now, locked, or None."""
        ahead = self._waiting[: self._waiting.index(attempt)]
        endpoint = attempt.endpoint
        if all(a.endpoint is not endpoint for a in ahead) and endpoint.lock.acquire(
            blocking=False
        ):
            return endpoint
        if not self.adaptive:
            return None
        for idle in self._serving_endpoints():
            if (
                idle.inflight == 0
                and all(idle is not e for e in attempt.refused)
                and all(any(idle is e for e in a.refused) for a in ahead)
                and idle.lock.acquire(blocking=False)
            ):
                endpoint.inflight -= 1
                idle.inflight += 1
                attempt.endpoint = idle
                return idle
        return None

    def _infer_on_attempt(
        self,
        attempt: _ShardAttempt,
        sub_request: InferenceRequest,
        deadline_at: float | None,
    ) -> InferenceResponse:
        # One shard at a time per endpoint: endpoints own their internal
        # concurrency (pools shard further, pipelined remotes pipeline),
        # and most targets' infer() is not reentrant.  The inflight counter
        # is maintained by plan-time accounting and the attempt lifecycle,
        # not here, so queued-but-unstarted shards count too.
        endpoint = self._claim_endpoint(attempt)
        try:
            # Looked up per call, so wrappers installed on the target after
            # the gateway was built still apply.
            submit = getattr(endpoint.target, "submit", None)
            if submit is None:
                # Local targets compute at once: no deadline to shed.
                return endpoint.target.infer(sub_request)
            # Pipelined: the future is a cancellable handle, so an attempt
            # that loses a hedge race can revoke its server-side work and
            # unblock this worker with CancelledError.
            if deadline_at is None:
                future = submit(sub_request)
            else:
                remaining = deadline_at - time.monotonic()
                if remaining <= 0:
                    raise RemoteServerError(
                        "deadline expired before the shard was dispatched",
                        code=ERROR_DEADLINE_EXCEEDED,
                    )
                future = submit(sub_request, deadline_s=remaining)
            attempt.wire_future = future
            try:
                return future.result()
            finally:
                attempt.wire_future = None
        finally:
            endpoint.lock.release()
            with self._load_lock:
                self._load_lock.notify_all()

    def _cancel_attempt(self, attempt: _ShardAttempt) -> bool:
        """Best-effort revocation of a losing attempt; never raises.

        Still queued in the dispatch pool → the task is cancelled outright;
        returns True so the caller releases its inflight charge (the task
        will never run to release it itself).  Blocked on a cancellable
        endpoint future → that future is cancelled with ``reason="hedge"``,
        which revokes the server-side work and unblocks the worker.
        Anything else (a blocking ``infer`` mid-compute) runs to completion
        and is counted as wasted compute when it lands.
        """
        task = attempt.task
        if task is not None and task.cancel():
            return True
        wire_future = attempt.wire_future
        if wire_future is not None:
            with contextlib.suppress(Exception):
                wire_future.cancel_reason = "hedge"
                wire_future.cancel()
        return False

    def _fallback_for(
        self,
        shed: GatewayEndpoint,
        exclude: Sequence[GatewayEndpoint] = (),
    ) -> GatewayEndpoint | None:
        """The least-backlogged *other* serving endpoint, or None when alone.

        ``exclude`` names further endpoints to avoid — a hedge must not
        land on an endpoint already attempting this very shard.
        """
        excluded = {id(e) for e in exclude}
        excluded.add(id(shed))
        candidates = [
            e for e in self._serving_endpoints() if id(e) not in excluded
        ]
        if not candidates:
            return None
        # Least backlog first; static capacity breaks ties (deterministic:
        # min() keeps the earliest endpoint on full ties).
        return min(candidates, key=lambda e: (e.inflight, -e.capacity))

    def submit(
        self, request: InferenceRequest, *, deadline_s: float | None = None
    ) -> Future:
        """Dispatch one batch without blocking.

        Returns a future resolving to the merged
        :class:`InferenceResponse`.  All endpoint shards go out
        concurrently; the last completion folds them into one response, and
        a shard failure resolves the future immediately with an error naming
        the endpoint.  A shard shed by an overloaded endpoint is retried on the
        least-loaded sibling within the request's retry budget (the
        request's own :class:`RetryBudget` when it carries one, else a
        default pooled budget of :data:`_RETRY_ATTEMPTS` hops per planned
        shard), and a straggling shard is hedged onto a sibling once its
        wait crosses :meth:`hedge_threshold`.  ``deadline_s`` runs from
        this call: pipelined endpoints are sent the time left, an attempt
        with none left fails unsent with ``deadline_exceeded`` (the
        ``__cause__`` of the surfaced error), and local endpoints ignore
        it.  Safe to call again before earlier batches resolve — batches
        pipeline across the endpoints.
        """
        if self._closed:
            raise RuntimeError("gateway is closed")
        plan = self.shard_plan(request.batch_size)
        self._m_requests.inc()
        self._m_shards.inc(len(plan))
        budget = request.retry_budget
        if budget is None:
            budget = RetryBudget(
                1 + _RETRY_ATTEMPTS * len(plan),
                backoff_base_s=_RETRY_BACKOFF_BASE_S,
                backoff_cap_s=_RETRY_BACKOFF_CAP_S,
            )
            # Shards carry the shared budget so endpoint-internal retries
            # (a PipelinedSession resubmitting after a dead connection)
            # draw from the same per-request pool.
            request = request.with_retry_budget(budget)
        result: Future = Future()
        state = _MergeState(self, request, plan, result)
        # Plan-time load accounting: the primary attempt counts against its
        # endpoint from the moment it is planned (queued work is backlog
        # too); each attempt releases its own charge however it ends —
        # completed, failed, or cancelled before it ever ran.
        with self._load_lock:
            for shard in plan:
                shard.endpoint.inflight += 1
        runs = [
            _ShardRun(
                self,
                shard,
                request.shard(shard.start, shard.stop),
                deadline_s,
                budget,
                Future(),
            )
            for shard in plan
        ]
        state.shard_futures.extend(run.result for run in runs)
        for shard, run in zip(plan, runs):
            run.result.add_done_callback(
                lambda done, run=run: run.abandon() if done.cancelled() else None
            )
            run.result.add_done_callback(
                lambda done, shard=shard: state.shard_done(shard, done)
            )
        for run in runs:
            run.start()
        return result

    def infer(
        self, request: InferenceRequest, *, deadline_s: float | None = None
    ) -> InferenceResponse:
        """Shard one request across the endpoints and merge the responses."""
        return self.submit(request, deadline_s=deadline_s).result()

    def infer_many(
        self,
        requests: list[InferenceRequest],
        *,
        deadline_s: float | None = None,
    ) -> list[InferenceResponse]:
        """Pipeline several batches through the endpoints at once.

        The first failure cancels every outstanding future instead of
        abandoning the remaining work in flight on the endpoints.
        """
        futures = [
            self.submit(request, deadline_s=deadline_s) for request in requests
        ]
        try:
            return [future.result() for future in futures]
        except BaseException:
            for future in futures:
                if not future.done():
                    future.cancel()
            raise
