"""ElasticFleet: replicas + autoscaler + dynamic gateway, wired together.

One object owns the whole elastic serving fleet:

* a :class:`~repro.serve.fleet.replica.ReplicaManager` boots/retires
  :class:`~repro.serve.distributed.ChipServer` processes;
* an :class:`~repro.serve.distributed.InferenceGateway` fronts them with
  live membership — scale-up joins the new replica's pipelined client as an
  endpoint, scale-down drains the endpoint first (planner stops using it),
  then drains the server (it answers everything admitted), then removes the
  endpoint once the process exited;
* a :class:`~repro.serve.fleet.controller.FleetController` samples the
  gateway's own per-endpoint books — backlog, shed and hedge counts, kept
  as shards are planned and answered, so the control path makes no RPC —
  and scales within the policy bounds.

Exactness is inherited, not re-proven: membership changes alter shard
*placement* only, and shard-stable encoding makes every placement
result-identical to a single ``ChipSession`` run.

The scale-down handshake is the part worth reading twice
(:meth:`ElasticFleet.scale_down`): gateway drain → server drain → process
join → endpoint removal.  At no point can a planner place new work on the
retiring replica, and the server exits only after answering every admitted
request — so scale-down never fails in-flight work.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future

from repro.serve.distributed.gateway import GatewayEndpoint, InferenceGateway
from repro.serve.fleet.controller import FleetController, FleetPolicy
from repro.serve.fleet.replica import Replica, ReplicaManager, ReplicaSpec
from repro.serve.schema import InferenceRequest, InferenceResponse

__all__ = ["ElasticFleet"]


class ElasticFleet:
    """An autoscaled fleet of chip-server replicas behind one gateway.

    Parameters
    ----------
    spec:
        What every replica runs (:class:`ReplicaSpec`).
    policy:
        Autoscaling policy (:class:`FleetPolicy`); the fleet boots with
        ``min_replicas`` and stays within ``[min_replicas, max_replicas]``.
    start_controller:
        Run the control loop on a background thread (default).  Pass False
        to drive :attr:`controller` manually (deterministic tests).
    hedge_after_s:
        Straggler threshold handed to the gateway (see
        :class:`InferenceGateway`): a shard stuck on a slow replica past
        it is duplicated onto a sibling, first result wins, the loser is
        cancelled over the wire.  Defaults to off.

    Replica processes start with the platform's default
    :mod:`multiprocessing` start method.
    """

    def __init__(
        self,
        spec: ReplicaSpec,
        *,
        policy: FleetPolicy | None = None,
        name: str = "fleet",
        start_controller: bool = True,
        hedge_after_s: float | None = None,
        boot_timeout_s: float = 120.0,
    ):
        self.name = name
        self.policy = policy or FleetPolicy()
        self.manager = ReplicaManager(spec, boot_timeout_s=boot_timeout_s)
        self.started_at = time.time()
        # Serialises scale actions (controller thread vs close()).
        self._scale_lock = threading.RLock()
        self._closed = False
        replicas = [
            self.manager.start_replica() for _ in range(self.policy.min_replicas)
        ]
        self.gateway = InferenceGateway(
            [self._as_endpoint(replica) for replica in replicas],
            name=name,
            hedge_after_s=hedge_after_s,
        )
        self.controller = FleetController(self, self.policy)
        if start_controller:
            self.controller.start()

    @staticmethod
    def _as_endpoint(replica: Replica) -> GatewayEndpoint:
        assert replica.client is not None
        return GatewayEndpoint(target=replica.client, name=replica.replica_id)

    # -- the controller's fleet interface ------------------------------------------

    def replica_count(self) -> int:
        return len(self.manager)

    def load_signals(self) -> list[dict[str, object]]:
        """One load sample per replica for the controller.

        Every number is the gateway's own per-endpoint book, so sampling
        is RPC-free: ``backlog`` is its planned-but-unfinished shard count,
        ``shed`` the shard attempts the replica refused as ``overloaded``,
        and ``hedges`` the shards that straggled there (a slow replica
        draws hedges, which the controller prices into pressure).
        """
        loads = self.gateway.endpoint_loads()
        signals: list[dict[str, object]] = []
        for replica in self.manager.replicas:
            load = loads.get(replica.replica_id)
            if load is None or load["draining"]:
                continue
            signals.append(
                {
                    "replica_id": replica.replica_id,
                    "backlog": float(load["backlog"]),
                    "shed": int(load["sheds"]),
                    "hedges": int(load["hedges"]),
                }
            )
        return signals

    def scale_up(self) -> bool:
        """Boot one replica and join it to the gateway (bounded by policy)."""
        with self._scale_lock:
            if self._closed or len(self.manager) >= self.policy.max_replicas:
                return False
            replica = self.manager.start_replica()
            try:
                self.gateway.add_endpoint(self._as_endpoint(replica))
            except BaseException:
                self.manager.drain_replica(replica, timeout_s=10.0)
                raise
            return True

    def scale_down(self) -> bool:
        """Retire the newest replica without failing any in-flight work.

        The handshake: (1) drain the gateway endpoint — new plans skip it,
        shards already placed keep running; (2) drain the server — it
        answers everything admitted, then exits; (3) join the process;
        (4) remove the endpoint.  Any shard racing the handshake gets the
        structured ``draining`` error and the gateway re-runs it once on a
        serving sibling — exactness holds because shards are idempotent.
        """
        with self._scale_lock:
            if self._closed or len(self.manager) <= self.policy.min_replicas:
                return False
            replica = self.manager.replicas[-1]
            self.gateway.drain_endpoint(replica.replica_id)
            self.manager.drain_replica(replica)
            self.gateway.remove_endpoint(replica.replica_id)
            return True

    # -- serving surface -----------------------------------------------------------

    def submit(
        self, request: InferenceRequest, *, deadline_s: float | None = None
    ) -> Future:
        """Non-blocking dispatch through the gateway (merged-exact future)."""
        return self.gateway.submit(request, deadline_s=deadline_s)

    def infer(
        self, request: InferenceRequest, *, deadline_s: float | None = None
    ) -> InferenceResponse:
        return self.gateway.infer(request, deadline_s=deadline_s)

    def infer_many(
        self,
        requests: list[InferenceRequest],
        *,
        deadline_s: float | None = None,
    ) -> list[InferenceResponse]:
        return self.gateway.infer_many(requests, deadline_s=deadline_s)

    # -- introspection ------------------------------------------------------------

    def fleet_status(self) -> dict[str, object]:
        """Structured snapshot: replicas, gateway loads, controller events."""
        loads = self.gateway.endpoint_loads()
        replicas = []
        for replica in self.manager.replicas:
            entry = replica.status()
            load = loads.get(replica.replica_id)
            if load is not None:
                entry["backlog"] = load["backlog"]
                entry["state"] = "draining" if load["draining"] else "serving"
            replicas.append(entry)
        return {
            "name": self.name,
            "uptime_s": max(0.0, time.time() - self.started_at),
            "replicas": replicas,
            "controller": self.controller.status(),
            # Summed final counters of every replica retired so far (each
            # drain ack's snapshot): scale-down keeps its history.
            "retired_stats": dict(self.manager.retired_stats),
        }

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Stop the controller, drain every replica to zero, close the gateway.

        Clean teardown is part of the drain contract: every replica's
        process must exit with code 0 (its queue answered), which
        :meth:`ReplicaManager.stop_all` enforces.
        """
        with self._scale_lock:
            if self._closed:
                return
            self._closed = True
        self.controller.close()
        try:
            for replica in self.manager.replicas:
                replica_load = self.gateway.endpoint_loads().get(replica.replica_id)
                if replica_load is not None:
                    self.gateway.drain_endpoint(replica.replica_id)
            self.manager.stop_all()
        finally:
            self.gateway.close()

    def __enter__(self) -> "ElasticFleet":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
