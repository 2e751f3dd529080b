"""Elastic fleet: replica lifecycle, autoscaling loop, dynamic membership.

This package turns the static serving stack into an *elastic* one.  Three
cooperating parts, each usable on its own:

* :mod:`repro.serve.fleet.replica` — :class:`ReplicaManager` provisions
  real :class:`~repro.serve.distributed.ChipServer` OS processes from a
  picklable :class:`~repro.serve.distributed.SessionSpec` (the pool's
  worker-process provisioning path), health-checks them via ping, and retires
  them through the graceful ``drain`` wire op: the server stops admitting
  work, finishes its queue, answers everything it owes, then exits — no
  in-flight request is ever failed by a scale-down.
* :mod:`repro.serve.fleet.controller` — :class:`FleetController` samples
  per-replica load on an interval, maintains EWMA backlog + shed-rate
  signals, and applies a hysteresis policy (:class:`FleetPolicy`): scale up
  on sustained pressure above target, scale down after a sustained idle
  window, min/max bounds, cooldown between actions.  Deterministic under an
  injected clock; every decision is a structured event.
* :mod:`repro.serve.fleet.fleet` — :class:`ElasticFleet` wires both to a
  :class:`~repro.serve.distributed.InferenceGateway` whose membership
  changes live (``add_endpoint`` / ``drain_endpoint`` /
  ``remove_endpoint``), so the fleet grows and shrinks mid-stream while
  merged results stay bit-identical to a single ``ChipSession``.

``python -m repro.serve.distributed fleet`` boots one from the command
line (spec, min/max replicas, policy knobs, status dump).
"""

from repro.serve.fleet.controller import FleetController, FleetPolicy
from repro.serve.fleet.fleet import ElasticFleet
from repro.serve.fleet.replica import Replica, ReplicaManager, ReplicaSpec

__all__ = [
    "ElasticFleet",
    "FleetController",
    "FleetPolicy",
    "Replica",
    "ReplicaManager",
    "ReplicaSpec",
]
