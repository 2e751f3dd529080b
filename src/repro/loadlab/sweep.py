"""The sweep driver: topology × load matrix, summarised and persisted.

One *cell* = one topology under one load profile.  The driver builds the
topology, runs the profile through :func:`repro.loadlab.generator.run_load`,
and reduces the outcomes to the serving quantities the paper's energy
story needs per deployment shape:

* throughput (requests/s and samples/s over the measured window);
* latency and queue-wait percentiles (p50/p95/p99) from the phase spans
  the serving stack attaches to each response;
* shed rate (admission-control rejections / issued requests);
* energy per request / per sample from the chip's energy accounting.

Across cells the sweep runs the rank-based treatment from
:mod:`repro.loadlab.stats`: a Kruskal-Wallis omnibus per load profile,
Holm-corrected pairwise Mann-Whitney contrasts between topologies on
per-request latency, and a Spearman correlation between throughput and
energy-per-request across all cells.  Every sweep appends one run record
to the versioned ``benchmarks/results/loadlab.json`` trajectory via
:func:`repro.loadlab.persist.persist_result`.
"""

from __future__ import annotations

import platform
import time
from pathlib import Path

import numpy as np

from repro.loadlab.generator import LoadSpec, RequestOutcome, run_load
from repro.loadlab.persist import default_results_dir, persist_result
from repro.loadlab.stats import (
    holm_bonferroni,
    kruskal_wallis,
    mann_whitney_u,
    spearman,
)
from repro.loadlab.topologies import LabWorkload, build_topology, default_workload

__all__ = ["run_cell", "run_sweep", "sweep_record", "persist_sweep"]

_PERCENTILES = (50.0, 95.0, 99.0)


def _percentiles(values: list[float]) -> dict[str, float] | None:
    if not values:
        return None
    qs = np.percentile(np.asarray(values, dtype=float), _PERCENTILES)
    return {"p50": float(qs[0]), "p95": float(qs[1]), "p99": float(qs[2])}


def summarize_cell(
    topology: str,
    load: LoadSpec,
    outcomes: list[RequestOutcome],
    wall_s: float,
) -> dict[str, object]:
    """Reduce one cell's outcomes to its summary record."""
    served = [o for o in outcomes if o.ok]
    shed = [o for o in outcomes if o.shed]
    failed = [o for o in outcomes if not o.ok and not o.shed]
    latencies = [o.latency_s for o in served]
    queue_waits = [
        o.phases["queue_wait_s"] for o in served if "queue_wait_s" in o.phases
    ]
    energies = [o.energy_j for o in served if o.energy_j is not None]
    samples = sum(o.batch_size for o in served)
    wall_s = max(wall_s, 1e-9)
    return {
        "topology": topology,
        "load": load.label(),
        "load_spec": {
            "mode": load.mode,
            "rate": load.rate,
            "concurrency": load.concurrency,
            "requests": load.requests,
            "warmup": load.warmup,
            "batch_size": load.batch_size,
            "seed": load.seed,
        },
        "issued": len(outcomes),
        "served": len(served),
        "shed": len(shed),
        "failed": len(failed),
        "shed_rate": len(shed) / len(outcomes) if outcomes else 0.0,
        "wall_s": wall_s,
        "throughput_rps": len(served) / wall_s,
        "throughput_sps": samples / wall_s,
        "latency_s": _percentiles(latencies),
        "queue_wait_s": _percentiles(queue_waits),
        "energy_j_per_request": float(np.mean(energies)) if energies else None,
        "energy_j_per_sample": (
            float(sum(energies) / samples) if energies and samples else None
        ),
        "latency_samples": [round(v, 6) for v in latencies],
    }


def run_cell(
    topology: str, load: LoadSpec, workload: LabWorkload
) -> dict[str, object]:
    """Build one topology, drive one load profile, summarise."""
    with build_topology(topology, workload) as topo:

        def make_request(index: int, rng: np.random.Generator):
            return workload.make_request(index, rng, load.batch_size)

        outcomes, wall_s = run_load(topo.submit, make_request, load)
    return summarize_cell(topology, load, outcomes, wall_s)


def _contrasts(cells: list[dict[str, object]]) -> list[dict[str, object]]:
    """Rank-based topology contrasts, one block per load profile."""
    blocks: list[dict[str, object]] = []
    loads = sorted({cell["load"] for cell in cells})
    for load in loads:
        row = [cell for cell in cells if cell["load"] == load]
        groups = {
            cell["topology"]: cell["latency_samples"]
            for cell in row
            if cell["latency_samples"]
        }
        if len(groups) < 2:
            continue
        names = sorted(groups)
        omnibus = kruskal_wallis([groups[name] for name in names])
        pairs = [
            (names[i], names[j])
            for i in range(len(names))
            for j in range(i + 1, len(names))
        ]
        tests = [mann_whitney_u(groups[a], groups[b]) for a, b in pairs]
        adjusted = holm_bonferroni([t["p"] for t in tests])
        blocks.append(
            {
                "load": load,
                "metric": "latency_s",
                "kruskal_wallis": omnibus,
                "pairwise": [
                    {
                        "a": a,
                        "b": b,
                        "u": test["u"],
                        "effect": test["effect"],
                        "p": test["p"],
                        "p_holm": p_adj,
                    }
                    for (a, b), test, p_adj in zip(pairs, tests, adjusted)
                ],
            }
        )
    return blocks


def _throughput_energy(cells: list[dict[str, object]]) -> dict[str, object] | None:
    points = [
        (cell["throughput_rps"], cell["energy_j_per_request"])
        for cell in cells
        if cell["energy_j_per_request"] is not None
    ]
    if len(points) < 3:
        return None
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return {**spearman(xs, ys), "cells": len(points)}


def run_sweep(
    topologies: list[str],
    loads: list[LoadSpec],
    *,
    workload: LabWorkload | None = None,
    progress=None,
) -> dict[str, object]:
    """Run the full topology × load matrix and attach the statistics."""
    workload = workload if workload is not None else default_workload()
    cells: list[dict[str, object]] = []
    for topology in topologies:
        for load in loads:
            if progress is not None:
                progress(f"cell {topology} × {load.label()}")
            cells.append(run_cell(topology, load, workload))
    return {
        "cells": cells,
        "contrasts": _contrasts(cells),
        "throughput_energy_spearman": _throughput_energy(cells),
    }


def sweep_record(result: dict[str, object]) -> dict[str, object]:
    """Wrap a sweep result as one appended trajectory entry."""
    return {
        "kind": "sweep",
        "ran_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        **result,
    }


def persist_sweep(
    result: dict[str, object], output: str | Path | None = None
) -> Path:
    """Append one sweep record to the loadlab trajectory document."""
    path = Path(output) if output else default_results_dir() / "loadlab.json"
    persist_result(path, "runs", sweep_record(result), append=True)
    return path
