#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload bulk-b256 [--seed 0] [--seconds 55] [--trace 0]

``--workload`` is one of ``bulk-b256``, ``paper-mlp-mixed`` and
``serve-small`` (see ``perfbench/workloads.py``).  ``--seed`` makes the
requests; the trajectory uses :data:`DEFAULT_SEED` and claims are checked
again on :data:`HELD_OUT_SEED`.

``--trace 0`` builds the served arrangement several times (the median is
``setup_s``), drives the closed loop for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` builds it once and alternates untraced
and traced segments over the same window, reporting the per-layer metrics
and the tracing overhead.  Either way an exactness gate then checks a
seeded sample of the responses, including the first of every request
shape, against a reference computed outside the served path; a mismatch is
printed and counted as a failed request.

Standard output ends with two lines: a JSON document of the run (host,
load generator, gate, tail percentile) and the result object
``{"correct", "attempted", "failed", "metrics"}``.  Exit code 2 means the
program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: Seed of the committed trajectory.
DEFAULT_SEED = 0
#: Seed held out from tuning; a claimed gain must also hold on it.
HELD_OUT_SEED = 97
#: Requests per latency-tail window, and the window percentile reported.
TAIL_WINDOW = 100
TAIL_PERCENTILE = 90.0
#: Alternating untraced/traced segments of a ``--trace 1`` run.
TRACE_SEGMENTS = 10

#: ``(name, unit)`` of every end-to-end metric.
END_TO_END = [
    ("setup_s", "s"),
    ("samples_per_s", "samples/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("success_rate", "ratio"),
    ("chip_energy_nj_per_sample", "nJ"),
    ("peak_rss_mb", "MB"),
]


def _load_program() -> None:
    """Put the repository's ``src`` on the path, or exit 2 when it is absent."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


# -- host metadata ----------------------------------------------------------------


def _git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_metadata() -> dict[str, object]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "blas": blas,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "commit": _git_commit(),
    }


# -- the closed loop --------------------------------------------------------------


class Record:
    """One end-to-end request of the measured window."""

    __slots__ = ("index", "batch", "traced", "sent", "done", "ok", "phases", "shards")

    def __init__(self, index: int, batch: int, traced: bool):
        self.index = index
        self.batch = batch
        self.traced = traced
        self.sent = self.done = 0.0
        self.ok = True
        self.phases = 0.0
        self.shards = 0


class LoadLoop:
    """Issues a workload's requests from the calling thread and keeps records.

    With ``outstanding == 1`` the thread calls ``infer`` and blocks; above
    that it keeps that many ``submit`` futures in flight, timing each
    request from the call to the moment its future resolves.  Either way
    the generator is this one thread.
    """

    def __init__(self, workload, arrangement, stream, seed: int):
        self.workload = workload
        self.arrangement = arrangement
        self.stream = stream
        self.records: list[Record] = []
        self.segments: list[tuple[float, float, bool]] = []
        #: ``index -> (record, request, response)`` the gate and energy read.
        self.kept: dict[int, tuple] = {}
        #: Index of the first request of every batch size (the timesteps of
        #: every request are the same, so the batch size is its plan shape).
        self.first_of_shape: dict[int, int] = {}
        rng = np.random.default_rng([seed, 1])
        self.gate_indices = {
            int(index)
            for index in rng.choice(
                workload.energy_requests, size=workload.gate_sample, replace=False
            )
        }
        self.errors: list[str] = []

    def _more(self, until: float) -> bool:
        return (
            time.perf_counter() < until
            or len(self.records) < self.workload.energy_requests
        )

    def _fail(self, record: Record, error: str) -> None:
        if record.ok:
            record.ok = False
            self.errors.append(f"request {record.index}: {error}")
            print(f"perfbench: request {record.index} failed: {error}", file=sys.stderr)

    def _absorb(self, record: Record, request, response) -> None:
        from repro.serve.metrics import phases_total

        record.phases = phases_total(response.metadata)
        record.shards = len(response.metadata.get("shards", ()))
        first = self.first_of_shape.setdefault(record.batch, record.index)
        if (
            record.index < self.workload.energy_requests
            or record.index in self.gate_indices
            or first == record.index
        ):
            self.kept.setdefault(record.index, (record, request, response))

    def run_segment(self, seconds: float, traced: bool) -> None:
        start = time.perf_counter()
        until = start + seconds
        if self.workload.outstanding == 1:
            self._blocking(until, traced)
        else:
            self._pipelined(until, traced)
        self.segments.append((start, time.perf_counter(), traced))

    def _blocking(self, until: float, traced: bool) -> None:
        infer = self.arrangement.infer
        while self._more(until):
            index, request = next(self.stream)
            record = Record(index, request.batch_size, traced)
            self.records.append(record)
            record.sent = time.perf_counter()
            try:
                response = infer(request)
            except Exception as exc:  # noqa: BLE001 - counted, printed, not fatal
                record.done = time.perf_counter()
                self._fail(record, f"{type(exc).__name__}: {exc}")
                continue
            record.done = time.perf_counter()
            self._absorb(record, request, response)

    def _pipelined(self, until: float, traced: bool) -> None:
        submit = self.arrangement.submit
        completions: queue.SimpleQueue = queue.SimpleQueue()

        def launch() -> int:
            index, request = next(self.stream)
            record = Record(index, request.batch_size, traced)
            self.records.append(record)
            record.sent = time.perf_counter()
            try:
                future = submit(request)
            except Exception as exc:  # noqa: BLE001 - counted, printed, not fatal
                record.done = time.perf_counter()
                self._fail(record, f"{type(exc).__name__}: {exc}")
                return 0
            future.add_done_callback(
                lambda done, record=record, request=request: completions.put(
                    (record, request, done, time.perf_counter())
                )
            )
            return 1

        pending = sum(launch() for _ in range(self.workload.outstanding))
        while pending:
            record, request, future, done = completions.get()
            record.done = done
            pending -= 1
            try:
                response = future.result()
            except Exception as exc:  # noqa: BLE001 - counted, printed, not fatal
                self._fail(record, f"{type(exc).__name__}: {exc}")
            else:
                self._absorb(record, request, response)
            if self._more(until):
                pending += launch()

    # -- after the window ---------------------------------------------------------

    def gate(self, reference) -> tuple[int, int]:
        """Check the sampled responses bit for bit; returns (checked, mismatched)."""
        targets = self.gate_indices | set(self.first_of_shape.values())
        checked = mismatched = 0
        for index in sorted(targets & self.kept.keys()):
            record, request, response = self.kept[index]
            predictions, spike_counts = reference(request)
            checked += 1
            if not (
                np.array_equal(predictions, response.predictions)
                and np.array_equal(spike_counts, response.spike_counts)
            ):
                mismatched += 1
                self._fail(record, "answer differs from the reference")
        return checked, mismatched

    def energy_nj_per_sample(self) -> float:
        """Chip energy per sample over the stream's fixed prefix."""
        prefix = [
            self.kept[index]
            for index in range(self.workload.energy_requests)
            if index in self.kept and self.kept[index][0].ok
        ]
        samples = sum(record.batch for record, _, _ in prefix)
        energy = sum(response.energy.total_j for _, _, response in prefix)
        return 1e9 * energy / samples if samples else float("nan")

    def completed(self, traced: bool) -> list[Record]:
        return [r for r in self.records if r.ok and r.traced == traced]


def throughput(loop: LoadLoop, chunk: int) -> float:
    """Median samples per second over windows of ``chunk`` completions.

    Windows never span two segments; a segment's first window starts with
    the segment and its trailing partial window is dropped.  With no full
    window at all the rate of the whole untraced time is returned.
    """
    rates = []
    for start, end, traced in loop.segments:
        if traced:
            continue
        done = sorted(
            (r.done, r.batch)
            for r in loop.completed(False)
            if start <= r.sent and r.done <= end
        )
        previous = start
        for offset in range(0, len(done) - chunk + 1, chunk):
            window = done[offset : offset + chunk]
            rates.append(sum(batch for _, batch in window) / (window[-1][0] - previous))
            previous = window[-1][0]
    if rates:
        return statistics.median(rates)
    wall = sum(end - start for start, end, traced in loop.segments if not traced)
    return sum(r.batch for r in loop.completed(False)) / wall


def tail_latency(latencies_ms: list[float]) -> tuple[float, int]:
    """Median over windows of :data:`TAIL_WINDOW` consecutive requests of
    each window's p90, and the number of windows.

    p90 is the highest percentile with ten samples beyond it in a window, so
    the percentile does not change with how many requests a run completes.
    A run shorter than one window takes the p90 of all it has.
    """
    windows = [
        latencies_ms[start : start + TAIL_WINDOW]
        for start in range(0, len(latencies_ms) - TAIL_WINDOW + 1, TAIL_WINDOW)
    ] or [latencies_ms]
    p90s = [float(np.percentile(window, TAIL_PERCENTILE)) for window in windows]
    return statistics.median(p90s), len(windows)


def _registry_totals() -> dict[str, float]:
    """Session counters of the process-default metrics registry."""
    from perfbench.workloads import registry_total
    from repro.serve.metrics import get_default_registry

    snapshot = get_default_registry().snapshot()
    return {
        "plan_hits": registry_total(snapshot, "repro_session_plan_cache_hits_total"),
        "plan_misses": registry_total(snapshot, "repro_session_plan_cache_misses_total"),
        "samples": registry_total(snapshot, "repro_session_samples_total"),
        "infers": registry_total(snapshot, "repro_session_infer_seconds", "count"),
    }


def _delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {key: after[key] - before.get(key, 0.0) for key in after}


# -- main -------------------------------------------------------------------------


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=["bulk-b256", "paper-mlp-mixed", "serve-small"]
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    _load_program()
    from perfbench.layers import PER_LAYER, layer_metrics
    from perfbench.tracing import Tracer, install_layer_wrappers
    from perfbench.workloads import WORKLOADS, chip_layers

    workload = WORKLOADS[args.workload]
    model = workload.model()
    setup_runs = []
    arrangement = None
    try:
        for rep in range(1 if args.trace else workload.setup_reps):
            if arrangement is not None:
                arrangement.close()
                arrangement = None
            started = time.perf_counter()
            arrangement = workload.build(model)
            workload.warm_up(arrangement, model)
            setup_runs.append(time.perf_counter() - started)

        loop = LoadLoop(workload, arrangement, workload.requests(model, args.seed), args.seed)
        registry_before = _registry_totals()
        tracer = Tracer()
        counters: dict[str, float] = {}
        if args.trace:
            for segment in range(TRACE_SEGMENTS):
                traced = segment % 2 == 1
                before = arrangement.counters()
                if traced:
                    install_layer_wrappers(tracer)
                try:
                    loop.run_segment(args.seconds / TRACE_SEGMENTS, traced)
                finally:
                    tracer.uninstall()
                if traced:
                    for key, value in _delta(arrangement.counters(), before).items():
                        counters[key] = counters.get(key, 0.0) + value
        else:
            loop.run_segment(args.seconds, False)
        registry = _delta(_registry_totals(), registry_before)
        process_threads = threading.active_count()
        layers = chip_layers(arrangement.session)
        checked, mismatched = loop.gate(workload.referee(arrangement, model))
    finally:
        if arrangement is not None:
            arrangement.close()

    attempted = len(loop.records)
    failed = sum(1 for record in loop.records if not record.ok)
    untraced = loop.completed(False)
    latencies = [1e3 * (r.done - r.sent) for r in untraced]
    tail_ms, windows = tail_latency(latencies)
    run = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_metadata(),
        "load": {
            "loop": "closed",
            "outstanding": workload.outstanding,
            "generator_threads": 1,
            "process_threads": process_threads,
        },
        "setup_runs_s": setup_runs,
        "latency_tail": {
            "percentile": TAIL_PERCENTILE,
            "window": TAIL_WINDOW,
            "windows": windows,
            "samples": len(latencies),
        },
        "error_rate": failed / attempted,
        "errors": loop.errors[:20],
        "gate": {"checked": checked, "mismatched": mismatched},
        "plan_hit_share": registry["plan_hits"]
        / max(1.0, registry["plan_hits"] + registry["plan_misses"]),
        "samples_per_kernel_call": registry["samples"] / max(1.0, registry["infers"]),
    }

    if args.trace:
        traced = loop.completed(True)
        traced_wall = sum(end - start for start, end, t in loop.segments if t)
        # Time per sample, so segments with different batch mixes compare.
        per_sample_traced = sum(r.done - r.sent for r in traced) / sum(r.batch for r in traced)
        per_sample_untraced = sum(r.done - r.sent for r in untraced) / sum(
            r.batch for r in untraced
        )
        values = layer_metrics(
            tracer.spans,
            traced,
            traced_wall,
            counters,
            layers,
            gateway=workload.outstanding > 1,
            overhead_frac=per_sample_traced / per_sample_untraced - 1.0,
        )
        units = dict(PER_LAYER)
    else:
        values = {
            "setup_s": statistics.median(setup_runs),
            "samples_per_s": throughput(loop, workload.chunk),
            "latency_p50_ms": statistics.median(latencies),
            "latency_tail_ms": tail_ms,
            "success_rate": 1.0 - failed / attempted,
            "chip_energy_nj_per_sample": loop.energy_nj_per_sample(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)

    print(json.dumps({"run": run}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
