"""Per-layer metrics of a traced run, reduced from spans and counters.

Every metric is reported on every workload so that runs line up by name;
a layer a workload never enters reads 0 there (its call count is 0).
Times are per call of the layer unless the name says otherwise, and
``share`` is the layer's busy time over the traced wall clock (shares of
concurrent layers may sum past 1 on the serving workload).
"""

from __future__ import annotations

from collections import defaultdict

__all__ = ["CHIP_LAYERS", "PER_LAYER", "layer_metrics"]

#: Chip layers reported per workload (the paper MLP has three).
CHIP_LAYERS = 3

#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER: list[tuple[str, str]] = [
    ("encode.ms_per_call", "ms"),
    ("encode.share", "ratio"),
    ("plan.hit_ratio", "ratio"),
    ("plan.miss_ms", "ms"),
    ("plan.share", "ratio"),
    ("kernel.ms_per_call", "ms"),
    ("kernel.share", "ratio"),
    ("kernel.us_per_sample_step", "us"),
    ("kernel.calls_per_request", "count"),
    ("kernel.samples_per_call", "count"),
    *[
        (f"kernel.layer{index}.{field}", unit)
        for index in range(CHIP_LAYERS)
        for field, unit in (
            ("tiles", "count"),
            ("row_bands", "count"),
            ("gather_repeat", "ratio"),
            ("useful_flop_ratio", "ratio"),
        )
    ],
    ("session.self_ms", "ms"),
    ("session.self_share", "ratio"),
    ("energy.ms_per_call", "ms"),
    ("pool.shards_per_request", "count"),
    ("pool.requests_per_dispatch", "count"),
    ("pool.compute_ms", "ms"),
    ("pool.merge_ms", "ms"),
    ("pool.overhead_ms", "ms"),
    ("codec.ms_per_request", "ms"),
    ("codec.bytes_per_request", "bytes"),
    ("server.queue_wait_ms", "ms"),
    ("server.dispatch_ms", "ms"),
    ("server.requests_per_batch", "count"),
    ("client.submit_ms", "ms"),
    ("client.rtt_ms", "ms"),
    ("gateway.submit_ms", "ms"),
    ("gateway.shards_per_request", "count"),
    ("gateway.hedges_issued", "count"),
    ("gateway.hedge_wasted", "count"),
    ("gateway.retries", "count"),
    ("gateway.phases_ms", "ms"),
    ("gateway.residual_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean_ms(values: list[float]) -> float:
    return 1e3 * _ratio(sum(values), len(values))


def layer_metrics(
    spans,
    records,
    wall_s: float,
    counters: dict[str, float],
    chip_layers: list[dict[str, float]],
    *,
    gateway: bool,
    overhead_frac: float,
) -> dict[str, float]:
    """Reduce the traced segments' spans, records and counter deltas.

    ``records`` are the successful end-to-end requests of the traced
    segments, ``wall_s`` the traced segments' summed wall clock and
    ``counters`` the deltas of the arrangement's cumulative counters over
    those segments.
    """
    by_name: dict[str, list] = defaultdict(list)
    child_s: dict[int, float] = defaultdict(float)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent is not None:
            child_s[id(span.parent)] += span.duration

    def durations(name: str) -> list[float]:
        return [span.duration for span in by_name[name]]

    def share(name: str) -> float:
        return _ratio(sum(durations(name)), wall_s)

    requests = len(records)
    metrics: dict[str, float] = {
        "encode.ms_per_call": _mean_ms(durations("encode")),
        "encode.share": share("encode"),
    }

    plans = by_name["plan"]
    metrics["plan.hit_ratio"] = _ratio(sum(1 for s in plans if s.info), len(plans))
    metrics["plan.miss_ms"] = _mean_ms([s.duration for s in plans if not s.info])
    metrics["plan.share"] = share("plan")

    kernels = by_name["kernel"]
    samples = sum(span.info[0] for span in kernels)
    sample_steps = sum(span.info[0] * span.info[1] for span in kernels)
    metrics["kernel.ms_per_call"] = _mean_ms(durations("kernel"))
    metrics["kernel.share"] = share("kernel")
    metrics["kernel.us_per_sample_step"] = 1e6 * _ratio(
        sum(durations("kernel")), sample_steps
    )
    metrics["kernel.calls_per_request"] = _ratio(len(kernels), requests)
    metrics["kernel.samples_per_call"] = _ratio(samples, len(kernels))
    for index in range(CHIP_LAYERS):
        layer = chip_layers[index] if index < len(chip_layers) else {}
        for field in ("tiles", "row_bands", "gather_repeat", "useful_flop_ratio"):
            metrics[f"kernel.layer{index}.{field}"] = float(layer.get(field, 0.0))

    sessions = by_name["session"]
    self_s = [span.duration - child_s[id(span)] for span in sessions]
    metrics["session.self_ms"] = _mean_ms(self_s)
    metrics["session.self_share"] = _ratio(sum(self_s), sum(durations("session")))
    metrics["energy.ms_per_call"] = _mean_ms(durations("energy"))

    pools = by_name["pool"]
    pool_requests = sum(span.info[0] for span in pools)
    metrics["pool.shards_per_request"] = _ratio(
        sum(span.info[1] for span in pools), pool_requests
    )
    metrics["pool.requests_per_dispatch"] = _ratio(pool_requests, len(pools))
    metrics["pool.compute_ms"] = _mean_ms([span.info[2] for span in pools])
    metrics["pool.merge_ms"] = _mean_ms([span.info[3] for span in pools])
    metrics["pool.overhead_ms"] = _mean_ms(
        [span.duration - span.info[2] - span.info[3] for span in pools]
    )

    # Only outermost codec calls count, so nested codec work is not doubled.
    codec = [
        span
        for span in by_name["codec"]
        if span.parent is None or span.parent.name != "codec"
    ]
    metrics["codec.ms_per_request"] = 1e3 * _ratio(
        sum(span.duration for span in codec), requests
    )
    metrics["codec.bytes_per_request"] = _ratio(
        sum(span.info for span in codec if isinstance(span.info, int)), requests
    )

    metrics["server.queue_wait_ms"] = 1e3 * _ratio(
        counters.get("server.queue_wait_s", 0.0), counters.get("server.queue_wait_n", 0.0)
    )
    metrics["server.dispatch_ms"] = 1e3 * _ratio(
        counters.get("server.dispatch_s", 0.0), counters.get("server.dispatch_n", 0.0)
    )
    metrics["server.requests_per_batch"] = _ratio(
        counters.get("server.requests", 0.0), counters.get("server.batches", 0.0)
    )
    metrics["client.submit_ms"] = _mean_ms(durations("client.submit"))
    metrics["client.rtt_ms"] = _mean_ms(durations("client.rtt"))
    metrics["gateway.submit_ms"] = _mean_ms(durations("gateway.submit"))
    metrics["gateway.shards_per_request"] = _ratio(
        sum(record.shards for record in records), requests
    )
    metrics["gateway.hedges_issued"] = counters.get("gateway.hedges_issued", 0.0)
    metrics["gateway.hedge_wasted"] = counters.get("gateway.hedge_wasted_compute", 0.0)
    metrics["gateway.retries"] = counters.get("gateway.retries", 0.0)
    if gateway:
        metrics["gateway.phases_ms"] = _mean_ms([record.phases for record in records])
        metrics["gateway.residual_ms"] = _mean_ms(
            [record.done - record.sent - record.phases for record in records]
        )
    else:
        metrics["gateway.phases_ms"] = 0.0
        metrics["gateway.residual_ms"] = 0.0
    metrics["trace.overhead_frac"] = overhead_frac
    return metrics
