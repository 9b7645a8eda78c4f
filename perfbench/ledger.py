"""The per-layer ledger: turns recorded spans and counters into named metrics.

Time metrics are self times (span duration minus the time its child spans
cover).  Query-path layers under GEER (``core.smm``, ``core.amc``,
``sampling.walk``) are reported per GEER estimate, so their values add up to
the time of one estimate; every other time metric is per call of the wrapped
function.  A layer a workload never reaches reads 0.
"""

from __future__ import annotations

#: name -> unit, in the order printed (mirrors BENCHMARK.json's per_layer).
PER_LAYER = {
    "graph.build_s": "s",
    "linalg.lambda_s": "s",
    "core.engine.self_ms": "ms",
    "core.geer.self_ms": "ms",
    "core.walk_length.ell_mean": "steps",
    "core.smm.self_ms": "ms",
    "core.smm.iterations": "count",
    "core.smm.spmv_ops": "count",
    "core.amc.self_ms": "ms",
    "core.amc.walks": "count",
    "core.amc.batches": "count",
    "sampling.walk_ms": "ms",
    "sampling.steps": "count",
    "sampling.steps_per_s": "1/s",
    "sampling.bytes_computed": "B",
    "core.batch.plan_ms": "ms",
    "core.batch.execute_ms": "ms",
    "core.batch.buckets": "count",
    "service.query.self_ms": "ms",
    "service.tier_answers.cache": "count",
    "service.tier_answers.sketch": "count",
    "service.tier_answers.engine": "count",
    "service.cache.hit_share": "ratio",
    "service.cache.get_ms": "ms",
    "service.cache.invalidated": "count",
    "service.sketch.hit_share": "ratio",
    "service.sketch.build_s": "s",
    "service.sketch.builds": "count",
    "service.apply_update_ms": "ms",
    "graph.delta_apply_ms": "ms",
    "net.self_ms": "ms",
    "net.rejected": "count",
    "net.errors": "count",
    "net.pool.dispatch_ms": "ms",
    "net.pool.respawns": "count",
    "net.shm.publish_ms": "ms",
    "loadgen.late_ms": "ms",
    "ledger.unattributed_share": "ratio",
    "ledger.trace_overhead": "ratio",
}

#: metric -> (span layer, scale).  Per-call self time of the layer.
_PER_CALL = {
    "graph.build_s": ("graph.build", 1.0),
    "linalg.lambda_s": ("linalg.lambda", 1.0),
    "core.engine.self_ms": ("core.engine", 1e3),
    "core.geer.self_ms": ("core.geer", 1e3),
    "core.batch.plan_ms": ("core.batch.plan", 1e3),
    "core.batch.execute_ms": ("core.batch.execute", 1e3),
    "service.query.self_ms": ("service.query", 1e3),
    "service.cache.get_ms": ("service.cache.get", 1e3),
    "service.sketch.build_s": ("service.sketch.build", 1.0),
    "service.apply_update_ms": ("service.apply_update", 1e3),
    "graph.delta_apply_ms": ("graph.delta_apply", 1e3),
    "net.pool.dispatch_ms": ("net.pool.dispatch", 1e3),
    "net.shm.publish_ms": ("net.shm.publish", 1e3),
}

#: metric -> span layer.  Self time per GEER estimate made in the process.
_PER_ESTIMATE = {
    "core.smm.self_ms": "core.smm",
    "core.amc.self_ms": "core.amc",
    "sampling.walk_ms": "sampling.walk",
}


def layer_metrics(self_times: dict[str, tuple[float, int]], extra: dict[str, float],
                  speed_factor: float) -> dict:
    """Every per-layer metric; ``extra`` supplies counts and joined values.

    Span times are multiplied by ``speed_factor`` (``speed.py``), so they are
    at the reference speed like the end-to-end timings.
    """
    values = dict.fromkeys(PER_LAYER, 0.0)
    for name, (layer, scale) in _PER_CALL.items():
        seconds, calls = self_times.get(layer, (0.0, 0))
        if calls:
            values[name] = seconds * speed_factor * scale / calls
    estimates = self_times.get("core.geer", (0.0, 0))[1]
    if estimates:
        for name, layer in _PER_ESTIMATE.items():
            values[name] = (self_times.get(layer, (0.0, 0))[0] * speed_factor * 1e3
                            / estimates)
    unknown = set(extra) - set(values)
    if unknown:
        raise KeyError(f"not per-layer metrics: {sorted(unknown)}")
    values.update(extra)
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in PER_LAYER.items()}


def shares(self_times: dict[str, tuple[float, int]], wall_seconds: float) -> dict:
    """Each layer's summed self time as a share of ``wall_seconds`` (for the record)."""
    return {
        layer: {"self_s": round(seconds, 6), "calls": calls, "share": round(seconds / wall_seconds, 4)}
        for layer, (seconds, calls) in sorted(self_times.items(), key=lambda item: -item[1][0])
    }
