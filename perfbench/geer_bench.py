"""Closed-loop GEER workloads: one caller of ``QueryEngine`` on one graph.

Every ``batch_every``-th operation is a ``query_many`` batch of fresh pairs at
the middle epsilon (the core batch path); the rest are single ``query`` calls
with epsilon cycling through the workload's three values.  The operation
sequence depends only on the seed, so two runs with one seed ask the same
questions in the same order and draw the same random streams.  Between
operations the caller times calibration slices (``speed.py``); every reported
time is scaled by them to the reference speed.
"""

from __future__ import annotations

import time

import numpy as np

from repro import QueryEngine

import common
import ledger
from graphs import build_graph
from oracle import ResistanceOracle, check_answers
from spans import CORE_TARGETS, SpanRecorder
from speed import SpeedTrack

#: A batch costs about four singles; walk-bound singles are slow, so batches
#: come more often there to give ``batch_p50_ms`` enough samples in one run.
WORKLOADS = {
    "geer-walkbound": {"graph": "dblp-syn", "epsilons": (0.2, 0.1, 0.05), "batch_every": 4},
    "geer-pushbound": {"graph": "ba-2000-8", "epsilons": (0.1, 0.05, 0.02), "batch_every": 10},
}
BATCH_SIZE = 4
MIN_BATCHES = 10
SETUPS = 5
#: Calibration slices taken before and after each set-up.
SETUP_SLICES = 4
#: Count metrics average over this many leading single queries, a prefix every
#: run completes, so they repeat exactly for a seed.
COUNT_PREFIX = 100


def setup(graph_name: str, size: str, seed: int) -> tuple[float, QueryEngine]:
    """Build the graph and force every lazy preprocessing artefact."""
    start = time.perf_counter()
    engine = QueryEngine(build_graph(graph_name, size), rng=seed)
    engine.lambda_max_abs
    engine.transition_matrix
    engine.context.engine  # the walk engine and its sampling tables
    return time.perf_counter() - start, engine


def timed_setup(graph_name: str, size: str, seed: int, speed: SpeedTrack):
    """``setup`` between calibration slices: (raw seconds, scaled seconds, engine)."""
    speed.slices(SETUP_SLICES)
    began = time.perf_counter()
    elapsed, engine = setup(graph_name, size, seed)
    speed.slices(SETUP_SLICES)
    return elapsed, speed.scale(elapsed, began), engine


def operations(seed: int, num_nodes: int, epsilons, batch_every: int):
    """The seeded operation stream: ``("single", [(s, t)], eps)`` or ``("batch", pairs, eps)``."""
    rng = np.random.default_rng([seed, 17])
    seen: set[tuple[int, int]] = set()

    def fresh_pair() -> tuple[int, int]:
        while True:
            s, t = (int(x) for x in rng.integers(num_nodes, size=2))
            key = (min(s, t), max(s, t))
            if s != t and key not in seen:
                seen.add(key)
                return s, t

    index = singles = 0
    while True:
        if index % batch_every == batch_every - 1:
            yield "batch", [fresh_pair() for _ in range(BATCH_SIZE)], epsilons[1]
        else:
            yield "single", [fresh_pair()], epsilons[singles % len(epsilons)]
            singles += 1
        index += 1


class Phase:
    """What one timed phase did: latencies, answers and their results."""

    def __init__(self) -> None:
        self.single_at: list[float] = []  # perf_counter start of each call
        self.single_ms: list[float] = []  # raw
        self.batch_at: list[float] = []
        self.batch_ms: list[float] = []
        self.results = []  # EstimateResult, in answer order
        self.singles = []  # EstimateResult of single queries
        self.buckets: list[int] = []
        self.ops = 0
        self.start = self.end = 0.0

    @property
    def wall(self) -> float:
        return self.end - self.start

    def scaled(self, speed: SpeedTrack) -> tuple[list[float], list[float]]:
        """Single and batch latencies (ms) scaled to the reference speed."""
        return ([speed.scale(ms, at) for ms, at in zip(self.single_ms, self.single_at)],
                [speed.scale(ms, at) for ms, at in zip(self.batch_ms, self.batch_at)])


def run_phase(engine, ops, seconds, min_singles, speed: SpeedTrack, max_ops=None,
              recorder=None) -> Phase:
    phase = Phase()
    phase.start = time.perf_counter()
    deadline = phase.start + seconds
    for kind, pairs, eps in ops:
        if max_ops is not None:
            if phase.ops >= max_ops:
                break
        elif (
            time.perf_counter() >= deadline
            and len(phase.single_ms) >= min_singles
            and len(phase.batch_ms) >= MIN_BATCHES
        ):
            break
        speed.maybe_slice()
        if recorder is not None:
            recorder.set_trace(str(phase.ops))
        began = time.perf_counter()
        if kind == "single":
            result = engine.query(pairs[0][0], pairs[0][1], eps)
            phase.single_ms.append((time.perf_counter() - began) * 1e3)
            phase.single_at.append(began)
            phase.results.append(result)
            phase.singles.append(result)
        else:
            batch = engine.query_many(pairs, eps)
            phase.batch_ms.append((time.perf_counter() - began) * 1e3)
            phase.batch_at.append(began)
            phase.results.extend(batch)
            phase.buckets.append(batch.num_buckets)
        phase.ops += 1
    phase.end = time.perf_counter()
    speed.slice()  # so the last calls have slices after them too
    if recorder is not None:
        recorder.set_trace(None)
    return phase


def check(graph, phase: Phase):
    oracle = ResistanceOracle(graph.num_nodes, graph.edge_array())
    answers = [(0, r.s, r.t, r.epsilon, r.value) for r in phase.results]
    return check_answers(oracle, answers)


def run(name: str, seed: int, seconds: float, trace: bool, size: str) -> tuple[dict, dict]:
    spec = WORKLOADS[name]
    speed = SpeedTrack()
    setups = SETUPS if not trace else 1
    raw_setups, setups_s = [], []
    for _ in range(setups):
        raw, scaled, engine = timed_setup(spec["graph"], size, seed, speed)
        raw_setups.append(raw)
        setups_s.append(scaled)
    graph = engine.graph
    ops = operations(seed, graph.num_nodes, spec["epsilons"], spec["batch_every"])
    phase = run_phase(engine, ops, seconds, common.MIN_P95_SAMPLES, speed)
    record = {"workload": name, "graph": spec["graph"], "nodes": graph.num_nodes,
              "edges": graph.num_edges, "lambda": engine.lambda_max_abs}
    if trace:
        return record, traced_run(spec, seed, size, phase, speed, record)
    checked, within, problems = check(graph, phase)
    failed = sum(1 for r in phase.results if r.budget_exhausted)
    attempted = len(phase.results)
    single_ms, batch_ms = phase.scaled(speed)
    busy_s = (sum(single_ms) + sum(batch_ms)) / 1e3
    metrics = {
        "setup_s": common.metric(common.p50(setups_s), "s"),
        "query_p50_ms": common.metric(common.p50(single_ms), "ms"),
        "query_p95_ms": common.metric(common.p95(single_ms), "ms"),
        "queries_per_s": common.metric(attempted / busy_s, "1/s"),
        "batch_p50_ms": common.metric(common.p50(batch_ms), "ms"),
        "within_eps_share": common.metric(within / checked, "ratio"),
        "answered_share": common.metric((attempted - failed) / attempted, "ratio"),
    }
    record.update(
        setup_s=setups_s, singles=len(single_ms), batches=len(batch_ms), phase_s=phase.wall,
        checked=checked, problems=problems, speed=speed.summary(),
        raw={"setup_s": raw_setups, "query_p50_ms": common.p50(phase.single_ms),
             "query_p95_ms": common.p95(phase.single_ms),
             "batch_p50_ms": common.p50(phase.batch_ms),
             "queries_per_s": attempted * 1e3 / (sum(phase.single_ms) + sum(phase.batch_ms))},
    )
    correct = within == checked
    return record, {"correct": correct, "attempted": attempted, "failed": failed,
                    "metrics": metrics}


def traced_run(spec, seed: int, size: str, untraced: Phase, speed: SpeedTrack,
               record: dict) -> dict:
    """Repeat the untraced phase's operations under the span wrappers."""
    recorder = SpanRecorder()
    recorder.install(CORE_TARGETS)
    try:
        _, engine = setup(spec["graph"], size, seed)
        graph = engine.graph
        ops = operations(seed, graph.num_nodes, spec["epsilons"], spec["batch_every"])
        phase = run_phase(engine, ops, 0.0, 0, speed, max_ops=untraced.ops, recorder=recorder)
    finally:
        recorder.uninstall()
    untraced_hex = [r.value.hex() for r in untraced.results]
    traced_hex = [r.value.hex() for r in phase.results]
    bit_neutral = untraced_hex == traced_hex
    checked, within, problems = check(graph, phase)

    self_times = recorder.self_times()
    in_phase = sum(
        end - start for _, start, end, parent, _ in recorder.spans
        if parent < 0 and phase.start <= start and end <= phase.end
    )
    # Calibration slices are the benchmark's, not the program's.
    wall = phase.wall - speed.busy(phase.start, phase.end)
    factor = speed.phase_factor(phase.start, phase.end)
    prefix = phase.singles[:COUNT_PREFIX]
    walk_seconds = self_times.get("sampling.walk", (0.0, 0))[0] * factor
    steps = sum(r.total_steps for r in phase.results)
    p50_untraced = common.p50(untraced.scaled(speed)[0])
    p50_traced = common.p50(phase.scaled(speed)[0])
    extra = {
        "core.walk_length.ell_mean": np.mean([r.walk_length for r in prefix]),
        "core.smm.iterations": np.mean([r.smm_iterations for r in prefix]),
        "core.smm.spmv_ops": np.mean([r.spmv_operations for r in prefix]),
        "core.amc.walks": np.mean([r.num_walks for r in prefix]),
        "core.amc.batches": np.mean([r.num_batches for r in prefix]),
        "sampling.steps": np.mean([r.total_steps for r in prefix]),
        "sampling.steps_per_s": steps / walk_seconds if walk_seconds else 0.0,
        "sampling.bytes_computed": np.mean([r.total_steps for r in prefix])
        * common.step_bytes(engine.graph),
        "core.batch.buckets": np.mean(phase.buckets),
        "ledger.unattributed_share": (wall - in_phase) / wall,
        "ledger.trace_overhead": p50_traced / p50_untraced - 1.0,
    }
    record.update(
        traced_ops=phase.ops, bit_neutral=bit_neutral, checked=checked, problems=problems,
        query_p50_ms_untraced=p50_untraced, query_p50_ms_traced=p50_traced,
        speed=speed.summary(), speed_factor=factor, layers=ledger.shares(self_times, wall),
    )
    correct = bit_neutral and within == checked
    failed = sum(1 for r in phase.results if r.budget_exhausted)
    return {"correct": correct, "attempted": len(phase.results), "failed": failed,
            "metrics": ledger.layer_metrics(self_times, extra, factor)}
