"""Micro-benchmarks of the computational substrates (true pytest-benchmark targets).

Unlike the figure macro-benchmarks (one pedantic round each), these measure the
hot kernels with full statistical repetition: the vectorised walk kernel, the
SMM sparse mat-vec iteration, Wilson's spanning-tree sampler, the Laplacian CG
solve and a single GEER query.  They are the ablation evidence for the
"vectorised walk kernel" design choice called out in DESIGN.md.

Two comparison benchmarks additionally start the repo's **machine-readable
perf record**: :func:`test_fused_vs_materialised_scoring` pits the fused
``walk_scores`` kernel against a faithful replica of the historical
materialise-then-score path, and :func:`test_parallel_batch_execution`
measures a 100-query GEER batch serial vs a shared-memory-attached process
pool.  Both write their measurements into
``benchmarks/results/BENCH_kernels.json`` so future PRs can track the
trajectory.  Set ``REPRO_BENCH_QUICK=1`` (as CI does) for a smaller, faster
workload; the JSON records which mode produced it.

Per the bench_fault/bench_planner convention, every bit-identity assertion
runs *before* any timing loop: a kernel that produces wrong bits must fail
the benchmark, not publish a speedup.
"""

from __future__ import annotations

import json
import os
import time
import tracemalloc

import numpy as np
import pytest

from conftest import RESULTS_DIR
from repro.core.engine import QueryEngine
from repro.core.estimator import EffectiveResistanceEstimator
from repro.core.registry import resolve_method
from repro.core.smm import SMMState
from repro.experiments.datasets import load_dataset
from repro.experiments.queries import random_query_set
from repro.graph.generators import barabasi_albert_graph
from repro.linalg.solvers import LaplacianSolver
from repro.sampling.spanning_tree import wilson_spanning_tree
from repro.sampling.walks import RandomWalkEngine

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
JSON_PATH = RESULTS_DIR / "BENCH_kernels.json"

# Fused-kernel workload: the huge-η*, long-ℓ regime of Figs. 8-9 (small ε),
# where the materialised path's (η, ℓ) buffers dwarf the fused kernel's
# 128-column score blocks.  Quick mode shrinks η for CI runners.
FUSED_ETA = 40_000 if QUICK else 150_000
FUSED_LENGTH = 160
FUSED_CHUNK = 8_192 if QUICK else 16_384
FUSED_REPEATS = 2 if QUICK else 3

PARALLEL_PAIRS = 50 if QUICK else 100
PARALLEL_EPSILON = 0.1
PARALLEL_WORKERS = min(4, os.cpu_count() or 1) if (os.cpu_count() or 1) > 1 else 2


def _update_json(section: str, payload: dict) -> None:
    """Merge one benchmark section into BENCH_kernels.json."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    record: dict = {}
    if JSON_PATH.exists():
        try:
            record = json.loads(JSON_PATH.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            record = {}
    record["benchmark"] = "kernels"
    record["mode"] = "quick" if QUICK else "full"
    record["available_cpus"] = os.cpu_count() or 1
    record[section] = payload
    JSON_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"\n[BENCH_kernels.json::{section}] {json.dumps(payload, sort_keys=True)}")


# --------------------------------------------------------------------------- #
# historical (pre-fused-kernel) reference path
# --------------------------------------------------------------------------- #
def _materialised_step(rng, indptr, indices, nodes):
    """Replica of the historical per-step kernel: degrees re-derived from
    ``indptr`` and the isolated-node guard re-run on every step."""
    starts = indptr[nodes]
    degrees = indptr[nodes + 1] - starts
    if np.any(degrees == 0):
        raise ValueError("isolated node")
    offsets = np.floor(rng.random(len(nodes)) * degrees).astype(np.int64)
    np.minimum(offsets, degrees - 1, out=offsets)
    return indices[starts + offsets]


def _materialised_scores(graph, start, num_walks, length, weights, seed):
    """The historical AMC scoring path: materialise the full (η, ℓ) walk
    matrix, then gather and pairwise-sum the visited weights."""
    rng = np.random.default_rng(seed)
    visits = np.empty((num_walks, length), dtype=np.int64)
    current = np.full(num_walks, start, dtype=np.int64)
    for i in range(length):
        current = np.asarray(current, dtype=np.int64)
        current = _materialised_step(rng, graph.indptr, graph.indices, current)
        visits[:, i] = current
    return weights[visits].sum(axis=1)


def _best_of(repeats, fn):
    """Min-of-N wall-clock (the standard noise filter for micro-benchmarks)."""
    best, value = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def _peak_bytes(fn):
    tracemalloc.start()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return int(peak)


# --------------------------------------------------------------------------- #
# comparison benchmarks (write BENCH_kernels.json)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def big_graph():
    return barabasi_albert_graph(5000, 8, rng=1)


def test_fused_vs_materialised_scoring(big_graph):
    """Fused ``walk_scores`` vs the historical materialise-then-score path.

    Bit-identity across every path is asserted first (same draws, same
    pairwise summation tree), so the timing comparison that follows is pure
    speed.  The chunked driver is measured too, with ``tracemalloc`` peaks
    showing its memory bound.
    """
    weights = np.random.default_rng(2).random(big_graph.num_nodes)
    seed = 5

    def fused():
        return RandomWalkEngine(big_graph, rng=seed).walk_scores(
            0, FUSED_ETA, FUSED_LENGTH, weights
        )

    def chunked():
        return RandomWalkEngine(big_graph, rng=seed).walk_scores(
            0, FUSED_ETA, FUSED_LENGTH, weights, chunk_size=FUSED_CHUNK
        )

    def materialised():
        return _materialised_scores(
            big_graph, 0, FUSED_ETA, FUSED_LENGTH, weights, seed
        )

    # -- bit-identity gate, before any timing ------------------------------ #
    mat_scores = materialised()
    assert np.array_equal(mat_scores, fused()), "fused kernel diverged"
    assert np.array_equal(mat_scores, chunked()), "chunked kernel diverged"

    mat_seconds, _ = _best_of(FUSED_REPEATS, materialised)
    fused_seconds, _ = _best_of(FUSED_REPEATS, fused)
    chunked_seconds, _ = _best_of(FUSED_REPEATS, chunked)
    peak_materialised = _peak_bytes(materialised)
    peak_chunked = _peak_bytes(chunked)

    _update_json(
        "fused_walk_scores",
        {
            "eta": FUSED_ETA,
            "length": FUSED_LENGTH,
            "chunk_size": FUSED_CHUNK,
            "repeats": FUSED_REPEATS,
            "materialised_seconds": round(mat_seconds, 4),
            "fused_seconds": round(fused_seconds, 4),
            "fused_chunked_seconds": round(chunked_seconds, 4),
            "speedup_fused": round(mat_seconds / fused_seconds, 2),
            "speedup_fused_chunked": round(mat_seconds / chunked_seconds, 2),
            "bit_identical": True,
            # The materialised path holds the (η, ℓ) int64 visit matrix plus
            # the (η, ℓ) float gather; the chunked kernel's walk buffer is
            # bounded by chunk_size · min(ℓ, 128) floats regardless of η.
            "walk_buffer_bytes_materialised": FUSED_ETA * FUSED_LENGTH * 8,
            "walk_buffer_bytes_chunked": FUSED_CHUNK * min(FUSED_LENGTH, 128) * 8,
            "tracemalloc_peak_bytes_materialised": peak_materialised,
            "tracemalloc_peak_bytes_chunked": peak_chunked,
        },
    )
    # the chunked walk buffer must stay bounded by the chunk size, not η
    assert peak_chunked < peak_materialised


def test_parallel_batch_execution():
    """A 100-query GEER batch: sequential vs a shm-attached process pool.

    Sequential (``workers=1``) replays the per-pair session stream
    bit-for-bit.  The parallel run publishes the context's heavy artifacts
    to shared memory first (:func:`install_shared_context`), so pool workers
    attach zero-copy by fingerprint instead of unpickling the graph — the
    serving stack's executor path since the repro.net PR.  Per-query derived
    streams make the results identical across worker counts and executor
    kinds (asserted here against a thread pool with a different width).
    """
    from repro.net.shm import install_shared_context, shm_available

    graph = barabasi_albert_graph(2000, 8, rng=23)
    pairs = list(random_query_set(graph, PARALLEL_PAIRS, rng=23))

    serial_engine = QueryEngine(graph, rng=23)
    serial_engine.context.prepare_for(resolve_method("geer"), PARALLEL_EPSILON)
    start = time.perf_counter()
    serial = serial_engine.query_many(pairs, PARALLEL_EPSILON, method="geer")
    serial_seconds = time.perf_counter() - start

    parallel_engine = QueryEngine(graph, rng=23)
    parallel_engine.context.lambda_max_abs  # preprocessing outside the timed region
    parallel_engine.context.transition
    shared = (
        install_shared_context(parallel_engine.context) if shm_available() else None
    )
    try:
        start = time.perf_counter()
        parallel = parallel_engine.query_many(
            pairs,
            PARALLEL_EPSILON,
            method="geer",
            workers=PARALLEL_WORKERS,
            executor="process",
        )
        parallel_seconds = time.perf_counter() - start
    finally:
        if shared is not None:
            shared.retire()

    check_engine = QueryEngine(graph, rng=23)
    check = check_engine.query_many(
        pairs,
        PARALLEL_EPSILON,
        method="geer",
        workers=PARALLEL_WORKERS + 1,
        executor="thread",
    )
    assert np.array_equal(parallel.values, check.values), (
        "parallel results must not depend on worker count or executor kind"
    )
    truth = QueryEngine(graph, rng=23)
    errors = [
        abs(r.value - truth.exact(r.s, r.t)) for r in list(parallel)[: 10]
    ]
    assert max(errors) <= PARALLEL_EPSILON, "parallel estimates broke the ε guarantee"

    payload = {
        "pairs": PARALLEL_PAIRS,
        "method": "geer",
        "epsilon": PARALLEL_EPSILON,
        "workers": PARALLEL_WORKERS,
        "executor": parallel.executor,
        "shared_memory": shared is not None,
        "serial_seconds": round(serial_seconds, 4),
        "parallel_seconds": round(parallel_seconds, 4),
        "speedup": round(serial_seconds / parallel_seconds, 2),
        "deterministic_across_worker_counts": True,
    }
    if (os.cpu_count() or 1) <= 1:
        payload["note"] = (
            "single-CPU host: pool overhead dominates and no wall-clock gain "
            "is possible; rerun on a multi-core machine for the speedup"
        )
    _update_json("parallel_batch", payload)


# --------------------------------------------------------------------------- #
# micro-benchmarks (pytest-benchmark statistics; no JSON)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def graph():
    return load_dataset("facebook-syn")


@pytest.fixture(scope="module")
def estimator(graph):
    est = EffectiveResistanceEstimator(graph, rng=7)
    est.lambda_max_abs  # force the preprocessing outside the measured region
    return est


def test_kernel_vectorised_walks(benchmark, graph):
    """500 walks of 20 steps advanced in lock-step (one CSR gather per step)."""
    engine = RandomWalkEngine(graph, rng=1)
    benchmark(engine.walk_matrix, 0, 500, 20)


def test_kernel_fused_walk_scores(benchmark, graph):
    """The same 500 x 20-step workload through the fused scoring kernel."""
    engine = RandomWalkEngine(graph, rng=1)
    weights = np.random.default_rng(4).random(graph.num_nodes)
    benchmark(engine.walk_scores, 0, 500, 20, weights)


def test_kernel_python_reference_walks(benchmark, graph):
    """The same 500 x 20-step workload walked one step at a time in pure Python.

    This is the ablation evidence for the vectorised kernel: identical work,
    typically 1-2 orders of magnitude slower.
    """
    engine = RandomWalkEngine(graph, rng=2)

    def run():
        for _ in range(500):
            engine.walk_single_python(0, 20)

    benchmark(run)


def test_kernel_smm_iteration(benchmark, graph):
    state = SMMState(graph, 0, 1)
    state.run(3)  # let the frontier grow to a realistic density
    benchmark(state.step)


def test_kernel_wilson_spanning_tree(benchmark, graph):
    benchmark(wilson_spanning_tree, graph, rng=3)


def test_kernel_laplacian_cg_solve(benchmark, graph):
    solver = LaplacianSolver(graph)
    benchmark(solver.effective_resistance, 0, graph.num_nodes - 1)


def test_kernel_geer_query(benchmark, estimator):
    benchmark(estimator.estimate, 0, 100, 0.1)


def test_kernel_amc_query(benchmark, estimator):
    benchmark(lambda: estimator.estimate(0, 100, 0.1, method="amc"))


def test_kernel_smm_query(benchmark, estimator):
    benchmark(lambda: estimator.estimate(0, 100, 0.1, method="smm"))
