"""Drivers that regenerate the data behind every figure of the paper.

Each ``figN_*`` function returns a list of plain-dict rows (the series the
paper plots); the corresponding benchmark under ``benchmarks/`` runs the driver
at laptop scale and prints the table with
:func:`repro.experiments.reporting.format_table`.  All drivers accept the
dataset names, ε grid, query count and time budget so that tests can run them
on tiny inputs.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.core.estimator import EffectiveResistanceEstimator
from repro.core.geer import geer_query
from repro.core.registry import normalize_method_name, resolve_method
from repro.core.smm import FrontierArcs
from repro.core.walk_length import peng_walk_length, refined_walk_length
from repro.experiments.datasets import load_dataset
from repro.experiments.harness import (
    EDGE_QUERY_METHODS,
    RANDOM_QUERY_METHODS,
    MethodContext,
    build_context,
    run_method,
)
from repro.experiments.queries import QuerySet, edge_query_set, random_query_set
from repro.graph.generators import toy_running_example
from repro.graph.graph import Graph
from repro.sampling.concentration import amc_psi, amc_sample_budget
from repro.utils.rng import RngLike, as_generator

DEFAULT_EPSILONS = (0.5, 0.2, 0.1, 0.05, 0.02, 0.01)


# --------------------------------------------------------------------------- #
# shared sweep machinery (Figs. 4-7)
# --------------------------------------------------------------------------- #
def run_dataset_sweep(
    dataset: str | Graph,
    *,
    query_kind: str = "random",
    epsilons: Sequence[float] = DEFAULT_EPSILONS,
    num_queries: int = 100,
    methods: Optional[Sequence[str]] = None,
    time_budget_seconds: Optional[float] = None,
    rng: RngLike = 7,
    context: Optional[MethodContext] = None,
    dataset_label: Optional[str] = None,
    **context_overrides,
) -> list[dict[str, object]]:
    """Run one dataset × methods × ε sweep and return per-configuration rows.

    Each row carries both the average query time and the average absolute error
    (against the ground-truth oracle), so the same sweep backs the runtime
    figures (Figs. 4-5) and the accuracy figures (Figs. 6-7).
    """
    if isinstance(dataset, Graph):
        graph = dataset
        name = dataset_label or "custom"
    else:
        graph = load_dataset(dataset)
        name = dataset_label or dataset
    gen = as_generator(rng)
    if context is None:
        context = build_context(graph, rng=gen, **context_overrides)
    if query_kind == "random":
        queries: QuerySet = random_query_set(graph, num_queries, rng=gen)
        default_methods = RANDOM_QUERY_METHODS
    elif query_kind == "edge":
        queries = edge_query_set(graph, num_queries, rng=gen)
        default_methods = EDGE_QUERY_METHODS
    else:
        raise ValueError("query_kind must be 'random' or 'edge'")
    if methods is None:
        methods = default_methods
    else:
        # Normalise and fail fast on typos before any sampling starts.
        methods = tuple(normalize_method_name(m) for m in methods)
        for method in methods:
            resolve_method(method)

    rows: list[dict[str, object]] = []
    for epsilon in epsilons:
        for method in methods:
            sweep = run_method(
                context,
                method,
                queries,
                epsilon,
                time_budget_seconds=time_budget_seconds,
            )
            row = sweep.as_row()
            row["dataset"] = name
            row["query_kind"] = query_kind
            rows.append(row)
    return rows


def fig4_random_query_time(**kwargs) -> list[dict[str, object]]:
    """Fig. 4: average running time vs ε for random queries."""
    kwargs.setdefault("query_kind", "random")
    return run_dataset_sweep(**kwargs)


def fig5_edge_query_time(**kwargs) -> list[dict[str, object]]:
    """Fig. 5: average running time vs ε for edge queries."""
    kwargs.setdefault("query_kind", "edge")
    return run_dataset_sweep(**kwargs)


def fig6_random_query_error(**kwargs) -> list[dict[str, object]]:
    """Fig. 6: average absolute error vs ε for random queries (same sweep as Fig. 4)."""
    kwargs.setdefault("query_kind", "random")
    return run_dataset_sweep(**kwargs)


def fig7_edge_query_error(**kwargs) -> list[dict[str, object]]:
    """Fig. 7: average absolute error vs ε for edge queries (same sweep as Fig. 5)."""
    kwargs.setdefault("query_kind", "edge")
    return run_dataset_sweep(**kwargs)


# --------------------------------------------------------------------------- #
# Fig. 2 — running example
# --------------------------------------------------------------------------- #
def fig2_running_example(
    *,
    max_length: int = 8,
    epsilon: float = 0.5,
    delta: float = 0.1,
    num_batches: int = 1,
) -> list[dict[str, object]]:
    """Fig. 2: breadth-first path counts vs AMC's Hoeffding budget η* on the toy graph.

    ``#path(v)`` counts the walks of length exactly ℓ_f starting at ``v``
    (computable by a deterministic traversal — the quantity SMM's cost tracks),
    while η* is Eq. (8) evaluated with one-hot input vectors.  The paper's
    qualitative point — η* starts above the traversal counts and is overtaken
    once the dense endpoint's neighbourhood explodes — is what the rows show.
    """
    graph, s, t = toy_running_example()
    adjacency = graph.adjacency_matrix()
    deg_s = float(graph.weighted_degrees[s])
    deg_t = float(graph.weighted_degrees[t])

    def walk_counts(start: int) -> list[int]:
        counts = []
        vec = np.zeros(graph.num_nodes)
        vec[start] = 1.0
        for _ in range(max_length):
            vec = adjacency.T @ vec
            counts.append(int(round(vec.sum())))
        return counts

    paths_s = walk_counts(s)
    paths_t = walk_counts(t)
    rows = []
    for length in range(1, max_length + 1):
        psi = amc_psi(length, deg_s, deg_t, 1.0, 0.0, 1.0, 0.0)
        eta_star = amc_sample_budget(psi, epsilon, delta, num_batches)
        rows.append(
            {
                "l_f": length,
                "#path(s)": paths_s[length - 1],
                "#path(t)": paths_t[length - 1],
                "#path(s)+#path(t)": paths_s[length - 1] + paths_t[length - 1],
                "eta_star": eta_star,
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Figs. 8-9 — varying τ
# --------------------------------------------------------------------------- #
def fig8_fig9_vary_tau(
    dataset: str | Graph,
    *,
    epsilon: float,
    taus: Sequence[int] = tuple(range(1, 9)),
    num_queries: int = 20,
    methods: Sequence[str] = ("geer", "amc"),
    rng: RngLike = 7,
    max_total_steps: Optional[int] = 20_000_000,
    dataset_label: Optional[str] = None,
) -> list[dict[str, object]]:
    """Figs. 8-9: average running time of AMC and GEER as τ varies (ε fixed)."""
    if isinstance(dataset, Graph):
        graph = dataset
        name = dataset_label or "custom"
    else:
        graph = load_dataset(dataset)
        name = dataset_label or dataset
    gen = as_generator(rng)
    queries = random_query_set(graph, num_queries, rng=gen)
    base = EffectiveResistanceEstimator(graph, rng=gen)
    lam = base.lambda_max_abs

    rows: list[dict[str, object]] = []
    for tau in taus:
        estimator = EffectiveResistanceEstimator(
            graph, num_batches=int(tau), lambda_max_abs=lam, rng=gen
        )
        for method in methods:
            times = []
            for s, t in queries:
                kwargs = {}
                if method == "amc":
                    kwargs["max_total_steps"] = max_total_steps
                result = estimator.estimate(s, t, epsilon, method=method, **kwargs)
                times.append(result.elapsed_seconds)
            rows.append(
                {
                    "dataset": name,
                    "epsilon": epsilon,
                    "tau": int(tau),
                    "method": method,
                    "avg_time_ms": 1000.0 * float(np.mean(times)),
                }
            )
    return rows


# --------------------------------------------------------------------------- #
# Fig. 10 — varying ℓ_b around the greedy switch point
# --------------------------------------------------------------------------- #
def fig10_vary_switch_point(
    dataset: str | Graph,
    *,
    epsilon: float,
    offsets: Sequence[int] = (-6, -4, -2, 0, 2, 4, 6),
    num_queries: int = 20,
    rng: RngLike = 7,
    max_total_steps: Optional[int] = 20_000_000,
    dataset_label: Optional[str] = None,
) -> list[dict[str, object]]:
    """Fig. 10: GEER runtime when ℓ_b is forced to ℓ_b* + offset.

    ℓ_b* (offset 0) is whatever the greedy rule (Eq. (17)) picks for each
    query; negative offsets shift work onto AMC, positive offsets onto SMM.
    """
    if isinstance(dataset, Graph):
        graph = dataset
        name = dataset_label or "custom"
    else:
        graph = load_dataset(dataset)
        name = dataset_label or dataset
    gen = as_generator(rng)
    queries = random_query_set(graph, num_queries, rng=gen)
    estimator = EffectiveResistanceEstimator(graph, rng=gen)
    lam = estimator.lambda_max_abs
    transition = graph.transition_matrix()
    arcs = FrontierArcs(transition)

    # determine the greedy switch point per query once
    greedy_points: list[int] = []
    for s, t in queries:
        result = estimator.estimate(s, t, epsilon, method="geer")
        greedy_points.append(int(result.details["switch_point"]))

    rows: list[dict[str, object]] = []
    for offset in offsets:
        times = []
        for (s, t), base_point in zip(queries, greedy_points):
            forced = max(0, base_point + int(offset))
            result = geer_query(
                graph,
                s,
                t,
                epsilon=epsilon,
                lambda_max_abs=lam,
                rng=gen,
                transition=transition,
                arcs=arcs,
                force_smm_iterations=forced,
                max_total_steps=max_total_steps,
            )
            times.append(result.elapsed_seconds)
        rows.append(
            {
                "dataset": name,
                "epsilon": epsilon,
                "offset": int(offset),
                "avg_time_ms": 1000.0 * float(np.mean(times)),
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Fig. 11 — refined ℓ vs Peng et al.'s ℓ in SMM
# --------------------------------------------------------------------------- #
def fig11_walk_length_comparison(
    datasets: Sequence[str | Graph],
    *,
    epsilons: Sequence[float] = (0.5, 0.05),
    num_queries: int = 20,
    rng: RngLike = 7,
    time_budget_seconds: Optional[float] = None,
    dataset_labels: Optional[Sequence[str]] = None,
) -> list[dict[str, object]]:
    """Fig. 11: SMM runtime with the refined ℓ (Eq. 6) vs the generic ℓ (Eq. 5)."""
    rows: list[dict[str, object]] = []
    for index, dataset in enumerate(datasets):
        if isinstance(dataset, Graph):
            graph = dataset
            name = dataset_labels[index] if dataset_labels else f"custom-{index}"
        else:
            graph = load_dataset(dataset)
            name = dataset_labels[index] if dataset_labels else dataset
        gen = as_generator(rng)
        context = build_context(graph, rng=gen)
        queries = random_query_set(graph, num_queries, rng=gen)
        for epsilon in epsilons:
            for method, label in (("smm", "refined"), ("smm-peng", "peng")):
                sweep = run_method(
                    context,
                    method,
                    queries,
                    epsilon,
                    time_budget_seconds=time_budget_seconds,
                )
                sample_pair = queries.pairs[0]
                if label == "refined":
                    length = refined_walk_length(
                        epsilon,
                        context.lambda_max_abs,
                        float(graph.weighted_degrees[sample_pair[0]]),
                        float(graph.weighted_degrees[sample_pair[1]]),
                    )
                else:
                    length = peng_walk_length(epsilon, context.lambda_max_abs)
                rows.append(
                    {
                        "dataset": name,
                        "epsilon": epsilon,
                        "length_rule": label,
                        "example_length": length,
                        "avg_time_ms": sweep.average_time_ms,
                        "avg_abs_error": sweep.average_absolute_error,
                    }
                )
    return rows


__all__ = [
    "DEFAULT_EPSILONS",
    "run_dataset_sweep",
    "fig2_running_example",
    "fig4_random_query_time",
    "fig5_edge_query_time",
    "fig6_random_query_error",
    "fig7_edge_query_error",
    "fig8_fig9_vary_tau",
    "fig10_vary_switch_point",
    "fig11_walk_length_comparison",
]
