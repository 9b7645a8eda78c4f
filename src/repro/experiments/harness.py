"""The per-method experiment harness.

The harness is now a thin veneer over the central method registry
(:mod:`repro.core.registry`): a :class:`MethodContext` bundles the shared
per-graph state (estimator session, ground-truth oracle, the laptop-scale
budget caps of ``QueryBudget.laptop()``) and exposes it as a
:class:`~repro.core.registry.QueryContext`, and every entry in
:data:`METHOD_REGISTRY` simply dispatches through
:func:`~repro.core.registry.resolve_method`.  The uniform callable shape
``(context, s, t, epsilon) -> EstimateResult`` is unchanged, so the figure
drivers sweep methods × ε grids exactly as before.

The paper excludes a method from a configuration when it cannot answer every
query within one day; :func:`run_method` mirrors that with a configurable
per-configuration time budget, after which the method is marked as timed out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Sequence

import numpy as np

from repro.baselines.exact import ExactEffectiveResistance
from repro.baselines.ground_truth import GroundTruthOracle
from repro.baselines.rp import RandomProjectionSketch
from repro.core.estimator import EffectiveResistanceEstimator
from repro.core.registry import QueryBudget, QueryContext, available_methods, resolve_method
from repro.core.result import EstimateResult
from repro.exceptions import BudgetExceededError
from repro.experiments.queries import QuerySet
from repro.graph.graph import Graph
from repro.utils.rng import RngLike, as_generator
from repro.utils.timing import TimeBudget


# Single source for the laptop-scale caps shared by MethodContext's defaults
# and the registry adapters.
_LAPTOP_BUDGET = QueryBudget.laptop()


@dataclass
class MethodContext:
    """Shared per-graph state for an experiment sweep."""

    graph: Graph
    estimator: EffectiveResistanceEstimator
    ground_truth: GroundTruthOracle
    rng: np.random.Generator
    # laptop-scale budget knobs, defaulting to the QueryBudget.laptop()
    # profile.  TP and TPC run with their faithful
    # per-length budgets by default; `max_total_steps` is what keeps a single
    # query bounded (runs that hit it are flagged).
    tp_budget_scale: float = _LAPTOP_BUDGET.tp_budget_scale
    tpc_budget_scale: float = _LAPTOP_BUDGET.tpc_budget_scale
    baseline_max_seconds: float = _LAPTOP_BUDGET.baseline_max_seconds
    mc_max_walks: int = _LAPTOP_BUDGET.mc_max_walks
    mc2_max_walks: int = _LAPTOP_BUDGET.mc2_max_walks
    hay_max_samples: int = _LAPTOP_BUDGET.hay_max_samples
    rp_jl_constant: float = _LAPTOP_BUDGET.rp_jl_constant
    rp_max_dimension: int = _LAPTOP_BUDGET.rp_max_dimension
    max_total_steps: Optional[int] = _LAPTOP_BUDGET.max_total_steps
    exact_max_nodes: int = _LAPTOP_BUDGET.exact_max_nodes

    @property
    def lambda_max_abs(self) -> float:
        return self.estimator.lambda_max_abs

    @property
    def query_context(self) -> QueryContext:
        """The estimator's shared context, with this harness's budget applied.

        The budget is re-synchronised from the knob fields on every access so
        overrides applied after construction (``build_context(**overrides)``,
        direct attribute assignment in tests) take effect immediately.
        """
        context = self.estimator.context
        context.budget = QueryBudget(
            max_total_steps=self.max_total_steps,
            mc_max_walks=self.mc_max_walks,
            mc2_max_walks=self.mc2_max_walks,
            hay_max_samples=self.hay_max_samples,
            tp_budget_scale=self.tp_budget_scale,
            tpc_budget_scale=self.tpc_budget_scale,
            baseline_max_seconds=self.baseline_max_seconds,
            rp_jl_constant=self.rp_jl_constant,
            rp_max_dimension=self.rp_max_dimension,
            exact_max_nodes=self.exact_max_nodes,
        )
        if self.ground_truth is not None:
            context.ground_truth = self.ground_truth
        return context

    def rp_sketch(self, epsilon: float) -> RandomProjectionSketch:
        return self.query_context.rp_sketch(epsilon)

    def exact_oracle(self) -> ExactEffectiveResistance:
        return self.query_context.exact_oracle()


def build_context(graph: Graph, *, rng: RngLike = None, **overrides) -> MethodContext:
    """Create a :class:`MethodContext` with the paper's defaults (δ=0.01, τ=5)."""
    gen = as_generator(rng)
    estimator = EffectiveResistanceEstimator(graph, delta=0.01, num_batches=5, rng=gen)
    ground_truth = GroundTruthOracle(graph)
    context = MethodContext(
        graph=graph, estimator=estimator, ground_truth=ground_truth, rng=gen
    )
    for key, value in overrides.items():
        if not hasattr(context, key):
            raise TypeError(f"unknown MethodContext field {key!r}")
        setattr(context, key, value)
    return context


# --------------------------------------------------------------------------- #
# method callables
# --------------------------------------------------------------------------- #
def _registry_runner(
    name: str,
) -> Callable[[MethodContext, int, int, float], EstimateResult]:
    spec = resolve_method(name)

    def _runner(ctx: MethodContext, s: int, t: int, epsilon: float) -> EstimateResult:
        return spec(ctx.query_context, int(s), int(t), float(epsilon))

    _runner.__name__ = f"run_{spec.name.replace('-', '_')}"
    return _runner


def mc_default_walks(graph: Graph, s: int, epsilon: float, delta: float = 0.01) -> int:
    """The paper's MC budget with γ = 1."""
    return max(1, int(math.ceil(3.0 * graph.weighted_degrees[s] * math.log(1.0 / delta) / epsilon**2)))


METHOD_REGISTRY: Dict[str, Callable[[MethodContext, int, int, float], EstimateResult]] = {
    name: _registry_runner(name) for name in available_methods()
}

RANDOM_QUERY_METHODS = ("geer", "amc", "smm", "tp", "tpc", "rp", "exact")
EDGE_QUERY_METHODS = ("geer", "amc", "smm", "mc2", "hay")


# --------------------------------------------------------------------------- #
# runners
# --------------------------------------------------------------------------- #
@dataclass
class MethodOutcome:
    """One query answered by one method."""

    method: str
    s: int
    t: int
    epsilon: float
    value: float
    truth: float
    elapsed_seconds: float

    @property
    def absolute_error(self) -> float:
        return abs(self.value - self.truth)

    @property
    def within_epsilon(self) -> bool:
        return self.absolute_error <= self.epsilon


@dataclass
class SweepResult:
    """Aggregate of one (method, ε, query-set) configuration."""

    method: str
    epsilon: float
    outcomes: list[MethodOutcome]
    timed_out: bool = False
    skipped_reason: Optional[str] = None

    @property
    def completed(self) -> int:
        return len(self.outcomes)

    @property
    def average_time_ms(self) -> float:
        if not self.outcomes:
            return float("nan")
        return 1000.0 * float(np.mean([o.elapsed_seconds for o in self.outcomes]))

    @property
    def average_absolute_error(self) -> float:
        if not self.outcomes:
            return float("nan")
        return float(np.mean([o.absolute_error for o in self.outcomes]))

    @property
    def success_rate(self) -> float:
        if not self.outcomes:
            return float("nan")
        return float(np.mean([o.within_epsilon for o in self.outcomes]))

    def as_row(self) -> dict[str, object]:
        return {
            "method": self.method,
            "epsilon": self.epsilon,
            "avg_time_ms": self.average_time_ms,
            "avg_abs_error": self.average_absolute_error,
            "success_rate": self.success_rate,
            "completed": self.completed,
            "timed_out": self.timed_out,
            "skipped": self.skipped_reason,
        }


def run_method(
    context: MethodContext,
    method: str,
    queries: QuerySet | Sequence[tuple[int, int]],
    epsilon: float,
    *,
    time_budget_seconds: Optional[float] = None,
) -> SweepResult:
    """Answer every query in ``queries`` with ``method`` at error level ``epsilon``.

    The per-configuration ``time_budget_seconds`` mirrors the paper's one-day
    cutoff: once exceeded, remaining queries are skipped and the configuration
    is marked as timed out.  Methods whose preprocessing is infeasible (EXACT /
    RP running out of memory) are reported as skipped rather than raising.
    """
    if method not in METHOD_REGISTRY:
        raise KeyError(f"unknown method {method!r}; available: {sorted(METHOD_REGISTRY)}")
    runner = METHOD_REGISTRY[method]
    budget = TimeBudget(time_budget_seconds if time_budget_seconds is not None else math.inf)
    outcomes: list[MethodOutcome] = []
    timed_out = False
    skipped_reason: Optional[str] = None
    for s, t in queries:
        if budget.exceeded():
            timed_out = True
            break
        try:
            result = runner(context, int(s), int(t), float(epsilon))
        except BudgetExceededError as exc:
            skipped_reason = str(exc)
            break
        truth = context.ground_truth.query(int(s), int(t))
        outcomes.append(
            MethodOutcome(
                method=method,
                s=int(s),
                t=int(t),
                epsilon=float(epsilon),
                value=result.value,
                truth=truth,
                elapsed_seconds=result.elapsed_seconds,
            )
        )
    return SweepResult(
        method=method,
        epsilon=float(epsilon),
        outcomes=outcomes,
        timed_out=timed_out,
        skipped_reason=skipped_reason,
    )


def run_sweep(
    context: MethodContext,
    methods: Iterable[str],
    queries: QuerySet | Sequence[tuple[int, int]],
    epsilons: Iterable[float],
    *,
    time_budget_seconds: Optional[float] = None,
) -> list[SweepResult]:
    """Run a full methods × ε grid over one query set."""
    results: list[SweepResult] = []
    for epsilon in epsilons:
        for method in methods:
            results.append(
                run_method(
                    context,
                    method,
                    queries,
                    epsilon,
                    time_budget_seconds=time_budget_seconds,
                )
            )
    return results


__all__ = [
    "MethodContext",
    "MethodOutcome",
    "SweepResult",
    "build_context",
    "run_method",
    "run_sweep",
    "METHOD_REGISTRY",
    "RANDOM_QUERY_METHODS",
    "EDGE_QUERY_METHODS",
    "mc_default_walks",
]
