"""TP — truncated-walk Monte Carlo baseline of Peng et al. (Section 2.3.2).

TP evaluates the truncated series of Eq. (4) term by term: for every length
``i ∈ [1, ℓ]`` it simulates a batch of length-``i`` walks from ``s`` and from
``t`` and uses the fraction of walks ending at ``s`` / ``t`` as estimates of
``p_i(s, ·)`` and ``p_i(t, ·)``.  The Chernoff–Hoeffding analysis in the
original paper requires ``40 ℓ² ln(8ℓ/δ) / ε²`` walks *per length*, which is
what makes TP slow even on small graphs — exactly the behaviour the evaluation
highlights.

At laptop scale the faithful budget is often infeasible, so the harness can
scale it down with ``budget_scale`` (see ``QueryBudget.laptop()``); results
produced with a reduced budget are flagged via ``details['budget_scale']``.
"""

from __future__ import annotations

import math
import time
from typing import Optional

from repro.core.registry import register_method
from repro.core.result import EstimateResult
from repro.core.walk_length import peng_walk_length
from repro.graph.graph import Graph
from repro.graph.properties import require_walkable
from repro.sampling.walks import RandomWalkEngine
from repro.utils.rng import RngLike
from repro.utils.timing import Timer
from repro.utils.validation import check_node_pair, check_positive, check_probability


def tp_walks_per_length(walk_length: int, epsilon: float, delta: float) -> int:
    """The original Hoeffding budget ``40 ℓ² ln(8ℓ/δ) / ε²`` walks per length."""
    if walk_length <= 0:
        return 0
    return int(
        math.ceil(40.0 * walk_length**2 * math.log(8.0 * walk_length / delta) / epsilon**2)
    )


def tp_query(
    graph: Graph,
    s: int,
    t: int,
    *,
    epsilon: float,
    lambda_max_abs: float,
    delta: float = 0.01,
    rng: RngLike = None,
    engine: Optional[RandomWalkEngine] = None,
    walk_length: Optional[int] = None,
    walks_per_length: Optional[int] = None,
    budget_scale: float = 1.0,
    max_total_steps: Optional[int] = None,
    max_seconds: Optional[float] = None,
    max_walks_per_batch: int = 5_000_000,
) -> EstimateResult:
    """Answer an ε-approximate PER query with TP.

    Parameters
    ----------
    walk_length:
        ℓ; defaults to Peng et al.'s generic bound (Eq. (5)) — TP does not know
        about the refined per-pair bound.
    walks_per_length:
        Override of the per-length walk budget (before ``budget_scale``).
    budget_scale:
        Multiplier in ``(0, 1]`` applied to the per-length budget for
        laptop-scale sweeps.
    max_seconds:
        Per-query wall-clock cap.  TP's faithful budget is often hours per
        query (that is the paper's point); the cap lets a sweep report "how far
        TP got" instead of blocking.  Capped runs are flagged.
    max_walks_per_batch:
        Memory guard on the number of simultaneous walks per length.
    """
    require_walkable(graph)
    s, t = check_node_pair(s, t, graph.num_nodes)
    epsilon = check_positive(epsilon, "epsilon")
    delta = check_probability(delta, "delta")
    if not 0 < budget_scale <= 1.0:
        raise ValueError("budget_scale must lie in (0, 1]")

    timer = Timer()
    with timer:
        if s == t:
            return EstimateResult(value=0.0, method="tp", s=s, t=t, epsilon=epsilon)
        deg_s = float(graph.weighted_degrees[s])
        deg_t = float(graph.weighted_degrees[t])
        if walk_length is None:
            walk_length = peng_walk_length(epsilon, lambda_max_abs)
        if walks_per_length is None:
            walks_per_length = tp_walks_per_length(walk_length, epsilon, delta)
        walks_per_length = max(1, int(math.ceil(walks_per_length * budget_scale)))

        if engine is None:
            engine = RandomWalkEngine(graph, rng=rng)
        start_steps = engine.total_steps

        # i = 0 term of Eq. (4): p_0(s,s) = p_0(t,t) = 1, p_0(s,t) = p_0(t,s) = 0.
        estimate = 1.0 / deg_s + 1.0 / deg_t
        truncated = False
        total_walks = 0
        query_start = time.perf_counter()
        for length in range(1, walk_length + 1):
            if max_seconds is not None and time.perf_counter() - query_start > max_seconds:
                truncated = True
                break
            batch_walks = walks_per_length
            if batch_walks > max_walks_per_batch:
                batch_walks = max_walks_per_batch
                truncated = True
            if max_total_steps is not None:
                remaining = max_total_steps - (engine.total_steps - start_steps)
                allowed = remaining // max(1, 2 * length)
                if allowed < 1:
                    truncated = True
                    break
                if allowed < batch_walks:
                    # spend the remaining budget on this length rather than skip it
                    batch_walks = int(allowed)
                    truncated = True
            ends_s = engine.walk_endpoints(s, batch_walks, length)
            ends_t = engine.walk_endpoints(t, batch_walks, length)
            total_walks += 2 * batch_walks
            p_ss = float((ends_s == s).mean())
            p_st = float((ends_s == t).mean())
            p_tt = float((ends_t == t).mean())
            p_ts = float((ends_t == s).mean())
            estimate += p_ss / deg_s + p_tt / deg_t - p_st / deg_t - p_ts / deg_s

    return EstimateResult(
        value=estimate,
        method="tp",
        s=s,
        t=t,
        epsilon=epsilon,
        walk_length=walk_length,
        num_walks=total_walks,
        total_steps=engine.total_steps - start_steps,
        elapsed_seconds=timer.elapsed,
        budget_exhausted=truncated,
        details={
            "walks_per_length": walks_per_length,
            "budget_scale": budget_scale,
        },
    )


# --------------------------------------------------------------------------- #
# registry adapter
# --------------------------------------------------------------------------- #
def _tp_registry_query(context, s: int, t: int, epsilon: float, **kwargs) -> EstimateResult:
    kwargs.setdefault("budget_scale", context.budget.tp_budget_scale)
    kwargs.setdefault("max_seconds", context.budget.baseline_max_seconds)
    kwargs.setdefault("delta", context.delta)
    if "rng" not in kwargs:
        kwargs.setdefault("engine", context.engine)
    return tp_query(
        context.graph, s, t, epsilon=epsilon, lambda_max_abs=context.lambda_max_abs, **kwargs
    )


register_method(
    "tp",
    description="Peng et al. truncated-walk Monte Carlo (per-length Hoeffding budget)",
    walk_length_param="walk_length",
    walk_length_kind="peng",
    parallel_seed="engine",
    func=_tp_registry_query,
)

__all__ = ["tp_query", "tp_walks_per_length"]
