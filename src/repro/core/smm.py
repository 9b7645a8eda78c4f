"""SMM — deterministic estimation via sparse matrix-vector multiplications.

Algorithm 2 in the paper.  Starting from the one-hot vectors ``e_s`` and
``e_t``, each iteration multiplies by the transition matrix ``P`` so that after
``i`` iterations ``s*(v) = p_i(v, s)`` and ``t*(v) = p_i(v, t)`` (Eq. (15)),
and accumulates the ``i``-th term of the truncated effective resistance
``r_ℓ(s, t)`` (Eq. (4)).

Each propagation vector is a dense numpy buffer plus its support.  While the
support is small — exactly the regime in which the paper argues SMM beats
random walks — an iteration pushes only the support's arcs; once the frontier
has saturated it switches to a dense SpMV.  Both produce the bits scipy's
``P @ x`` produces (see :meth:`SMMState._push`).  The number of edge
traversals per iteration (the cost model of Eq. (17)) is recorded in
:attr:`SMMState.spmv_operations`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.core.registry import QueryContext, register_method
from repro.core.result import EstimateResult
from repro.core.walk_length import peng_walk_length
from repro.graph.graph import Graph
from repro.sampling.concentration import top_two_values
from repro.utils.timing import Timer
from repro.utils.validation import check_integer, check_node_pair


class FrontierArcs:
    """The transition matrix ``P`` read along its own CSR arcs, for the SMM push.

    A pure function of ``P`` (hence of the graph).  For the arc ``a = (j → i)``
    stored in row ``j``:

    * ``reverse[a]`` is the row-major position of the reverse arc ``(i → j)``
      in row ``i``;
    * ``column_data[a] = P[i, j]``, i.e. ``P.data[reverse[a]]`` — column ``j``
      of ``P`` laid out along row ``j``'s arcs.
    """

    __slots__ = ("indptr", "indices", "column_data", "reverse")

    def __init__(self, transition: sp.csr_matrix) -> None:
        n = transition.shape[0]
        indptr = np.asarray(transition.indptr, dtype=np.int64)
        indices = np.asarray(transition.indices, dtype=np.int64)
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        # The k-th arc in (row, column) order and the k-th arc in (column, row)
        # order are reverses of each other, because the structure is symmetric.
        by_row = np.argsort(rows * n + indices, kind="stable")
        by_column = np.argsort(indices * n + rows, kind="stable")
        reverse = np.empty(len(indices), dtype=np.int64)
        reverse[by_row] = by_column
        self.indptr = indptr
        self.indices = indices
        self.reverse = reverse
        self.column_data = np.asarray(transition.data, dtype=np.float64)[reverse]


class _Frontier:
    """One propagation vector: a dense buffer that is zero off ``support``."""

    __slots__ = ("values", "support", "cost", "dense", "spare")

    def __init__(self, num_nodes: int, node: int, degrees: np.ndarray) -> None:
        self.values = np.zeros(num_nodes)
        self.values[node] = 1.0
        self.support = np.array([node], dtype=np.int64)
        self.cost = int(degrees[node])
        self.dense = False
        self.spare: Optional[np.ndarray] = None

    def top_two(self) -> tuple[float, float]:
        """``(max1, max2)`` over the support; equal to the dense vector's,
        since every entry off the support is ``+0.0`` and none is negative."""
        return top_two_values(self.values[self.support])


class SMMState:
    """Iteratively maintains the propagation vectors ``s*`` and ``t*``.

    Parameters
    ----------
    graph:
        The input graph.
    s, t:
        Query nodes.
    transition:
        Optional pre-built transition matrix ``P = D^{-1}A`` (CSR).  Passing it
        avoids rebuilding the matrix for every query in a sweep.
    arcs:
        Optional :class:`FrontierArcs` of ``transition`` (the
        ``frontier_arcs`` cell of a :class:`QueryContext`); built from
        ``transition`` when omitted.
    dense_switch_fraction:
        Once the support of a propagation vector exceeds this fraction of the
        nodes, the vector is pushed with a dense SpMV (sparse bookkeeping no
        longer pays off).
    """

    def __init__(
        self,
        graph: Graph,
        s: int,
        t: int,
        *,
        transition: Optional[sp.csr_matrix] = None,
        arcs: Optional[FrontierArcs] = None,
        dense_switch_fraction: float = 0.25,
    ) -> None:
        s, t = check_node_pair(s, t, graph.num_nodes)
        self._graph = graph
        self._s = s
        self._t = t
        self._transition = transition if transition is not None else graph.transition_matrix()
        self._arcs = arcs if arcs is not None else FrontierArcs(self._transition)
        # Structural degrees drive the Eq. (17) frontier-cost accounting
        # (edge traversals); the *weighted* degrees enter the estimate terms.
        self._degrees = graph.degrees
        self._deg_s = float(graph.weighted_degrees[s])
        self._deg_t = float(graph.weighted_degrees[t])
        self._dense_switch = max(int(dense_switch_fraction * graph.num_nodes), 1)

        n = graph.num_nodes
        self._s_frontier = _Frontier(n, s, self._degrees)
        self._t_frontier = _Frontier(n, t, self._degrees)

        self.iterations = 0
        self.spmv_operations = 0
        self.estimate = self._current_term()

    # ------------------------------------------------------------------ #
    # vector access
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def s(self) -> int:
        return self._s

    @property
    def t(self) -> int:
        return self._t

    def s_vector(self) -> np.ndarray:
        """Dense copy of ``s*`` (``s*(v) = p_i(v, s)`` after ``i`` iterations)."""
        return self._s_frontier.values.copy()

    def t_vector(self) -> np.ndarray:
        """Dense copy of ``t*``."""
        return self._t_frontier.values.copy()

    def top_two(self) -> tuple[float, float, float, float]:
        """``(s_max1, s_max2, t_max1, t_max2)``: the two largest entries of
        ``s*`` and of ``t*`` (``max2`` is 0 for a one-node support)."""
        return self._s_frontier.top_two() + self._t_frontier.top_two()

    def next_iteration_cost(self) -> int:
        """Edge traversals the *next* SMM iteration would perform (Eq. (17) LHS)."""
        return self._s_frontier.cost + self._t_frontier.cost

    # ------------------------------------------------------------------ #
    # iteration
    # ------------------------------------------------------------------ #
    def _current_term(self) -> float:
        s_values = self._s_frontier.values
        t_values = self._t_frontier.values
        return (
            float(s_values[self._s]) / self._deg_s
            + float(t_values[self._t]) / self._deg_t
            - float(s_values[self._t]) / self._deg_s
            - float(t_values[self._s]) / self._deg_t
        )

    def _push(self, frontier: _Frontier) -> None:
        """``x ← P x`` for one frontier, bit-for-bit what scipy computes.

        Row ``i`` of ``P x`` is summed from 0.0 over row ``i``'s stored arcs,
        as scipy's ``csr_matmat`` and ``csr_matvec`` do.  The sparse push
        visits only the support's arcs and adds each term into its target row
        in that stored order (a skipped term is an exact ``+0.0``), then drops
        exact zeros like ``csr_matmat``.
        """
        if frontier.dense:
            values = self._transition @ frontier.values
            support = np.flatnonzero(values)
        else:
            arcs = self._arcs
            old = frontier.support
            starts = arcs.indptr[old]
            counts = arcs.indptr[old + 1] - starts
            ends = np.cumsum(counts)
            positions = np.arange(int(counts.sum())) + np.repeat(starts - ends + counts, counts)
            # Ordering the terms by the reverse arc's row-major position gives
            # each target row its terms in stored order, whatever the layout.
            perm = np.argsort(arcs.reverse[positions])
            order = positions[perm]
            targets = arcs.indices[order]
            terms = arcs.column_data[order] * np.repeat(frontier.values[old], counts)[perm]
            values = frontier.spare if frontier.spare is not None else np.zeros_like(frontier.values)
            np.add.at(values, targets, terms)
            support = np.unique(targets)
            support = support[values[support] != 0.0]
            frontier.values[old] = 0.0
            frontier.spare = frontier.values
            frontier.dense = len(support) >= self._dense_switch
        frontier.values = values
        frontier.support = support
        frontier.cost = int(self._degrees[support].sum())

    def step(self) -> float:
        """Perform one SMM iteration (Lines 4-5 of Algorithm 2); returns the new term."""
        self.spmv_operations += self.next_iteration_cost()
        self._push(self._s_frontier)
        self._push(self._t_frontier)
        self.iterations += 1
        term = self._current_term()
        self.estimate += term
        return term

    def run(self, num_iterations: int) -> float:
        """Run ``num_iterations`` additional iterations; returns the running estimate."""
        check_integer(num_iterations, "num_iterations", minimum=0)
        for _ in range(num_iterations):
            self.step()
        return self.estimate


def smm_estimate(
    graph: Graph,
    s: int,
    t: int,
    num_iterations: int,
    *,
    transition: Optional[sp.csr_matrix] = None,
    arcs: Optional[FrontierArcs] = None,
) -> EstimateResult:
    """Run SMM (Algorithm 2) for ``num_iterations`` iterations.

    When ``num_iterations`` equals the maximum walk length ℓ of Eq. (6), the
    returned value approximates ``r(s, t)`` within ``ε/2`` deterministically.
    """
    check_integer(num_iterations, "num_iterations", minimum=0)
    timer = Timer()
    with timer:
        state = SMMState(graph, s, t, transition=transition, arcs=arcs)
        state.run(num_iterations)
    return EstimateResult(
        value=state.estimate,
        method="smm",
        s=state.s,
        t=state.t,
        epsilon=float("nan"),
        walk_length=num_iterations,
        smm_iterations=state.iterations,
        spmv_operations=state.spmv_operations,
        elapsed_seconds=timer.elapsed,
    )


# --------------------------------------------------------------------------- #
# registry adapters
# --------------------------------------------------------------------------- #
def _smm_registry_query(
    context: QueryContext, s: int, t: int, epsilon: float, **kwargs
) -> EstimateResult:
    num_iterations = kwargs.pop("num_iterations", None)
    refined = kwargs.pop("refined", True)
    if num_iterations is None:
        num_iterations = context.walk_length(s, t, epsilon, refined=refined)
    timer = Timer()
    with timer:
        result = smm_estimate(
            context.graph,
            s,
            t,
            num_iterations,
            transition=context.transition,
            arcs=context.frontier_arcs,
            **kwargs,
        )
    result.epsilon = epsilon
    result.elapsed_seconds = timer.elapsed
    return result


def _smm_peng_registry_query(
    context: QueryContext, s: int, t: int, epsilon: float, **kwargs
) -> EstimateResult:
    num_iterations = kwargs.pop("num_iterations", None)
    if num_iterations is None:
        num_iterations = peng_walk_length(epsilon, context.lambda_max_abs)
    result = smm_estimate(
        context.graph,
        s,
        t,
        num_iterations,
        transition=context.transition,
        arcs=context.frontier_arcs,
        **kwargs,
    )
    result.epsilon = epsilon
    result.method = "smm-peng"
    return result


register_method(
    "smm",
    description="Algorithm 2: deterministic SpMV propagation for the refined length ℓ",
    deterministic=True,
    walk_length_param="num_iterations",
    walk_length_kind="refined",
    func=_smm_registry_query,
)
register_method(
    "smm-peng",
    description="SMM run for the generic Eq. (5) length (the Fig. 11 comparison arm)",
    deterministic=True,
    walk_length_param="num_iterations",
    walk_length_kind="peng",
    func=_smm_peng_registry_query,
)

__all__ = ["FrontierArcs", "SMMState", "smm_estimate"]
