"""Exact effective resistances, computed by the benchmark itself.

The oracle shares no code with the estimators: it takes the graph's edge list,
applies the same edge deltas the benchmark sent to the program, factors the
grounded Laplacian with SuperLU and reads ``r(s, t) = b^T L_g^{-1} b`` for
``b = e_s - e_t``.  Answers are checked against the epoch they report.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class ResistanceOracle:
    """Exact ``r(s, t)`` on a graph and on every epoch reached by edge updates.

    Updates replay in the order added: epoch ``k`` is the base graph after
    the first ``k`` of them, each an ``"add"`` or ``"remove"`` of edge ``(u, v)``.
    """

    def __init__(self, num_nodes: int, edges: np.ndarray) -> None:
        self.num_nodes = int(num_nodes)
        self._base = {(int(min(u, v)), int(max(u, v))) for u, v in edges}
        self._updates: list[tuple[str, int, int]] = []

    @property
    def epochs(self) -> int:
        """Number of updates registered, i.e. the latest epoch."""
        return len(self._updates)

    def add_update(self, op: str, u: int, v: int) -> None:
        if op not in ("add", "remove"):
            raise ValueError(f"unknown update op {op!r}")
        self._updates.append((op, min(u, v), max(u, v)))

    def edges_at(self, epoch: int) -> set[tuple[int, int]]:
        if epoch > self.epochs:
            raise ValueError(f"epoch {epoch} is beyond the {len(self._updates)} updates sent")
        edges = set(self._base)
        for op, u, v in self._updates[:epoch]:
            if op == "add":
                edges.add((u, v))
            else:
                edges.discard((u, v))
        return edges

    def resistances(self, epoch: int, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
        """Exact resistances of ``pairs`` on the graph of ``epoch``."""
        out = np.zeros(len(pairs), dtype=np.float64)
        if not len(pairs):
            return out
        n = self.num_nodes
        edge_arr = np.array(sorted(self.edges_at(epoch)), dtype=np.int64)
        rows = np.concatenate([edge_arr[:, 0], edge_arr[:, 1]])
        cols = np.concatenate([edge_arr[:, 1], edge_arr[:, 0]])
        adjacency = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        degrees = np.asarray(adjacency.sum(axis=1)).ravel()
        laplacian = (sp.diags(degrees) - adjacency).tocsc()
        # Ground node 0: drop its row and column; e_0 maps to the zero vector.
        # The grounded Laplacian is symmetric positive definite, so a
        # symmetric ordering without pivoting keeps the factors sparse.
        lu = spla.splu(
            laplacian[1:, 1:].tocsc(), permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0, options={"SymmetricMode": True},
        )
        for start in range(0, len(pairs), 256):
            chunk = pairs[start : start + 256]
            rhs = np.zeros((n - 1, len(chunk)), dtype=np.float64)
            for j, (s, t) in enumerate(chunk):
                if s == t:
                    continue
                if s != 0:
                    rhs[s - 1, j] += 1.0
                if t != 0:
                    rhs[t - 1, j] -= 1.0
            solved = lu.solve(rhs)
            out[start : start + len(chunk)] = np.einsum("ij,ij->j", rhs, solved)
        return out


def check_answers(
    oracle: ResistanceOracle,
    answers: Iterable[tuple[int, int, int, float, float]],
) -> tuple[int, int, list[str]]:
    """Check ``(epoch, s, t, epsilon, value)`` answers against the exact value.

    Returns ``(checked, within_eps, problems)``.  An answer counts as within
    epsilon only if it is finite and non-negative; ``problems`` describes the
    first few that are not, for the error report.
    """
    by_epoch: dict[int, list[tuple[int, int, float, float]]] = {}
    for epoch, s, t, epsilon, value in answers:
        by_epoch.setdefault(int(epoch), []).append((int(s), int(t), float(epsilon), float(value)))
    checked = within = 0
    problems: list[str] = []
    for epoch, rows in sorted(by_epoch.items()):
        exact = oracle.resistances(epoch, [(s, t) for s, t, _, _ in rows])
        for (s, t, epsilon, value), truth in zip(rows, exact):
            checked += 1
            if math.isfinite(value) and value >= 0.0 and abs(value - truth) <= epsilon:
                within += 1
            elif len(problems) < 5:
                problems.append(
                    f"epoch {epoch} ({s},{t}) eps={epsilon}: {value!r} vs exact {truth!r}"
                )
    return checked, within, problems
