"""Regenerate the golden regression fixtures in ``tests/data/golden.json``.

Run from the repository root::

    PYTHONPATH=src python tests/regen_golden.py

Every registered method is executed with a pinned seed on small fixed graphs
(one unweighted, one weighted when the :class:`Graph` build supports weights)
and the resulting estimates are stored both as readable floats and as IEEE-754
hex strings.  ``tests/test_golden.py`` replays the same queries and compares
against this file, so any kernel change that silently shifts numerics fails
loudly instead of drifting.

The budgets below are chosen to be *deterministic across machines*: no
wall-clock caps (``baseline_max_seconds=None``), only explicit walk/step/scale
budgets, so a capped run truncates at exactly the same sample on every host.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).parent / "data" / "golden.json"

SEED = 20260727
EPSILON = 0.5

#: Methods whose values are pure NumPy float arithmetic on a pinned random
#: stream — the golden test compares these bit-for-bit (hex equality).
BITWISE_METHODS = (
    "amc",
    "geer",
    "hay",
    "mc",
    "mc2",
    "smm",
    "smm-peng",
    "tp",
    "tpc",
)
#: Methods backed by iterative solvers (CG/ARPACK round-off can differ across
#: SciPy builds) — compared with a tight relative tolerance instead.
SOLVER_METHODS = ("exact", "ground-truth", "rp")


def _budget():
    from repro.core.registry import QueryBudget

    return QueryBudget(
        max_total_steps=2_000_000,
        mc_max_walks=200,
        mc2_max_walks=500,
        hay_max_samples=50,
        tp_budget_scale=0.02,
        tpc_budget_scale=0.01,
        baseline_max_seconds=None,  # wall-clock caps are not deterministic
        rp_jl_constant=4.0,
        rp_max_dimension=2000,
        exact_max_nodes=4000,
    )


def golden_graphs():
    """The pinned fixture graphs, keyed by name."""
    from repro.graph.generators import barabasi_albert_graph

    graphs = {"ba60-unweighted": barabasi_albert_graph(60, 3, rng=8)}
    weighted = _weighted_variant(graphs["ba60-unweighted"])
    if weighted is not None:
        graphs["ba60-weighted"] = weighted
    return graphs


def _weighted_variant(graph):
    """The same topology with pinned random weights, if weights are supported."""
    try:
        from repro.graph.builders import with_random_weights
    except ImportError:
        return None
    return with_random_weights(graph, low=0.5, high=2.5, rng=99)


def golden_pairs(graph):
    """Three pinned *edge* pairs (edges work for every method incl. mc2/hay)."""
    edges = graph.edge_array()
    return [tuple(map(int, edges[i])) for i in (0, 17, 40)]


def run_method(graph, method):
    """Fresh context per method so each replays an isolated random stream."""
    from repro.core.registry import QueryContext, resolve_method

    context = QueryContext(graph, rng=SEED, budget=_budget())
    spec = resolve_method(method)
    values = []
    for s, t in golden_pairs(graph):
        values.append(float(spec(context, s, t, EPSILON).value))
    return values


def regenerate() -> dict:
    from repro.core.registry import available_methods

    payload = {
        "seed": SEED,
        "epsilon": EPSILON,
        "graphs": {},
    }
    for graph_name, graph in golden_graphs().items():
        pairs = golden_pairs(graph)
        entry = {"pairs": pairs, "methods": {}}
        for method in available_methods():
            values = run_method(graph, method)
            entry["methods"][method] = {
                "values": values,
                "hex": [float(v).hex() for v in values],
            }
        payload["graphs"][graph_name] = entry
    return payload


def main() -> None:
    payload = regenerate()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    num_methods = len(next(iter(payload["graphs"].values()))["methods"])
    print(f"wrote {GOLDEN_PATH} ({len(payload['graphs'])} graphs x {num_methods} methods)")


if __name__ == "__main__":
    main()
