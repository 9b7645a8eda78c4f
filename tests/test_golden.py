"""Golden regression fixtures: seed-pinned estimates for every method.

``tests/data/golden.json`` (regenerated with ``python tests/regen_golden.py``)
stores the estimate of every registered method on pinned graphs, pairs and
seeds — one unweighted and one weighted graph.  This test replays the same
queries and compares:

* **bit-for-bit** (IEEE-754 hex) for the walk-kernel methods, extending PR 3's
  fused/chunked bit-identity contracts to all 12 methods: any kernel change
  that silently shifts numerics fails loudly here;
* to a tight relative tolerance for the solver-backed methods (CG/ARPACK
  round-off may differ across SciPy builds).

The unweighted entries were generated **before** the weighted refactor landed,
so this file is also the executable proof of the refactor's contract: under
the same seed, unweighted graphs produce bit-identical results to the
pre-weights code.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from regen_golden import (
    BITWISE_METHODS,
    SOLVER_METHODS,
    GOLDEN_PATH,
    golden_graphs,
    run_method,
)

pytestmark = pytest.mark.conformance


@pytest.fixture(scope="module")
def golden() -> dict:
    assert GOLDEN_PATH.is_file(), (
        f"missing {GOLDEN_PATH}; run `PYTHONPATH=src python tests/regen_golden.py`"
    )
    return json.loads(Path(GOLDEN_PATH).read_text())


@pytest.fixture(scope="module")
def graphs():
    return golden_graphs()


def test_golden_covers_every_method_and_both_weightings(golden):
    from repro.core.registry import available_methods

    assert set(golden["graphs"]) == {"ba60-unweighted", "ba60-weighted"}
    for entry in golden["graphs"].values():
        assert sorted(entry["methods"]) == sorted(available_methods())
    assert sorted(BITWISE_METHODS + SOLVER_METHODS) == sorted(available_methods())


@pytest.mark.parametrize("graph_name", ["ba60-unweighted", "ba60-weighted"])
@pytest.mark.parametrize("method", sorted(BITWISE_METHODS))
def test_walk_methods_are_bit_identical(golden, graphs, graph_name, method):
    stored = golden["graphs"][graph_name]["methods"][method]["hex"]
    replayed = [float(v).hex() for v in run_method(graphs[graph_name], method)]
    assert replayed == stored, (
        f"{method} on {graph_name} drifted from the golden values — a kernel "
        "change shifted numerics. If intentional, regenerate with "
        "`PYTHONPATH=src python tests/regen_golden.py` and say so in the PR."
    )


@pytest.mark.parametrize("backend", ["numpy"])
@pytest.mark.parametrize("graph_name", ["ba60-unweighted", "ba60-weighted"])
@pytest.mark.parametrize("method", sorted(BITWISE_METHODS))
def test_walk_methods_bit_identical_across_backends(
    golden, graphs, graph_name, method, backend
):
    """The kernel named in benchmark fingerprints reproduces the golden bits.

    ``active_backend_name`` is what the benchmark records as the walk kernel
    behind its numbers; this pins that name to the one kernel that exists
    and checks that kernel replays the golden values exactly.
    """
    from repro.sampling.kernels import active_backend_name

    assert active_backend_name() == backend
    assert active_backend_name(backend) == backend
    stored = golden["graphs"][graph_name]["methods"][method]["hex"]
    replayed = [float(v).hex() for v in run_method(graphs[graph_name], method)]
    assert replayed == stored, (
        f"{method} on {graph_name} drifted from the golden values under the "
        f"{backend!r} walk kernel"
    )


@pytest.mark.parametrize("graph_name", ["ba60-unweighted", "ba60-weighted"])
@pytest.mark.parametrize("method", sorted(SOLVER_METHODS))
def test_solver_methods_match_tightly(golden, graphs, graph_name, method):
    stored = golden["graphs"][graph_name]["methods"][method]["values"]
    replayed = run_method(graphs[graph_name], method)
    assert replayed == pytest.approx(stored, rel=1e-9, abs=1e-12)
