"""Dependency-tracked artifact cells and epoch-versioned contexts.

Covers the incremental-maintenance half of the delta ≡ rebuild contract at
the artifact level (patched transition matrix / degree arrays / alias tables
/ engine are bitwise what a cold context on the post-delta graph builds) plus
the epoch plumbing: plan pinning, refresh policies, lineage.
"""

import numpy as np
import pytest

from repro.core.engine import QueryEngine
from repro.core.registry import REFRESH_POLICIES, QueryBudget, QueryContext
from repro.exceptions import StaleEpochError
from repro.graph import (
    EdgeDelta,
    barabasi_albert_graph,
    graph_fingerprint,
    with_random_weights,
)
from repro.sampling.walks import _build_alias_tables


@pytest.fixture(params=[False, True], ids=["unweighted", "weighted"])
def graph(request):
    base = barabasi_albert_graph(80, 3, rng=11)
    return with_random_weights(base, rng=13) if request.param else base


@pytest.fixture()
def delta(graph):
    edges = [tuple(map(int, e)) for e in graph.edge_array()]
    inserts = [(70, 79, 2.0)] if graph.is_weighted else [(70, 79)]
    reweights = [edges[12] + (0.4,)] if graph.is_weighted else []
    return EdgeDelta(inserts=inserts, removals=[edges[5]], reweights=reweights)


class TestArtifactCells:
    def test_status_starts_empty_and_fills_lazily(self, graph):
        context = QueryContext(graph)
        assert set(context.artifact_status().values()) == {"empty"}
        context.transition
        context.degrees_float
        status = context.artifact_status()
        assert status["transition"] == "ready"
        assert status["degrees_float"] == "ready"
        assert status["spectral"] == "empty"

    def test_frontier_arcs_build_their_transition(self, graph):
        context = QueryContext(graph)
        arcs = context.frontier_arcs  # its builder reads the transition cell
        status = context.artifact_status()
        assert status["frontier_arcs"] == status["transition"] == "ready"
        assert np.array_equal(arcs.column_data, context.transition.data[arcs.reverse])

    def test_invalidate_drops_a_cell(self, graph):
        context = QueryContext(graph)
        context.transition
        context.invalidate("transition")
        assert context.artifact_status()["transition"] == "empty"

    def test_invalidate_spectral_clears_injected_lambda(self, graph):
        context = QueryContext(graph, lambda_max_abs=0.9)
        assert context._lambda == 0.9
        context.invalidate("spectral")
        assert context._lambda is None

    def test_injected_artifacts_prepopulate_cells(self, graph):
        transition = graph.transition_matrix()
        context = QueryContext(graph, transition=transition)
        assert context.artifact_status()["transition"] == "ready"
        assert context.transition is transition


class TestApplyDelta:
    def test_epoch_and_lineage_advance(self, graph, delta):
        context = QueryContext(graph)
        base_lineage = context.lineage
        assert base_lineage == graph_fingerprint(graph)
        new_epoch = context.apply_delta(delta)
        assert new_epoch == context.epoch == 1
        assert context.lineage == delta.chain(base_lineage)

    def test_graph_matches_cold_apply(self, graph, delta):
        context = QueryContext(graph)
        context.apply_delta(delta)
        assert context.graph == delta.apply_to(graph)

    def test_cheap_cells_patched_expensive_dropped(self, graph, delta):
        context = QueryContext(graph)
        context.lambda_max_abs
        context.transition
        context.degrees_float
        context.engine
        context.solver
        context.apply_delta(delta)
        status = context.artifact_status()
        assert status["transition"] == "ready"
        assert status["degrees_float"] == "ready"
        assert status["engine"] == "ready"
        assert status["spectral"] == "empty"
        assert status["solver"] == "empty"

    def test_frontier_arcs_rebuild_equals_cold(self, graph, delta):
        single_kind = [
            EdgeDelta(inserts=delta.inserts),
            EdgeDelta(removals=delta.removals),
        ]
        if graph.is_weighted:
            single_kind.append(EdgeDelta(reweights=delta.reweights))
        for change in single_kind + [delta]:
            warm = QueryContext(graph)
            warm.frontier_arcs
            warm.apply_delta(change)
            assert warm.artifact_status()["frontier_arcs"] == "empty"
            cold = QueryContext(change.apply_to(graph))
            warm_arcs, cold_arcs = warm.frontier_arcs, cold.frontier_arcs
            for field in ("indptr", "indices", "column_data", "reverse"):
                assert getattr(warm_arcs, field).tobytes() == getattr(cold_arcs, field).tobytes()

    def test_patched_artifacts_bitwise_equal_cold(self, graph, delta):
        warm = QueryContext(graph)
        warm.transition
        warm.degrees_float
        warm.engine  # builds alias tables on weighted graphs
        warm.apply_delta(delta)
        cold = QueryContext(delta.apply_to(graph))
        assert np.array_equal(warm.degrees_float, cold.degrees_float)
        assert np.array_equal(warm.transition.data, cold.transition.data)
        assert np.array_equal(warm.transition.indices, cold.transition.indices)
        assert np.array_equal(warm.transition.indptr, cold.transition.indptr)
        if graph.is_weighted:
            patched = warm.graph._alias_cache
            assert patched is not None
            prob, alias = _build_alias_tables(cold.graph)
            assert np.array_equal(patched[0], prob)
            assert np.array_equal(patched[1], alias)

    def test_engine_patch_preserves_stream_and_steps(self, graph, delta):
        context = QueryContext(graph, rng=5)
        engine = context.engine
        engine.walk_endpoints(0, 4, 3)
        steps = engine.total_steps
        state = context.rng.bit_generator.state
        context.apply_delta(delta)
        patched = context.engine
        assert patched is not engine
        assert patched.total_steps == steps
        assert patched.rng is context.rng
        assert context.rng.bit_generator.state == state

    def test_apply_delta_never_consumes_session_stream(self, graph, delta):
        context = QueryContext(graph, rng=3)
        before = context.rng.bit_generator.state
        context.apply_delta(delta)
        assert context.rng.bit_generator.state == before

    def test_refresh_policies(self, graph, delta):
        with pytest.raises(ValueError, match="refresh"):
            QueryContext(graph).apply_delta(delta, refresh="sometimes")

        lazy = QueryContext(graph)
        lazy.lambda_max_abs
        lazy.apply_delta(delta, refresh="on-next-read")
        assert lazy.artifact_status()["spectral"] == "empty"

        eager = QueryContext(graph)
        eager.lambda_max_abs
        eager.apply_delta(delta, refresh="eager")
        assert eager.artifact_status()["spectral"] == "ready"

        small_budget = QueryBudget(spectral_refresh_nodes=graph.num_nodes - 1)
        budgeted = QueryContext(graph, budget=small_budget)
        budgeted.lambda_max_abs
        budgeted.apply_delta(delta, refresh="budgeted")
        assert budgeted.artifact_status()["spectral"] == "empty"

        big_budget = QueryBudget(spectral_refresh_nodes=graph.num_nodes)
        budgeted2 = QueryContext(graph, budget=big_budget)
        budgeted2.lambda_max_abs
        budgeted2.apply_delta(delta, refresh="budgeted")
        assert budgeted2.artifact_status()["spectral"] == "ready"

    def test_refreshed_spectral_matches_cold(self, graph, delta):
        warm = QueryContext(graph)
        warm.lambda_max_abs
        warm.apply_delta(delta)
        cold = QueryContext(delta.apply_to(graph))
        assert warm.lambda_max_abs == cold.lambda_max_abs
        assert warm.spectral_info == cold.spectral_info

    def test_disconnecting_delta_raises_when_validated(self):
        from repro.exceptions import GraphStructureError
        from repro.graph import from_edges

        # triangle + pendant node: removing (2, 3) isolates node 3
        edges = [(0, 1), (1, 2), (0, 2), (2, 3)]
        delta = EdgeDelta(removals=[(2, 3)])
        strict = QueryContext(from_edges(edges), validate=True)
        with pytest.raises(GraphStructureError):
            strict.apply_delta(delta)
        # the unvalidated context accepts it (parity with cold validate=False)
        loose = QueryContext(from_edges(edges), validate=False)
        loose.apply_delta(delta)
        assert loose.epoch == 1


class TestEnginePlumbing:
    def test_engine_apply_update_and_epoch(self, graph, delta):
        engine = QueryEngine(graph, rng=1)
        assert engine.epoch == 0
        assert engine.apply_update(delta) == 1
        assert engine.epoch == 1

    def test_stale_plan_refuses_to_execute(self, graph, delta):
        engine = QueryEngine(graph, rng=1)
        plan = engine.plan([(0, 1), (2, 3)], epsilon=0.5)
        engine.apply_update(delta)
        with pytest.raises(StaleEpochError, match="epoch 0"):
            plan.execute()

    def test_fresh_plan_executes_after_update(self, graph, delta):
        engine = QueryEngine(graph, rng=1)
        engine.apply_update(delta)
        batch = engine.query_many([(0, 1)], epsilon=0.5, method="smm")
        assert len(batch) == 1

    def test_refresh_policy_names_are_closed(self):
        assert REFRESH_POLICIES == ("eager", "on-next-read", "budgeted")
