"""Unit tests for the experiment harness."""

import math

import pytest

from repro.experiments.datasets import load_dataset
from repro.experiments.harness import (
    EDGE_QUERY_METHODS,
    METHOD_REGISTRY,
    RANDOM_QUERY_METHODS,
    build_context,
    run_method,
    run_sweep,
)
from repro.experiments.queries import edge_query_set, random_query_set


@pytest.fixture(scope="module")
def graph():
    return load_dataset("facebook-tiny")


@pytest.fixture(scope="module")
def context(graph):
    return build_context(graph, rng=5)


@pytest.fixture(scope="module")
def random_queries(graph):
    return random_query_set(graph, 4, rng=6)


@pytest.fixture(scope="module")
def edge_queries(graph):
    return edge_query_set(graph, 4, rng=7)


class TestContext:
    def test_registry_covers_paper_methods(self):
        for method in RANDOM_QUERY_METHODS + EDGE_QUERY_METHODS:
            assert method in METHOD_REGISTRY

    def test_lambda_exposed(self, context):
        assert 0 < context.lambda_max_abs < 1

    def test_rp_sketch_cached_per_epsilon(self, context):
        a = context.rp_sketch(0.5)
        b = context.rp_sketch(0.5)
        assert a is b

    def test_unknown_override_rejected(self, graph):
        with pytest.raises(TypeError):
            build_context(graph, nonsense=1)


class TestRunMethod:
    @pytest.mark.parametrize("method", ["geer", "amc", "smm", "rp", "exact"])
    def test_random_query_methods_within_epsilon(self, context, random_queries, method):
        sweep = run_method(context, method, random_queries, 0.25)
        assert sweep.completed == len(random_queries)
        assert sweep.average_absolute_error <= 0.25
        assert sweep.success_rate == 1.0
        assert sweep.average_time_ms >= 0.0

    @pytest.mark.parametrize("method", ["mc2", "hay"])
    def test_edge_query_methods(self, context, edge_queries, method):
        sweep = run_method(context, method, edge_queries, 0.25)
        assert sweep.completed == len(edge_queries)
        assert sweep.average_absolute_error <= 0.25

    def test_tp_tpc_with_scaled_budgets(self, context, random_queries):
        for method in ("tp", "tpc"):
            sweep = run_method(context, method, random_queries, 0.3)
            assert sweep.completed == len(random_queries)
            assert sweep.average_absolute_error <= 0.3

    def test_unknown_method(self, context, random_queries):
        with pytest.raises(KeyError):
            run_method(context, "nope", random_queries, 0.2)

    def test_time_budget_marks_timeout(self, context, random_queries):
        sweep = run_method(
            context, "geer", random_queries, 0.2, time_budget_seconds=0.0
        )
        assert sweep.timed_out
        assert sweep.completed < len(random_queries)

    def test_as_row_keys(self, context, random_queries):
        sweep = run_method(context, "geer", random_queries, 0.4)
        row = sweep.as_row()
        for key in ("method", "epsilon", "avg_time_ms", "avg_abs_error", "timed_out"):
            assert key in row

    @pytest.mark.parametrize(
        "method, is_built",
        [
            ("exact", lambda qc, eps: qc.artifact_status()["exact_oracle"] == "ready"),
            ("rp", lambda qc, eps: eps in qc.artifact("rp_sketches")),
        ],
        ids=["exact", "rp"],
    )
    def test_preprocessing_is_built_before_the_first_query(
        self, graph, random_queries, monkeypatch, method, is_built
    ):
        # One-off preprocessing must not be timed as part of the first query.
        context = build_context(graph, rng=9)
        runner = METHOD_REGISTRY[method]
        built_at_start = []

        def recording_runner(ctx, s, t, epsilon):
            built_at_start.append(is_built(ctx.query_context, epsilon))
            return runner(ctx, s, t, epsilon)

        monkeypatch.setitem(METHOD_REGISTRY, method, recording_runner)
        sweep = run_method(context, method, random_queries, 0.25)
        assert sweep.completed == len(random_queries)
        assert built_at_start == [True] * len(random_queries)

    def test_skip_on_infeasible_preprocessing(self, graph, random_queries):
        context = build_context(graph, rng=8, exact_max_nodes=10)
        sweep = run_method(context, "exact", random_queries, 0.2)
        assert sweep.skipped_reason is not None
        assert sweep.completed == 0


class TestRunSweep:
    def test_grid_shape(self, context, random_queries):
        results = run_sweep(context, ["geer", "smm"], random_queries, [0.5, 0.2])
        assert len(results) == 4
        assert {r.method for r in results} == {"geer", "smm"}
        assert {r.epsilon for r in results} == {0.5, 0.2}
