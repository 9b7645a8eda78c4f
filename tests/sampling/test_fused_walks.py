"""Property tests of the fused/chunked walk-scoring kernel's exact contracts.

The two determinism contracts (DESIGN.md) are tested with **bit-for-bit**
equality, not tolerances:

1. fused ``walk_scores`` ≡ ``weights[walk_matrix].sum(axis=1)`` under the same
   seed (same draw sequence, same pairwise summation tree);
2. chunked ≡ unchunked for every chunk size, including the post-call random
   stream state (the chunked driver advances the main generator to exactly
   where unchunked execution would have left it).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.amc import amc_query
from repro.core.geer import geer_query
from repro.core.registry import QueryBudget, QueryContext
from repro.graph.builders import with_random_weights
from repro.graph.generators import barabasi_albert_graph, cycle_graph
from repro.sampling.walks import RandomWalkEngine, _pairwise_plan, walk_scores

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@pytest.fixture(scope="module", params=["unweighted", "weighted"])
def graph(request):
    """Both pipelines: the classic uniform kernel and the weighted alias kernel.

    Every exact-equivalence contract in this module (fused == materialised,
    chunked == unchunked, chunk-size invariance of AMC/GEER) must hold for
    weight-proportional steps too.
    """
    base = barabasi_albert_graph(200, 4, rng=5)
    if request.param == "weighted":
        return with_random_weights(base, rng=31)
    return base


@pytest.fixture(scope="module")
def weights(graph):
    return np.random.default_rng(17).random(graph.num_nodes) - 0.3


class TestPairwisePlan:
    @given(st.integers(1, 5000))
    @SETTINGS
    def test_leaves_cover_length_and_merges_balance(self, length):
        leaves, merges = _pairwise_plan(length)
        assert sum(leaves) == length
        assert all(1 <= leaf <= 128 for leaf in leaves)
        # post-order merge counts must collapse the stack to exactly one entry
        depth = 0
        for merge_count in merges:
            depth += 1
            depth -= merge_count
            assert depth >= 1
        assert depth == 1

    @given(st.integers(1, 2000), st.integers(0, 2**31 - 1))
    @SETTINGS
    def test_plan_replays_numpy_reduction(self, length, seed):
        values = np.random.default_rng(seed).random((3, length)) - 0.5
        leaves, merges = _pairwise_plan(length)
        stack = []
        offset = 0
        for leaf, merge_count in zip(leaves, merges):
            partial = values[:, offset : offset + leaf].sum(axis=1)
            offset += leaf
            for _ in range(merge_count):
                right = partial
                partial = stack.pop()
                partial = partial + right
            stack.append(partial)
        assert np.array_equal(stack[0], values.sum(axis=1))


class TestFusedEqualsMaterialised:
    @given(
        num_walks=st.integers(0, 300),
        length=st.integers(0, 200),
        seed=st.integers(0, 2**31 - 1),
    )
    @SETTINGS
    def test_bit_identical_scores_and_step_counts(self, graph, weights, num_walks, length, seed):
        materialised = RandomWalkEngine(graph, rng=seed)
        fused = RandomWalkEngine(graph, rng=seed)
        expected = weights[materialised.walk_matrix(7, num_walks, length)].sum(axis=1)
        actual = fused.walk_scores(7, num_walks, length, weights)
        assert np.array_equal(expected, actual)
        assert materialised.total_steps == fused.total_steps
        # both engines must leave the shared stream in the same state
        assert np.array_equal(materialised.rng.random(3), fused.rng.random(3))

    def test_long_walks_cross_pairwise_leaf_boundaries(self, graph, weights):
        # lengths around the 128-element pairwise leaf and above (recursive split)
        for length in (127, 128, 129, 256, 400, 517):
            reference = RandomWalkEngine(graph, rng=11)
            fused = RandomWalkEngine(graph, rng=11)
            expected = weights[reference.walk_matrix(0, 40, length)].sum(axis=1)
            assert np.array_equal(expected, fused.walk_scores(0, 40, length, weights))

    def test_uniform_degree_fast_path(self):
        ring = cycle_graph(50)
        ring_weights = np.random.default_rng(3).random(50)
        reference = RandomWalkEngine(ring, rng=9)
        fused = RandomWalkEngine(ring, rng=9)
        assert reference._uniform_degree == 2
        expected = ring_weights[reference.walk_matrix(4, 60, 30)].sum(axis=1)
        assert np.array_equal(expected, fused.walk_scores(4, 60, 30, ring_weights))

    def test_negative_zero_sums_to_plus_zero(self):
        # numpy's pairwise sum starts from an identity +0.0, so all-(-0.0)
        # weights give +0.0; the fused blocks must keep that sign bit too
        ring = cycle_graph(8)
        negative_zero = np.full(ring.num_nodes, -0.0)
        for length in (1, 7, 8, 100, 128, 300):
            reference = RandomWalkEngine(ring, rng=3)
            fused = RandomWalkEngine(ring, rng=3)
            expected = negative_zero[reference.walk_matrix(0, 5, length)].sum(axis=1)
            actual = fused.walk_scores(0, 5, length, negative_zero)
            assert actual.tobytes() == expected.tobytes()
            assert all(value.hex() == "0x0.0p+0" for value in actual)

    def test_zero_walks_and_zero_length_draw_nothing(self, graph, weights):
        engine = RandomWalkEngine(graph, rng=1)
        before = engine.rng.bit_generator.state["state"]["state"]
        assert np.array_equal(engine.walk_scores(0, 0, 10, weights), np.zeros(0))
        assert np.array_equal(engine.walk_scores(0, 5, 0, weights), np.zeros(5))
        assert engine.walk_endpoints(0, 0, 10).shape == (0,)
        assert engine.walk_matrix(0, 0, 10).shape == (0, 10)
        assert engine.rng.bit_generator.state["state"]["state"] == before
        assert engine.total_steps == 0

    def test_weights_shape_validated(self, graph):
        engine = RandomWalkEngine(graph, rng=1)
        with pytest.raises(ValueError, match="length-n"):
            engine.walk_scores(0, 4, 3, np.ones(graph.num_nodes + 1))

    def test_functional_shortcut_matches_engine(self, graph, weights):
        from_engine = RandomWalkEngine(graph, rng=21).walk_scores(2, 25, 12, weights)
        from_function = walk_scores(graph, 2, 25, 12, weights, rng=21)
        assert np.array_equal(from_engine, from_function)


class TestChunkedEqualsUnchunked:
    @given(
        num_walks=st.integers(1, 200),
        length=st.integers(1, 150),
        chunk_size=st.integers(1, 250),
        seed=st.integers(0, 2**31 - 1),
    )
    @SETTINGS
    def test_bit_identical_for_every_chunk_size(
        self, graph, weights, num_walks, length, chunk_size, seed
    ):
        unchunked = RandomWalkEngine(graph, rng=seed)
        chunked = RandomWalkEngine(graph, rng=seed)
        expected = unchunked.walk_scores(3, num_walks, length, weights)
        actual = chunked.walk_scores(3, num_walks, length, weights, chunk_size=chunk_size)
        assert np.array_equal(expected, actual)
        assert unchunked.total_steps == chunked.total_steps
        # the chunked driver must leave the main stream exactly where the
        # unchunked kernel would have (subsequent draws stay aligned)
        assert np.array_equal(unchunked.rng.random(4), chunked.rng.random(4))

    def test_fallback_without_advance_support(self, graph, weights):
        # MT19937 has no advance(): chunking falls back to a single chunk
        # rather than silently changing which draws feed which walk.
        legacy = np.random.Generator(np.random.MT19937(5))
        reference = np.random.Generator(np.random.MT19937(5))
        chunked = RandomWalkEngine(graph, rng=legacy).walk_scores(
            0, 50, 20, weights, chunk_size=7
        )
        unchunked = RandomWalkEngine(graph, rng=reference).walk_scores(
            0, 50, 20, weights
        )
        assert np.array_equal(chunked, unchunked)


class TestEstimatorsInvariantUnderChunking:
    """AMC and GEER estimates must not depend on the memory-bounding knob."""

    @pytest.mark.parametrize("chunk", [None, 3, 17, 1000])
    def test_amc_estimate_invariant(self, graph, chunk):
        context = QueryContext(graph, rng=0)
        lam = context.lambda_max_abs
        baseline = amc_query(
            graph, 0, 9, epsilon=0.5, lambda_max_abs=lam, rng=1234
        )
        chunked = amc_query(
            graph, 0, 9, epsilon=0.5, lambda_max_abs=lam, rng=1234,
            walk_chunk_size=chunk,
        )
        assert chunked.value == baseline.value

    @pytest.mark.parametrize("chunk", [None, 5, 64])
    def test_geer_query_invariant(self, graph, chunk):
        context = QueryContext(graph, rng=0)
        lam = context.lambda_max_abs
        baseline = geer_query(graph, 0, 9, epsilon=0.4, lambda_max_abs=lam, rng=77)
        chunked = geer_query(
            graph, 0, 9, epsilon=0.4, lambda_max_abs=lam, rng=77,
            walk_chunk_size=chunk,
        )
        assert chunked.value == baseline.value

    def test_budget_chunk_size_threads_through_registry(self, graph):
        tight = QueryContext(graph, rng=6, budget=QueryBudget(walk_chunk_size=4))
        loose = QueryContext(graph, rng=6, budget=QueryBudget(walk_chunk_size=None))
        from repro.core.registry import resolve_method

        spec = resolve_method("amc")
        assert (
            spec(tight, 0, 9, 0.5).value == spec(loose, 0, 9, 0.5).value
        )


class TestWeightedStepDistribution:
    """The alias kernel must realise exactly the weighted transition law."""

    def test_alias_tables_partition_probability_mass(self):
        from repro.sampling.walks import _build_alias_tables

        graph = with_random_weights(barabasi_albert_graph(80, 3, rng=2), rng=4)
        prob, alias_node = _build_alias_tables(graph)
        indptr, indices, weights = graph.indptr, graph.indices, graph.weights
        for v in range(graph.num_nodes):
            lo, hi = int(indptr[v]), int(indptr[v + 1])
            degree = hi - lo
            # accumulate each neighbour's total mass across the slots
            mass = {int(u): 0.0 for u in indices[lo:hi]}
            for k in range(lo, hi):
                mass[int(indices[k])] += prob[k] / degree
                mass[int(alias_node[k])] += (1.0 - prob[k]) / degree
            row_total = weights[lo:hi].sum()
            for k in range(lo, hi):
                expected = weights[k] / row_total
                assert mass[int(indices[k])] == pytest.approx(expected, abs=1e-12)

    def test_step_frequencies_match_transition_matrix(self, weighted_triangle):
        engine = RandomWalkEngine(weighted_triangle, rng=8)
        starts = np.zeros(120_000, dtype=np.int64)
        ends = engine.step(starts)
        freq = np.bincount(ends, minlength=3) / len(ends)
        row = weighted_triangle.transition_matrix()[0].toarray().ravel()
        assert np.allclose(freq, row, atol=0.01)

    def test_python_reference_agrees_statistically(self, weighted_triangle):
        engine = RandomWalkEngine(weighted_triangle, rng=12)
        ends = np.array(
            [engine.walk_single_python(0, 1)[-1] for _ in range(40_000)]
        )
        freq = np.bincount(ends, minlength=3) / len(ends)
        row = weighted_triangle.transition_matrix()[0].toarray().ravel()
        assert np.allclose(freq, row, atol=0.02)

    @given(st.integers(0, 2**31 - 1))
    @SETTINGS
    def test_hitting_walks_and_endpoints_share_weighted_kernel(self, seed):
        graph = with_random_weights(barabasi_albert_graph(40, 3, rng=6), rng=7)
        one = RandomWalkEngine(graph, rng=seed)
        two = RandomWalkEngine(graph, rng=seed)
        assert np.array_equal(
            one.walk_endpoints(0, 50, 9), two.walk_matrix(0, 50, 9)[:, -1]
        )
