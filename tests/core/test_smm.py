"""Unit tests for SMM (Algorithm 2)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.ground_truth import GroundTruthOracle
from repro.core.geer import geer_query
from repro.core.smm import FrontierArcs, SMMState, smm_estimate
from repro.graph import Graph, from_edges, with_random_weights
from repro.graph.generators import barabasi_albert_graph, complete_graph

from strategies import connected_graphs


def _reference_smm(graph, s, t, iterations, dense_switch_fraction):
    """The scipy-object recurrence the frontier push replaced: n×1 CSC
    vectors pushed with ``(P @ x).tocsc()``, made dense once their nnz reaches
    the switch.  Returns ``(estimate, spmv_operations, s*, t*)`` per iteration."""
    P = graph.transition_matrix()
    n = graph.num_nodes
    switch = max(int(dense_switch_fraction * n), 1)
    deg_s, deg_t = (float(graph.weighted_degrees[v]) for v in (s, t))
    vectors = [sp.csc_matrix(([1.0], ([v], [0])), shape=(n, 1)) for v in (s, t)]
    dense = lambda x: x if isinstance(x, np.ndarray) else x.toarray().reshape(-1)
    support = lambda x: np.flatnonzero(x) if isinstance(x, np.ndarray) else x.indices

    def term():
        x, y = dense(vectors[0]), dense(vectors[1])
        return (float(x[s]) / deg_s + float(y[t]) / deg_t
                - float(x[t]) / deg_s - float(y[s]) / deg_t)

    estimate, operations, history = term(), 0, []
    for _ in range(iterations):
        operations += sum(int(graph.degrees[support(x)].sum()) for x in vectors)
        pushed = [P @ x if isinstance(x, np.ndarray) else (P @ x).tocsc() for x in vectors]
        vectors = [dense(x) if sp.issparse(x) and x.nnz >= switch else x for x in pushed]
        estimate += term()
        history.append((estimate, operations, dense(vectors[0]), dense(vectors[1])))
    return history


def _permute_rows(graph, seed):
    """The same graph with each CSR row stored in a random order."""
    rng = np.random.default_rng(seed)
    indptr = graph.indptr
    order = np.concatenate(
        [indptr[r] + rng.permutation(indptr[r + 1] - indptr[r]) for r in range(graph.num_nodes)]
    )
    weights = None if graph.weights is None else graph.weights[order]
    return Graph(indptr.copy(), graph.indices[order], weights)


class TestSMMState:
    def test_vectors_track_transition_powers(self, ba_small):
        s, t = 2, 9
        state = SMMState(ba_small, s, t)
        transition = ba_small.transition_matrix().toarray()
        e_s = np.zeros(ba_small.num_nodes)
        e_s[s] = 1.0
        for i in range(1, 4):
            state.step()
            expected = np.linalg.matrix_power(transition, i) @ e_s
            np.testing.assert_allclose(state.s_vector(), expected, atol=1e-12)

    def test_estimate_matches_truncated_series(self, ba_small):
        s, t = 4, 17
        length = 6
        state = SMMState(ba_small, s, t)
        state.run(length)
        transition = ba_small.transition_matrix().toarray()
        deg = ba_small.degrees.astype(float)
        expected = 0.0
        power = np.eye(ba_small.num_nodes)
        for _ in range(length + 1):
            expected += (
                power[s, s] / deg[s]
                + power[t, t] / deg[t]
                - power[s, t] / deg[t]
                - power[t, s] / deg[s]
            )
            power = power @ transition
        assert state.estimate == pytest.approx(expected, abs=1e-10)

    def test_spmv_cost_counts_frontier_degrees(self, ba_small):
        s, t = 0, 1
        state = SMMState(ba_small, s, t)
        first_cost = state.next_iteration_cost()
        assert first_cost == ba_small.degree(s) + ba_small.degree(t)
        state.step()
        assert state.spmv_operations == first_cost
        # the frontier has grown, so the next iteration costs more
        assert state.next_iteration_cost() >= first_cost

    def test_dense_switch_preserves_values(self, ba_small):
        s, t = 3, 8
        sparse_state = SMMState(ba_small, s, t, dense_switch_fraction=1.1)  # stay sparse
        dense_state = SMMState(ba_small, s, t, dense_switch_fraction=0.0)  # dense at once
        for _ in range(4):
            sparse_state.step()
            dense_state.step()
        assert sparse_state.estimate.hex() == dense_state.estimate.hex()
        assert sparse_state.s_vector().tobytes() == dense_state.s_vector().tobytes()
        assert sparse_state.t_vector().tobytes() == dense_state.t_vector().tobytes()

    def test_iterations_counter(self, ba_small):
        state = SMMState(ba_small, 0, 5)
        state.run(3)
        assert state.iterations == 3

    def test_invalid_nodes(self, ba_small):
        with pytest.raises(ValueError):
            SMMState(ba_small, 0, ba_small.num_nodes)


class TestFrontierPush:
    """The numpy frontier push reproduces scipy's ``P @ x`` bit for bit."""

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        graph=connected_graphs(weighted=None, max_nodes=30),
        data=st.data(),
        dense_switch_fraction=st.sampled_from([0.0, 0.25, 1.1]),
        permute_seed=st.one_of(st.none(), st.integers(0, 2**31 - 1)),
    )
    def test_matches_scipy_recurrence(self, graph, data, dense_switch_fraction, permute_seed):
        if permute_seed is not None:
            graph = _permute_rows(graph, permute_seed)
        s = data.draw(st.integers(0, graph.num_nodes - 1))
        t = data.draw(st.integers(0, graph.num_nodes - 1))
        iterations = data.draw(st.integers(0, 8))
        state = SMMState(graph, s, t, dense_switch_fraction=dense_switch_fraction)
        reference = _reference_smm(graph, s, t, iterations, dense_switch_fraction)
        for estimate, operations, s_star, t_star in reference:
            state.step()
            assert state.estimate.hex() == estimate.hex()
            assert state.spmv_operations == operations
            assert state.s_vector().tobytes() == s_star.tobytes()
            assert state.t_vector().tobytes() == t_star.tobytes()
        assert state.iterations == iterations

    def test_reversed_rows_pin_stored_order(self):
        # A weighted graph whose every CSR row is stored in reverse column
        # order: each row of P x must be summed in *stored* order, which here
        # differs in the last bits from the sorted layout's answer.  The hex
        # values are those of the scipy-object recurrence (_reference_smm).
        base = with_random_weights(barabasi_albert_graph(60, 3, rng=21), rng=22)
        indptr = base.indptr
        order = np.concatenate(
            [np.arange(indptr[r + 1] - 1, indptr[r] - 1, -1) for r in range(base.num_nodes)]
        )
        graph = Graph(indptr.copy(), base.indices[order], base.weights[order])
        assert smm_estimate(graph, 0, 37, 6).value.hex() == "0x1.40740c038792cp-2"
        assert smm_estimate(base, 0, 37, 6).value.hex() == "0x1.40740c038792ap-2"
        assert smm_estimate(graph, 5, 59, 25).value.hex() == "0x1.7eee0c4a54cbfp-2"
        cases = [
            ((3, 44, 0.1, 7), ("0x1.79756b7b24366p-2", 2, 101, 224)),
            ((12, 50, 0.05, 8), ("0x1.3e7920ecb22e9p-1", 3, 465, 576)),
        ]
        for (s, t, epsilon, seed), (value, switch, operations, walks) in cases:
            result = geer_query(graph, s, t, epsilon=epsilon, lambda_max_abs=0.6, rng=seed)
            assert result.value.hex() == value
            assert (result.smm_iterations, result.spmv_operations, result.num_walks) == (
                switch,
                operations,
                walks,
            )

    def test_underflowed_sums_leave_the_support(self):
        # Node 3 is reached from node 0 only through two arcs of probability
        # ~1e-200, so its second-step sum underflows to exactly 0.0; scipy
        # drops it, and so must the frontier (it would count in Eq. (17)).
        graph = from_edges([(0, 1, 1e-200), (1, 2, 1.0), (1, 3, 1e-200), (2, 3, 1.0)])
        state = SMMState(graph, 0, 2, dense_switch_fraction=1.1)
        state.run(2)
        assert state.s_vector()[3] == 0.0
        reference = _reference_smm(graph, 0, 2, 4, 1.1)
        state.run(2)
        assert state.spmv_operations == reference[-1][1]
        assert state.estimate.hex() == reference[-1][0].hex()

    def test_reverse_arc_map(self, ba_small):
        graph = _permute_rows(ba_small, 3)
        transition = graph.transition_matrix()
        arcs = FrontierArcs(transition)
        rows = np.repeat(np.arange(graph.num_nodes), graph.degrees)
        # reverse[a] is the arc (i -> j) for a = (j -> i), and column_data[a] = P[i, j].
        assert np.array_equal(rows[arcs.reverse], graph.indices)
        assert np.array_equal(graph.indices[arcs.reverse], rows)
        assert np.array_equal(arcs.column_data, transition.toarray()[graph.indices, rows])


class TestSMMEstimate:
    def test_converges_to_ground_truth(self, ba_small, ba_small_oracle):
        s, t = 11, 42
        result = smm_estimate(ba_small, s, t, 200)
        assert result.value == pytest.approx(ba_small_oracle.query(s, t), abs=1e-6)

    def test_complete_graph_exact_value(self):
        graph = complete_graph(12)
        result = smm_estimate(graph, 0, 5, 100)
        assert result.value == pytest.approx(2 / 12, abs=1e-8)

    def test_result_metadata(self, ba_small):
        result = smm_estimate(ba_small, 1, 2, 5)
        assert result.method == "smm"
        assert result.smm_iterations == 5
        assert result.num_walks == 0
        assert result.spmv_operations > 0
        assert result.elapsed_seconds >= 0.0

    def test_zero_iterations(self, ba_small):
        result = smm_estimate(ba_small, 1, 2, 0)
        deg = ba_small.degrees
        expected = 1 / deg[1] + 1 / deg[2] - 0.0
        if ba_small.has_edge(1, 2):
            pass  # p_0 terms do not involve adjacency
        assert result.value == pytest.approx(expected)

    def test_monotone_error_decay(self, ba_dense, ba_dense_oracle):
        s, t = 7, 200
        truth = ba_dense_oracle.query(s, t)
        errors = [
            abs(smm_estimate(ba_dense, s, t, iters).value - truth) for iters in (1, 4, 16)
        ]
        assert errors[2] <= errors[0] + 1e-12
        assert errors[2] < 1e-4

    def test_transition_reuse_gives_same_answer(self, ba_small):
        transition = ba_small.transition_matrix()
        a = smm_estimate(ba_small, 5, 6, 10)
        b = smm_estimate(ba_small, 5, 6, 10, transition=transition)
        assert a.value == pytest.approx(b.value, abs=1e-12)
