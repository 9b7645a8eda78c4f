"""Unit tests for GEER (Algorithm 3)."""

import math

import numpy as np
import pytest

from repro.baselines.ground_truth import GroundTruthOracle
from repro.core.geer import _worst_case_walk_budget, geer_query
from repro.core.smm import SMMState
from repro.core.walk_length import refined_walk_length
from repro.graph.generators import barabasi_albert_graph, complete_graph
from repro.linalg.eigen import spectral_radius_second
from repro.sampling.concentration import amc_psi, amc_sample_budget, top_two_values


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(300, 8, rng=41)


@pytest.fixture(scope="module")
def lam(graph):
    return spectral_radius_second(graph)


@pytest.fixture(scope="module")
def oracle(graph):
    return GroundTruthOracle(graph)


class TestGEERAccuracy:
    def test_within_epsilon(self, graph, lam, oracle):
        rng = np.random.default_rng(5)
        for epsilon in (0.2, 0.05):
            for _ in range(6):
                s, t = rng.choice(graph.num_nodes, size=2, replace=False)
                result = geer_query(
                    graph, int(s), int(t), epsilon=epsilon, lambda_max_abs=lam, rng=rng
                )
                assert abs(result.value - oracle.query(int(s), int(t))) <= epsilon

    def test_same_node(self, graph, lam):
        assert geer_query(graph, 3, 3, epsilon=0.1, lambda_max_abs=lam).value == 0.0

    def test_complete_graph(self):
        graph = complete_graph(20)
        lam = spectral_radius_second(graph)
        result = geer_query(graph, 0, 7, epsilon=0.05, lambda_max_abs=lam, rng=1)
        assert result.value == pytest.approx(0.1, abs=0.05)

    def test_edge_query_accuracy(self, graph, lam, oracle):
        u, v = next(iter(graph.edges()))
        result = geer_query(graph, u, v, epsilon=0.05, lambda_max_abs=lam, rng=2)
        assert abs(result.value - oracle.query(u, v)) <= 0.05


class TestGEERMechanics:
    def test_head_tail_decomposition(self, graph, lam):
        result = geer_query(graph, 2, 77, epsilon=0.1, lambda_max_abs=lam, rng=3)
        assert result.value == pytest.approx(
            result.details["smm_value"] + result.details["amc_value"], abs=1e-12
        )
        assert 0 <= result.smm_iterations <= result.walk_length

    def test_forced_switch_point_zero_behaves_like_amc(self, graph, lam, oracle):
        s, t = 5, 150
        result = geer_query(
            graph, s, t, epsilon=0.1, lambda_max_abs=lam, rng=4, force_smm_iterations=0
        )
        assert result.smm_iterations == 0
        # with l_b = 0 the SMM head contributes only the i=0 term
        expected_head = 1 / graph.degree(s) + 1 / graph.degree(t)
        assert result.details["smm_value"] == pytest.approx(expected_head)
        assert abs(result.value - oracle.query(s, t)) <= 0.1

    def test_forced_switch_point_full_is_deterministic(self, graph, lam, oracle):
        s, t = 8, 190
        epsilon = 0.1
        length = refined_walk_length(epsilon, lam, graph.degree(s), graph.degree(t))
        result = geer_query(
            graph, s, t, epsilon=epsilon, lambda_max_abs=lam,
            force_smm_iterations=length, rng=5,
        )
        assert result.smm_iterations == length
        assert result.num_walks == 0  # no tail left for AMC
        assert abs(result.value - oracle.query(s, t)) <= epsilon / 2 + 1e-9

    def test_forced_switch_point_capped_at_length(self, graph, lam):
        result = geer_query(
            graph, 0, 10, epsilon=0.2, lambda_max_abs=lam, force_smm_iterations=10_000
        )
        assert result.smm_iterations <= result.walk_length

    def test_greedy_switch_point_recorded(self, graph, lam):
        result = geer_query(graph, 1, 201, epsilon=0.1, lambda_max_abs=lam, rng=6)
        assert result.details["switch_point"] == result.smm_iterations

    def test_walk_length_override(self, graph, lam):
        result = geer_query(
            graph, 0, 99, epsilon=0.1, lambda_max_abs=lam, walk_length=3, rng=7
        )
        assert result.walk_length == 3

    def test_geer_uses_fewer_walks_than_amc(self, graph, lam):
        """The headline effect: the SMM head slashes the AMC sampling budget."""
        from repro.core.amc import amc_query

        s, t = 12, 250
        epsilon = 0.05
        amc_result = amc_query(graph, s, t, epsilon=epsilon, lambda_max_abs=lam, rng=8)
        geer_result = geer_query(graph, s, t, epsilon=epsilon, lambda_max_abs=lam, rng=8)
        assert geer_result.num_walks < amc_result.num_walks

    def test_invalid_epsilon(self, graph, lam):
        with pytest.raises(ValueError):
            geer_query(graph, 0, 1, epsilon=0.0, lambda_max_abs=lam)

    def test_result_metadata(self, graph, lam):
        result = geer_query(graph, 0, 55, epsilon=0.1, lambda_max_abs=lam, rng=9)
        assert result.method == "geer"
        assert result.spmv_operations >= 0
        assert result.elapsed_seconds > 0
        assert result.work == result.total_steps + result.spmv_operations


def _dense_walk_budget(tail, s_vector, t_vector, deg_s, deg_t, epsilon, delta, num_batches):
    """The Eq. (17) budget computed from dense copies of the vectors."""
    if tail <= 0:
        return 0
    psi = amc_psi(tail, deg_s, deg_t, *top_two_values(s_vector), *top_two_values(t_vector))
    if psi == 0.0:
        return 0
    eta_star = amc_sample_budget(psi, epsilon, delta, num_batches)
    return (2**num_batches - 1) * max(1, math.ceil(eta_star / 2 ** (num_batches - 1)))


class TestGreedySwitch:
    """The switch reads ψ's top-two values from the supports, not dense copies."""

    @pytest.mark.parametrize(
        "steps, fraction, shape",
        [(0, 0.25, "one-node"), (1, 0.25, "partial"), (3, 0.25, "dense"), (2, 0.0, "dense")],
    )
    def test_support_top_two_equals_dense(self, graph, steps, fraction, shape):
        s, t = 4, 123
        state = SMMState(graph, s, t, dense_switch_fraction=fraction)
        state.run(steps)
        s_vector, t_vector = state.s_vector(), state.t_vector()
        support = np.count_nonzero(s_vector)
        if shape == "one-node":
            assert support == 1
        elif shape == "partial":
            assert 1 < support < graph.num_nodes // 4
        else:
            assert support >= graph.num_nodes // 4
        top_two = state.top_two()
        assert top_two == top_two_values(s_vector) + top_two_values(t_vector)
        if shape == "one-node":
            assert top_two[1] == top_two[3] == 0.0
        deg_s = float(graph.weighted_degrees[s])
        deg_t = float(graph.weighted_degrees[t])
        for tail in (0, 1, 2, 5, 40):
            for epsilon in (0.2, 0.02):
                expected = _dense_walk_budget(
                    tail, s_vector, t_vector, deg_s, deg_t, epsilon, 0.01, 5
                )
                assert _worst_case_walk_budget(
                    tail, state, deg_s, deg_t, epsilon, 0.01, 5
                ) == expected
