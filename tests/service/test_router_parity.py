"""One tier router: ``query`` and ``query_many`` pick the same tier per pair.

Both entry points of :class:`ResistanceService` route through the same
function — the fixed cache → sketch order, or the adaptive planner's pick —
so a batch and a per-pair loop over twin services must agree on which tier
answers every pair, and every tier that does no sampling (cache, sketch,
exact) must return the same bits.
"""

import pytest

from repro.graph.generators import barabasi_albert_graph
from repro.service.planner import PlannerConfig
from repro.service.server import ResistanceService, ServiceConfig

WARM = [(3, 99), (0, 40), (17, 120)]
FRESH = [(5, 60), (11, 200), (1, 2), (30, 31), (8, 140), (0, 1)]
#: Loose ε is served by the sketch, tight ε by the engine or the exact solve;
#: the warmed pairs hit the cache throughout.
EPSILONS = (0.5, 0.1, 0.05)
EXPECTED_SOURCES = {
    "static": {"cache", "sketch", "engine"},
    "adaptive": {"cache", "sketch", "engine", "exact"},
}


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(250, 4, rng=6)


def _service(graph, planner, monkeypatch):
    # A high per-unit engine prior lets the exact tier win at tight ε, so
    # the adaptive twins route through all four tiers.
    config = ServiceConfig(
        planner=planner,
        planner_config=PlannerConfig(
            refine_in_background=False, engine_seconds_per_unit=1e-5
        ),
    )
    service = ResistanceService(graph, config=config, rng=7)
    if service.planner is not None:
        # Calibration folds wall-clock latencies into the cost model, so twins
        # would drift apart; frozen priors make both plan the same tiers.
        monkeypatch.setattr(service.planner, "observe_flat", lambda *args: None)
        monkeypatch.setattr(service.planner, "observe_engine", lambda *args: None)
    return service


def _warmed_twins(graph, planner, monkeypatch):
    twins = (
        _service(graph, planner, monkeypatch),
        _service(graph, planner, monkeypatch),
    )
    for service in twins:
        for s, t in WARM:
            service.query(s, t, 0.1)
    return twins


@pytest.mark.parametrize("planner", ["static", "adaptive"])
def test_batch_and_loop_route_every_pair_alike(graph, planner, monkeypatch):
    pairs = WARM + FRESH
    seen = set()
    for epsilon in EPSILONS:
        batched, looped = _warmed_twins(graph, planner, monkeypatch)
        batch = batched.query_many(pairs, epsilon)
        loop = [looped.query(s, t, epsilon) for s, t in pairs]
        for (s, t), a, b in zip(pairs, batch, loop):
            source = a.details["source"]
            assert source == b.details["source"], (s, t, epsilon)
            if source != "engine":
                assert float(a.value).hex() == float(b.value).hex(), (s, t, epsilon)
            seen.add(source)
    assert seen == EXPECTED_SOURCES[planner]


def test_static_router_ignores_deadlines(graph, monkeypatch):
    with_deadline, without = _warmed_twins(graph, "static", monkeypatch)
    for epsilon in EPSILONS:
        for s, t in WARM + FRESH:
            a = with_deadline.query(s, t, epsilon, deadline_seconds=1e-9)
            b = without.query(s, t, epsilon)
            assert a.details == b.details
            assert float(a.value).hex() == float(b.value).hex()
            assert a.total_steps == b.total_steps
