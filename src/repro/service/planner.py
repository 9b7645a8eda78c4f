"""Cost-based adaptive query planning with anytime refinement.

The static serving pipeline tries cache → sketch → engine in a fixed order,
regardless of what each tier would actually cost for *this* query on *this*
graph under *this* load.  :class:`QueryPlanner` replaces that if-chain with a
per-query decision: it predicts the cost of every tier able to meet the
requested ε from live signals and picks the cheapest one.

Signals consulted per decision (all read-only probes, no stats distortion):

* **cache ε-dominance** — the stored entry's ε for the pair, via
  :meth:`~repro.service.cache.ResistanceCache.peek`;
* **sketch gap** — the triangle-inequality envelope half-width, via
  :meth:`~repro.service.sketch.LandmarkSketchStore.gap`; the sketch can
  answer iff ``gap <= ε``;
* **walk cost** — ``ℓ(ε, λ, d_s, d_t)/ε²`` units
  (:func:`~repro.core.walk_length.query_cost_units`) times a
  seconds-per-unit rate calibrated online (EWMA) from observed engine
  latencies, bucketed by the ``floor(log2(degree))`` pair so heavy and light
  endpoints learn separate rates;
* **admission control** — queue depth inflates the engine tier's predicted
  cost, and an *open* circuit breaker removes it from the candidate set;
* **exact tier** — a direct Laplacian solve, available below a node cap,
  with its own observed-latency EWMA.

Every decision is a :class:`PlanDecision` — chosen tier, predicted costs and
the signals consulted — kept in a bounded ring so routing is observable and
replayable (the golden decision-trace test pins a full sequence).

**Anytime refinement**: when a deadline is too short for any tier meeting ε
but the sketch has bounds, the planner routes to the ``anytime`` tier — the
envelope midpoint is served immediately (marked partial) and a
:class:`RefinementExecutor` computes the full-ε answer in the background,
landing it through :meth:`~repro.service.cache.ResistanceCache.refine`.
Refinements are pinned to the graph epoch they were submitted under; a
concurrent ``apply_update`` drains in-flight work first and anything pinned
to an older epoch is dropped, never resurrected.

**Contract 8 — the planner may change latency, never answers** (DESIGN.md):
every tier the planner is allowed to pick returns a value within the
requested ε of the true resistance (cache entries by ε-dominance, sketch by
envelope width, exact trivially, the engine by the method's guarantee), and
the engine tier runs the same session-stream execution as the static
pipeline, so identical seeds through the same tier are bit-identical.
Background refinement uses *derived private streams*, never the session
stream, so foreground reproducibility is untouched.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.registry import resolve_method
from repro.core.walk_length import query_cost_units
from repro.obs import NULL_OBS, Observability, Sample
from repro.sampling.walks import RandomWalkEngine
from repro.service.cache import canonical_pair
from repro.utils.rng import derive_seed
from repro.utils.timing import Timer

#: Deterministic tie-break order: on equal predicted cost the planner prefers
#: materialised answers over computation, and the cheap solve over sampling.
TIER_ORDER = ("cache", "sketch", "exact", "engine", "anytime")


def degree_bucket(degree_s: float, degree_t: float) -> tuple[int, int]:
    """The sorted ``floor(log2(degree))`` pair — the cost model's latency key.

    Matches the ``log2`` bucketing of :class:`~repro.core.batch.QueryPlan`:
    pairs in one bucket share a planned walk length, so their observed
    seconds-per-cost-unit rates are comparable.
    """
    lo, hi = sorted((float(degree_s), float(degree_t)))
    return (int(math.floor(math.log2(lo))), int(math.floor(math.log2(hi))))


@dataclass
class PlannerConfig:
    """Tunables of one :class:`QueryPlanner`.

    The cost priors only matter until real latencies arrive — every tier's
    estimate is EWMA-recalibrated from observations — but they are chosen so
    a cold planner still routes sanely: lookups are microseconds, a direct
    solve is milliseconds, and sampling cost scales with ``ℓ/ε²``.
    """

    #: EWMA smoothing for observed latencies: higher adapts faster.
    ewma_alpha: float = 0.25
    #: Prior wall-clock cost of a cache hit (dict lookup).
    cache_cost_seconds: float = 2e-6
    #: Prior wall-clock cost of a sketch envelope (two k-vector reads).
    sketch_cost_seconds: float = 4e-5
    #: Prior seconds per walk-cost unit (one unit ≈ one walked step at ε=1).
    engine_seconds_per_unit: float = 2e-7
    #: Prior wall-clock cost of one exact Laplacian solve.
    exact_cost_seconds: float = 5e-3
    #: The exact tier is only a candidate below this node count.
    exact_max_nodes: int = 20_000
    #: Queue depth at which the engine tier's predicted cost has doubled
    #: (admission control: cost × (1 + depth/admission_queue_depth)).
    admission_queue_depth: int = 8
    #: Fraction of the remaining deadline a tier's prediction must fit in.
    deadline_safety: float = 0.8
    #: Serve sketch envelopes under pressure and refine them in background.
    refine_in_background: bool = True
    #: Base seed for the refinement executor's derived private streams.
    refinement_seed: int = 0x5EED
    #: Bounded ring of recent PlanDecisions kept for /stats and --explain.
    decision_history: int = 256

    def __post_init__(self) -> None:
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}")
        if not 0.0 < self.deadline_safety <= 1.0:
            raise ValueError(
                f"deadline_safety must be in (0, 1], got {self.deadline_safety}"
            )
        if self.admission_queue_depth < 1:
            raise ValueError(
                f"admission_queue_depth must be >= 1, got {self.admission_queue_depth}"
            )


@dataclass(frozen=True)
class PlanDecision:
    """One routing decision: what was picked, what it cost, what was seen.

    ``predicted`` maps every *candidate* tier to its predicted seconds;
    tiers absent from the map were unavailable (no dominating cache entry,
    sketch too loose or stale, breaker open, graph above the exact cap).
    ``signals`` records the raw inputs so a decision is auditable after the
    fact (`repro-er plan --explain`, the golden trace test).
    """

    s: int
    t: int
    epsilon: float
    epoch: int
    tier: str
    reason: str
    predicted: dict[str, float]
    signals: dict[str, Any]
    deadline_seconds: Optional[float] = None
    refine: bool = False
    #: Decision timestamp from the planner's injected clock, when it has one.
    at: Optional[float] = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "s": self.s,
            "t": self.t,
            "epsilon": self.epsilon,
            "epoch": self.epoch,
            "tier": self.tier,
            "reason": self.reason,
            "predicted": dict(self.predicted),
            "signals": dict(self.signals),
            "deadline_seconds": self.deadline_seconds,
            "refine": self.refine,
            "at": self.at,
        }


@dataclass
class PlannerStats:
    """Counters for one :class:`QueryPlanner`."""

    decisions: int = 0
    tier_decisions: dict[str, int] = field(
        default_factory=lambda: {tier: 0 for tier in TIER_ORDER}
    )
    #: Decisions whose chosen tier could not serve after all (entry raced
    #: away, sketch rebuilt looser) and fell through to the engine.
    fallbacks: int = 0
    observations: int = 0
    refinements_scheduled: int = 0
    refinements_completed: int = 0
    refinements_dropped: int = 0

    def summary(self) -> dict[str, object]:
        return {
            "decisions": self.decisions,
            "by_tier": dict(self.tier_decisions),
            "fallbacks": self.fallbacks,
            "observations": self.observations,
            "refinements_scheduled": self.refinements_scheduled,
            "refinements_completed": self.refinements_completed,
            "refinements_dropped": self.refinements_dropped,
        }


class CostModel:
    """Per-tier latency estimates, EWMA-calibrated from observed queries.

    Flat tiers (cache, sketch, exact) keep one seconds estimate each.  The
    engine tier keeps a seconds-per-cost-unit *rate* per
    ``(method, degree_bucket)`` — observed seconds divided by the query's
    :func:`~repro.core.walk_length.query_cost_units` — plus a per-method
    aggregate used for buckets not seen yet.
    """

    def __init__(self, config: Optional[PlannerConfig] = None) -> None:
        self.config = config or PlannerConfig()
        self._flat: dict[str, float] = {
            "cache": self.config.cache_cost_seconds,
            "sketch": self.config.sketch_cost_seconds,
            "exact": self.config.exact_cost_seconds,
        }
        self._flat_observed: set[str] = set()
        self._rates: dict[tuple[str, tuple[int, int]], float] = {}
        self._method_rates: dict[str, float] = {}
        self.observations = 0

    def _ewma(self, previous: Optional[float], observed: float) -> float:
        if previous is None:
            return observed
        alpha = self.config.ewma_alpha
        return alpha * observed + (1.0 - alpha) * previous

    def observe_flat(self, tier: str, seconds: float) -> None:
        """Fold one observed cache/sketch/exact latency into the estimate.

        The first real observation *replaces* the prior outright (the prior
        only exists so a cold planner routes sanely); later ones EWMA-blend.
        """
        if tier not in self._flat or seconds <= 0.0:
            return
        previous = self._flat[tier] if tier in self._flat_observed else None
        self._flat[tier] = self._ewma(previous, float(seconds))
        self._flat_observed.add(tier)
        self.observations += 1

    def observe_engine(
        self,
        method: str,
        bucket: tuple[int, int],
        units: float,
        seconds: float,
    ) -> None:
        """Fold one observed engine latency into the bucketed rate."""
        if units <= 0.0 or seconds <= 0.0:
            return
        rate = float(seconds) / float(units)
        key = (method, bucket)
        self._rates[key] = self._ewma(self._rates.get(key), rate)
        self._method_rates[method] = self._ewma(self._method_rates.get(method), rate)
        self.observations += 1

    def predict_flat(self, tier: str) -> float:
        return self._flat[tier]

    def predict_engine(self, method: str, bucket: tuple[int, int], units: float) -> float:
        """Predicted engine seconds: bucket rate, else method rate, else prior."""
        rate = self._rates.get((method, bucket))
        if rate is None:
            rate = self._method_rates.get(method)
        if rate is None:
            rate = self.config.engine_seconds_per_unit
        return rate * float(units)

    def snapshot(self) -> dict[str, object]:
        """The calibrated state, JSON-safe (for /stats and --explain)."""
        return {
            "flat_seconds": dict(self._flat),
            "engine_rates": {
                f"{method}:{bucket[0]}/{bucket[1]}": rate
                for (method, bucket), rate in sorted(self._rates.items())
            },
            "method_rates": dict(sorted(self._method_rates.items())),
            "observations": self.observations,
        }


class ServiceSignals:
    """Live-signal provider reading one :class:`ResistanceService`.

    Duck-typed twin of the synthetic provider the simulation tests inject:
    the planner only ever calls this protocol, so its decision logic is
    testable without a graph, a sketch build or a wall clock.
    """

    def __init__(self, service: Any) -> None:
        self._service = service

    @property
    def num_nodes(self) -> int:
        return self._service.graph.num_nodes

    @property
    def lambda_max_abs(self) -> float:
        return self._service.engine.lambda_max_abs

    @property
    def epoch(self) -> int:
        return self._service.epoch

    def degrees(self, s: int, t: int) -> tuple[float, float]:
        degrees = self._service.engine.context.weighted_degrees
        return float(degrees[s]), float(degrees[t])

    def cached_epsilon(self, s: int, t: int) -> Optional[float]:
        cache = self._service.cache
        if cache is None:
            return None
        entry = cache.peek(s, t)
        return None if entry is None else entry.epsilon

    def sketch_gap(self, s: int, t: int) -> Optional[float]:
        sketch = self._service._ready_sketch()
        if sketch is None:
            return None
        return sketch.gap(s, t)

    def queue_depth(self) -> int:
        probe = self._service.load_probe
        return int(probe()) if probe is not None else 0

    def breaker_state(self) -> str:
        return self._service.breaker.state


class QueryPlanner:
    """The per-query tier router: cost model + live signals → PlanDecision.

    Parameters
    ----------
    signals:
        A live-signal provider (duck-typed; see :class:`ServiceSignals`).
    config:
        A :class:`PlannerConfig`.
    obs:
        Observability bundle; decisions are counted per tier under
        ``repro_planner_decisions_total``.
    clock:
        Injectable monotonic clock (the simulation tests pin it); only used
        to timestamp decisions, never to decide.
    """

    def __init__(
        self,
        signals: Any,
        *,
        config: Optional[PlannerConfig] = None,
        obs: Optional[Observability] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.signals = signals
        self.config = config or PlannerConfig()
        self.cost_model = CostModel(self.config)
        self.stats = PlannerStats()
        self.obs = obs if obs is not None else NULL_OBS
        self.clock = clock
        self.decisions: deque[PlanDecision] = deque(maxlen=self.config.decision_history)
        self._m_decisions = self.obs.metrics.counter(
            "repro_planner_decisions_total",
            "Adaptive-planner routing decisions, by chosen tier.",
            labels=("tier",),
        )

    # ------------------------------------------------------------------ #
    # decisions
    # ------------------------------------------------------------------ #
    def decide(
        self,
        s: int,
        t: int,
        epsilon: float,
        *,
        method: str = "geer",
        deadline_seconds: Optional[float] = None,
        record: bool = True,
    ) -> PlanDecision:
        """Pick the cheapest tier predicted to meet ε for ``(s, t)``.

        With a ``deadline_seconds`` budget the choice is additionally
        deadline-aware: if no ε-meeting tier fits the budget but the sketch
        has bounds, the ``anytime`` tier is chosen — serve the envelope now,
        refine in the background.  ``record=False`` (the ``--explain`` path)
        evaluates without touching stats or the decision ring.
        """
        signals = self.signals
        config = self.config
        d_s, d_t = signals.degrees(s, t)
        lam = signals.lambda_max_abs
        units = query_cost_units(epsilon, lam, d_s, d_t)
        bucket = degree_bucket(d_s, d_t)
        queue = int(signals.queue_depth())
        breaker = signals.breaker_state()
        cached_epsilon = signals.cached_epsilon(s, t)
        gap = signals.sketch_gap(s, t)

        predicted: dict[str, float] = {}
        if cached_epsilon is not None and cached_epsilon <= epsilon:
            predicted["cache"] = self.cost_model.predict_flat("cache")
        if gap is not None and gap <= epsilon:
            predicted["sketch"] = self.cost_model.predict_flat("sketch")
        if signals.num_nodes <= config.exact_max_nodes:
            predicted["exact"] = self.cost_model.predict_flat("exact")
        engine_base = self.cost_model.predict_engine(method, bucket, units)
        if breaker != "open":
            # Admission control: pending work ahead of this query inflates
            # the engine tier linearly; lookup tiers don't queue.
            predicted["engine"] = engine_base * (
                1.0 + queue / float(config.admission_queue_depth)
            )

        tier = min(predicted, key=lambda name: (predicted[name], TIER_ORDER.index(name)))
        reason = "cheapest"
        refine = False
        if deadline_seconds is not None:
            budget = deadline_seconds * config.deadline_safety
            if predicted[tier] > budget:
                # The chosen tier is already the cost minimum, so no tier
                # meeting ε fits the budget — degrade to the envelope.
                if gap is not None:
                    tier = "anytime"
                    reason = "anytime-envelope"
                    refine = config.refine_in_background
                    predicted["anytime"] = self.cost_model.predict_flat("sketch")
                else:
                    reason = "deadline-unmeetable"

        decision = PlanDecision(
            s=int(s),
            t=int(t),
            epsilon=float(epsilon),
            epoch=int(signals.epoch),
            tier=tier,
            reason=reason,
            predicted=predicted,
            signals={
                "cached_epsilon": cached_epsilon,
                "sketch_gap": gap,
                "queue_depth": queue,
                "breaker": breaker,
                "degree_bucket": list(bucket),
                "cost_units": units,
                "lambda_max_abs": lam,
            },
            deadline_seconds=deadline_seconds,
            refine=refine,
            at=self.clock() if self.clock is not None else None,
        )
        if record:
            self.stats.decisions += 1
            self.stats.tier_decisions[tier] += 1
            self._m_decisions.labels(tier=tier).inc()
            self.decisions.append(decision)
        return decision

    def explain(
        self,
        s: int,
        t: int,
        epsilon: float,
        *,
        method: str = "geer",
        deadline_seconds: Optional[float] = None,
    ) -> PlanDecision:
        """A dry-run :meth:`decide`: full decision, no stats, no history."""
        return self.decide(
            s, t, epsilon, method=method,
            deadline_seconds=deadline_seconds, record=False,
        )

    def record_fallback(self, tier: str) -> None:
        """Note that ``tier`` could not serve and the engine ran instead."""
        self.stats.fallbacks += 1

    # ------------------------------------------------------------------ #
    # calibration
    # ------------------------------------------------------------------ #
    def observe_engine(
        self, method: str, s: int, t: int, epsilon: float, seconds: float
    ) -> None:
        """Calibrate the engine rate from one observed query latency."""
        if seconds <= 0.0:
            return
        d_s, d_t = self.signals.degrees(s, t)
        units = query_cost_units(epsilon, self.signals.lambda_max_abs, d_s, d_t)
        self.cost_model.observe_engine(method, degree_bucket(d_s, d_t), units, seconds)
        self.stats.observations += 1

    def observe_flat(self, tier: str, seconds: float) -> None:
        """Calibrate a flat tier (cache/sketch/exact) from one latency."""
        if seconds <= 0.0:
            return
        self.cost_model.observe_flat(tier, seconds)
        self.stats.observations += 1

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def summary(self) -> dict[str, object]:
        return {
            **self.stats.summary(),
            "cost_model": self.cost_model.snapshot(),
        }

    def metrics_samples(self) -> list[Sample]:
        """Scrape-time samples for the service's /metrics collector."""
        stats = self.stats
        samples = [
            Sample(
                "repro_planner_fallbacks_total",
                "counter",
                "Planned tiers that could not serve and fell back to the engine.",
                {},
                float(stats.fallbacks),
            ),
            Sample(
                "repro_planner_observations_total",
                "counter",
                "Latency observations folded into the planner's cost model.",
                {},
                float(stats.observations),
            ),
        ]
        for outcome in ("scheduled", "completed", "dropped"):
            samples.append(
                Sample(
                    f"repro_planner_refinements_{outcome}_total",
                    "counter",
                    f"Background anytime refinements {outcome}.",
                    {},
                    float(getattr(stats, f"refinements_{outcome}")),
                )
            )
        return samples

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(decisions={self.stats.decisions}, "
            f"observations={self.stats.observations})"
        )


class RefinementExecutor:
    """Background worker turning anytime envelopes into full-ε answers.

    One daemon-style thread computes the requested-ε estimate for pairs the
    anytime tier served as partials, then lands it through
    :meth:`ResistanceService._complete_refinement` (epoch-checked, cache
    ``refine`` semantics — never resurrects, never loosens).

    Determinism: refinements run the method spec directly against the shared
    context with a **derived private stream** (``engine=``/``rng=`` kwarg per
    ``MethodSpec.parallel_seed``), exactly like the parallel batch path — the
    session stream is never touched, so foreground answers stay bit-identical
    whether or not refinement runs.  Duplicate in-flight pairs are submitted
    once; :meth:`drain` waits for everything in flight (``apply_update``
    calls it before mutating the graph, so no refinement ever reads a
    half-patched context).
    """

    def __init__(
        self, service: Any, *, planner: QueryPlanner, seed: int = 0x5EED
    ) -> None:
        self._service = service
        self._planner = planner
        self._seed = int(seed)
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-refine"
        )
        self._lock = threading.Lock()
        self._in_flight: dict[tuple[int, int], Any] = {}
        self._sequence = 0

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._in_flight)

    def submit(self, s: int, t: int, epsilon: float, epoch: int) -> bool:
        """Queue one refinement; False when the pair is already in flight."""
        key = canonical_pair(int(s), int(t))
        with self._lock:
            if key in self._in_flight:
                return False
            self._sequence += 1
            sequence = self._sequence
            future = self._executor.submit(
                self._refine, key[0], key[1], float(epsilon), int(epoch), sequence
            )
            self._in_flight[key] = future
        self._planner.stats.refinements_scheduled += 1
        future.add_done_callback(lambda _f, key=key: self._forget(key))
        return True

    def _forget(self, key: tuple[int, int]) -> None:
        with self._lock:
            self._in_flight.pop(key, None)

    def _refine(self, s: int, t: int, epsilon: float, epoch: int, sequence: int) -> None:
        service = self._service
        try:
            if service.epoch != epoch:
                self._planner.stats.refinements_dropped += 1
                return
            spec = resolve_method(service.config.method)
            kwargs: dict[str, Any] = {}
            seed = derive_seed(self._seed, sequence, s, t)
            if spec.parallel_seed == "engine":
                kwargs["engine"] = RandomWalkEngine(service.graph, rng=seed)
            elif spec.parallel_seed == "rng":
                kwargs["rng"] = seed
            timer = Timer()
            with timer:
                result = spec(service.engine.context, s, t, epsilon, **kwargs)
            service._complete_refinement(result, epoch, seconds=timer.elapsed)
        except Exception:
            # A failed refinement only costs the cache a tighter entry; the
            # partial already served was valid at its published half-width.
            self._planner.stats.refinements_dropped += 1

    def drain(self) -> None:
        """Block until every in-flight refinement has completed or dropped."""
        while True:
            with self._lock:
                futures = list(self._in_flight.values())
            if not futures:
                return
            for future in futures:
                future.exception()  # waits; outcome already accounted

    def shutdown(self) -> None:
        self.drain()
        self._executor.shutdown(wait=True)


__all__ = [
    "TIER_ORDER",
    "degree_bucket",
    "PlannerConfig",
    "PlanDecision",
    "PlannerStats",
    "CostModel",
    "ServiceSignals",
    "QueryPlanner",
    "RefinementExecutor",
]
