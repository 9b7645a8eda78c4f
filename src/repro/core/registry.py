"""Method registry: one namespace for every PER query method.

The paper frames AMC/GEER and its eight baselines as interchangeable answers
to the same ε-approximate pairwise-effective-resistance query, yet historically
the codebase exposed them through three incompatible surfaces (the estimator's
hardcoded method tuple, free baseline functions with heterogeneous signatures,
and the experiment harness's private registry).  This module is the single
seam they all plug into:

* :class:`QueryContext` bundles the per-graph state every method shares — the
  graph, the spectral radius λ, the transition matrix, a vectorised walk
  engine, the random generator, Laplacian solvers and preprocessing caches —
  so a method implementation receives one object instead of a bespoke
  parameter list.
* :class:`MethodSpec` wraps a method under the normalised signature
  ``func(context, s, t, epsilon, **kwargs) -> EstimateResult`` together with
  metadata (one-line description, pair vs. edge query kind, determinism, how
  to inject a precomputed walk length).
* :func:`register_method` / :func:`resolve_method` / :func:`available_methods`
  manage the global registry.  Every core method (``geer``, ``amc``, ``smm``,
  ``smm-peng``) and every baseline (``exact``, ``ground-truth``, ``mc``,
  ``mc2``, ``tp``, ``tpc``, ``rp``, ``hay``) registers itself from its own
  module; the registry imports them lazily on first lookup so importing this
  module stays cheap and cycle-free.

The batch layer (:mod:`repro.core.batch`), the session API
(:mod:`repro.core.engine`), the CLI and the experiment harness all dispatch
through this registry.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Protocol

import numpy as np
import scipy.sparse as sp

from repro.core.result import EstimateResult
from repro.core.walk_length import peng_walk_length, refined_walk_length
from repro.obs import NULL_OBS, Observability
from repro.graph.graph import Graph
from repro.graph.properties import require_walkable
from repro.linalg.eigen import SpectralInfo, transition_eigenvalues
from repro.linalg.solvers import LaplacianSolver
from repro.sampling.walks import RandomWalkEngine
from repro.utils.rng import RngLike, as_generator
from repro.utils.validation import check_node_pair, check_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.baselines.exact import ExactEffectiveResistance
    from repro.baselines.ground_truth import GroundTruthOracle
    from repro.baselines.rp import RandomProjectionSketch
    from repro.graph.delta import EdgeDelta


class DuplicateMethodError(ValueError):
    """Raised when a method name is registered twice."""


class UnknownMethodError(KeyError):
    """Raised when resolving a name that is not in the registry."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.message


# --------------------------------------------------------------------------- #
# query budget
# --------------------------------------------------------------------------- #
@dataclass
class QueryBudget:
    """Resource caps shared by every method dispatched through one context.

    The default profile is *unbounded*: methods run with their faithful paper
    budgets, exactly like direct calls on the estimator façade always have.
    :meth:`laptop` returns the capped profile the experiment harness uses so a
    methods × ε sweep finishes on a laptop (runs that hit a cap are flagged on
    the result, mirroring the paper's one-day cutoff).
    """

    max_total_steps: Optional[int] = None
    mc_max_walks: Optional[int] = None
    mc2_max_walks: Optional[int] = None
    hay_max_samples: Optional[int] = None
    tp_budget_scale: float = 1.0
    tpc_budget_scale: float = 1.0
    baseline_max_seconds: Optional[float] = None
    rp_jl_constant: float = 24.0
    rp_max_dimension: Optional[int] = None
    exact_max_nodes: int = 20_000
    #: "budgeted" refresh policy threshold: after an edge delta, the spectral
    #: radius is re-solved eagerly only on graphs with at most this many nodes
    #: (larger graphs defer the ARPACK solve to the next read).
    spectral_refresh_nodes: int = 4096
    #: Bound on the number of walks the fused AMC/GEER scoring kernel keeps in
    #: flight (peak walk-buffer memory is O(walk_chunk_size · 128) floats).
    #: Chunked and unchunked execution are bit-identical under the same seed
    #: (see RandomWalkEngine.walk_scores), so this is a memory/cache knob for
    #: the huge η* regimes, not a semantics knob; the default keeps the walk
    #: slabs cache-resident (~2x over the unchunked kernel on large batches).
    #: ``None`` = unchunked.
    walk_chunk_size: Optional[int] = 16_384

    @classmethod
    def laptop(cls) -> "QueryBudget":
        """The capped profile used by the experiment harness."""
        return cls(
            max_total_steps=20_000_000,
            mc_max_walks=5000,
            mc2_max_walks=20_000,
            hay_max_samples=400,
            baseline_max_seconds=5.0,
            rp_jl_constant=4.0,
            rp_max_dimension=2000,
            exact_max_nodes=4000,
        )

    def copy(self) -> "QueryBudget":
        return replace(self)


# --------------------------------------------------------------------------- #
# shared query context
# --------------------------------------------------------------------------- #
#: Valid refresh policies for expensive artefacts after an edge delta:
#: ``"eager"`` rebuilds during :meth:`QueryContext.apply_delta`,
#: ``"on-next-read"`` (default) marks stale and rebuilds lazily, and
#: ``"budgeted"`` rebuilds eagerly only below a size budget
#: (``QueryBudget.spectral_refresh_nodes`` for the spectral solve).
REFRESH_POLICIES = ("eager", "on-next-read", "budgeted")


@dataclass(frozen=True)
class ArtifactSpec:
    """How one :class:`QueryContext` artefact cell reacts to an edge delta.

    Attributes
    ----------
    name:
        The cell key (also the name reported by ``artifact_status``).
    cost:
        ``"cheap"`` (rebuilding is O(m) array work) or ``"expensive"``
        (an eigen-solve, a factorisation, a dense inverse — the artefacts the
        refresh policy exists for).
    patch:
        Name of the ``QueryContext`` method that updates the cell's value
        incrementally from a delta (touched CSR rows only), or ``None`` when
        the cell must be dropped and rebuilt.  A patch method may return
        ``None`` to decline (the cell is then dropped, matching the lazy cold
        behaviour).
    """

    name: str
    cost: str
    patch: Optional[str] = None


class QueryContext:
    """Per-graph state shared by every registered method.

    All expensive artefacts are created lazily and cached in
    **dependency-tracked cells**: the spectral radius λ (one ARPACK solve),
    the CSR transition matrix, the vectorised random-walk engine, the
    preconditioned Laplacian solver, the ground-truth oracle, the dense
    ``L⁺`` oracle for EXACT and the per-ε RP sketches.  A context is what
    makes a :class:`~repro.core.engine.QueryEngine` a *session*: queries
    issued through the same context never repeat preprocessing.

    Contexts are **epoch-versioned**: :meth:`apply_delta` absorbs an
    :class:`~repro.graph.delta.EdgeDelta` in place, patching cheap cells at
    the CSR-row level (degrees, transition matrix, alias tables, walk engine)
    and invalidating only what the delta actually touches; expensive cells
    are refreshed per policy (:data:`REFRESH_POLICIES`).  The epoch counts
    applied deltas and :attr:`lineage` is the fingerprint chain of
    :mod:`repro.graph.fingerprint`, which is what pins plans, cache entries
    and on-disk artifacts to a graph version.
    """

    #: The invalidation matrix: every cell, its cost class, and how a delta
    #: updates it (see DESIGN.md "Contract 4 — delta ≡ rebuild").
    ARTIFACT_SPECS: tuple[ArtifactSpec, ...] = (
        ArtifactSpec("spectral", "expensive", None),
        ArtifactSpec("degrees_float", "cheap", "_patch_degrees_float"),
        ArtifactSpec("transition", "cheap", "_patch_transition"),
        ArtifactSpec("engine", "cheap", "_patch_engine"),
        ArtifactSpec("solver", "cheap", None),
        ArtifactSpec("ground_truth", "expensive", None),
        ArtifactSpec("exact_oracle", "expensive", None),
        ArtifactSpec("rp_sketches", "expensive", None),
    )

    def __init__(
        self,
        graph: Graph,
        *,
        delta: float = 0.01,
        num_batches: int = 5,
        lambda_max_abs: Optional[float] = None,
        rng: RngLike = None,
        budget: Optional[QueryBudget] = None,
        validate: bool = True,
        transition: Optional[sp.csr_matrix] = None,
        spectral_info: Optional[SpectralInfo] = None,
        obs: Optional["Observability"] = None,
    ) -> None:
        if validate:
            require_walkable(graph)
        self.graph = graph
        #: Observability bundle (metrics + tracer); the disabled NULL_OBS by
        #: default so bare contexts pay ~nothing.  Never pickled — process
        #: payloads ship the graph/shared handle, not the context.
        self.obs = obs if obs is not None else NULL_OBS
        self.delta = check_positive(delta, "delta")
        self.num_batches = int(num_batches)
        self.rng = as_generator(rng)
        self.budget = budget if budget is not None else QueryBudget()
        self.epoch = 0
        self._validate = validate
        self._lineage: Optional[str] = None  # lazily the graph fingerprint
        #: A :class:`repro.net.shm.SharedContextHandle` once this context's
        #: artifacts have been published to shared memory (see
        #: :func:`repro.net.shm.install_shared_context`).  When set, the
        #: process-pool batch executor ships this tiny descriptor to workers
        #: (attach-by-fingerprint) instead of pickling the graph.  Cleared by
        #: :meth:`apply_delta` — the publisher must republish per epoch.
        self.shared_handle: Optional[Any] = None
        self._cells: Dict[str, Any] = {}
        self._lambda_scalar: Optional[float] = lambda_max_abs
        if spectral_info is not None:
            self._cells["spectral"] = spectral_info
        if transition is not None:
            self._cells["transition"] = transition
        # Guards lazy artefact construction when a parallel QueryPlan fans
        # queries out over threads (each artefact is still built exactly once).
        self._artifact_lock = threading.Lock()

    # -- the artefact cell machinery ------------------------------------- #
    def artifact(self, name: str) -> Any:
        """The value of cell ``name``, building it under the lock if empty."""
        value = self._cells.get(name)
        if value is None:
            with self._artifact_lock:
                value = self._cells.get(name)
                if value is None:
                    value = getattr(self, f"_build_{name}")()
                    self._cells[name] = value
        return value

    def invalidate(self, name: str) -> None:
        """Drop cell ``name`` (it rebuilds lazily on next read)."""
        with self._artifact_lock:
            self._cells.pop(name, None)
            if name == "spectral":
                self._lambda_scalar = None

    def artifact_status(self) -> Dict[str, str]:
        """``{cell name: "ready" | "empty"}`` for observability and tests."""
        return {
            spec.name: "ready" if spec.name in self._cells else "empty"
            for spec in self.ARTIFACT_SPECS
        }

    # -- preprocessing artefacts ---------------------------------------- #
    # The ARPACK starting vector is drawn from its own fixed-seed generator,
    # NOT from the shared session stream: v0 only affects convergence, and
    # keeping the eigen-solve off the query stream means a context restored
    # from persisted artifacts (which skips the solve entirely) sees exactly
    # the same generator state as a cold one — warm starts stay bit-for-bit
    # reproducible at any graph size.
    _SPECTRAL_V0_SEED = 0x5EED

    def _build_spectral(self) -> SpectralInfo:
        return transition_eigenvalues(self.graph, rng=self._SPECTRAL_V0_SEED)

    def _build_degrees_float(self) -> np.ndarray:
        return self.graph.degrees.astype(np.float64)

    def _build_transition(self) -> sp.csr_matrix:
        return self.graph.transition_matrix()

    def _build_engine(self) -> RandomWalkEngine:
        return RandomWalkEngine(self.graph, rng=self.rng, obs=self.obs)

    def _build_solver(self) -> LaplacianSolver:
        return LaplacianSolver(self.graph)

    def _build_ground_truth(self) -> "GroundTruthOracle":
        from repro.baselines.ground_truth import GroundTruthOracle

        return GroundTruthOracle(self.graph)

    def _build_exact_oracle(self) -> "ExactEffectiveResistance":
        from repro.baselines.exact import ExactEffectiveResistance

        return ExactEffectiveResistance(
            self.graph, max_nodes=self.budget.exact_max_nodes
        )

    def _build_rp_sketches(self) -> Dict[float, "RandomProjectionSketch"]:
        return {}

    # -- legacy internal views (kept for callers poking at the originals) - #
    @property
    def _lambda(self) -> Optional[float]:
        spectral = self._cells.get("spectral")
        if spectral is not None:
            return spectral.lambda_max_abs
        return self._lambda_scalar

    @property
    def _spectral(self) -> Optional[SpectralInfo]:
        return self._cells.get("spectral")

    # -- artefact accessors ---------------------------------------------- #
    @property
    def lambda_max_abs(self) -> float:
        """``λ = max(|λ₂|, |λ_n|)``, computed lazily and cached."""
        value = self._lambda
        if value is None:
            value = self.artifact("spectral").lambda_max_abs
        return value

    @property
    def spectral_info(self) -> SpectralInfo:
        return self.artifact("spectral")

    @property
    def transition(self) -> sp.csr_matrix:
        """The CSR transition matrix ``P = D⁻¹A``, built once per context."""
        return self.artifact("transition")

    @property
    def degrees_float(self) -> np.ndarray:
        """Structural node degrees as ``float64``, derived once per context.

        Drives cost accounting (edge traversals per SpMV); the estimator
        formulas use :attr:`weighted_degrees` instead.
        """
        return self.artifact("degrees_float")

    @property
    def weighted_degrees(self) -> np.ndarray:
        """Weighted degrees ``d(v)`` — the quantity the paper's formulas use.

        Identical to :attr:`degrees_float` on unweighted graphs.
        """
        return self.graph.weighted_degrees

    @property
    def engine(self) -> RandomWalkEngine:
        """The shared vectorised random-walk engine (drives all walk methods)."""
        return self.artifact("engine")

    @property
    def solver(self) -> LaplacianSolver:
        """Preconditioned Laplacian solver for exact reference queries."""
        return self.artifact("solver")

    @property
    def ground_truth(self) -> "GroundTruthOracle":
        """Solver-precision oracle used for error measurement."""
        return self.artifact("ground_truth")

    @ground_truth.setter
    def ground_truth(self, oracle: "GroundTruthOracle") -> None:
        self._cells["ground_truth"] = oracle

    def exact_oracle(self) -> "ExactEffectiveResistance":
        """The dense ``L⁺`` oracle behind EXACT (refuses oversized graphs)."""
        return self.artifact("exact_oracle")

    def rp_sketch(self, epsilon: float) -> "RandomProjectionSketch":
        """The Spielman–Srivastava sketch for ``epsilon``, cached per ε.

        Raises :class:`~repro.exceptions.BudgetExceededError` when the JL
        dimension exceeds ``budget.rp_max_dimension`` — the paper's observation
        that RP's preprocessing blows up at small ε, surfaced explicitly
        instead of thrashing memory.
        """
        sketches = self.artifact("rp_sketches")
        if epsilon not in sketches:
            from repro.baselines.rp import RandomProjectionSketch
            from repro.exceptions import BudgetExceededError
            from repro.linalg.projection import johnson_lindenstrauss_dimension

            if self.budget.rp_max_dimension is not None:
                dimension = johnson_lindenstrauss_dimension(
                    self.graph.num_nodes, epsilon, c=self.budget.rp_jl_constant
                )
                if dimension > self.budget.rp_max_dimension:
                    raise BudgetExceededError(
                        f"RP sketch dimension {dimension} exceeds the configured cap "
                        f"{self.budget.rp_max_dimension} (epsilon={epsilon})"
                    )
            sketches[epsilon] = RandomProjectionSketch(
                self.graph,
                epsilon,
                jl_constant=self.budget.rp_jl_constant,
                rng=self.rng,
            )
        return sketches[epsilon]

    # -- dynamic graphs --------------------------------------------------- #
    @property
    def lineage(self) -> str:
        """The fingerprint-chain digest of the current graph epoch.

        Epoch 0's lineage is the plain graph fingerprint; every
        :meth:`apply_delta` extends the chain (see
        :mod:`repro.graph.fingerprint`).  Computed lazily — contexts that
        never persist artifacts or absorb deltas never pay the hash.
        """
        if self._lineage is None:
            from repro.graph.fingerprint import graph_fingerprint

            self._lineage = graph_fingerprint(self.graph)
        return self._lineage

    @property
    def known_lineage(self) -> Optional[str]:
        """The lineage digest if already computed/adopted, else None.

        Unlike :attr:`lineage` this never hashes the graph — callers that
        only want to *share* an existing digest (the serving layer, artifact
        restore) use it to avoid forcing the O(m) fingerprint.
        """
        return self._lineage

    def adopt_lineage(self, digest: str) -> None:
        """Install a lineage digest computed elsewhere (artifact manifest,
        :class:`~repro.graph.delta.GraphStore`) for this context's epoch."""
        self._lineage = str(digest)

    def apply_delta(
        self,
        delta: "EdgeDelta",
        *,
        refresh: str = "on-next-read",
        graph: Optional[Graph] = None,
    ) -> int:
        """Absorb an edge delta in place and return the new epoch.

        Cheap cells are patched at the CSR-row level (only rows incident to
        the delta are recomputed) and the graph's memoised alias tables are
        carried over the same way, so warm walk state stays warm.  Cells
        without a patch are invalidated; the expensive spectral solve follows
        ``refresh`` (see :data:`REFRESH_POLICIES`).  The session's random
        stream is never consumed, which is half of the **delta ≡ rebuild**
        contract: a context that absorbed a delta returns bit-identical
        estimates (same seed) to a cold context built on the post-delta graph
        (the other half is :meth:`EdgeDelta.apply_to` reproducing the
        canonical cold CSR layout).

        Parameters
        ----------
        delta:
            The :class:`~repro.graph.delta.EdgeDelta` to absorb.
        refresh:
            Refresh policy for the spectral artefact.
        graph:
            The already-materialised post-delta graph, when the caller (e.g. a
            :class:`~repro.graph.delta.GraphStore`) applied the delta itself;
            must equal ``delta.apply_to(self.graph)``.
        """
        from repro.sampling.walks import patch_alias_tables

        if refresh not in REFRESH_POLICIES:
            raise ValueError(
                f"refresh must be one of {REFRESH_POLICIES}, got {refresh!r}"
            )
        new_graph = delta.apply_to(self.graph) if graph is None else graph
        if self._validate:
            require_walkable(new_graph)
        parent_lineage = self.lineage
        with self.obs.tracer.span(
            "delta:apply", changes=delta.num_changes, to_epoch=self.epoch + 1
        ), self._artifact_lock:
            old_graph = self.graph
            touched = delta.touched_nodes
            # Alias tables are memoised on the graph object; patch them first
            # so the patched engine (and any future engine) reuses warm rows.
            patch_alias_tables(old_graph, new_graph, touched)
            for spec in self.ARTIFACT_SPECS:
                if spec.name not in self._cells:
                    continue
                if spec.patch is None:
                    del self._cells[spec.name]
                    continue
                patched = getattr(self, spec.patch)(
                    self._cells[spec.name], delta, old_graph, new_graph
                )
                if patched is None:
                    del self._cells[spec.name]
                else:
                    self._cells[spec.name] = patched
            self._lambda_scalar = None
            self.graph = new_graph
            self.epoch += 1
            self._lineage = delta.chain(parent_lineage)
            # Published segments describe the pre-delta graph; drop the handle
            # so the process executor falls back to pickling until the owner
            # republishes under the new epoch.
            self.shared_handle = None
        if refresh == "eager" or (
            refresh == "budgeted"
            and new_graph.num_nodes <= self.budget.spectral_refresh_nodes
        ):
            self.spectral_info  # rebuild now, outside the lock
        return self.epoch

    # -- incremental cell patches (bit-identical to a cold rebuild) ------- #
    def _patch_degrees_float(
        self, value: np.ndarray, delta: "EdgeDelta", old_graph: Graph, new_graph: Graph
    ) -> np.ndarray:
        touched = delta.touched_nodes
        patched = value.copy()
        patched[touched] = new_graph.degrees[touched].astype(np.float64)
        return patched

    def _patch_transition(
        self,
        value: sp.csr_matrix,
        delta: "EdgeDelta",
        old_graph: Graph,
        new_graph: Graph,
    ) -> Optional[sp.csr_matrix]:
        from repro.graph.delta import untouched_arc_masks

        new_degrees = new_graph.degrees
        if np.any(new_degrees == 0):
            return None  # undefined, same lazy failure as a cold context
        touched = delta.touched_nodes
        untouched_old, untouched_new, _ = untouched_arc_masks(
            old_graph, new_graph, touched
        )
        data = np.empty(len(new_graph.indices), dtype=np.float64)
        data[untouched_new] = value.data[untouched_old]
        touched_arcs = ~untouched_new
        if new_graph.is_weighted:
            # Same elementwise division as Graph.transition_matrix, repeated
            # over the touched rows only (touched is sorted, so the repeat is
            # aligned with the row-major touched_arcs mask).
            repeated = np.repeat(
                new_graph.weighted_degrees[touched], new_degrees[touched]
            )
            data[touched_arcs] = new_graph.weights[touched_arcs] / repeated
        else:
            inv_deg = 1.0 / new_degrees[touched].astype(np.float64)
            data[touched_arcs] = np.repeat(inv_deg, new_degrees[touched])
        return sp.csr_matrix(
            (data, new_graph.indices.copy(), new_graph.indptr.copy()),
            shape=(new_graph.num_nodes, new_graph.num_nodes),
        )

    def _patch_engine(
        self,
        value: RandomWalkEngine,
        delta: "EdgeDelta",
        old_graph: Graph,
        new_graph: Graph,
    ) -> Optional[RandomWalkEngine]:
        if np.any(new_graph.degrees == 0):
            return None  # unwalkable, same lazy failure as a cold context
        # Shares the session generator (stream position is preserved) and the
        # new graph's patched alias tables; the step counter carries over.
        engine = RandomWalkEngine(new_graph, rng=self.rng, obs=self.obs)
        engine.total_steps = value.total_steps
        return engine

    # -- serialization ----------------------------------------------------- #
    def export_preprocessing(self) -> Dict[str, float]:
        """The scalar preprocessing state, for persistence.

        Forces the spectral solve if it has not happened yet (there is nothing
        to persist otherwise) and returns a plain-scalar dict suitable for a
        JSON manifest; see :mod:`repro.service.artifacts` for the on-disk
        format and the graph fingerprint that guards staleness.
        """
        spectral = self.spectral_info
        return {
            "delta": self.delta,
            "num_batches": self.num_batches,
            "lambda_2": spectral.lambda_2,
            "lambda_n": spectral.lambda_n,
            "lambda_max_abs": spectral.lambda_max_abs,
        }

    @classmethod
    def from_preprocessing(
        cls,
        graph: Graph,
        state: Dict[str, float],
        *,
        rng: RngLike = None,
        budget: Optional[QueryBudget] = None,
        validate: bool = True,
    ) -> "QueryContext":
        """Rebuild a context from :meth:`export_preprocessing` output.

        The restored context never re-runs the eigen-solve: its
        :class:`SpectralInfo` is reconstructed from the persisted scalars.
        """
        spectral = SpectralInfo(
            lambda_2=float(state["lambda_2"]), lambda_n=float(state["lambda_n"])
        )
        return cls(
            graph,
            delta=float(state["delta"]),
            num_batches=int(state["num_batches"]),
            rng=rng,
            budget=budget,
            validate=validate,
            spectral_info=spectral,
        )

    # -- helpers ---------------------------------------------------------- #
    def prepare_for(self, spec: "MethodSpec", epsilon: float) -> None:
        """Eagerly build the shared artefacts ``spec`` will touch.

        Called by the parallel batch executor before fanning queries out so
        worker threads only ever *read* the context (the lazy properties are
        lock-guarded too, but a single up-front build avoids serialising the
        pool behind the first query's ARPACK solve).
        """
        if spec.walk_length_kind is not None:
            self.lambda_max_abs
        if spec.parallel_seed == "engine" and self.graph.is_weighted:
            # Building the shared engine memoises the weighted-step alias
            # tables on the graph, so per-query worker engines reuse them
            # instead of stampeding N duplicate O(m) Vose builds.
            self.engine
        name = spec.name
        if name in ("geer", "smm", "smm-peng"):
            self.transition
            self.degrees_float
        if name == "rp":
            self.rp_sketch(epsilon)
        if name == "exact":
            self.exact_oracle()
        if name == "ground-truth":
            self.ground_truth

    def walk_length(self, s: int, t: int, epsilon: float, *, refined: bool = True) -> int:
        """The maximum walk length ℓ used for pair ``(s, t)`` at error ``epsilon``."""
        s, t = check_node_pair(s, t, self.graph.num_nodes)
        if refined:
            return refined_walk_length(
                epsilon,
                self.lambda_max_abs,
                float(self.graph.weighted_degrees[s]),
                float(self.graph.weighted_degrees[t]),
            )
        return peng_walk_length(epsilon, self.lambda_max_abs)

    def __repr__(self) -> str:
        lam = f"{self._lambda:.4f}" if self._lambda is not None else "<lazy>"
        return (
            f"QueryContext(graph={self.graph!r}, delta={self.delta}, "
            f"tau={self.num_batches}, lambda={lam}, epoch={self.epoch})"
        )


# --------------------------------------------------------------------------- #
# method specs
# --------------------------------------------------------------------------- #
class QueryMethod(Protocol):
    """The normalised signature every registered method implements."""

    def __call__(
        self, context: QueryContext, s: int, t: int, epsilon: float, **kwargs: Any
    ) -> EstimateResult: ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class MethodSpec:
    """A registered query method plus the metadata the API layers need.

    Attributes
    ----------
    name:
        Canonical registry name (lower-case, hyphen-separated).
    func:
        The implementation under the normalised
        ``(context, s, t, epsilon, **kwargs)`` signature.
    description:
        One-line summary shown by ``repro-er methods``.
    kind:
        ``"pair"`` for arbitrary node pairs, ``"edge"`` for methods whose
        identity only holds for adjacent pairs (MC2, HAY).
    deterministic:
        True when repeated queries return bit-identical values (SMM, EXACT,
        ground truth; RP is deterministic *given* its sketch).
    walk_length_param:
        Name of the keyword argument through which a precomputed maximum walk
        length can be injected (``None`` when the method does not use one).
        The batch planner uses this to compute each length once per degree
        bucket instead of once per pair.
    walk_length_kind:
        ``"refined"`` (Eq. (6), degree-dependent), ``"peng"`` (Eq. (5),
        degree-independent) or ``None``.
    parallel_seed:
        How a parallel :class:`~repro.core.batch.QueryPlan` hands the method a
        private, deterministic random stream: ``"engine"`` (the method accepts
        an ``engine=`` kwarg taking a :class:`RandomWalkEngine`), ``"rng"``
        (an ``rng=`` kwarg taking any ``RngLike``) or ``None`` (the method is
        deterministic, or — like RP — reads only prebuilt shared state and
        needs no private stream).
    """

    name: str
    func: QueryMethod
    description: str
    kind: str = "pair"
    deterministic: bool = False
    walk_length_param: Optional[str] = None
    walk_length_kind: Optional[str] = None
    parallel_seed: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("pair", "edge"):
            raise ValueError(f"kind must be 'pair' or 'edge', got {self.kind!r}")
        if self.walk_length_kind not in (None, "refined", "peng"):
            raise ValueError(f"invalid walk_length_kind {self.walk_length_kind!r}")
        if self.parallel_seed not in (None, "engine", "rng"):
            raise ValueError(f"invalid parallel_seed {self.parallel_seed!r}")

    def __call__(
        self, context: QueryContext, s: int, t: int, epsilon: float, **kwargs: Any
    ) -> EstimateResult:
        return self.func(context, s, t, epsilon, **kwargs)

    def plan_walk_length(self, context: QueryContext, epsilon: float, degree_s: float, degree_t: float) -> Optional[int]:
        """Compute the maximum walk length this method would use for a pair."""
        if self.walk_length_kind == "refined":
            return refined_walk_length(
                epsilon, context.lambda_max_abs, degree_s, degree_t
            )
        if self.walk_length_kind == "peng":
            return peng_walk_length(epsilon, context.lambda_max_abs)
        return None


_REGISTRY: Dict[str, MethodSpec] = {}
_BUILTINS_LOADED = False


def normalize_method_name(name: str) -> str:
    """Canonical form: lower-case with hyphens (``GROUND_TRUTH`` → ``ground-truth``)."""
    return str(name).strip().lower().replace("_", "-")


def register_method(
    name: str,
    *,
    description: str,
    kind: str = "pair",
    deterministic: bool = False,
    walk_length_param: Optional[str] = None,
    walk_length_kind: Optional[str] = None,
    parallel_seed: Optional[str] = None,
    func: Optional[QueryMethod] = None,
) -> Callable[[QueryMethod], QueryMethod]:
    """Register a method under ``name``; usable directly or as a decorator.

    Raises
    ------
    DuplicateMethodError
        If ``name`` (after normalisation) is already registered.
    """

    def _register(fn: QueryMethod) -> QueryMethod:
        spec = MethodSpec(
            name=normalize_method_name(name),
            func=fn,
            description=description,
            kind=kind,
            deterministic=deterministic,
            walk_length_param=walk_length_param,
            walk_length_kind=walk_length_kind,
            parallel_seed=parallel_seed,
        )
        if spec.name in _REGISTRY:
            raise DuplicateMethodError(
                f"method {spec.name!r} is already registered; "
                "unregister it first or pick a different name"
            )
        _REGISTRY[spec.name] = spec
        return fn

    if func is not None:
        _register(func)
        return func
    return _register


def unregister_method(name: str) -> None:
    """Remove a method from the registry (primarily for tests and plugins)."""
    _REGISTRY.pop(normalize_method_name(name), None)


def _ensure_builtin_methods() -> None:
    """Import every module that registers a built-in method (idempotent)."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    # Core methods first, then the baselines; each module registers itself at
    # import time.  Deferred to first lookup so `import repro` stays cheap and
    # the baselines' imports of repro.core submodules cannot cycle.  The flag
    # is only set once every import succeeded, so a transient ImportError
    # surfaces again on the next lookup instead of leaving a silently partial
    # registry (modules that already registered are skipped by Python's import
    # cache, and register_method tolerates nothing — duplicates raise — so a
    # retry only runs the modules that failed).
    import repro.core.amc  # noqa: F401
    import repro.core.geer  # noqa: F401
    import repro.core.smm  # noqa: F401
    import repro.baselines.exact  # noqa: F401
    import repro.baselines.ground_truth  # noqa: F401
    import repro.baselines.hay  # noqa: F401
    import repro.baselines.mc  # noqa: F401
    import repro.baselines.mc2  # noqa: F401
    import repro.baselines.rp  # noqa: F401
    import repro.baselines.tp  # noqa: F401
    import repro.baselines.tpc  # noqa: F401
    _BUILTINS_LOADED = True


def resolve_method(name: str) -> MethodSpec:
    """Look up a registered method by (normalised) name.

    Raises
    ------
    UnknownMethodError
        (a :class:`KeyError`) when the name is not registered; the message
        lists every available method.
    """
    _ensure_builtin_methods()
    key = normalize_method_name(name)
    spec = _REGISTRY.get(key)
    if spec is None:
        raise UnknownMethodError(
            f"unknown method {name!r}; available: {', '.join(available_methods())}"
        )
    return spec


def available_methods() -> tuple[str, ...]:
    """Sorted canonical names of every registered method."""
    _ensure_builtin_methods()
    return tuple(sorted(_REGISTRY))


def method_table() -> list[dict[str, object]]:
    """One row of metadata per registered method (drives ``repro-er methods``)."""
    _ensure_builtin_methods()
    return [
        {
            "method": spec.name,
            "queries": spec.kind,
            "deterministic": "yes" if spec.deterministic else "no",
            "description": spec.description,
        }
        for spec in (_REGISTRY[name] for name in sorted(_REGISTRY))
    ]


__all__ = [
    "DuplicateMethodError",
    "UnknownMethodError",
    "ArtifactSpec",
    "REFRESH_POLICIES",
    "QueryBudget",
    "QueryContext",
    "QueryMethod",
    "MethodSpec",
    "normalize_method_name",
    "register_method",
    "unregister_method",
    "resolve_method",
    "available_methods",
    "method_table",
]
