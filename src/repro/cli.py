"""Command-line interface.

Nine subcommands cover the everyday uses of the library without writing any
Python:

``repro-er query``
    Answer ε-approximate PER queries on a graph loaded from an edge-list file
    or taken from the benchmark dataset registry, with any registered method.

``repro-er methods``
    List every method in the registry (the paper's GEER/AMC/SMM and all eight
    baselines) with one-line descriptions.  ``repro-er query --method list``
    prints the same table.

``repro-er datasets``
    List the registered benchmark datasets (the laptop-scale SNAP stand-ins).

``repro-er sweep``
    Run a small method × ε sweep on one dataset and print the table the
    evaluation figures are built from.

``repro-er warm``
    Build the preprocessing artifacts (spectral info, landmark sketch) for a
    graph and persist them to an artifact directory for warm service starts.

``repro-er serve``
    Replay a request stream through :class:`repro.ResistanceService`
    (cache → sketch → engine) and print per-layer serving statistics — or,
    with ``--port``, expose the service over HTTP/JSON
    (:mod:`repro.net.server`), optionally backed by a shared-memory worker
    pool (``--net-workers``).  ``repro-er query --url`` is the matching
    client.

``repro-er plan``
    Dry-run the cost-based adaptive planner for request pairs and print the
    decision — chosen tier, predicted per-tier costs and the live signals
    consulted (``--explain`` prints the full trace per pair).  ``serve
    --planner adaptive`` turns the same routing on for real traffic.

``repro-er update``
    Apply an edge delta (inserts / removals / reweights) to a served graph:
    warm artifacts are patched instead of rebuilt, the delta log is recorded
    for replay loading, and the new epoch is persisted.

``repro-er stats``
    Fetch a running server's ``/stats`` snapshot (server, service, tier and
    pool counters as tables) or, with ``--metrics``, the raw Prometheus text
    exposition from ``/metrics``.

The CLI is intentionally a thin shell over the public API
(:class:`repro.QueryEngine`, :class:`repro.ResistanceService`, the method
registry in :mod:`repro.core.registry`, :mod:`repro.experiments`), so
everything it does can also be done programmatically.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.core.engine import QueryEngine
from repro.core.registry import REFRESH_POLICIES, available_methods, method_table
from repro.exceptions import GraphStructureError
from repro.experiments.datasets import available_datasets, dataset_spec, load_dataset
from repro.experiments.figures import run_dataset_sweep
from repro.experiments.reporting import format_table
from repro.graph.delta import EdgeDelta
from repro.graph.io import read_edge_list
from repro.graph.properties import summarize
from repro.service import PlannerConfig, ResistanceService, ServiceConfig
from repro.service.artifacts import ArtifactError
from repro.service.planner import TIER_ORDER


def describe_graph(graph, label: str) -> str:
    """The one-line graph summary every graph-loading subcommand prints."""
    summary = summarize(graph, name=label)
    weighted_note = (
        f", weighted (W={summary.total_weight:.2f})" if summary.weighted else ""
    )
    return (
        f"graph {label}: n={summary.num_nodes}, m={summary.num_edges}, "
        f"avg degree={summary.average_degree:.2f}{weighted_note}"
    )


def _load_graph(args: argparse.Namespace, *, announce: bool = False):
    """Load the graph named by --dataset or --edge-list (exactly one required).

    With ``announce`` the shared one-line summary is printed — the single
    code path behind the ``query`` / ``warm`` / ``serve`` / ``update``
    banners.
    """
    if bool(args.dataset) == bool(args.edge_list):
        raise SystemExit("specify exactly one of --dataset or --edge-list")
    if args.dataset:
        graph, label = load_dataset(args.dataset), args.dataset
    else:
        weighted = False if getattr(args, "ignore_weights", False) else None
        graph, label = read_edge_list(args.edge_list, weighted=weighted), args.edge_list
    if announce:
        print(describe_graph(graph, label))
    return graph, label


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset",
        help="name of a registered benchmark dataset (see the 'datasets' subcommand)",
    )
    parser.add_argument(
        "--edge-list",
        help="path to a whitespace-separated edge-list file (SNAP format; "
        "a third 'u v w' column is read as edge weights)",
    )
    parser.add_argument(
        "--ignore-weights",
        action="store_true",
        help="treat the edge list as unweighted even if it has a third column "
        "(for SNAP files carrying timestamps/annotations there)",
    )
    parser.add_argument("--seed", type=int, default=1, help="random seed (default: 1)")


def _cmd_datasets(_args: argparse.Namespace) -> int:
    rows = []
    for name in available_datasets():
        spec = dataset_spec(name)
        rows.append(
            {
                "name": name,
                "regime": spec.regime,
                "stands in for": spec.role,
                "description": spec.description,
            }
        )
    print(format_table(rows, title="registered benchmark datasets"))
    return 0


def _cmd_methods(_args: argparse.Namespace) -> int:
    print(format_table(method_table(), title="registered query methods"))
    return 0


def _parse_pairs(pair_texts: Sequence[str]) -> list[tuple[int, int]]:
    pairs = []
    for pair in pair_texts:
        try:
            s_text, t_text = pair.split(",")
            pairs.append((int(s_text), int(t_text)))
        except ValueError as exc:
            raise SystemExit(f"malformed pair {pair!r}; expected 's,t'") from exc
    return pairs


def _cmd_query_remote(args: argparse.Namespace) -> int:
    """Client mode: send the pairs to a running ``repro-er serve --port`` server."""
    from repro.net.client import ClientError, ResistanceClient

    if args.exact:
        raise SystemExit(
            "--exact is unavailable with --url (the server does not expose "
            "ground truth); run without --url against a local graph instead"
        )
    pairs = _parse_pairs(args.pairs)
    client = ResistanceClient(args.url)
    try:
        response = client.query_batch(pairs, args.epsilon, method=args.method)
    except ClientError as exc:
        raise SystemExit(str(exc)) from exc
    if args.trace and "trace_id" in response:
        print(f"trace_id: {response['trace_id']} (spans recorded server-side)")
    rows = []
    for answer in response["results"]:
        rows.append(
            {
                "s": answer["s"],
                "t": answer["t"],
                "epsilon": answer["epsilon"],
                "estimate": answer["value"],
                "source": answer.get("source", "engine"),
                "partial": answer.get("partial", False),
                "time (ms)": answer.get("elapsed_seconds", 0.0) * 1000.0,
            }
        )
    print(
        format_table(
            rows,
            title=f"remote effective resistance queries "
            f"(epoch {response['epoch']}, {args.url})",
        )
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    if args.method == "list":
        return _cmd_methods(args)
    if not args.pairs:
        raise SystemExit("provide at least one S,T query pair")
    if args.url:
        return _cmd_query_remote(args)
    graph, label = _load_graph(args, announce=True)
    obs = None
    traces = []
    if args.trace:
        from repro.obs import MetricsRegistry, Observability, Tracer

        obs = Observability(
            metrics=MetricsRegistry(enabled=True), tracer=Tracer(enabled=True)
        )
    engine = QueryEngine(graph, rng=args.seed, obs=obs)
    pairs = _parse_pairs(args.pairs)
    rows = []
    try:
        if args.batch:
            if obs is not None:
                with obs.tracer.trace("cli:query_batch") as trace:
                    batch = engine.query_many(
                        pairs, args.epsilon, method=args.method, workers=args.workers
                    )
                traces.append(trace)
            else:
                batch = engine.query_many(
                    pairs, args.epsilon, method=args.method, workers=args.workers
                )
            results = list(batch)
        elif obs is not None:
            results = []
            for s, t in pairs:
                with obs.tracer.trace("cli:query") as trace:
                    results.append(engine.query(s, t, args.epsilon, method=args.method))
                traces.append(trace)
        else:
            results = [
                engine.query(s, t, args.epsilon, method=args.method) for s, t in pairs
            ]
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    for result in results:
        row = {
            "s": result.s,
            "t": result.t,
            "method": args.method,
            "epsilon": args.epsilon,
            "estimate": result.value,
            "walks": result.num_walks,
            "smm iters": result.smm_iterations,
            "time (ms)": result.elapsed_seconds * 1000.0,
        }
        if args.exact:
            truth = engine.exact(result.s, result.t)
            row["exact"] = truth
            row["abs error"] = abs(result.value - truth)
        rows.append(row)
    print(format_table(rows, title="effective resistance queries"))
    if args.batch:
        print(
            f"batch: {len(batch)} pairs in {batch.num_buckets} degree buckets, "
            f"{batch.walk_length_computations} walk-length computations, "
            f"{batch.elapsed_seconds * 1000.0:.2f} ms total "
            f"({batch.executor}, workers={batch.workers})"
        )
        print(format_table([engine.stats.summary()], title="session stats"))
    if traces:
        from repro.obs import render_span_tree

        for trace in traces:
            print()
            print(render_span_tree(trace))
    return 0


def _print_layer_summaries(summary: dict) -> None:
    """Render one table per serving layer from ``ResistanceService.summary()``."""
    for layer, counters in summary.items():
        print(format_table([counters], title=f"{layer} stats"))


def _cmd_warm(args: argparse.Namespace) -> int:
    graph, label = _load_graph(args, announce=True)
    config = ServiceConfig(
        use_sketch=not args.no_sketch,
        num_landmarks=args.landmarks,
        landmark_strategy=args.strategy,
    )
    service = ResistanceService(graph, config=config, rng=args.seed)
    service.warm_up()
    manifest = service.save_artifacts(args.artifacts)
    state = service.engine.export_preprocessing()
    print(
        f"lambda={state['lambda_max_abs']:.6f} "
        f"(lambda_2={state['lambda_2']:.6f}, lambda_n={state['lambda_n']:.6f})"
    )
    if service.sketch is not None:
        print(
            f"landmark sketch: {service.sketch.num_landmarks} landmarks "
            f"({service.sketch.strategy})"
        )
    print(f"artifacts saved to {manifest.parent}")
    return 0


def _cmd_serve_network(args: argparse.Namespace) -> int:
    """Network mode: expose the service over HTTP until interrupted."""
    import asyncio
    import signal

    from repro.net.server import NetServer, NetServerConfig

    graph, label = _load_graph(args, announce=True)
    config = ServiceConfig(
        method=args.method,
        use_cache=not args.no_cache,
        use_sketch=not args.no_sketch,
        num_landmarks=args.landmarks,
        workers=args.workers,
        planner=getattr(args, "planner", "static"),
    )
    try:
        service = ResistanceService(
            graph, config=config, rng=args.seed, artifact_dir=args.artifacts
        )
    except ArtifactError as exc:
        raise SystemExit(str(exc)) from exc
    net_config = NetServerConfig(
        host=args.host,
        port=args.port,
        workers=args.net_workers,
        max_pending=args.max_pending,
        default_deadline_ms=args.deadline_ms,
        slow_query_ms=args.slow_query_ms,
    )
    server = NetServer(service, net_config)

    async def run() -> None:
        await server.start()
        shm_state = "on" if server.shared_memory_active else "off"
        print(
            f"serving {label} at {server.url} "
            f"(pool workers={net_config.workers}, shared memory {shm_state}); "
            "Ctrl-C to drain and exit",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX loops
                signal.signal(signum, lambda *_: stop.set())
        await stop.wait()
        print("draining in-flight requests ...", flush=True)
        await server.stop()

    asyncio.run(run())
    service.close()
    _print_layer_summaries(service.summary())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if getattr(args, "failpoints", None):
        from repro.fault import FAULTS

        FAULTS.arm_from_string(args.failpoints)
        print(f"failpoints armed: {', '.join(FAULTS.armed_names())}", flush=True)
    if args.port is not None:
        return _cmd_serve_network(args)
    if not args.pairs:
        raise SystemExit("provide at least one S,T request pair")
    graph, label = _load_graph(args, announce=True)
    config = ServiceConfig(
        method=args.method,
        use_cache=not args.no_cache,
        use_sketch=not args.no_sketch,
        num_landmarks=args.landmarks,
        workers=args.workers,
        planner=getattr(args, "planner", "static"),
    )
    try:
        service = ResistanceService(
            graph, config=config, rng=args.seed, artifact_dir=args.artifacts
        )
    except ArtifactError as exc:
        raise SystemExit(str(exc)) from exc
    start_state = "warm (artifacts)" if service.warm_started else "cold"
    print(f"serving {label} [{start_state} start, method={args.method}]")
    pairs = _parse_pairs(args.pairs)
    rows = []
    try:
        for _ in range(args.repeat):
            for s, t in pairs:
                result = service.query(s, t, args.epsilon)
                rows.append(
                    {
                        "s": result.s,
                        "t": result.t,
                        "epsilon": args.epsilon,
                        "estimate": result.value,
                        "source": result.details.get("source", result.method),
                        "walk steps": result.total_steps,
                        "time (ms)": result.elapsed_seconds * 1000.0,
                    }
                )
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    service.close()
    print(format_table(rows, title="served effective resistance requests"))
    _print_layer_summaries(service.summary())
    if args.artifacts and not service.warm_started:
        manifest = service.save_artifacts(args.artifacts)
        print(f"artifacts saved to {manifest.parent} (next start will be warm)")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    """Dry-run the adaptive planner: decisions are printed, nothing executes."""
    if not args.pairs:
        raise SystemExit("provide at least one S,T pair to plan")
    graph, label = _load_graph(args, announce=True)
    config = ServiceConfig(
        method=args.method,
        use_cache=not args.no_cache,
        use_sketch=not args.no_sketch,
        num_landmarks=args.landmarks,
        planner="adaptive",
        planner_config=PlannerConfig(refine_in_background=False),
    )
    service = ResistanceService(graph, config=config, rng=args.seed)
    service.warm_up()
    deadline = args.deadline_ms / 1000.0 if args.deadline_ms is not None else None
    pairs = _parse_pairs(args.pairs)
    rows = []
    try:
        for s, t in pairs:
            decision = service.planner.explain(
                s, t, args.epsilon, method=args.method, deadline_seconds=deadline
            )
            rows.append(
                {
                    "s": s,
                    "t": t,
                    "epsilon": args.epsilon,
                    "tier": decision.tier,
                    "reason": decision.reason,
                    "predicted cost (ms)": ", ".join(
                        f"{name}={decision.predicted[name] * 1000.0:.4f}"
                        for name in TIER_ORDER
                        if name in decision.predicted
                    ),
                }
            )
            if args.explain:
                print(
                    f"plan {s},{t} eps={args.epsilon}: tier={decision.tier} "
                    f"({decision.reason})"
                    + (f", deadline={deadline * 1000.0:.1f}ms" if deadline else "")
                )
                for name in TIER_ORDER:
                    if name in decision.predicted:
                        marker = " <-- chosen" if name == decision.tier else ""
                        print(
                            f"  cost[{name}] = "
                            f"{decision.predicted[name] * 1000.0:.6f} ms{marker}"
                        )
                for key, value in decision.signals.items():
                    print(f"  signal {key} = {value}")
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    print(format_table(rows, title="planner decisions (dry run)"))
    return 0


def _parse_edge_op(text: str, *, arity: str, name: str = "edge"):
    """Parse ``S,T`` / ``S,T,W`` command-line edge operations.

    ``arity`` is ``"pair"`` (exactly ``S,T`` — a stray weight is an error,
    not silently dropped), ``"triple"`` (exactly ``S,T,W``) or ``"either"``.
    """
    parts = text.split(",")
    try:
        if len(parts) == 2 and arity in ("pair", "either"):
            return (int(parts[0]), int(parts[1]))
        if len(parts) == 3 and arity in ("triple", "either"):
            return (int(parts[0]), int(parts[1]), float(parts[2]))
    except ValueError as exc:
        raise SystemExit(f"malformed {name} {text!r}") from exc
    expected = {"pair": "'S,T'", "triple": "'S,T,W'", "either": "'S,T' or 'S,T,W'"}
    raise SystemExit(f"malformed {name} {text!r}; expected {expected[arity]}")


def parse_delta_file(text: str) -> EdgeDelta:
    """Parse a delta file: ``add u v [w]`` / ``remove u v`` / ``reweight u v w``.

    Blank lines and ``#`` comments are ignored.
    """
    inserts, removals, reweights = [], [], []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        op, operands = parts[0].lower(), parts[1:]
        try:
            if op == "add" and len(operands) in (2, 3):
                entry = (int(operands[0]), int(operands[1]))
                inserts.append(entry + (float(operands[2]),) if len(operands) == 3 else entry)
            elif op == "remove" and len(operands) == 2:
                removals.append((int(operands[0]), int(operands[1])))
            elif op == "reweight" and len(operands) == 3:
                reweights.append((int(operands[0]), int(operands[1]), float(operands[2])))
            else:
                raise SystemExit(
                    f"delta file line {line_number}: expected 'add u v [w]', "
                    f"'remove u v' or 'reweight u v w', got {raw!r}"
                )
        except ValueError as exc:
            raise SystemExit(f"delta file line {line_number}: {exc}") from exc
    return EdgeDelta(inserts=inserts, removals=removals, reweights=reweights)


def _collect_delta(args: argparse.Namespace) -> EdgeDelta:
    """Combine --add/--remove/--reweight flags and --delta-file into one batch."""
    inserts = [
        _parse_edge_op(text, arity="either", name="--add") for text in args.add or ()
    ]
    removals = [
        _parse_edge_op(text, arity="pair", name="--remove")
        for text in args.remove or ()
    ]
    reweights = [
        _parse_edge_op(text, arity="triple", name="--reweight")
        for text in args.reweight or ()
    ]
    if args.delta_file:
        try:
            file_delta = parse_delta_file(
                Path(args.delta_file).read_text(encoding="utf-8")
            )
        except OSError as exc:
            raise SystemExit(f"cannot read delta file: {exc}") from exc
        inserts.extend(file_delta.inserts)
        removals.extend(file_delta.removals)
        reweights.extend(file_delta.reweights)
    try:
        delta = EdgeDelta(inserts=inserts, removals=removals, reweights=reweights)
    except (ValueError, GraphStructureError) as exc:
        raise SystemExit(str(exc)) from exc
    if not delta:
        raise SystemExit(
            "provide at least one edge operation "
            "(--add / --remove / --reweight / --delta-file)"
        )
    return delta


def _cmd_update(args: argparse.Namespace) -> int:
    graph, label = _load_graph(args, announce=True)
    delta = _collect_delta(args)
    config = ServiceConfig(
        use_sketch=not args.no_sketch,
        num_landmarks=args.landmarks,
        spectral_refresh=args.spectral_refresh,
        sketch_refresh=args.sketch_refresh,
        invalidation_hops=args.invalidation_hops,
    )
    try:
        service = ResistanceService(
            graph, config=config, rng=args.seed, artifact_dir=args.artifacts
        )
    except ArtifactError as exc:
        raise SystemExit(str(exc)) from exc
    start_state = "warm (artifacts)" if service.warm_started else "cold"
    print(f"updating {label} [{start_state} start, epoch {service.epoch}]")
    try:
        report = service.apply_update(delta)
    except (GraphStructureError, ValueError) as exc:
        raise SystemExit(str(exc)) from exc
    print(format_table([report.summary()], title="applied update"))
    manifest = service.save_artifacts(args.artifacts)
    print(
        f"artifacts updated at {manifest.parent} "
        f"(epoch {service.epoch}, lineage {service.engine.lineage[:12]}…)"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Fetch and render a running server's /stats snapshot (or raw /metrics)."""
    from repro.net.client import ClientError, ResistanceClient

    client = ResistanceClient(args.url)
    try:
        if args.metrics:
            sys.stdout.write(client.metrics())
            return 0
        payload = client.stats()
    except ClientError as exc:
        raise SystemExit(str(exc)) from exc
    print(f"server at {args.url} (epoch {payload.get('epoch', '?')})")
    for section, counters in payload.items():
        if section == "epoch":
            continue
        if isinstance(counters, dict):
            # nested breakdowns (e.g. pool per_worker) render as their own table
            nested = {
                key: value for key, value in counters.items() if isinstance(value, dict)
            }
            flat = {
                key: value
                for key, value in counters.items()
                if not isinstance(value, dict)
            }
            if flat:
                print(format_table([flat], title=f"{section} stats"))
            for key, value in nested.items():
                rows = [
                    {"id": inner_key, **inner_value}
                    if isinstance(inner_value, dict)
                    else {"id": inner_key, "value": inner_value}
                    for inner_key, inner_value in value.items()
                ]
                if rows:
                    print(format_table(rows, title=f"{section}.{key}"))
        else:
            print(f"{section}: {counters}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    graph, label = _load_graph(args)
    rows = run_dataset_sweep(
        graph,
        query_kind=args.query_kind,
        epsilons=tuple(args.epsilons),
        num_queries=args.num_queries,
        methods=tuple(args.methods) if args.methods else None,
        time_budget_seconds=args.time_budget,
        rng=args.seed,
        dataset_label=label,
    )
    print(format_table(rows, title=f"sweep on {label} ({args.query_kind} queries)"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-er",
        description=(
            "ε-approximate pairwise effective resistance queries "
            "(GEER / AMC / SMM and every baseline in the method registry)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    datasets_parser = subparsers.add_parser(
        "datasets", help="list registered benchmark datasets"
    )
    datasets_parser.set_defaults(func=_cmd_datasets)

    methods_parser = subparsers.add_parser(
        "methods", help="list every registered query method"
    )
    methods_parser.set_defaults(func=_cmd_methods)

    query_parser = subparsers.add_parser("query", help="answer PER queries")
    _add_graph_arguments(query_parser)
    query_parser.add_argument(
        "pairs",
        nargs="*",
        metavar="S,T",
        help="query node pairs, e.g. 12,708 3,99",
    )
    query_parser.add_argument("--epsilon", type=float, default=0.1, help="additive error ε")
    query_parser.add_argument(
        "--method",
        choices=(*available_methods(), "list"),
        default="geer",
        help="estimator to use (default: geer); 'list' prints the registry",
    )
    query_parser.add_argument(
        "--batch",
        action="store_true",
        help="plan and execute all pairs as one degree-bucketed batch",
    )
    query_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker count for --batch execution (default: 1 = sequential, "
        "bit-identical to per-pair queries; >1 = parallel pool with one "
        "deterministic derived stream per query)",
    )
    query_parser.add_argument(
        "--exact",
        action="store_true",
        help="also compute the exact value via a Laplacian solve and report the error",
    )
    query_parser.add_argument(
        "--url",
        help="query a running 'repro-er serve --port' server at this base URL "
        "instead of loading a graph locally (graph options are ignored)",
    )
    query_parser.add_argument(
        "--trace",
        action="store_true",
        help="record per-query spans and print the span tree after the table "
        "(local mode; with --url the server-assigned trace_id is shown). "
        "Tracing never changes estimates: results stay bit-identical.",
    )
    query_parser.set_defaults(func=_cmd_query)

    sweep_parser = subparsers.add_parser(
        "sweep", help="run a small method x epsilon sweep (the data behind Figs. 4-7)"
    )
    _add_graph_arguments(sweep_parser)
    sweep_parser.add_argument(
        "--query-kind", choices=("random", "edge"), default="random"
    )
    sweep_parser.add_argument(
        "--epsilons", type=float, nargs="+", default=[0.5, 0.2, 0.1]
    )
    sweep_parser.add_argument("--num-queries", type=int, default=10)
    sweep_parser.add_argument(
        "--methods",
        nargs="+",
        choices=available_methods(),
        default=None,
        metavar="METHOD",
        help=(
            "methods to run (default: the paper's line-up for the query kind); "
            f"choices: {', '.join(available_methods())}"
        ),
    )
    sweep_parser.add_argument(
        "--time-budget",
        type=float,
        default=None,
        help="per-configuration time budget in seconds",
    )
    sweep_parser.set_defaults(func=_cmd_sweep)

    warm_parser = subparsers.add_parser(
        "warm",
        help="build preprocessing artifacts (spectral info, landmark sketch) "
        "and persist them for warm service starts",
    )
    _add_graph_arguments(warm_parser)
    warm_parser.add_argument(
        "--artifacts", required=True, help="artifact directory to write"
    )
    warm_parser.add_argument(
        "--landmarks", type=int, default=8, help="number of landmark nodes (default: 8)"
    )
    warm_parser.add_argument(
        "--strategy",
        choices=("degree", "random"),
        default="degree",
        help="landmark selection strategy (default: degree)",
    )
    warm_parser.add_argument(
        "--no-sketch", action="store_true", help="skip building the landmark sketch"
    )
    warm_parser.set_defaults(func=_cmd_warm)

    serve_parser = subparsers.add_parser(
        "serve",
        help="replay a request stream through the serving layer "
        "(cache -> sketch -> engine) and print per-layer stats",
    )
    _add_graph_arguments(serve_parser)
    serve_parser.add_argument(
        "pairs",
        nargs="*",
        metavar="S,T",
        help="request node pairs, e.g. 12,708 3,99",
    )
    serve_parser.add_argument("--epsilon", type=float, default=0.1, help="additive error ε")
    serve_parser.add_argument(
        "--method",
        choices=available_methods(),
        default="geer",
        help="engine method for layer misses (default: geer)",
    )
    serve_parser.add_argument(
        "--artifacts",
        help="artifact directory: loaded when fresh (warm start), written after "
        "a cold run",
    )
    serve_parser.add_argument(
        "--repeat",
        type=int,
        default=2,
        help="number of times the request stream is replayed (default: 2, "
        "so cache behaviour is visible)",
    )
    serve_parser.add_argument(
        "--landmarks", type=int, default=8, help="number of landmark nodes (default: 8)"
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker count for engine batches behind the serving layers "
        "(default: 1)",
    )
    serve_parser.add_argument(
        "--no-cache", action="store_true", help="disable the answer cache"
    )
    serve_parser.add_argument(
        "--no-sketch", action="store_true", help="disable the landmark sketch"
    )
    serve_parser.add_argument(
        "--planner",
        choices=("static", "adaptive"),
        default="static",
        help="query routing: the fixed cache->sketch->engine pipeline, or "
        "cost-based per-query tier decisions with anytime refinement "
        "(default: static)",
    )
    serve_parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for network mode (default: 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        help="serve over HTTP on this port instead of replaying pairs "
        "(0 picks a free port); Ctrl-C drains and exits",
    )
    serve_parser.add_argument(
        "--net-workers",
        type=int,
        default=0,
        help="shared-memory worker pool size for network mode "
        "(default: 0 = in-process execution)",
    )
    serve_parser.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="compute requests admitted concurrently before the server sheds "
        "load with 429 (default: 64)",
    )
    serve_parser.add_argument(
        "--deadline-ms",
        type=float,
        help="default per-request deadline; expired requests degrade to the "
        "sketch envelope with partial=true (default: none)",
    )
    serve_parser.add_argument(
        "--slow-query-ms",
        type=float,
        help="log a structured slow_query line (trace_id, endpoint, elapsed) "
        "for requests slower than this many milliseconds (default: off)",
    )
    serve_parser.add_argument(
        "--failpoints",
        metavar="SPEC",
        help="arm fault-injection failpoints for chaos testing, e.g. "
        "'pool:worker_crash' or 'net:slow_response=times:3+delay_ms:500,"
        "artifacts:torn_write' (also honors the REPRO_FAILPOINTS env var)",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    plan_parser = subparsers.add_parser(
        "plan",
        help="dry-run the adaptive planner for request pairs: print the "
        "chosen tier, predicted per-tier costs and consulted signals",
    )
    _add_graph_arguments(plan_parser)
    plan_parser.add_argument(
        "pairs",
        nargs="*",
        metavar="S,T",
        help="node pairs to plan, e.g. 12,708 3,99",
    )
    plan_parser.add_argument(
        "--epsilon", type=float, default=0.1, help="additive error ε"
    )
    plan_parser.add_argument(
        "--method",
        choices=available_methods(),
        default="geer",
        help="engine method the plan prices (default: geer)",
    )
    plan_parser.add_argument(
        "--landmarks", type=int, default=8, help="number of landmark nodes (default: 8)"
    )
    plan_parser.add_argument(
        "--no-cache", action="store_true", help="disable the answer cache"
    )
    plan_parser.add_argument(
        "--no-sketch", action="store_true", help="disable the landmark sketch"
    )
    plan_parser.add_argument(
        "--deadline-ms",
        type=float,
        help="plan against this latency budget (enables the anytime tier)",
    )
    plan_parser.add_argument(
        "--explain",
        action="store_true",
        help="print the full decision trace per pair (per-tier predicted "
        "costs and every signal consulted)",
    )
    plan_parser.set_defaults(func=_cmd_plan)

    stats_parser = subparsers.add_parser(
        "stats",
        help="fetch a running server's /stats snapshot (tables) or raw "
        "/metrics exposition",
    )
    stats_parser.add_argument(
        "--url",
        required=True,
        help="base URL of a running 'repro-er serve --port' server",
    )
    stats_parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the raw Prometheus text exposition from /metrics instead "
        "of the /stats tables",
    )
    stats_parser.set_defaults(func=_cmd_stats)

    update_parser = subparsers.add_parser(
        "update",
        help="apply an edge delta (inserts/removals/reweights) to a served "
        "graph: patch warm artifacts, record the delta log, persist the "
        "new epoch",
    )
    _add_graph_arguments(update_parser)
    update_parser.add_argument(
        "--artifacts",
        required=True,
        help="artifact directory: loaded when fresh (warm update), written "
        "back with the new epoch and the delta log",
    )
    update_parser.add_argument(
        "--add",
        action="append",
        metavar="S,T[,W]",
        help="insert an edge (repeatable); W defaults to 1.0 on weighted graphs",
    )
    update_parser.add_argument(
        "--remove", action="append", metavar="S,T", help="remove an edge (repeatable)"
    )
    update_parser.add_argument(
        "--reweight",
        action="append",
        metavar="S,T,W",
        help="replace an edge weight (repeatable, weighted graphs only)",
    )
    update_parser.add_argument(
        "--delta-file",
        help="file of operations, one per line: 'add u v [w]', 'remove u v', "
        "'reweight u v w' ('#' comments allowed)",
    )
    update_parser.add_argument(
        "--spectral-refresh",
        choices=REFRESH_POLICIES,
        default="eager",
        help="when to re-solve the spectral radius after the update "
        "(default: eager, so the persisted artifacts are complete)",
    )
    update_parser.add_argument(
        "--sketch-refresh",
        choices=REFRESH_POLICIES,
        default="eager",
        help="when to rebuild the landmark sketch (default: eager)",
    )
    update_parser.add_argument(
        "--invalidation-hops",
        type=int,
        default=1,
        help="cache invalidation radius around the delta's endpoints (default: 1)",
    )
    update_parser.add_argument(
        "--landmarks", type=int, default=8, help="number of landmark nodes (default: 8)"
    )
    update_parser.add_argument(
        "--no-sketch", action="store_true", help="skip the landmark sketch"
    )
    update_parser.set_defaults(func=_cmd_update)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro-er`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
