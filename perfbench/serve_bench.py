"""The HTTP workload ``serve-read``, against a server in its own process.

An untimed warm-up asks every pair of a Zipf working set once at the smallest
epsilon, so the answer cache holds them all.  Then, for ``SINGLES_SHARE`` of
the run, ``/query`` requests arrive in an open loop at a fixed rate on
Zipf-skewed pairs of that set, epsilon cycling through 0.5, 0.2, 0.1 and 0.05
(cache hits), except that every tenth one asks a fresh pair at 0.1 (an engine
answer).  Engine answers are thus a fixed tenth of the reads and p95 falls in
their middle, not on the edge between hits and misses, where it would jump
with how many pairs a seed happens to repeat.  For the rest of the run a
closed loop sends ``/query_batch`` requests of fresh pairs one after another;
they run on the server's single work thread, so in the same phase as the reads
they would make p95 a measure of how reads happen to overlap batches.  One
``/update`` (inserting a seeded non-edge) follows, so the traced run also
covers the write path (delta patch, cache invalidation, sketch rebuild,
shared-memory republish) without it setting any timed figure.

Each run starts cold servers: the first ``SETUPS - 1`` only time set-up, the
last one takes the traffic.  The client times calibration slices
(``speed.py``) around each start and whenever no request is in flight; every
reported time is scaled by them to the reference speed.
"""

from __future__ import annotations

import collections
import itertools
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import common
import ledger
from graphs import build_graph
from loadgen import Request, get_json, run_closed, run_schedule
from oracle import ResistanceOracle, check_answers
from spans import SpanRecorder
from speed import SpeedTrack

HERE = Path(__file__).resolve().parent
GRAPH = "dblp-quarter"
#: ``rate``: timed /query per second; ``universe``: pairs in the Zipf working
#: set; ``prime_gap_s``: spacing of the warm-up requests that fill the cache.
PROFILES = {
    "full": {"rate": 20.0, "universe": 40, "prime_gap_s": 0.1},
    "tiny": {"rate": 100.0, "universe": 20, "prime_gap_s": 0.02},
}
EPSILONS = (0.5, 0.2, 0.1, 0.05)
FRESH_EVERY = 10
FRESH_EPSILON = 0.1
#: Share of ``--seconds`` given to the /query phase.
SINGLES_SHARE = 0.7
BATCH_EPSILON = 0.1
BATCH_SIZE = 4
ZIPF_EXPONENT = 1.8
SETUPS = 3
#: Calibration slices taken before and after each server start.
SETUP_SLICES = 4
READY_TIMEOUT_S = 120.0


class ServerProcess:
    """One launcher process; set-up time runs from spawn until /readyz says ready."""

    def __init__(self, size: str, seed: int, trace: bool, speed: SpeedTrack) -> None:
        speed.slices(SETUP_SLICES)
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server_main.py"), "--graph", GRAPH,
             "--size", size, "--seed", str(seed), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=HERE.parent, start_new_session=True,
        )
        self._lines: "collections.deque[str]" = collections.deque()
        self._errors: "collections.deque[str]" = collections.deque(maxlen=40)
        self._first = threading.Event()
        self._readers = [
            threading.Thread(target=self._drain, args=(self.proc.stdout, self._lines), daemon=True),
            threading.Thread(target=self._drain, args=(self.proc.stderr, self._errors), daemon=True),
        ]
        for reader in self._readers:
            reader.start()
        try:
            if not self._first.wait(READY_TIMEOUT_S) or not self._lines:
                raise RuntimeError("server did not start:\n" + "".join(self._errors))
            line = self._lines.popleft()
            if not line.startswith("listening "):
                raise RuntimeError(f"unexpected server output {line!r}")
            self.url = line.split()[1]
            deadline = started + READY_TIMEOUT_S
            while True:
                status, _ = get_json(self.url, "/readyz")
                if status == 200:
                    break
                if time.perf_counter() > deadline:
                    raise RuntimeError("server never became ready")
                time.sleep(0.01)
        except BaseException:
            self.kill()
            raise
        self.raw_setup_s = time.perf_counter() - started
        speed.slices(SETUP_SLICES)
        self.setup_s = speed.scale(self.raw_setup_s, started)

    def _drain(self, stream, sink) -> None:
        for line in stream:
            sink.append(line)
            if stream is self.proc.stdout:
                self._first.set()
        self._first.set()

    def stop(self) -> list:
        """SIGTERM, wait for the drain, and return the spans the server printed."""
        try:
            self.proc.send_signal(signal.SIGTERM)
            self.proc.wait(timeout=60)
            for reader in self._readers:
                reader.join(timeout=10)
        finally:
            self.kill()
        for line in self._lines:
            if line.startswith("spans "):
                return json.loads(line[len("spans "):])
        raise RuntimeError("server exited without its span dump:\n" + "".join(self._errors))

    def kill(self) -> None:
        """Make sure the launcher and its pool workers are gone.

        A launcher still running gets SIGTERM first, so it drains and unlinks
        its shared-memory segments; SIGKILL to the whole process group follows.
        """
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait(timeout=30)


def traffic(seed: int, seconds: float, size: str, graph) -> list[Request]:
    """The seeded request schedule of one run."""
    profile = PROFILES[size]
    rng = np.random.default_rng([seed, 41])
    n = graph.num_nodes
    used: set[tuple[int, int]] = set()

    def fresh_pair() -> tuple[int, int]:
        while True:
            s, t = (int(x) for x in rng.integers(n, size=2))
            key = (min(s, t), max(s, t))
            if s != t and key not in used:
                used.add(key)
                return s, t

    universe = [fresh_pair() for _ in range(profile["universe"])]
    weights = 1.0 / np.arange(1, len(universe) + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()
    # Untimed warm-up first: each working-set pair once at the smallest
    # epsilon, whose cached answer then serves every later epsilon.
    warmup = profile["universe"] * profile["prime_gap_s"]
    schedule = [
        Request(k * profile["prime_gap_s"], "/query", {
            "s": s, "t": t, "epsilon": min(EPSILONS), "trace_id": f"w{k}"}, timed=False)
        for k, (s, t) in enumerate(universe)
    ]
    spacing = 1.0 / profile["rate"]
    for k, at in enumerate(np.arange(warmup + spacing / 2, warmup + singles_s(seconds),
                                     spacing)):
        if k % FRESH_EVERY == FRESH_EVERY - 1:
            (s, t), eps = fresh_pair(), FRESH_EPSILON
        else:
            s, t = universe[int(rng.choice(len(universe), p=weights))]
            eps = EPSILONS[k % len(EPSILONS)]
        schedule.append(Request(float(at), "/query", {
            "s": s, "t": t, "epsilon": eps, "trace_id": f"q{k}"}))

    def batches():
        for k in itertools.count():
            pairs = [list(fresh_pair()) for _ in range(BATCH_SIZE)]
            yield Request(0.0, "/query_batch", {
                "pairs": pairs, "epsilon": BATCH_EPSILON, "trace_id": f"b{k}"})

    return schedule, batches()


def singles_s(seconds: float) -> float:
    """Length of the /query phase; the /query_batch phase takes the rest."""
    return seconds * SINGLES_SHARE


def update_body(seed: int, graph) -> dict:
    """The post-phase update: insert a seeded non-edge."""
    rng = np.random.default_rng([seed, 53])
    while True:
        u, v = (int(x) for x in rng.integers(graph.num_nodes, size=2))
        if u != v and not graph.has_edge(u, v):
            return {"add": [[u, v]], "trace_id": "u0"}


def pin_to_one_cpu() -> None:
    """Run the client, the server and its pool worker on one CPU.

    Requests then never wait for an idle virtual CPU to wake, and the
    client's calibration slices run on the CPU that serves the requests.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def connections() -> int:
    return max(1, min(common.nproc(), 4))


class Tally:
    """Outcomes of one run sorted into latencies, answers and failures.

    ``query_ms`` and ``batch_ms`` are scaled to the reference speed;
    ``raw_query_ms`` and ``raw_batch_ms`` are as measured.
    """

    def __init__(self, outcomes, speed: SpeedTrack) -> None:
        self.query_ms, self.batch_ms, self.update_ms, self.late_ms = [], [], [], []
        self.raw_query_ms, self.raw_batch_ms = [], []
        self.speed = speed
        self.answers = []  # (epoch, s, t, epsilon, value)
        self.updates = []  # (epoch, body)
        self.engine_payloads = []
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.outcomes = outcomes
        self.start = min(o.scheduled for o in outcomes
                         if o.request.path == "/query" and o.request.timed)
        self.last_query_done = self.start
        for outcome in outcomes:
            self._add(outcome)

    def _add(self, outcome) -> None:
        self.attempted += 1
        timed = outcome.request.timed
        payload = outcome.payload
        ok = outcome.status == 200 and isinstance(payload, dict)
        path = outcome.request.path
        if timed and path == "/query":  # the open loop's lateness
            self.late_ms.append(outcome.late_ms)
        if ok and path == "/query":
            ok = not payload.get("partial", False)
            if ok:
                self.answers.append((payload["epoch"], payload["s"], payload["t"],
                                     payload["epsilon"], payload["value"]))
                if payload.get("source") == "engine":
                    self.engine_payloads.append(payload)
            if ok and timed:
                self.raw_query_ms.append(outcome.latency_ms)
                self.query_ms.append(self.speed.scale(outcome.latency_ms, outcome.scheduled))
                self.last_query_done = max(self.last_query_done, outcome.done)
        elif ok and path == "/query_batch":
            results = payload["results"]
            ok = not any(r.get("partial", False) for r in results)
            if ok:
                self.raw_batch_ms.append(outcome.latency_ms)
                self.batch_ms.append(self.speed.scale(outcome.latency_ms, outcome.scheduled))
                self.answers.extend((payload["epoch"], r["s"], r["t"], r["epsilon"], r["value"])
                                    for r in results)
        elif ok and path == "/update":
            self.update_ms.append(outcome.latency_ms)
            self.updates.append((payload["epoch"], outcome.request.body))
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{path}: status {outcome.status} {outcome.error or payload}")


def check(graph, tally: Tally):
    oracle = ResistanceOracle(graph.num_nodes, graph.edge_array())
    for epoch, body in sorted(tally.updates, key=lambda item: item[0]):
        if epoch != oracle.epochs + 1:
            raise RuntimeError(f"update epochs are not consecutive: {tally.updates}")
        op = "add" if "add" in body else "remove"
        u, v = body[op][0]
        oracle.add_update(op, u, v)
    return check_answers(oracle, tally.answers)


def serve_once(server: ServerProcess, seed: int, seconds: float, size: str, graph,
               speed: SpeedTrack):
    """Drive one server with the run's traffic; returns (tally, /stats)."""
    schedule, batches = traffic(seed, seconds, size, graph)
    outcomes = run_schedule(server.url, schedule, connections(), on_idle=speed.maybe_slice)
    outcomes += run_closed(server.url, batches, seconds - singles_s(seconds),
                           between=speed.maybe_slice)
    speed.slices(SETUP_SLICES)  # so the last requests have slices after them too
    outcomes += run_closed(server.url, [Request(0.0, "/update", update_body(seed, graph),
                                                timed=False)])
    status, stats = get_json(server.url, "/stats")
    if status != 200:
        raise RuntimeError(f"/stats answered {status}")
    return Tally(outcomes, speed), stats


def run(name: str, seed: int, seconds: float, trace: bool, size: str) -> tuple[dict, dict]:
    graph = build_graph(GRAPH, size)  # the benchmark's own copy, for the oracle
    record = {"workload": name, "graph": GRAPH, "nodes": graph.num_nodes,
              "edges": graph.num_edges, "connections": connections(),
              "rate_per_s": PROFILES[size]["rate"]}
    pin_to_one_cpu()
    if trace:
        return record, traced_run(seed, seconds, size, graph, record)
    speed = SpeedTrack()
    servers = []
    try:
        for _ in range(SETUPS):
            if servers:
                servers[-1].stop()
            servers.append(ServerProcess(size, seed, trace=False, speed=speed))
        tally, stats = serve_once(servers[-1], seed, seconds, size, graph, speed)
        servers[-1].stop()
    finally:
        for server in servers:
            server.kill()
    checked, within, problems = check(graph, tally)
    metrics = {
        "setup_s": common.metric(common.p50([s.setup_s for s in servers]), "s"),
        "query_p50_ms": common.metric(common.p50(tally.query_ms), "ms"),
        "query_p95_ms": common.metric(common.p95(tally.query_ms), "ms"),
        "queries_per_s": common.metric(
            len(tally.query_ms) / (tally.last_query_done - tally.start), "1/s"),
        "batch_p50_ms": common.metric(common.p50(tally.batch_ms), "ms"),
        "within_eps_share": common.metric(within / checked, "ratio"),
        "answered_share": common.metric((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }
    record.update(
        setup_s=[s.setup_s for s in servers], queries=len(tally.query_ms),
        batches=len(tally.batch_ms), update_ms=tally.update_ms, checked=checked,
        problems=problems, errors=tally.errors, tiers=stats.get("tiers"),
        late_ms_p95=float(np.percentile(tally.late_ms, 95)), speed=speed.summary(),
        raw={"setup_s": [s.raw_setup_s for s in servers],
             "query_p50_ms": common.p50(tally.raw_query_ms),
             "query_p95_ms": common.p95(tally.raw_query_ms),
             "batch_p50_ms": common.p50(tally.raw_batch_ms)},
    )
    correct = within == checked
    return record, {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                    "metrics": metrics}


def traced_run(seed, seconds, size, graph, record) -> dict:
    """One untraced and one traced server on the same traffic."""
    speed = SpeedTrack()
    servers = []
    try:
        servers.append(ServerProcess(size, seed, trace=False, speed=speed))
        untraced, _ = serve_once(servers[-1], seed, seconds, size, graph, speed)
        servers[-1].stop()
        servers.append(ServerProcess(size, seed, trace=True, speed=speed))
        tally, stats = serve_once(servers[-1], seed, seconds, size, graph, speed)
        recorder = SpanRecorder()
        recorder.spans = servers[-1].stop()
    finally:
        for server in servers:
            server.kill()
    checked, within, problems = check(graph, tally)
    self_times = recorder.self_times()

    # Join client latency (from the actual send) to server spans by trace id.
    service_s = recorder.durations_by_trace({"service.query"})
    work_s = recorder.durations_by_trace({"net.work"})
    sketch_s = recorder.durations_by_trace({"service.sketch.build"})
    net_ms, updates, client_s, covered_s = [], [], 0.0, 0.0
    for outcome in tally.outcomes:
        trace_id = outcome.request.body["trace_id"]
        if outcome.status != 200:
            continue
        seconds_sent = outcome.done - outcome.sent
        if outcome.request.path == "/update":
            updates.append({"trace_id": trace_id, "client_ms": seconds_sent * 1e3,
                            "server_ms": work_s.get(trace_id, 0.0) * 1e3,
                            "sketch_build_ms": sketch_s.get(trace_id, 0.0) * 1e3})
        if not outcome.request.timed:
            continue
        client_s += seconds_sent
        covered_s += work_s.get(trace_id, 0.0)
        if outcome.request.path == "/query" and trace_id in service_s:
            net_ms.append((seconds_sent - service_s[trace_id]) * 1e3)
    tiers = stats["tiers"]
    service = stats["service"]["service"]
    engine = tally.engine_payloads  # single-query engine answers carry the work counts

    def engine_mean(key: str) -> float:
        return float(np.mean([p[key] for p in engine])) if engine else 0.0

    factor = speed.phase_factor(tally.start, tally.last_query_done)
    walk_seconds = self_times.get("sampling.walk", (0.0, 0))[0] * factor
    extra = {
        "core.walk_length.ell_mean": engine_mean("walk_length"),
        "core.smm.spmv_ops": engine_mean("spmv_operations"),
        "core.amc.walks": engine_mean("num_walks"),
        "sampling.steps": engine_mean("total_steps"),
        "sampling.steps_per_s": (
            sum(p["total_steps"] for p in engine) / walk_seconds if walk_seconds else 0.0),
        "sampling.bytes_computed": engine_mean("total_steps") * common.step_bytes(graph),
        "service.tier_answers.cache": tiers["cache"],
        "service.tier_answers.sketch": tiers["sketch"],
        "service.tier_answers.engine": tiers["engine"],
        "service.cache.hit_share": tiers["cache"] / service["requests"],
        "service.cache.invalidated": service["invalidated_cache_entries"],
        "service.sketch.hit_share": tiers["sketch"] / max(1, tiers["sketch"] + tiers["engine"]),
        "service.sketch.builds": self_times.get("service.sketch.build", (0.0, 0))[1],
        "net.self_ms": float(np.mean(net_ms)) * factor,
        "net.rejected": stats["server"]["rejected_backpressure"],
        "net.errors": stats["server"]["errors"],
        "net.pool.respawns": stats.get("pool", {}).get("respawns", 0),
        "loadgen.late_ms": float(np.mean(tally.late_ms)),
        "ledger.unattributed_share": (client_s - covered_s) / client_s,
        "ledger.trace_overhead": common.p50(tally.query_ms) / common.p50(untraced.query_ms) - 1.0,
    }
    record.update(
        checked=checked, problems=problems, errors=tally.errors, tiers=tiers,
        query_p50_ms_untraced=common.p50(untraced.query_ms),
        query_p50_ms_traced=common.p50(tally.query_ms),
        layers=ledger.shares(self_times, client_s), update_traces=updates,
        speed=speed.summary(), speed_factor=factor,
    )
    correct = within == checked
    return {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": ledger.layer_metrics(self_times, extra, factor)}
