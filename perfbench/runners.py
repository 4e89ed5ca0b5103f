"""The two ways the workloads drive the program.

* :func:`run_http` — ``python -m repro.cli serve`` as a subprocess with its
  default flags, two client threads (``http_small``);
* :func:`run_live` — the ``repro ingest`` loop into a ``LiveIndex``
  directory holding a sliding window of tables, two writes then one
  ``engine="live"`` read (``live_mixed``).

Every loop is closed: a client sends its next request only after the answer
to the previous one arrived.  Untraced runs give the end-to-end metrics; a
traced run alternates untraced chunks (the base of
``telemetry.trace_overhead``) with chunks that record spans around each
layer, in process (``live_mixed``, and the in-process twin of
``http_small``'s served session).
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, sleep

from checks import AnswerChecker, fingerprint
from inputs import load_queries, load_truth, oracle_top_k
from spec import LIVE_FINGERPRINT_CYCLES, OUT_DIR, SETUP_REPEATS, SRC, Workload
from tracing import (
    SpanRecorder,
    install_build_spans,
    install_ingest_spans,
    install_query_spans,
    write_spans,
)


class RequestFailed(Exception):
    """A request that raised, was refused, or answered ``complete=False``."""


@dataclass
class Outcome:
    """What one run measured; :mod:`run` turns it into the report."""

    #: Metrics in the bounded end-to-end set: name -> (value, unit).
    e2e: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: End-to-end metrics only some workloads have (printed, not bounded).
    e2e_extra: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Per-layer metrics (traced runs): name -> (value, unit).
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Per-layer metrics one workload has, or that are 0 on a healthy run
    #: (printed, not in the result line).
    layers_extra: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Self time per span name in the traced phase: name -> (calls, self s).
    self_times: dict[str, tuple[int, float]] = field(default_factory=dict)
    #: Layer-emphasis statements the traced run confirms or refutes.
    emphasis: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Count fingerprint of each set-up's fixed pass (must all agree).
    fingerprints: list[str] = field(default_factory=list)
    #: Counts printed next to the fingerprint.
    count_summary: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    checker: AnswerChecker | None = None


@dataclass
class LoopResult:
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0
    #: (query index, answer) of every completed request, checked afterwards.
    answers: list[tuple[int, list]] = field(default_factory=list)
    #: The first few failures, for the report.
    errors: list[str] = field(default_factory=list)

    def record_failure(self, error: Exception) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(error).__name__}: {error}")


def closed_loop(call, count: int, seconds: float, clients: int = 1) -> LoopResult:
    """Run ``clients`` closed-loop clients cycling over ``count`` queries.

    ``call(i)`` answers query ``i`` or raises.  Client ``c`` starts at query
    ``c * count // clients``.  Latency is recorded for completed requests;
    failures are counted against the attempts.
    """
    results = [LoopResult() for _ in range(clients)]
    deadline = perf_counter() + seconds
    stop = threading.Event()

    def client(index: int) -> None:
        result = results[index]
        position = index * count // clients
        while not stop.is_set() and perf_counter() < deadline:
            query_index = position % count
            position += 1
            result.attempted += 1
            started = perf_counter()
            try:
                answer = call(query_index)
            except Exception as error:  # counted and reported; the loop goes on
                result.record_failure(error)
                continue
            result.latencies.append(perf_counter() - started)
            result.answers.append((query_index, answer))

    started = perf_counter()
    threads = [
        threading.Thread(target=client, args=(index,), name=f"client-{index}")
        for index in range(clients)
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        stop.set()  # an interrupted run does not leave clients spinning
    merged = LoopResult()
    for result in results:
        merge_into(merged, result)
    merged.elapsed = perf_counter() - started
    return merged


def merge_into(total: LoopResult, part: LoopResult) -> None:
    total.latencies.extend(part.latencies)
    total.attempted += part.attempted
    total.failed += part.failed
    total.elapsed += part.elapsed
    total.answers.extend(part.answers)
    total.errors.extend(part.errors[: max(0, 5 - len(total.errors))])


#: Chunks of a traced run: untraced and traced alternate, so a machine
#: getting slower during the run biases neither.
TRACE_CHUNKS = 4


def alternate(run_chunk, seconds: float, install, uninstall):
    """Run untraced and traced chunks in turn; returns both merged.

    ``run_chunk(seconds, traced)`` runs one chunk of the closed loop;
    ``install`` / ``uninstall`` put the spans in place around traced ones.
    """
    untraced, traced = LoopResult(), LoopResult()
    for chunk in range(TRACE_CHUNKS):
        tracing = chunk % 2 == 1
        if tracing:
            install()
        try:
            part = run_chunk(seconds / TRACE_CHUNKS, tracing)
        finally:
            if tracing:
                uninstall()
        merge_into(traced if tracing else untraced, part)
    return untraced, traced


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles`` with n=100)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def latency_metrics(outcome: Outcome, loop: LoopResult) -> None:
    outcome.e2e["qps"] = (len(loop.latencies) / loop.elapsed, "req/s")
    outcome.e2e["query_p50_ms"] = (
        statistics.median(loop.latencies) * 1000.0,
        "ms",
    )
    outcome.e2e["query_p95_ms"] = (percentile(loop.latencies, 95) * 1000.0, "ms")
    outcome.notes.append(
        f"timed reads: {len(loop.latencies)} in {loop.elapsed:.2f}s "
        f"({loop.failed} failed)"
    )


def account(outcome: Outcome, loop: LoopResult) -> None:
    """Check a loop's answers and add its attempts and failures."""
    for query_index, answer in loop.answers:
        outcome.checker.check(query_index, answer)
    outcome.attempted += loop.attempted
    outcome.failed += loop.failed
    outcome.notes.extend(f"failure: {error}" for error in loop.errors)


# ----------------------------------------------------------------------
# Counts reported by each result
# ----------------------------------------------------------------------
COUNT_FIELDS = (
    "pl_items_fetched",
    "candidate_tables",
    "rows_checked",
    "rows_passed_filter",
    "true_positive_rows",
    "false_positive_rows",
    "value_comparisons",
    "tables_pruned_by_rule1",
    "tables_pruned_by_rule2",
    "tables_evaluated",
)


def result_counts(counters: dict, stages: dict) -> list[int]:
    """The deterministic counts of one answer, in :data:`COUNT_FIELDS` order,
    followed by the verification stage's (row, key tuple) pairs."""
    verify = stages.get("row_verification", {})
    return [int(counters.get(name, 0)) for name in COUNT_FIELDS] + [
        int(verify.get("items_in", 0))
    ]


def session_result_counts(result) -> list[int]:
    counters = result.counters
    return result_counts(counters.as_dict(), counters.stages_dict())


def summarize_counts(per_query: list[list[int]]) -> dict[str, float]:
    """Per-request means of the counts, plus the two filter ratios."""
    if not per_query:
        return {}
    names = list(COUNT_FIELDS) + ["verify_pairs"]
    totals = [sum(column) for column in zip(*per_query)]
    summary = {name: total / len(per_query) for name, total in zip(names, totals)}
    by_name = dict(zip(names, totals))
    passed = by_name["true_positive_rows"] + by_name["false_positive_rows"]
    summary["prefilter_precision"] = (
        by_name["true_positive_rows"] / passed if passed else 0.0
    )
    summary["verify_dup_ratio"] = (
        by_name["verify_pairs"] / by_name["rows_passed_filter"]
        if by_name["rows_passed_filter"]
        else 0.0
    )
    return summary


# ----------------------------------------------------------------------
# Per-layer metrics of a traced run
# ----------------------------------------------------------------------
def query_layer_metrics(
    outcome: Outcome,
    build: SpanRecorder,
    phase: SpanRecorder,
    counts: dict[str, float],
    cache_delta,
) -> None:
    """Fill the query-path and build per-layer metrics shared by both loads."""
    setup = build.totals()
    totals = phase.totals()
    requests = totals.get("api.session_discover")
    per_request = requests.calls if requests else 0

    def self_s(name: str) -> float:
        entry = totals.get(name)
        return entry.self_seconds / per_request if entry and per_request else 0.0

    def calls(name: str) -> float:
        entry = totals.get(name)
        return entry.calls / per_request if entry and per_request else 0.0

    build_table = setup.get("index.build_table")
    hashed = setup.get("hashing.value_hash")
    fetch = totals.get("index.fetch")
    layers = outcome.layers
    layers["index.build_s"] = (build_table.seconds if build_table else 0.0, "s")
    layers["hashing.values_hashed"] = (hashed.calls if hashed else 0, "count")
    layers["index.fetch_s"] = (
        fetch.seconds / per_request if fetch and per_request else 0.0,
        "s",
    )
    layers["index.fetch_calls"] = (calls("index.fetch"), "count/req")
    layers["index.pl_items_fetched"] = (counts["pl_items_fetched"], "count/req")
    lookups = cache_delta.hits + cache_delta.misses
    layers["service.cache_hit_ratio"] = (
        cache_delta.hits / lookups if lookups else 0.0,
        "1",
    )
    # 0 on both workloads (each write clears the cache; the static corpus
    # fits in it), so printed rather than reported.
    outcome.layers_extra["service.cache_evictions"] = (cache_delta.evictions, "count")
    layers["plan.planner_s"] = (self_s("plan.planner"), "s")
    layers["plan.candidate_generation_s"] = (
        self_s("plan.candidate_generation"),
        "s",
    )
    layers["plan.candidate_tables"] = (counts["candidate_tables"], "count/req")
    layers["plan.superkey_prefilter_s"] = (self_s("plan.superkey_prefilter"), "s")
    layers["plan.rows_checked"] = (counts["rows_checked"], "count/req")
    layers["plan.rows_passed_filter"] = (counts["rows_passed_filter"], "count/req")
    layers["plan.prefilter_precision"] = (counts["prefilter_precision"], "1")
    layers["plan.tables_pruned_rule1"] = (
        counts["tables_pruned_by_rule1"],
        "count/req",
    )
    layers["plan.tables_pruned_rule2"] = (
        counts["tables_pruned_by_rule2"],
        "count/req",
    )
    layers["plan.row_verification_s"] = (self_s("plan.row_verification"), "s")
    layers["plan.verify_pairs"] = (counts["verify_pairs"], "count/req")
    layers["plan.verify_dup_ratio"] = (counts["verify_dup_ratio"], "1")
    layers["plan.value_comparisons"] = (counts["value_comparisons"], "count/req")
    layers["plan.topk_s"] = (self_s("plan.topk"), "s")
    layers["api.session_self_s"] = (self_s("api.session_discover"), "s")
    outcome.self_times = {
        name: (entry.calls, entry.self_seconds)
        for name, entry in sorted({**setup, **totals}.items())
    }


def trace_overhead(
    outcome: Outcome, untraced: tuple[int, float], traced: tuple[int, float]
) -> None:
    """Untraced over traced requests per second; each is (requests, seconds)."""
    base = untraced[0] / untraced[1]
    with_spans = traced[0] / traced[1]
    outcome.layers["telemetry.trace_overhead"] = (
        base / with_spans if with_spans else 0.0,
        "1",
    )
    outcome.notes.append(
        f"trace overhead bases: untraced {base:.2f} req/s over "
        f"{untraced[1]:.2f}s, traced {with_spans:.2f} req/s over "
        f"{traced[1]:.2f}s"
    )


def write_trace(workload: Workload, *recorders: SpanRecorder) -> None:
    write_spans(OUT_DIR / f"trace-{workload.name}.csv", recorders)


# ----------------------------------------------------------------------
# HTTP serving
# ----------------------------------------------------------------------
class Server:
    """``python -m repro.cli serve CORPUS --port 0`` (all other flags default)."""

    def __init__(self, corpus_path: Path, log_path: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.log_path = log_path
        self._log = log_path.open("wb")
        self.started = perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(corpus_path),
             "--port", "0"],
            stdout=self._log,
            stderr=subprocess.STDOUT,
            env=env,
        )
        self.port = 0
        self.ready_seconds = 0.0

    def wait_ready(self, timeout: float = 120.0) -> None:
        """Block until the server prints ``serving on``; records set-up time."""
        deadline = perf_counter() + timeout
        while perf_counter() < deadline:
            text = self.log_path.read_text(encoding="utf-8", errors="replace")
            marker = text.find("serving on http://")
            if marker >= 0 and text.find("\n", marker) >= 0:
                self.ready_seconds = perf_counter() - self.started
                address = text[marker:].split()[2]
                self.port = int(address.rsplit(":", 1)[1])
                return
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited early:\n{text}")
            sleep(0.002)
        raise RuntimeError("server did not report serving in time")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
                try:
                    self.process.wait(timeout=40)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait(timeout=10)
        finally:
            self._log.close()

    def request(self, method: str, path: str, body: bytes | None = None):
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def latency_histogram(self) -> tuple[float, float]:
        """(sum seconds, count) of ``repro_http_request_latency_seconds``."""
        status, body = self.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        total = count = 0.0
        for line in body.decode("utf-8").splitlines():
            if line.startswith("repro_http_request_latency_seconds_sum"):
                total = float(line.split()[-1])
            elif line.startswith("repro_http_request_latency_seconds_count"):
                count = float(line.split()[-1])
        return total, count


def run_http(workload: Workload, inputs: Path, seconds: float, trace: bool) -> Outcome:
    from repro.storage.serialization import load_corpus_json

    outcome = Outcome()
    queries = load_queries(inputs / "queries.json")
    # The client keeps its own copy of the tables to score tied answers.
    outcome.checker = AnswerChecker(
        queries,
        load_truth(inputs / "truth.json"),
        {table.table_id: table for table in load_corpus_json(inputs / "corpus.json")},
    )
    bodies = [
        json.dumps(
            {
                "query": {
                    "name": query.table.name,
                    "columns": list(query.table.columns),
                    "rows": [list(row) for row in query.table.rows],
                },
                "key_columns": list(query.key_columns),
            }
        ).encode("utf-8")
        for query in queries
    ]
    rejected = [0]
    server: Server | None = None
    setups = []

    def post(query_index: int):
        status, body = server.request("POST", "/v1/discover", bodies[query_index])
        if status != 200:
            if status in (429, 503):
                rejected[0] += 1
            raise RequestFailed(f"HTTP {status}")
        document = json.loads(body)
        if not document["complete"]:
            raise RequestFailed("complete=False")
        return document

    def answer(document) -> list:
        return [(entry["table_id"], entry["joinability"]) for entry in document["tables"]]

    try:
        for repeat in range(1 if trace else SETUP_REPEATS):
            if server is not None:
                server.stop()
            server = Server(inputs / "corpus.json", inputs / f"server-{repeat}.log")
            server.wait_ready()
            setups.append(server.ready_seconds)
        per_query = []
        for query_index in range(len(queries)):
            outcome.attempted += 1
            document = post(query_index)
            outcome.checker.check(query_index, answer(document))
            per_query.append(result_counts(document["counters"], document["stages"]))
        outcome.fingerprints.append(fingerprint(per_query))
        outcome.count_summary = summarize_counts(per_query)

        def discover(query_index: int):
            return answer(post(query_index))

        if not trace:
            loop = closed_loop(discover, len(queries), seconds, workload.clients)
            outcome.e2e["peak_rss_mb"] = (peak_rss_mb(server.process.pid), "MB")
            account(outcome, loop)
            outcome.e2e["setup_s"] = (statistics.median(setups), "s")
            latency_metrics(outcome, loop)
            outcome.notes.append(
                "set-ups (s): " + ", ".join(f"{s:.3f}" for s in setups)
            )
            return outcome

        # The served loop records only client round trips; the engine layers
        # and the cost of the spans come from the in-process twin below.
        client_spans = SpanRecorder()

        def discover_traced(query_index: int):
            with client_spans.span("serve.round_trip"):
                return discover(query_index)

        before = server.latency_histogram()
        loop = closed_loop(discover_traced, len(queries), seconds, workload.clients)
        after = server.latency_histogram()
        account(outcome, loop)
        served = after[1] - before[1]
        server_ms = (after[0] - before[0]) / served * 1000.0 if served else 0.0
        round_trip_ms = statistics.fmean(loop.latencies) * 1000.0
        extra = outcome.layers_extra
        extra["serve.rejected"] = (rejected[0], "count")
        extra["serve.server_ms"] = (server_ms, "ms")
        extra["serve.http_overhead_ms"] = (round_trip_ms - server_ms, "ms")
        extra["serve.round_trip_ms"] = (round_trip_ms, "ms")
        twin_engine_ms = _run_twin(workload, inputs, queries, outcome, client_spans)
        outside = 1.0 - twin_engine_ms / round_trip_ms if round_trip_ms else 0.0
        outcome.emphasis.append(
            f"serve + api (client round trip {round_trip_ms:.2f} ms minus "
            f"in-process engine {twin_engine_ms:.2f} ms) is {outside:.1%} of "
            f"client latency ({'>= 30%: holds' if outside >= 0.3 else '< 30%: does not hold'})"
        )
        return outcome
    finally:
        if server is not None:
            server.stop()


def _run_twin(workload, inputs, queries, outcome, client_spans) -> float:
    """In-process twin of the served session: engine and envelope times.

    Builds a session with the ``repro serve`` defaults and answers the same
    queries in alternating untraced and traced chunks, which also give
    ``telemetry.trace_overhead``.  Returns the traced engine time per
    request in ms (planner plus executor, inclusive).
    """
    from repro.api import DiscoveryRequest, DiscoverySession
    from repro.config import MateConfig, ServiceConfig
    from repro.storage.serialization import load_corpus_json

    build = SpanRecorder()
    install_build_spans(build)
    try:
        corpus = load_corpus_json(inputs / "corpus.json")
        session = DiscoverySession(
            corpus,
            config=MateConfig(hash_size=128),
            service_config=ServiceConfig(
                num_shards=4, cache_capacity=4096, max_workers=4
            ),
        )
    finally:
        build.uninstall()
    try:
        requests = [DiscoveryRequest(query=query) for query in queries]
        for request in requests:  # warm the cache as the served count pass did
            session.discover(request)
        phase = SpanRecorder()
        before = session.cache_counters.snapshot()
        # Untraced and traced chunks alternate, each twice over the queries;
        # the untraced ones are the base of telemetry.trace_overhead.
        elapsed = [0.0, 0.0]
        answered = [0, 0]
        for chunk in range(TRACE_CHUNKS):
            tracing = chunk % 2
            if tracing:
                install_query_spans(phase)
            started = perf_counter()
            try:
                for request in requests * 2:
                    result = session.discover(request)
                    with phase.span("api.envelope") if tracing else nullcontext():
                        json.dumps(result.to_dict())
            finally:
                if tracing:
                    phase.uninstall()
            elapsed[tracing] += perf_counter() - started
            answered[tracing] += 2 * len(requests)
        cache_delta = session.cache_counters.delta_since(before)
    finally:
        session.close()
    trace_overhead(
        outcome, (answered[0], elapsed[0]), (answered[1], elapsed[1])
    )
    query_layer_metrics(outcome, build, phase, outcome.count_summary, cache_delta)
    totals = phase.totals()
    per_request = totals["api.session_discover"].calls
    outcome.layers_extra["api.envelope_s"] = (
        totals["api.envelope"].seconds / per_request,
        "s",
    )
    engine = (
        totals["plan.execute"].seconds + totals["plan.planner"].seconds
    ) / per_request
    outcome.self_times.update(
        {
            name: (entry.calls, entry.self_seconds)
            for name, entry in client_spans.totals().items()
        }
    )
    write_trace(workload, build, phase, client_spans)
    return engine * 1000.0


# ----------------------------------------------------------------------
# Live ingestion
# ----------------------------------------------------------------------
class LiveStream:
    """One live directory fed by the ``repro ingest`` loop."""

    def __init__(self, directory: Path, corpus_name: str):
        from repro.api import DiscoverySession
        from repro.config import MateConfig
        from repro.datamodel import TableCorpus
        from repro.ingest import CompactionPolicy, Compactor, LiveIndex

        config = MateConfig()
        self.directory = directory
        self.live = LiveIndex.open(directory, config=config)
        self.session = DiscoverySession(
            TableCorpus(name=corpus_name), self.live, config=config
        )
        self.compactor = Compactor(self.live, CompactionPolicy())
        self.wal_path = directory / "wal.jsonl"
        self.wal_bytes = 0
        self.segment_bytes_written = 0
        self.input_bytes = 0
        self._segments_seen: set[str] = set()

    def _wal_size(self) -> int:
        try:
            return self.wal_path.stat().st_size
        except FileNotFoundError:
            return 0

    def write(self, table, table_bytes: int, retire=None) -> float:
        """Ingest one table, remove ``retire`` (if given) and run compaction
        once; returns the latency of the three."""
        before = self._wal_size()
        started = perf_counter()
        self.session.ingest(table)
        if retire is not None:
            self.session.remove(retire.table_id)
        ingested = perf_counter()
        after = self._wal_size()
        compacting = perf_counter()
        moves = self.compactor.run_once()
        finished = perf_counter()
        self.wal_bytes += after - before
        self.input_bytes += table_bytes
        if moves["sealed"] or moves["merged"]:
            for path in self.directory.glob("*.seg"):
                if path.name not in self._segments_seen:
                    self._segments_seen.add(path.name)
                    self.segment_bytes_written += path.stat().st_size
        return (ingested - started) + (finished - compacting)

    def counts(self) -> list[int]:
        return [
            self.compactor.seals,
            self.compactor.merges,
            self.wal_bytes,
            self.segment_bytes_written,
        ]

    def stored_bytes(self) -> int:
        return sum(
            path.stat().st_size for path in self.directory.rglob("*") if path.is_file()
        )

    def close(self) -> None:
        self.session.close()
        self.live.close()


def run_live(workload: Workload, inputs: Path, seconds: float, trace: bool) -> Outcome:
    from repro.api import DiscoveryRequest
    from repro.storage.serialization import corpus_from_json

    outcome = Outcome()
    queries = load_queries(inputs / "queries.json")
    requests = [DiscoveryRequest(query=query, engine="live") for query in queries]
    build = SpanRecorder()
    stream: LiveStream | None = None
    setups = []
    setup_counts = []

    try:
        for repeat in range(1 if trace else SETUP_REPEATS):
            if stream is not None:
                stream.close()
                shutil.rmtree(stream.directory, ignore_errors=True)
                stream = None
                gc.collect()
            if trace:
                install_build_spans(build)
            started = perf_counter()
            payload = json.loads((inputs / "corpus.json").read_bytes())
            tables = list(corpus_from_json(payload))
            stream = LiveStream(inputs / f"live-{repeat}", payload["name"])
            table_bytes = [
                len(json.dumps(entry).encode("utf-8")) for entry in payload["tables"]
            ]
            preload = len(tables) // 2
            for position in range(preload):
                outcome.attempted += 1
                stream.write(tables[position], table_bytes[position])
            setups.append(perf_counter() - started)
            build.uninstall()
            setup_counts.append(stream.counts())

        cycle_counts: list[list[int]] = []
        write_latencies: list[float] = []
        # The index holds a sliding window of ``preload`` consecutive tables
        # of the (circular) ingestion order: each write adds the next table
        # and retires the oldest, so every read searches as many tables
        # however many writes a run gets through.
        writes = [0]
        # Cycle i reads query i % count however the timed loop is chunked,
        # so the first cycles are the same operations in every run.
        cycles = itertools.count()

        def cycle():
            query_index = next(cycles) % len(queries)
            for _ in range(2):
                added = (preload + writes[0]) % len(tables)
                outcome.attempted += 1
                write_latencies.append(
                    stream.write(
                        tables[added],
                        table_bytes[added],
                        retire=tables[writes[0] % len(tables)],
                    )
                )
                writes[0] += 1
            read_started = perf_counter()
            result = stream.session.discover(requests[query_index])
            read_seconds = perf_counter() - read_started
            if len(cycle_counts) < LIVE_FINGERPRINT_CYCLES:
                cycle_counts.append(session_result_counts(result) + stream.counts())
            if not result.complete:
                raise RequestFailed("complete=False")
            return read_seconds

        if trace:
            phase = SpanRecorder()
            before = stream.session.cache_counters.snapshot()

            def install() -> None:
                install_query_spans(phase)
                install_ingest_spans(phase)

            untraced, traced = alternate(
                lambda chunk, _: _live_loop(cycle, chunk, outcome),
                seconds,
                install,
                phase.uninstall,
            )
            cache_delta = stream.session.cache_counters.delta_since(before)
            loops = [untraced, traced]
        else:
            loops = [_live_loop(cycle, seconds, outcome)]

        # Read before the oracle below allocates in this process.
        peak_rss = peak_rss_mb()
        # Final top-k of every query against the oracle over the tables in
        # the window (outside the timed region).
        final_started = perf_counter()
        live_tables = [
            tables[(writes[0] + offset) % len(tables)] for offset in range(preload)
        ]
        outcome.checker = AnswerChecker(
            queries,
            oracle_top_k(queries, live_tables),
            {table.table_id: table for table in live_tables},
        )
        for query_index, request in enumerate(requests):
            outcome.attempted += 1
            result = stream.session.discover(request)
            if not result.complete:
                outcome.failed += 1
            outcome.checker.check(query_index, result.result_tuples())

        outcome.notes.append(f"final check: {perf_counter() - final_started:.1f}s")
        short = len(cycle_counts) < LIVE_FINGERPRINT_CYCLES
        for counts in setup_counts:
            outcome.fingerprints.append(
                fingerprint([counts, cycle_counts, "short" if short else ""])
            )
        if short:
            outcome.notes.append(
                f"only {len(cycle_counts)} of {LIVE_FINGERPRINT_CYCLES} "
                "fingerprint cycles ran"
            )
        outcome.count_summary = summarize_counts(
            [counts[: len(COUNT_FIELDS) + 1] for counts in cycle_counts]
        )
        seals, merges, wal_bytes, segment_bytes = stream.counts()
        outcome.count_summary.update(
            seals=seals, merges=merges, wal_bytes=wal_bytes,
            segment_bytes_written=segment_bytes,
            tables_written=preload + writes[0],
            live_tables=preload,
        )
        stored = stream.stored_bytes()
        stored_ratio = stored / stream.input_bytes
        write_amp = (wal_bytes + segment_bytes) / stream.input_bytes
        live_segments = sum(
            path.stat().st_size for path in stream.directory.glob("*.seg")
        )

        if not trace:
            loop = loops[0]
            outcome.e2e["setup_s"] = (statistics.median(setups), "s")
            latency_metrics(outcome, loop)
            outcome.e2e["peak_rss_mb"] = (peak_rss, "MB")
            outcome.e2e_extra["ingest_p50_ms"] = (
                statistics.median(write_latencies) * 1000.0,
                "ms",
            )
            outcome.e2e_extra["ingest_p95_ms"] = (
                percentile(write_latencies, 95) * 1000.0,
                "ms",
            )
            outcome.e2e_extra["stored_bytes_per_input_byte"] = (stored_ratio, "1")
            outcome.notes.append(
                f"timed writes: {len(write_latencies)}; set-ups (s): "
                + ", ".join(f"{s:.3f}" for s in setups)
            )
            return outcome

        query_layer_metrics(outcome, build, phase, outcome.count_summary, cache_delta)
        trace_overhead(
            outcome,
            (len(untraced.latencies), untraced.elapsed),
            (len(traced.latencies), traced.elapsed),
        )
        totals = phase.totals()
        traced_writes = totals["api.session_ingest"].calls
        extra = outcome.layers_extra
        extra["ingest.seals"] = (seals, "count")
        extra["ingest.merges"] = (merges, "count")
        extra["ingest.wal_bytes"] = (wal_bytes, "B")
        extra["storage.segment_bytes"] = (live_segments, "B")
        extra["ingest.write_amp"] = (write_amp, "1")
        extra["storage.stored_bytes_per_input_byte"] = (stored_ratio, "1")
        if traced_writes:
            extra["ingest.add_table_s"] = (
                totals["ingest.add_table"].seconds / traced_writes,
                "s",
            )
            extra["ingest.compaction_s"] = (
                totals["ingest.compaction"].seconds / traced_writes,
                "s",
            )
            extra["api.ingest_self_s"] = (
                totals["api.session_ingest"].self_seconds / traced_writes,
                "s",
            )
        hit_ratio = outcome.layers["service.cache_hit_ratio"][0]
        outcome.emphasis.append(
            f"cache hit ratio {hit_ratio:.3f} "
            f"({'near 0: holds' if hit_ratio <= 0.1 else 'not near 0: does not hold'})"
        )
        write_trace(workload, build, phase)
        return outcome
    finally:
        if stream is not None:
            stream.close()


def _live_loop(cycle, seconds: float, outcome: Outcome) -> LoopResult:
    """Closed write/write/read loop.

    ``cycle()`` makes the next two writes and one read and returns the
    read's latency; the writes are timed by :meth:`LiveStream.write`.
    """
    loop = LoopResult()
    deadline = perf_counter() + seconds
    started = perf_counter()
    while perf_counter() < deadline:
        loop.attempted += 1
        try:
            read_seconds = cycle()
        except Exception as error:  # counted and reported; the loop goes on
            loop.record_failure(error)
            continue
        loop.latencies.append(read_seconds)
    loop.elapsed = perf_counter() - started
    outcome.attempted += loop.attempted
    outcome.failed += loop.failed
    outcome.notes.extend(f"failure: {error}" for error in loop.errors)
    return loop
