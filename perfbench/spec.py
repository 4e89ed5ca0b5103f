"""Workload definitions and paths shared by every module of the benchmark.

Each workload loads a different layer of the discovery stack; the sizes are
chosen so that one run (input generation, three set-ups, the timed loop and
the oracle check) takes about a minute on a 2-core machine.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

#: The benchmark's own sources.
BENCH_DIR = Path(__file__).resolve().parent
#: Root of the checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = BENCH_DIR.parent
#: The program under test: the ``src/`` layout of the ``repro`` package.
SRC = ROOT / "src"
#: Scratch space for generated inputs, live directories and server logs;
#: every run makes a private directory below it and removes it at exit.
WORK_DIR = ROOT / ".perfbench_work"
#: Count fingerprints of earlier runs, keyed by workload, seed and program.
STATE_DIR = ROOT / ".perfbench_state"
#: Span files of traced runs (one per workload, overwritten by each run).
OUT_DIR = ROOT / ".perfbench_out"

#: Seed of every workload's corpus; ``--seed`` draws the queries.  Over the
#: ~200 web tables of ``http_small`` the per-request engine cost moved by up
#: to 1.8x with the corpus seed, against 4% with the seed of the queries.
CORPUS_SEED = 0
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Capacity of the posting-list cache in the shipped default configuration.
CACHE_CAPACITY = 4096
#: Discovery requests of ``live_mixed`` whose counts enter the determinism
#: fingerprint: the first cycles of the write/write/read loop are the same
#: operations in every run at one seed, however fast the machine is.
LIVE_FINGERPRINT_CYCLES = 50


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: which generator spec, how big, how driven."""

    name: str
    #: ``repro.datagen`` Table 1 spec the corpus and queries come from.
    spec: str
    #: Corpus scale passed to ``build_workload``.
    scale: float
    #: Query tables drawn by the spec's query generator.  Many queries per
    #: run keep a run's latency from hanging on the few query tables one
    #: seed happens to draw.
    queries: int
    #: ``http`` (repro serve) or ``live`` (the repro ingest loop).
    kind: str
    #: Client threads of the closed loop.
    clients: int
    #: Why the workload exists: the layer it loads.
    why: str


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="http_small",
            spec="WT_10",
            scale=0.5,
            queries=300,
            kind="http",
            clients=2,
            why="small corpus behind repro serve: HTTP framing, JSON and the "
            "session hop are a large share of each answer",
        ),
        Workload(
            name="live_mixed",
            spec="WT_100",
            scale=4.0,
            queries=200,
            kind="live",
            clients=1,
            why="writes slide a window of tables through a LiveIndex between "
            "reads: WAL, seals, merges, and reads that always find the "
            "posting cache cold",
        ),
    )
}


def require_program() -> None:
    """Put the program's sources on ``sys.path`` or exit non-zero.

    The benchmark builds nothing: it imports ``repro`` from ``src/`` of the
    checkout it runs in.  Without it there is nothing to measure.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program to measure: {SRC / 'repro'} is missing",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
