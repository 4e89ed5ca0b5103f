"""Seeded inputs of the benchmark: corpus, query tables, oracle and manifest.

Run as its own process (``python3 perfbench/inputs.py --workload W --seed N
--out DIR``) so that neither the time nor the memory of generation counts
against the process that holds the index.  It writes into ``DIR``:

* ``corpus.json`` — the generated tables, in ``save_corpus_json`` format
  (for ``live_mixed`` in the order of ingestion);
* ``queries.json`` — the query tables with their key columns;
* ``truth.json`` — per query, ``top_k_by_exact_joinability`` over the whole
  corpus (static workloads only: the live index changes during the run);
* ``manifest.json`` — sizes, value-frequency profile and an input digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

from spec import CACHE_CAPACITY, CORPUS_SEED, WORKLOADS, require_program


def value_locations(tables, values) -> dict[str, set[tuple[int, int]]]:
    """Where each of ``values`` occurs: (table position, row index) pairs."""
    where: dict[str, set[tuple[int, int]]] = {}
    for position, table in enumerate(tables):
        for row_index, row in enumerate(table.rows):
            for cell in row:
                if cell in values:
                    where.setdefault(cell, set()).add((position, row_index))
    return where


def key_values(queries) -> set[str]:
    return {
        value
        for query in queries
        for key_tuple in query.key_tuples()
        for value in key_tuple
    }


def oracle_tables(query, tables, where) -> list:
    """The tables ``top_k_by_exact_joinability`` has to score, unmodified.

    Only a table with a row holding every value of some key tuple can score
    above 0, and the oracle drops tables that score 0; the others are left
    out so that the brute-force scan stays affordable.  ``where`` is
    :func:`value_locations` over ``tables`` for (at least) the query's key
    values.
    """
    selected: set[int] = set()
    for key_tuple in query.key_tuples():
        for position, _ in set.intersection(
            *(where.get(value, set()) for value in set(key_tuple))
        ):
            selected.add(position)
    return [tables[position] for position in sorted(selected)]


def oracle_top_k(queries, tables) -> list[list[tuple[int, int]]]:
    """``top_k_by_exact_joinability`` of every query over ``tables``."""
    from repro.config import MateConfig
    from repro.core.joinability import top_k_by_exact_joinability

    k = MateConfig().k
    where = value_locations(tables, key_values(queries))
    return [
        top_k_by_exact_joinability(query, oracle_tables(query, tables, where), k)
        for query in queries
    ]


def _percentile(values: list[int], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(fraction * len(ordered)))])


def build_manifest(workload, seed, corpus, queries, corpus_bytes, query_bytes):
    """Describe the inputs so a moved number can be told from a moved corpus."""
    from repro.lake.profiling import value_frequency_profile

    profile = value_frequency_profile(corpus)
    occurrences: dict[str, int] = {}
    for table in corpus:
        for row in table.rows:
            for cell in row:
                occurrences[cell] = occurrences.get(cell, 0) + 1
    probe_values = key_values(queries)
    probe_lengths = [occurrences.get(value, 0) for value in probe_values]
    lengths = list(profile.occurrences)
    manifest = {
        "workload": workload.name,
        "spec": workload.spec,
        "scale": workload.scale,
        "seed": seed,
        "corpus_seed": CORPUS_SEED,
        "tables": len(corpus),
        "rows": sum(table.num_rows for table in corpus),
        "cells": sum(table.num_rows * table.num_columns for table in corpus),
        "input_bytes": len(corpus_bytes),
        "queries": len(queries),
        "probe_values_distinct": len(probe_values),
        "cache_capacity": CACHE_CAPACITY,
        "posting_len_p50": _percentile(lengths, 0.50),
        "posting_len_p95": _percentile(lengths, 0.95),
        "probe_posting_len_p50": _percentile(probe_lengths, 0.50),
        "probe_posting_len_p95": _percentile(probe_lengths, 0.95),
        "distinct_values": profile.num_distinct_values,
        "value_freq_mean": round(profile.mean, 3),
        "value_freq_max": profile.max,
        "value_head_share_1pct": round(profile.head_share(0.01), 4),
        "value_zipf_exponent": round(profile.zipf_exponent(), 4),
        "digest": hashlib.sha256(corpus_bytes + query_bytes).hexdigest()[:16],
    }
    if workload.kind == "live":
        # Tables in the live index at every read: the sliding window.
        manifest["live_tables_at_read"] = len(corpus) // 2
    return manifest


def generate(workload_name: str, seed: int, out: Path) -> None:
    from repro.datagen import TABLE1_SPECS, build_workload, generate_entity_query
    from repro.storage.serialization import corpus_to_json

    workload = WORKLOADS[workload_name]
    # No planted queries: the tables build_workload plants for a query carry
    # its key values in bulk, and with a handful of them the per-request
    # cost moved by up to 2x from seed to seed.
    corpus = build_workload(
        workload.spec, seed=CORPUS_SEED, num_queries=0, corpus_scale=workload.scale
    ).corpus
    tables = list(corpus)
    spec = TABLE1_SPECS[workload.spec]
    rng = random.Random(f"{workload.name}-{seed}-queries")
    queries = [
        generate_entity_query(
            2_000_000 + index,
            rng,
            cardinality=spec.cardinality,
            key_size=spec.key_size,
            name=f"{spec.name}_q{index}",
        )
        for index in range(workload.queries)
    ]

    corpus_bytes = json.dumps(corpus_to_json(corpus)).encode("utf-8")
    query_doc = [
        {
            "name": query.table.name,
            "columns": list(query.table.columns),
            "rows": [list(row) for row in query.table.rows],
            "key_columns": list(query.key_columns),
        }
        for query in queries
    ]
    query_bytes = json.dumps(query_doc).encode("utf-8")
    out.mkdir(parents=True, exist_ok=True)
    (out / "corpus.json").write_bytes(corpus_bytes)
    (out / "queries.json").write_bytes(query_bytes)

    if workload.kind != "live":
        (out / "truth.json").write_text(json.dumps(oracle_top_k(queries, tables)))
    manifest = build_manifest(
        workload, seed, corpus, queries, corpus_bytes, query_bytes
    )
    (out / "manifest.json").write_text(json.dumps(manifest))


def load_queries(path: Path) -> list:
    """Rebuild the :class:`QueryTable` list written by :func:`generate`."""
    from repro.datamodel import QueryTable, Table

    queries = []
    for index, entry in enumerate(json.loads(path.read_text())):
        table = Table(
            table_id=1_000_000 + index,
            name=entry["name"],
            columns=entry["columns"],
            rows=entry["rows"],
        )
        queries.append(QueryTable(table=table, key_columns=entry["key_columns"]))
    return queries


def load_truth(path: Path) -> list[list[tuple[int, int]]]:
    return [
        [(int(table_id), int(score)) for table_id, score in entry]
        for entry in json.loads(path.read_text())
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    require_program()
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
