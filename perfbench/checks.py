"""Correctness gate and count-determinism check.

Answers are compared with the brute-force oracle
(``top_k_by_exact_joinability``) the way the repository's own tests compare
engines with it: the joinability list must match exactly, tables scoring
above the k-th score must match exactly, and any table tied at the cut-off
score is an equally valid answer (table-filtering rule 1 legitimately drops
ties) provided its reported score is its exact score.
"""

from __future__ import annotations

import hashlib
import json

from spec import BENCH_DIR, SRC, STATE_DIR


class AnswerChecker:
    """Checks ``(table_id, joinability)`` answers against the oracle."""

    def __init__(self, queries, truth, tables_by_id):
        self.queries = queries
        self.truth = truth
        self.tables_by_id = tables_by_id
        self._exact: dict[tuple[int, int], int] = {}
        self._verdicts: dict[tuple[int, tuple], str | None] = {}
        self.checked = 0
        self.mismatches: list[str] = []

    def _exact_score(self, query_index: int, table_id: int) -> int:
        from repro.core.joinability import exact_joinability_score

        key = (query_index, table_id)
        if key not in self._exact:
            table = self.tables_by_id.get(table_id)
            self._exact[key] = (
                -1
                if table is None
                else exact_joinability_score(self.queries[query_index], table)
            )
        return self._exact[key]

    def _verdict(self, query_index: int, answer: tuple) -> str | None:
        truth = self.truth[query_index]
        if [score for _, score in answer] != [score for _, score in truth]:
            return f"scores {answer} != oracle {truth}"
        if not truth:
            return None
        cutoff = truth[-1][1]
        above = {table for table, score in answer if score > cutoff}
        if above != {table for table, score in truth if score > cutoff}:
            return f"tables {answer} != oracle {truth}"
        oracle_tables = {table for table, _ in truth}
        for table, score in answer:
            if table not in oracle_tables and self._exact_score(
                query_index, table
            ) != score:
                return f"table {table} reported {score}, exact score differs"
        return None

    def check(self, query_index: int, answer) -> bool:
        """Record one answer; returns whether it matches the oracle."""
        answer = tuple((int(t), int(s)) for t, s in answer)
        self.checked += 1
        key = (query_index, answer)
        if key not in self._verdicts:
            self._verdicts[key] = self._verdict(query_index, answer)
            if self._verdicts[key] is not None:
                self.mismatches.append(
                    f"query {query_index}: {self._verdicts[key]}"
                )
        return self._verdicts[key] is None


def program_digest() -> str:
    """Digest of the program's and the benchmark's sources.

    Counts are only compared between runs of the same code: a change to
    either may change them on purpose.
    """
    digest = hashlib.sha256()
    for root in (SRC, BENCH_DIR):
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root.parent).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def fingerprint(counts) -> str:
    return hashlib.sha256(
        json.dumps(counts, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]


def compare_with_earlier_run(
    workload: str, seed: int, input_digest: str, counts_digest: str
) -> str | None:
    """Compare this run's fingerprints with an earlier run at the same seed.

    The first run of a (workload, seed, program) records its fingerprints;
    later runs must reproduce them.  Returns a drift description, or
    ``None`` when nothing drifted.
    """
    STATE_DIR.mkdir(parents=True, exist_ok=True)
    path = STATE_DIR / f"{workload}-seed{seed}-{program_digest()}.json"
    current = {"inputs": input_digest, "counts": counts_digest}
    if not path.exists():
        path.write_text(json.dumps(current))
        return None
    earlier = json.loads(path.read_text())
    drifted = [key for key in current if current[key] != earlier.get(key)]
    if not drifted:
        return None
    return ", ".join(
        f"{key} {earlier.get(key)} -> {current[key]}" for key in drifted
    )
