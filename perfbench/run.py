"""The discovery benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload http_small --seed 7 --seconds 20 --trace 0

Generates the workload's inputs from the seed (in a separate process),
measures the shipped default configuration for ``--seconds`` seconds, checks
every answer against the brute-force oracle and the run's counts against
earlier runs at the same seed, and prints a report whose last line is one
JSON object: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Exits non-zero on any oracle mismatch or count
drift.  Workloads and metrics are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spec import ROOT, SRC, WORK_DIR, WORKLOADS, require_program


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """Names and units of the end-to-end and per-layer metrics, in order.

    ``BENCHMARK.json`` at the checkout root is the one list of what a run
    reports; the result line carries exactly these metrics.
    """
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple(
        {entry["name"]: entry["unit"] for entry in document[key]}
        for key in ("end_to_end", "per_layer")
    )


def generate_inputs(workload: str, seed: int, out: Path) -> dict:
    """Run the input generator in its own process; returns the manifest."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Generation iterates sets of strings; a fixed hash seed keeps the
    # same seed giving the same inputs in every process.
    env["PYTHONHASHSEED"] = "0"
    subprocess.run(
        [sys.executable, str(Path(__file__).with_name("inputs.py")),
         "--workload", workload, "--seed", str(seed), "--out", str(out)],
        check=True,
        env=env,
        timeout=170,
    )
    return json.loads((out / "manifest.json").read_text())


def format_value(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.6g}"


def print_table(title: str, rows: dict[str, tuple[float, str]]) -> None:
    print(title)
    for name, (value, unit) in rows.items():
        print(f"  {name:<38} {format_value(value):>14} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_program()
    # A terminated run still unwinds: the server subprocess is stopped and
    # the scratch directory removed by the ``finally`` blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    from checks import compare_with_earlier_run, fingerprint
    from runners import run_http, run_live

    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    inputs = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    try:
        started = time.perf_counter()
        manifest = generate_inputs(workload.name, args.seed, inputs)
        generation_seconds = time.perf_counter() - started
        run = {"http": run_http, "live": run_live}[workload.kind]
        outcome = run(workload, inputs, args.seconds, trace)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}  ({workload.why})")
    print(f"  {workload.clients} closed-loop client(s); program at {SRC.relative_to(ROOT)}")
    print("inputs " + json.dumps(manifest, sort_keys=True))
    print(f"  input generation and oracle: {generation_seconds:.1f}s (not measured)")
    for note in outcome.notes:
        print(f"  {note}")

    correct = True
    checker = outcome.checker
    print(f"correctness: {checker.checked} answers checked against "
          f"top_k_by_exact_joinability, {len(checker.mismatches)} mismatched")
    for mismatch in checker.mismatches[:10]:
        print(f"  MISMATCH {mismatch}")
    if checker.mismatches:
        correct = False

    counts = {name: round(value, 6) for name, value in outcome.count_summary.items()}
    print("counts (per request, fixed pass) " + json.dumps(counts, sort_keys=True))
    distinct = sorted(set(outcome.fingerprints))
    if len(distinct) > 1:
        print(f"  DRIFT between set-ups of this run: {outcome.fingerprints}")
        correct = False
    drift = compare_with_earlier_run(
        workload.name, args.seed, manifest["digest"], fingerprint(distinct)
    )
    if drift:
        print(f"  DRIFT against an earlier run at seed {args.seed}: {drift}")
        correct = False
    else:
        print(f"  count fingerprint {distinct[0]}: identical across "
              f"{len(outcome.fingerprints)} set-up(s) and any earlier run of "
              "this program at this seed")

    end_to_end, per_layer = declared_metrics()
    failed_ratio = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    if trace:
        metrics = {name: outcome.layers[name] for name in per_layer}
        print_table("per-layer (traced run; times are mean self seconds per "
                    "discovery request unless named otherwise)", metrics)
        if outcome.layers_extra:
            print_table("per-layer, printed only (one workload, or 0 on a healthy run)",
                        outcome.layers_extra)
        print("self time by span (calls, seconds)")
        for name, (calls, seconds) in outcome.self_times.items():
            print(f"  {name:<38} {calls:>10} {seconds:14.6f}")
        for statement in outcome.emphasis:
            print(f"emphasis: {statement}")
    else:
        metrics = {name: outcome.e2e[name] for name in end_to_end}
        print_table("end-to-end", metrics)
        extra = dict(outcome.e2e_extra)
        extra["failed_ratio"] = (failed_ratio, "1")
        print_table("end-to-end, not bounded", extra)
    for name, (_, unit) in metrics.items():
        declared = (per_layer if trace else end_to_end)[name]
        if unit != declared:
            raise RuntimeError(f"{name} measured in {unit}, declared {declared}")

    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
