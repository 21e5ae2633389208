#!/usr/bin/env python3
"""bootgrid benchmark: time one workload at one seed and check its output.

    python3 perfbench/run.py --workload pc_bisect --seed 0 --seconds 35 --trace 0

Run it from the repository root; it imports bootgrid from ./src and exits
with code 2 if that is missing.  Workloads are defined in workloads.py and
described, with the machine they were sized on, in design.json.

Steps:
1. set-up time: start worker.py in ``setup`` mode several times, before
   step 3 and again after it, and take the median from process start to
   ``build_parser()`` returning;
2. write the workload's inputs from the seed (outside any timing);
3. start one fresh worker that calls ``bootgrid.cli.main`` repeatedly for
   about ``--seconds`` and reports each call's time, the time of the
   workload's fixed reference kernel run after it (reference.py) and its
   peak RSS;
4. check every call's output (see workloads.py; at the default seed also
   against digests.json, the data-row digests each variant printed there)
   and report the metrics BENCHMARK.json names:
   the end-to-end ones with ``--trace 0``, the per-layer ones, from the
   spans of a run alternating untraced and traced calls, with ``--trace 1``.
   The end-to-end time is ``wall_ratio``, a call's seconds over those of
   the reference kernel run right after it, because the shared host's
   speed drifts by more than the bound; the seconds themselves are
   printed above the result line.

Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Scratch files go to .perfbench/ in the repository root; the spans of a
traced run stay in .perfbench/spans/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

SETUP_SAMPLES = 8  # before the timed worker and again after it, after one warm-up
DEADLINE_S = 170.0  # the whole run, set-up and checks included


def _setup_seconds(deadline: float) -> float:
    """One set-up time: from starting a fresh interpreter to build_parser() returning."""
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(WORKER), "setup"],
        capture_output=True, text=True, check=True, timeout=deadline - t0,
    )
    return float(done.stdout) - t0


def _check_calls(workload, calls, seed, workdir) -> int:
    """Annotate each call with its problems; return how many failed."""
    from workloads import DEFAULT_SEED, data_rows, rows_digest

    expected = json.loads((HERE / "digests.json").read_text())[workload.name]
    verdicts: dict[tuple[int, str], list[str]] = {}
    for call in calls:
        out, variant = workdir / call["out"], call["variant"]
        if call["rc"] != 0 or not out.exists():
            call["digest"], call["problems"] = None, [f"exit code {call['rc']}, no output"]
            continue
        rows = data_rows(out.read_text())
        digest = rows_digest(rows)
        if (variant, digest) not in verdicts:
            try:
                problems = workload.check(rows, seed, workdir, variant)
            except (ValueError, KeyError) as exc:
                problems = [f"data rows do not parse: {exc!r}"]
            if seed == DEFAULT_SEED and digest != expected[variant]:
                problems.append(f"data rows digest {digest} != committed {expected[variant]}")
            verdicts[variant, digest] = problems
        call["digest"], call["problems"] = digest, list(verdicts[variant, digest])
    # Calls of one variant ran the same command line, so their rows must agree,
    # traced or not.
    for variant in range(workload.variants):
        digests = Counter(c["digest"] for c in calls if c["variant"] == variant and c["digest"])
        usual = digests.most_common(1)[0][0] if digests else None
        for call in calls:
            if call["variant"] == variant and call["digest"] not in (None, usual):
                call["problems"].append("data rows differ from the other calls")
    return sum(1 for c in calls if c["problems"])


def _layer_metrics(spans_path: Path, calls: list[dict], names: list[str]) -> dict[str, float]:
    from spans import layer_totals, read_spans

    by_run = defaultdict(list)
    for s in read_spans(spans_path):
        by_run[s["run"]].append(s)
    per_run = []
    for run_spans in by_run.values():
        totals = layer_totals(run_spans)
        requested = totals.get("montecarlo.trials_requested", 0)
        closed = totals.get("montecarlo.trials_closed", 0)
        totals["montecarlo.closed_per_requested"] = closed / requested if requested else 0.0
        per_run.append(totals)
    traced = [c["wall_s"] for c in calls if c["traced"]]
    untraced = [c["wall_s"] for c in calls if not c["traced"]]
    # The lower median keeps counts, which repeat exactly, as integers.
    metrics = {n: statistics.median_low(t.get(n, 0) for t in per_run) for n in names}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return metrics


def _wall_ratio(workload, calls: list[dict]) -> float:
    """Each timed call's seconds over those of the reference kernel run right
    after it, so that the host's speed at that moment cancels; the median of
    each variant's ratios, averaged over the variants, so that variants run
    once more than others near the end of a run do not weigh more."""
    per_variant = [
        statistics.median(c["wall_s"] / c["ref_s"] for c in calls
                          if c["variant"] == v and "ref_s" in c)
        for v in range(workload.variants)
    ]
    return statistics.fmean(per_variant)


def _percentiles(walls: list[float]) -> str:
    """The median and the highest of p75/p90/p99 with at least ten calls beyond it."""
    cuts = statistics.quantiles(walls, n=100) if len(walls) > 1 else walls * 99
    text = f"p50 {statistics.median(walls):.4f} s"
    for pct in (99, 90, 75):
        if len(walls) * (100 - pct) >= 1000:
            return text + f", p{pct} {cuts[pct - 1]:.4f} s"
    return text + " (too few calls for a higher percentile)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "bootgrid" / "cli.py").is_file():
        print(f"perfbench: no bootgrid source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    state = ROOT / ".perfbench"
    workdir = state / f"work-{workload.name}-seed{args.seed}-{os.getpid()}"
    spans_path = state / "spans" / f"{workload.name}-seed{args.seed}.jsonl"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    workdir.mkdir(parents=True)
    try:
        _setup_seconds(deadline)  # warm-up
        setup = [_setup_seconds(deadline) for _ in range(SETUP_SAMPLES)]
        workload.prepare(args.seed, workdir)
        subprocess.run(
            [sys.executable, str(WORKER), "run", workload.name, str(args.seed),
             str(seconds), str(args.trace), str(workdir), str(spans_path)],
            check=True, timeout=deadline - time.monotonic(),
        )
        setup += [_setup_seconds(deadline) for _ in range(SETUP_SAMPLES)]
        result = json.loads((workdir / "result.json").read_text())
        if len(result["reference_checksums"]) != 1:
            raise RuntimeError(f"reference kernel not deterministic: {result['reference_checksums']}")
        calls = result["calls"]
        failed = _check_calls(workload, calls, args.seed, workdir)
    except (subprocess.SubprocessError, OSError, ValueError, RuntimeError) as exc:
        print(f"perfbench: {workload.name} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [c["wall_s"] for c in calls if not (c["traced"] or c["warmup"])]
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__}")
    print(f"workload {workload.name} seed {args.seed}:")
    for variant in range(workload.variants):
        argv = workload.argv(args.seed, Path("<workdir>"), variant)
        print(f"  variant {variant}: bootgrid {' '.join(argv)}")
    for call in calls:
        mode = "traced" if call["traced"] else "untraced"
        verdict = "ok" if not call["problems"] else "FAILED: " + "; ".join(call["problems"])
        print(f"  call {call['out']} variant {call['variant']}: {mode} {call['wall_s']:.4f} s, "
              f"rows sha256 {call['digest']}, {verdict}")
    print(f"  failed_ratio {failed}/{len(calls)} = {failed / len(calls):g}")

    if args.trace:
        names = [m["name"] for m in bench["per_layer"]]
        values = _layer_metrics(spans_path, calls, names)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
        for point in result["missing_trace_points"]:
            print(f"  trace point {point} is gone from the program; its spans read 0")
    else:
        reference = [c["ref_s"] for c in calls if "ref_s" in c]
        rate = statistics.median(workload.items() / w for w in untraced)
        values = {
            "wall_ratio": _wall_ratio(workload, calls),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setup),
        }
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        print(f"  wall_s {_percentiles(untraced)} over n={len(untraced)} calls")
        print(f"  reference kernel {_percentiles(reference)}")
        print(f"  {workload.rate} {rate:.6g} 1/s")
        print(f"  setup samples {', '.join(f'{s:.4f}' for s in setup)} s")
    for name, value in values.items():
        print(f"  {name} = {value if isinstance(value, int) else f'{value:.6g}'} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
