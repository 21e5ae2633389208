"""The fresh process in which the benchmark times one workload.

    python3 perfbench/worker.py setup
        Import bootgrid.cli, build its parser and print time.monotonic().
        The caller reads the clock before starting this process, so the
        difference is set-up time including interpreter start-up.

    python3 perfbench/worker.py run WORKLOAD SEED SECONDS TRACE WORKDIR SPANS
        Call bootgrid.cli.main on the workload's command lines in turn, at
        least two cycles through its variants and until the next call would
        end past SECONDS, writing call k's output to WORKDIR/out-<k>.txt
        and a summary to WORKDIR/result.json.  Each
        call is timed inside this process, so interpreter start-up is
        excluded.  With TRACE=1 whole cycles through the workload's
        variants alternate untraced and traced, and the spans of the
        traced calls are written to SPANS at the end.  The first cycle is a
        warm-up; the peak RSS is read at its end.  Every later untraced
        call is followed by one timed run of the workload's reference kernel,
        which gauges the host's speed at that moment (see reference.py).

Both modes import bootgrid from the src/ directory beside perfbench/.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def setup() -> None:
    sys.path.insert(0, str(SRC))
    import bootgrid.cli

    bootgrid.cli.build_parser()
    print(repr(time.monotonic()))


def call(cli, argv: list[str], out: Path, tracer=None) -> tuple[int, float]:
    """One ``cli.main`` call writing to ``out``; returns its exit code and
    wall time.  With a tracer, the call is traced and is the span ``cli.main``."""
    argv = argv + ["--out", str(out)]
    if tracer is None:
        t0 = time.perf_counter()
        rc = cli.main(argv)
        return rc, time.perf_counter() - t0
    with tracer.installed(), tracer.span("cli.main") as rec:
        rc = cli.main(argv)
    rec["counts"] = {"cli.output_bytes": out.stat().st_size if out.exists() else 0}
    return rc, rec["end"] - rec["start"]


def peak_rss_kib() -> int:
    """This process's peak resident set since it started, in KiB.

    VmHWM counts only this program image; ru_maxrss would also carry the
    resident size of the parent at fork, which run.py can exceed.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path, spans_path: Path):
    sys.path.insert(0, str(SRC))
    import json
    import statistics

    import bootgrid.cli as cli
    import reference
    import spans
    import workloads

    workload = workloads.WORKLOADS[name]
    kernel = reference.KERNELS[workload.reference]
    argvs = [workload.argv(seed, workdir, v) for v in range(workload.variants)]
    tracer = spans.Tracer()
    calls = []
    checksums = set()
    started = time.perf_counter()
    while True:
        k = len(calls)
        out = workdir / f"out-{k}.txt"
        variant = k % workload.variants
        traced = trace and (k // workload.variants) % 2 == 1  # alternate whole cycles
        tracer.run = f"{name}/seed{seed}/call{k}"
        rc, wall = call(cli, argvs[variant], out, tracer if traced else None)
        record = {"out": out.name, "variant": variant, "rc": rc, "wall_s": wall,
                  "traced": traced, "warmup": k < workload.variants}
        if k + 1 == workload.variants:
            # The first cycle is the warm-up, and the peak memory of the
            # program alone: the reference kernel only runs after it.
            peak_kib = peak_rss_kib()
            checksums.add(kernel())
        elif not (traced or record["warmup"]):
            t0 = time.perf_counter()
            checksums.add(kernel())
            record["ref_s"] = time.perf_counter() - t0
        calls.append(record)
        elapsed = time.perf_counter() - started
        typical = statistics.median(c["wall_s"] + c.get("ref_s", 0.0) for c in calls)
        if len(calls) >= 2 * workload.variants and elapsed + typical > seconds:
            break
    if trace:
        tracer.write(spans_path)
    result = {
        "calls": calls,
        "peak_rss_mb": peak_kib / 1024,
        "reference_checksums": sorted(checksums),
        "missing_trace_points": sorted(tracer.missing),
    }
    (workdir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    if sys.argv[1:] == ["setup"]:
        setup()
    else:
        name, seed, seconds, trace, workdir, spans_path = sys.argv[2:]
        run(name, int(seed), float(seconds), trace == "1", Path(workdir), Path(spans_path))
