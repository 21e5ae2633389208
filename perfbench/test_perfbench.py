"""Tests of the benchmark itself: tracing, self time and the output checks.

    python3 -m pytest perfbench -q

Each workload runs at a reduced size that takes the same code path as the
full one.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from bootgrid import cli  # noqa: E402

SMALL = {
    "pc_bisect": {"rule": "standard2", "L": 16, "trials": 32, "tol": 0.05},
    "close_sparse_io": {"rule": "12", "L": 64, "p": 0.05},
    "growth_exact": {"event": "north_rows", "size": 4, "p": "0.05,0.1,0.2", "trials": 2000},
}
DESIGN = json.loads((HERE / "design.json").read_text())


def small(name):
    return dataclasses.replace(workloads.WORKLOADS[name], params=SMALL[name])


def run_small(workload, workdir, tracer=None):
    workload.prepare(0, workdir)
    out = workdir / ("traced.txt" if tracer else "plain.txt")
    rc, _ = worker.call(cli, workload.argv(0, workdir, 0), out, tracer)
    assert rc == 0
    return workloads.data_rows(out.read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_spans_fire_and_tracing_leaves_rows_unchanged(name, tmp_path):
    workload = small(name)
    plain = run_small(workload, tmp_path)
    tracer = spans.Tracer()
    traced = run_small(workload, tmp_path, tracer)
    assert traced == plain
    assert workload.check(traced, 0, tmp_path, 0) == []
    assert not tracer.missing
    fired = {s["name"] for s in tracer.spans}
    assert fired == set(DESIGN["workloads"][name]["spans"])
    assert all(s["end"] >= s["start"] for s in tracer.spans)


def test_counts_follow_the_manifest(tmp_path):
    tracer = spans.Tracer()
    pc = small("pc_bisect")
    run_small(pc, tmp_path, tracer)
    totals = spans.layer_totals(tracer.spans)
    probes = workloads._bisection_probes(SMALL["pc_bisect"]["tol"])
    assert totals["montecarlo.fill_probability.calls"] == probes
    assert totals["montecarlo.trials_requested"] == pc.items()
    assert totals["montecarlo.trials_closed"] == pc.items()
    assert totals["rules.closure_batch.configs"] == pc.items()
    assert totals["rng.uniform_block.bytes_out"] == pc.items() * 16 * 16 * 8

    for name, key in [("close_sparse_io", "rules.closure_fast.cells"),
                      ("growth_exact", "growth.growth_polynomial.configs")]:
        tracer = spans.Tracer()
        run_small(small(name), tmp_path, tracer)
        assert spans.layer_totals(tracer.spans)[key] == small(name).items()


def test_installed_restores_the_originals():
    import bootgrid.montecarlo
    import bootgrid.rng

    before = (bootgrid.montecarlo.closure_batch, bootgrid.rng.Stream.__dict__["uniform_block"])
    with spans.Tracer().installed():
        assert bootgrid.montecarlo.closure_batch is not before[0]
    assert (bootgrid.montecarlo.closure_batch, bootgrid.rng.Stream.__dict__["uniform_block"]) == before


def test_missing_trace_point_is_skipped():
    tracer = spans.Tracer()
    with tracer.installed([("bootgrid.cli", "no_such_function", "x", None)]):
        pass
    assert tracer.missing == {"bootgrid.cli.no_such_function"}


def test_self_time_subtracts_covered_child_time():
    recs = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 0, "start": 5.0, "end": 6.0},
        {"id": 3, "parent": 1, "start": 2.0, "end": 3.0},
    ]
    assert spans.self_times(recs) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def _corrupt(name, rows):
    rows = list(rows)
    if name == "close_sparse_io":
        row = 2 + next(i for i, r in enumerate(rows[2:]) if "1" in r)
        rows[row] = rows[row].replace("1", "0", 1)  # drop an occupied cell
    elif name == "growth_exact":
        fields = rows[1].split(",")
        fields[3] = "1.0"  # exact far from the Monte Carlo mean
        rows[1] = ",".join(fields)
    else:
        fields = rows[1].split(",")
        fields[4] = "0.5"  # pc: half-width above tol/2
        rows[1] = ",".join(fields)
    return rows


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checks_reject_a_wrong_output(name, tmp_path):
    workload = small(name)
    rows = run_small(workload, tmp_path)
    assert workload.check(rows, 0, tmp_path, 0) == []
    assert workload.check(_corrupt(name, rows), 0, tmp_path, 0) != []


def test_grid_text_round_trips_through_bootgrid():
    from bootgrid.lattice import from_text

    occ = workloads.random_grid(8, 0.3, 5)
    text = workloads.grid_text(occ)
    assert (from_text(text).cells == occ).all()
    assert (workloads.parse_grid(text.splitlines()) == occ).all()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_kernel_is_deterministic(name):
    import reference

    kernel = reference.KERNELS[workloads.WORKLOADS[name].reference]
    assert kernel() == kernel()
