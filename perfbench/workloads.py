"""The three benchmark workloads: their command lines, inputs and output checks.

Every workload is one ``bootgrid`` command line, run in-process through
``bootgrid.cli.main`` at ``--threads 1``.  The workload seed given to the
benchmark derives the CLI ``--seed`` and, for ``close_sparse_io``, the
input configuration; the program only ever sees the derived values.

Each check returns a list of problems, empty when the output is right.
Checks read only data rows: the output minus the manifest's ``#`` lines,
because the manifest carries a timestamp.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# The seed whose data rows must match the committed digests in digests.json.
DEFAULT_SEED = 0

FILL_HEADER = "family,dims,p,mean,stderr,trials,seed"
GROWTH_HEADER = "event,param,p,exact,mc_mean,mc_stderr,trials"


def data_rows(text: str) -> list[str]:
    return [ln for ln in text.splitlines() if not ln.startswith("#")]


def rows_digest(rows: list[str]) -> str:
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def _csv(rows: list[str], header: str, count: int) -> tuple[list[dict], list[str]]:
    if not rows or rows[0] != header:
        return [], [f"header {rows[:1]!r} is not {header!r}"]
    keys = header.split(",")
    fields = [row.split(",") for row in rows[1:]]
    if len(fields) != count or any(len(f) != len(keys) for f in fields):
        return [], [f"expected {count} rows of {len(keys)} fields, got {rows[1:]!r}"]
    return [dict(zip(keys, f)) for f in fields], []


@dataclass(frozen=True)
class Workload:
    name: str
    rate: str  # what work_per_s counts, named as in the workload's design notes
    params: dict = field(default_factory=dict)
    # Distinct CLI seeds one run cycles through (call k runs variant k % variants),
    # so that a run's median averages over inputs where the work depends on them.
    variants: int = 1
    # The reference.KERNELS entry whose time wall_ratio divides by.
    reference: str = "mixed"

    def cli_seed(self, seed: int, variant: int) -> int:
        """A 31-bit CLI seed from the workload seed, distinct per workload and variant."""
        digest = hashlib.sha256(f"{self.name}#{variant}/{seed}".encode()).digest()
        return int.from_bytes(digest[:4], "little") >> 1

    def argv(self, seed: int, workdir: Path, variant: int) -> list[str]:
        raise NotImplementedError

    def prepare(self, seed: int, workdir: Path) -> None:
        """Write the workload's input files; runs before any timing."""

    def items(self) -> int:
        """Units of work in one ``cli.main`` call."""
        raise NotImplementedError

    def check(self, rows: list[str], seed: int, workdir: Path, variant: int) -> list[str]:
        raise NotImplementedError


def _bisection_probes(tol: float) -> int:
    probes, width = 0, 1.0
    while width > tol:
        width /= 2
        probes += 1
    return probes


class PcBisect(Workload):
    def argv(self, seed, workdir, variant):
        p = self.params
        return ["pc", "--rule", p["rule"], "--L", str(p["L"]), "--trials", str(p["trials"]),
                "--tol", repr(p["tol"]), "--seed", str(self.cli_seed(seed, variant)),
                "--threads", "1"]

    def items(self):
        return _bisection_probes(self.params["tol"]) * self.params["trials"]

    def check(self, rows, seed, workdir, variant):
        records, problems = _csv(rows, FILL_HEADER, 1)
        if problems:
            return problems
        r = records[0]
        if not 0.0 < float(r["mean"]) < 1.0:
            problems.append(f"p_c estimate {r['mean']} outside (0, 1)")
        if not float(r["stderr"]) <= self.params["tol"] / 2:
            problems.append(f"bracket half-width {r['stderr']} > tol/2")
        if int(r["trials"]) != self.items():
            problems.append(f"trials {r['trials']} != probes x trials = {self.items()}")
        if int(r["seed"]) != self.cli_seed(seed, variant):
            problems.append(f"seed column {r['seed']} is not the requested seed")
        return problems


def _splitmix64(z: np.ndarray) -> np.ndarray:
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def random_grid(L: int, p: float, seed: int) -> np.ndarray:
    """An L x L occupancy array, each cell occupied with probability p.

    Generated here rather than by bootgrid so that the input does not
    change when the program under test does.
    """
    bits = _splitmix64(np.uint64(seed) ^ np.arange(L * L, dtype=np.uint64))
    return ((bits >> np.uint64(11)) < np.uint64(math.ceil(p * 2.0**53))).reshape(L, L)


def grid_text(occ: np.ndarray) -> str:
    """The lattice text format: dims and boundary lines, then one 0/1 row per y."""
    ly, lx = occ.shape
    body = np.empty((ly, lx + 1), dtype=np.uint8)
    body[:, :lx] = occ.astype(np.uint8) + ord("0")
    body[:, lx] = ord("\n")
    return f"dims: {lx} {ly}\nboundary: open\n" + body.tobytes().decode("ascii")


def parse_grid(rows: list[str]) -> np.ndarray:
    """Inverse of :func:`grid_text` for open 2-d grids; raises ValueError."""
    if len(rows) < 2 or rows[1] != "boundary: open" or not rows[0].startswith("dims: "):
        raise ValueError(f"bad header {rows[:2]!r}")
    lx, ly = (int(tok) for tok in rows[0][len("dims: "):].split())
    body = rows[2:]
    if len(body) != ly or any(len(r) != lx for r in body):
        raise ValueError(f"body does not match dims {lx} x {ly}")
    cells = np.frombuffer("".join(body).encode("ascii"), dtype=np.uint8) - ord("0")
    if cells.max(initial=0) > 1:
        raise ValueError("body has characters other than 0 and 1")
    return cells.astype(bool).reshape(ly, lx)


class CloseSparseIo(Workload):
    def _input(self, workdir):
        return workdir / "close-input.txt"

    def argv(self, seed, workdir, variant):
        return ["close", "--rule", self.params["rule"], "--in", str(self._input(workdir)),
                "--threads", "1"]

    def prepare(self, seed, workdir):
        occ = random_grid(self.params["L"], self.params["p"], self.cli_seed(seed, 0))
        self._input(workdir).write_text(grid_text(occ))

    def items(self):
        return self.params["L"] ** 2

    def check(self, rows, seed, workdir, variant):
        from bootgrid.lattice import Configuration, GridSpec
        from bootgrid.rules import RuleFamily, make_rule, step

        try:
            closed = parse_grid(rows)
        except ValueError as exc:
            return [f"output is not a lattice: {exc}"]
        given = parse_grid(data_rows(self._input(workdir).read_text()))
        if closed.shape != given.shape:
            return [f"output shape {closed.shape} != input shape {given.shape}"]
        problems = []
        if (given & ~closed).any():
            problems.append("output does not contain the input")
        config = Configuration(GridSpec(closed.shape[::-1]), closed)
        _, changed = step(config, make_rule(RuleFamily.parse(self.params["rule"])))
        if changed:
            problems.append(f"one step of the output occupies {changed} more cells")
        return problems


class GrowthExact(Workload):
    def argv(self, seed, workdir, variant):
        p = self.params
        return ["growth", "--event", p["event"], "--size", str(p["size"]), "--p", p["p"],
                "--trials", str(p["trials"]), "--seed", str(self.cli_seed(seed, variant)),
                "--threads", "1"]

    def items(self):
        return 2 ** (2 * self.params["size"])  # two helper rows of `size` cells

    def check(self, rows, seed, workdir, variant):
        p_list = self.params["p"].split(",")
        records, problems = _csv(rows, GROWTH_HEADER, len(p_list))
        for r, p in zip(records, p_list):
            exact, mean, stderr = float(r["exact"]), float(r["mc_mean"]), float(r["mc_stderr"])
            if (r["event"], r["param"], float(r["p"])) != (
                self.params["event"], str(self.params["size"]), float(p)
            ):
                problems.append(f"row {r} is not for {self.params['event']} at p={p}")
            if int(r["trials"]) != self.params["trials"]:
                problems.append(f"trials {r['trials']} != {self.params['trials']}")
            if not (0.0 <= exact <= 1.0 and abs(exact - mean) <= 5 * stderr):
                problems.append(f"exact {exact} vs Monte Carlo {mean} +- {stderr} at p={p}")
        return problems


# Why these workloads and sizes: see design.json ("workloads" and "sizing").
WORKLOADS = {
    w.name: w
    for w in (
        PcBisect(
            "pc_bisect",
            "trials_per_s",
            {"rule": "standard2", "L": 64, "trials": 32, "tol": 1e-3},
            variants=8,
        ),
        CloseSparseIo(
            "close_sparse_io",
            "cells_per_s",
            {"rule": "12", "L": 2048, "p": 0.05},
        ),
        GrowthExact(
            "growth_exact",
            "configs_per_s",
            {"event": "north_rows", "size": 10, "p": "0.05,0.1,0.2", "trials": 10000},
            reference="arrays",
        ),
    )
}
