"""Command-line interface.

One executable, eight subcommands, machine-readable output:

    close       closure of a configuration file (lattice text format)
    fill        fill-probability estimates over a p list
    pc          threshold p_c by coupled bisection
    sweep       fill table over grid sizes x p values
    growth      exact vs Monte Carlo rectangle-growth probabilities
    nucleation  stage-product log-probability and its closed form
    scaling     leading-order p_c and threshold-window width
    invert      numeric inversion of ln V_c plus the expansion terms

Each subcommand only computes: it maps the parsed arguments to its
parameters, its columns and its rows (``close``: its lattice text).
``main`` then builds the one manifest (subcommand, parameters, seed,
threads, version, timestamp) and one writer emits it, as ``#`` comment
lines in CSV mode or a ``manifest`` object in JSON mode, followed by the
rows.  Data rows are a pure function of the manifest minus its timestamp;
``--threads`` changes runtime only.  ``BOOTGRID_THREADS`` is the default
of ``--threads`` and is checked the same way.  Exit codes: 0 on success,
2 on usage errors, 1 on runtime errors.

``fill``, ``pc`` and ``sweep`` share one path: one helper declares
their common flags, one parser reads the grids of ``--L`` or ``--dims``
and checks them against the rule before any estimate runs, and one
builder makes a row per (grid, seed) and p.
``fill`` and ``pc`` take one grid at ``--seed``; ``sweep`` takes grid
``i`` at ``derive_seed(seed, i)``, so its rows for that grid are the
``fill`` rows at that seed.  ``fill``, ``sweep`` and ``growth`` pass the
whole ``--p`` list to one estimate per grid, which draws each trial once
for every p; a row is the same bytes as that of a run with its p alone.
A library user makes a sweep table by calling
:func:`~bootgrid.montecarlo.fill_probability` once per grid.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

from . import __version__
from .asymptotics import (
    _WINDOW_LAWS,
    ScalingModel,
    _is_prefactor,
    _same_rule,
    epsilon_window,
    leading_pc,
    nucleation_closed_terms,
    nucleation_log_prob_sum,
)
from .growth import _SECTIONS, GrowthEventSpec, estimate_growth_mc, growth_polynomial
from .inversion import expansion_residual, invert_numeric, pc_expansion
from .lattice import BOUNDARIES, GridSpec, _check_p, from_text, to_text
from .montecarlo import _check_trials, estimate_pc, fill_probability
from .rng import _MASK64, derive_seed
from .rules import Rule, RuleFamily, closure_fast, make_rule


@dataclass
class RunManifest:
    subcommand: str
    params: dict
    seed: int | None
    threads: int
    version: str = __version__
    timestamp: str = field(
        default_factory=lambda: datetime.now(timezone.utc).isoformat(timespec="seconds")
    )

    def comment_lines(self) -> list[str]:
        return [
            f"# bootgrid {self.version}",
            f"# subcommand: {self.subcommand}",
            f"# params: {json.dumps(self.params, sort_keys=True)}",
            f"# seed: {self.seed}",
            f"# threads: {self.threads}",
            f"# timestamp: {self.timestamp}",
        ]


def _write(args, manifest: RunManifest, columns: list[str] | None, rows) -> None:
    """Write one run: the manifest, then the table of ``rows`` (tuples in
    ``columns`` order) or, when ``columns`` is None, the lattice text
    ``rows`` as it is.  ``--out`` is opened only here, so a run that fails
    leaves no file behind."""
    with nullcontext(sys.stdout) if args.out is None else open(args.out, "w") as out:
        if args.format == "json":
            table = [dict(zip(columns, row)) for row in rows]
            json.dump({"manifest": asdict(manifest), "rows": table}, out, indent=2)
            out.write("\n")
            return
        out.writelines(line + "\n" for line in manifest.comment_lines())
        if columns is None:
            out.write(rows)
        else:
            out.write(",".join(columns) + "\n")
            for row in rows:
                cells = (repr(v) if isinstance(v, float) else str(v) for v in row)
                out.write(",".join(cells) + "\n")


def _arg_type(convert, accepts, spelling: str):
    """An argparse type: ``convert(text)``, if that converts and ``accepts``
    the value; an ``ArgumentTypeError`` of ``convert`` keeps its message."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accepts(value):
            raise argparse.ArgumentTypeError(f"expected {spelling}, got {text!r}")
        return value

    return parse


_finite_float = _arg_type(float, math.isfinite, "a finite number")


def _float_list(text: str, parse=_finite_float) -> list[float]:
    values = [parse(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError(f"expected a comma-separated list of numbers, got {text!r}")
    return values


def _mc_p_list(text: str, trials: int) -> list[float]:
    """The ``--p`` list of a Monte Carlo subcommand.  Every value and the
    trial count are checked here, before any estimate runs, so a bad value
    late in the list is refused at once rather than after the others."""
    p_list = _float_list(text, lambda tok: _check_p(float(tok)))
    _check_trials(trials)
    return p_list


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _rule_and_grids(args, single: bool = False) -> tuple[RuleFamily, Rule, list[GridSpec]]:
    """The family and rule of ``--rule`` and the grids of fill, pc and
    sweep, from exactly one of ``--L`` and ``--dims``.  ``--L`` lists side
    lengths separated by commas, each of a grid with equal sides; ``--dims``
    lists groups of side lengths separated by semicolons.  Every group is
    checked against the rule's dimension here, before any estimate runs.
    With ``single``, more than one grid is refused."""
    family = RuleFamily.parse(args.rule)
    rule = make_rule(family)
    d = rule.dimension
    if (args.L is None) == (args.dims is None):
        raise ValueError("supply exactly one of --L and --dims")
    if args.dims is None:
        flag, text, groups = "--L", args.L, [(L,) * d for L in _int_list(args.L)]
    else:
        flag, text = "--dims", args.dims
        groups = (tuple(_int_list(group)) for group in text.split(";") if group.strip())
    grids = []
    for dims in groups:
        if len(dims) != d:
            raise ValueError(f"family {family.name} is {d}-dimensional, got dims {dims}")
        grids.append(GridSpec(dims, args.boundary))
    if not grids:
        raise ValueError(f"{flag} names no grid, got {text!r}")
    if single and len(grids) > 1:
        raise ValueError(
            f"fill and pc take one grid, got {len(grids)} in {flag}; sweep takes several"
        )
    return family, rule, grids


def _dims_str(dims: tuple[int, ...]) -> str:
    return "x".join(str(d) for d in dims)


def _scaling_model(args) -> ScalingModel:
    if args.family is not None:
        if args.C is not None or args.Cprime is not None:
            raise ValueError("--C and --Cprime cannot be combined with --family")
        return ScalingModel.of(args.family)
    if args.C is None:
        raise ValueError("supply --family or --C/--Cprime")
    return ScalingModel.custom(args.C, _cprime(args))


def _cprime(args) -> float:
    """``--Cprime``, which defaults to 0.0 when omitted."""
    return 0.0 if args.Cprime is None else args.Cprime


# --------------------------------------------------------------------------
# subcommands: each maps args to (params, columns, rows) and writes nothing
# --------------------------------------------------------------------------


def _estimate_table(family: RuleFamily, runs, p_list: list[float], estimate):
    """Columns and rows of fill, pc and sweep: for each (grid, seed) of
    ``runs``, one row for each p of ``p_list`` and estimate of
    ``estimate(grid, p_list, seed)``, which gives one per p."""
    rows = []
    for grid, seed in runs:
        for p, est in zip(p_list, estimate(grid, p_list, seed)):
            rows.append(
                (family.name, _dims_str(grid.dims), p, est.mean, est.stderr, est.trials, est.seed)
            )
    return ["family", "dims", "p", "mean", "stderr", "trials", "seed"], rows


def _fill_table(args, family: RuleFamily, rule: Rule, runs, dims):
    """fill and sweep: the fill estimate at each p of ``--p`` on each
    (grid, seed) of ``runs``; ``dims`` is the manifest's record of the grids."""
    p_list = _mc_p_list(args.p, args.trials)
    params = {
        "rule": family.name,
        "dims": dims,
        "boundary": args.boundary,
        "p": args.p,
        "trials": args.trials,
    }
    return params, *_estimate_table(
        family,
        runs,
        p_list,
        lambda grid, ps, seed: fill_probability(rule, grid, ps, args.trials, seed, args.threads),
    )


def _cmd_close(args):
    family = RuleFamily.parse(args.rule)
    rule = make_rule(family)
    # The text is dropped once parsed and the parsed cells once closed, so
    # no stage holds more than three text-sized buffers.
    with nullcontext(sys.stdin) if args.infile == "-" else open(args.infile) as fp:
        config = from_text(fp.read())
    closed = closure_fast(config, rule)
    del config
    return {"rule": family.name, "in": args.infile}, None, to_text(closed)


def _cmd_fill(args):
    family, rule, (grid,) = _rule_and_grids(args, single=True)
    return _fill_table(args, family, rule, [(grid, args.seed)], _dims_str(grid.dims))


def _cmd_pc(args):
    family, rule, (grid,) = _rule_and_grids(args, single=True)
    params = {
        "rule": family.name,
        "dims": _dims_str(grid.dims),
        "boundary": args.boundary,
        "target": args.target,
        "tol": args.tol,
        "trials": args.trials,
    }
    return params, *_estimate_table(
        family,
        [(grid, args.seed)],
        [args.target],
        lambda grid, _, seed: [
            estimate_pc(
                rule,
                grid,
                target=args.target,
                p_tolerance=args.tol,
                trials_per_probe=args.trials,
                seed=seed,
                threads=args.threads,
            )
        ],
    )


def _cmd_sweep(args):
    family, rule, grids = _rule_and_grids(args)
    runs = [(grid, derive_seed(args.seed, i)) for i, grid in enumerate(grids)]
    return _fill_table(args, family, rule, runs, [_dims_str(grid.dims) for grid in grids])


def _cmd_growth(args):
    spec = GrowthEventSpec(args.event, args.size)
    p_list = _mc_p_list(args.p, args.trials)  # before the exact count
    poly = growth_polynomial(spec)
    estimates = estimate_growth_mc(spec, p_list, args.trials, args.seed, args.threads)
    rows = [
        (spec.direction, spec.size, p, poly.evaluate(p), est.mean, est.stderr, est.trials)
        for p, est in zip(p_list, estimates)
    ]
    params = {"event": spec.direction, "size": spec.size, "p": args.p, "trials": args.trials}
    return params, ["event", "param", "p", "exact", "mc_mean", "mc_stderr", "trials"], rows


def _cmd_nucleation(args):
    rows = []
    for p in _float_list(args.p):
        leading, second = nucleation_closed_terms(p)
        rows.append((p, nucleation_log_prob_sum(p), leading, second, leading + second))
    return {"p": args.p}, ["p", "log_sum", "leading", "second", "closed_total"], rows


def _cmd_scaling(args):
    family = RuleFamily.parse(args.family)
    has_window = _same_rule(family) in _WINDOW_LAWS
    rows = []
    for ln_v in _float_list(args.lnv):
        pc = leading_pc(family, ln_v, C=args.C)
        window = epsilon_window(family, ln_v, args.prefactor) if has_window else ""
        rows.append((family.name, ln_v, pc, window))
    params = {"family": family.name, "lnv": args.lnv, "C": args.C, "prefactor": args.prefactor}
    return params, ["family", "lnv", "pc_leading", "window"], rows


def _cmd_invert(args):
    model = _scaling_model(args)
    rows = []
    for ln_v in _float_list(args.lnv):
        p_numeric = invert_numeric(ln_v, model)
        terms = pc_expansion(ln_v, model)
        residual = expansion_residual(ln_v, p_numeric, terms)
        rows.append((ln_v, p_numeric, terms.term1, terms.term2, terms.term3, terms.total, residual))
    params = {"lnv": args.lnv, "family": args.family, "C": args.C, "Cprime": _cprime(args)}
    return params, ["lnv", "p_numeric", "term1", "term2", "term3", "total", "residual"], rows


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


_thread_count = _arg_type(int, lambda v: v >= 1, "an integer >= 1")
# Stream keys are 64-bit: a seed outside this range would share another's stream.
_seed = _arg_type(int, lambda v: 0 <= v <= _MASK64, "an integer in [0, 2^64)")
_prefactor = _arg_type(_finite_float, _is_prefactor, "a positive number")


def _add_common(sub, seed: bool = True, formats: tuple[str, ...] = ("csv", "json")) -> None:
    sub.add_argument("--format", choices=formats, default="csv")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument(
        "--threads",
        type=_thread_count,
        default=os.environ.get("BOOTGRID_THREADS", "1"),  # checked by _thread_count too
        help="worker threads (default $BOOTGRID_THREADS or 1); never changes results",
    )
    if seed:
        sub.add_argument("--seed", type=_seed, default=0, help="0 <= seed < 2^64")


def _add_estimate_parser(subs, name: str, summary: str, func):
    """The subparser of fill, pc or sweep, with the flags the three share;
    each adds its own flags to the parser returned."""
    sp = subs.add_parser(name, help=summary)
    sp.add_argument("--rule", required=True)
    sp.add_argument("--L", default=None, help="comma-separated side lengths of equal-sided grids")
    sp.add_argument("--dims", default=None, help="semicolon-separated dims groups, e.g. 16,8;32,16")
    sp.add_argument("--boundary", choices=BOUNDARIES, default="open")
    sp.add_argument("--trials", type=int, default=1000, help="trials (pc: per probe)")
    _add_common(sp)
    sp.set_defaults(func=func)
    return sp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bootgrid",
        description="Anisotropic bootstrap percolation: simulation, thresholds, scaling laws.",
    )
    parser.add_argument("--version", action="version", version=f"bootgrid {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sp = subs.add_parser("close", help="closure of a configuration file")
    sp.add_argument("--rule", required=True)
    sp.add_argument("--in", dest="infile", required=True, help="input path or - for stdin")
    # The output is lattice text behind '#' manifest lines; there is no JSON form.
    _add_common(sp, seed=False, formats=("csv",))
    sp.set_defaults(func=_cmd_close)

    sp = _add_estimate_parser(subs, "fill", "fill probability at given densities", _cmd_fill)
    sp.add_argument("--p", required=True, help="comma-separated densities")

    sp = _add_estimate_parser(subs, "pc", "critical density by coupled bisection", _cmd_pc)
    sp.add_argument("--target", type=float, default=0.5)
    sp.add_argument("--tol", type=float, default=1e-3)

    sp = _add_estimate_parser(subs, "sweep", "fill table over sizes and densities", _cmd_sweep)
    sp.add_argument("--p", required=True, help="comma-separated densities")

    sp = subs.add_parser("growth", help="rectangle growth probabilities, exact and MC")
    sp.add_argument("--event", choices=sorted(_SECTIONS), required=True)
    sp.add_argument("--size", type=int, required=True, help="rectangle height n or width x")
    sp.add_argument("--p", required=True)
    sp.add_argument("--trials", type=int, default=10000)
    _add_common(sp)
    sp.set_defaults(func=_cmd_growth)

    sp = subs.add_parser("nucleation", help="stage-product log probability and closed form")
    sp.add_argument("--p", required=True)
    _add_common(sp, seed=False)
    sp.set_defaults(func=_cmd_nucleation)

    sp = subs.add_parser("scaling", help="leading p_c and window width")
    sp.add_argument("--family", required=True)
    sp.add_argument("--lnv", required=True, help="comma-separated ln V values")
    sp.add_argument("--C", type=_finite_float, default=None, help="leading constant override")
    sp.add_argument(
        "--prefactor", type=_prefactor, default=1.0, help="window order constant, > 0"
    )
    _add_common(sp, seed=False)
    sp.set_defaults(func=_cmd_scaling)

    sp = subs.add_parser("invert", help="invert ln V_c and expand p_c(V)")
    sp.add_argument("--lnv", required=True)
    sp.add_argument("--family", default=None)
    sp.add_argument("--C", type=_finite_float, default=None)
    sp.add_argument("--Cprime", type=_finite_float, default=None, help="default 0.0")
    _add_common(sp, seed=False)
    sp.set_defaults(func=_cmd_invert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        params, columns, rows = args.func(args)
        manifest = RunManifest(args.subcommand, params, getattr(args, "seed", None), args.threads)
        _write(args, manifest, columns, rows)
    except Exception as exc:  # runtime failure: report, exit 1
        print(f"bootgrid: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
