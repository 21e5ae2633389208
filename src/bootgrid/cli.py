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

Every run emits a manifest (subcommand, parameters, seed, threads,
version, timestamp) as ``#`` comment lines in CSV mode or a ``manifest``
object in JSON mode.  Data rows are a pure function of the manifest minus
its timestamp; ``--threads`` changes runtime only.  Exit codes: 0 on
success, 2 on usage errors, 1 on runtime errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone

from . import __version__
from .asymptotics import (
    ScalingModel,
    epsilon_window,
    leading_pc,
    nucleation_closed_terms,
    nucleation_log_prob_sum,
)
from .growth import GrowthEventSpec, estimate_growth_mc, growth_polynomial
from .inversion import expansion_residual, invert_numeric, pc_expansion
from .lattice import GridSpec, from_text, to_text
from .montecarlo import estimate_pc, fill_probability, sweep
from .rules import RuleFamily, closure_fast, make_rule


def _default_threads() -> int:
    try:
        return max(1, int(os.environ.get("BOOTGRID_THREADS", "1")))
    except ValueError:
        return 1


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

    def as_dict(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "params": self.params,
            "seed": self.seed,
            "threads": self.threads,
            "version": self.version,
            "timestamp": self.timestamp,
        }

    def comment_lines(self) -> list[str]:
        return [
            f"# bootgrid {self.version}",
            f"# subcommand: {self.subcommand}",
            f"# params: {json.dumps(self.params, sort_keys=True)}",
            f"# seed: {self.seed}",
            f"# threads: {self.threads}",
            f"# timestamp: {self.timestamp}",
        ]


def _fmt_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit(args, manifest: RunManifest, fieldnames: list[str], rows: list[dict]) -> None:
    out = sys.stdout if args.out is None else open(args.out, "w")
    try:
        if args.format == "json":
            json.dump({"manifest": manifest.as_dict(), "rows": rows}, out, indent=2)
            out.write("\n")
        else:
            for line in manifest.comment_lines():
                out.write(line + "\n")
            out.write(",".join(fieldnames) + "\n")
            for row in rows:
                out.write(",".join(_fmt_value(row[k]) for k in fieldnames) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


def _emit_text(args, manifest: RunManifest, text: str) -> None:
    out = sys.stdout if args.out is None else open(args.out, "w")
    try:
        for line in manifest.comment_lines():
            out.write(line + "\n")
        out.write(text)
    finally:
        if out is not sys.stdout:
            out.close()


def _float_list(text: str) -> list[float]:
    values = [float(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError(f"expected a comma-separated list of numbers, got {text!r}")
    return values


def _mc_p_list(text: str, trials: int) -> list[float]:
    """The ``--p`` list of a Monte Carlo subcommand.  Every value and the
    trial count are checked here, before any estimate runs, so a bad value
    late in the list is refused at once rather than after the others."""
    p_list = _float_list(text)
    for p in p_list:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {p}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    return p_list


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _dims_for(args, family: RuleFamily) -> tuple[int, ...]:
    if args.dims is not None:
        dims = tuple(_int_list(args.dims))
    elif args.L is not None:
        dims = (args.L,) * family.dimension
    else:
        raise ValueError("supply --L or --dims")
    if len(dims) != family.dimension:
        raise ValueError(
            f"family {family.name} is {family.dimension}-dimensional, got dims {dims}"
        )
    return dims


def _dims_str(dims: tuple[int, ...]) -> str:
    return "x".join(str(d) for d in dims)


def _scaling_model(args) -> ScalingModel:
    if args.family is not None:
        fam = RuleFamily.parse(args.family)
        if fam.kind == "one_two":
            return ScalingModel.one_two()
        if fam.kind == "one_b":
            return ScalingModel.one_b(fam.params[0])
        raise ValueError(f"no built-in scaling coefficients for family {fam.name!r}")
    if args.C is None:
        raise ValueError("supply --family or --C/--Cprime")
    return ScalingModel.custom(args.C, args.Cprime)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_close(args) -> int:
    family = RuleFamily.parse(args.rule)
    rule = make_rule(family)
    if args.infile == "-":
        text = sys.stdin.read()
    else:
        with open(args.infile) as fp:
            text = fp.read()
    config = from_text(text)
    closed = closure_fast(config, rule)
    manifest = RunManifest(
        "close",
        {"rule": family.name, "in": args.infile},
        seed=None,
        threads=args.threads,
    )
    _emit_text(args, manifest, to_text(closed))
    return 0


def _cmd_fill(args) -> int:
    family = RuleFamily.parse(args.rule)
    rule = make_rule(family)
    dims = _dims_for(args, family)
    grid = GridSpec(dims, args.boundary)
    rows = []
    for p in _mc_p_list(args.p, args.trials):
        est = fill_probability(rule, grid, p, args.trials, args.seed, args.threads)
        rows.append(
            {
                "family": family.name,
                "dims": _dims_str(dims),
                "p": p,
                "mean": est.mean,
                "stderr": est.stderr,
                "trials": est.trials,
                "seed": est.seed,
            }
        )
    manifest = RunManifest(
        "fill",
        {
            "rule": family.name,
            "dims": _dims_str(dims),
            "boundary": args.boundary,
            "p": args.p,
            "trials": args.trials,
        },
        seed=args.seed,
        threads=args.threads,
    )
    _emit(args, manifest, ["family", "dims", "p", "mean", "stderr", "trials", "seed"], rows)
    return 0


def _cmd_pc(args) -> int:
    family = RuleFamily.parse(args.rule)
    rule = make_rule(family)
    dims = _dims_for(args, family)
    grid = GridSpec(dims, args.boundary)
    est = estimate_pc(
        rule,
        grid,
        target=args.target,
        p_tolerance=args.tol,
        trials_per_probe=args.trials,
        seed=args.seed,
        threads=args.threads,
    )
    rows = [
        {
            "family": family.name,
            "dims": _dims_str(dims),
            "p": args.target,
            "mean": est.mean,
            "stderr": est.stderr,
            "trials": est.trials,
            "seed": est.seed,
        }
    ]
    manifest = RunManifest(
        "pc",
        {
            "rule": family.name,
            "dims": _dims_str(dims),
            "boundary": args.boundary,
            "target": args.target,
            "tol": args.tol,
            "trials": args.trials,
        },
        seed=args.seed,
        threads=args.threads,
    )
    _emit(args, manifest, ["family", "dims", "p", "mean", "stderr", "trials", "seed"], rows)
    return 0


def _cmd_sweep(args) -> int:
    family = RuleFamily.parse(args.rule)
    if args.dims is not None:
        dims_list = [tuple(_int_list(group)) for group in args.dims.split(";") if group.strip()]
    elif args.L is not None:
        dims_list = [(L,) * family.dimension for L in _int_list(str(args.L))]
    else:
        raise ValueError("supply --L or --dims")
    p_list = _mc_p_list(args.p, args.trials)
    table = sweep(
        family,
        dims_list,
        p_list,
        trials=args.trials,
        seed=args.seed,
        boundary=args.boundary,
        threads=args.threads,
    )
    rows = [
        {
            "family": r.family,
            "dims": _dims_str(r.dims),
            "p": r.p,
            "mean": r.mean,
            "stderr": r.stderr,
            "trials": r.trials,
            "seed": r.seed,
        }
        for r in table
    ]
    manifest = RunManifest(
        "sweep",
        {
            "rule": family.name,
            "dims": [_dims_str(d) for d in dims_list],
            "boundary": args.boundary,
            "p": args.p,
            "trials": args.trials,
        },
        seed=args.seed,
        threads=args.threads,
    )
    _emit(args, manifest, ["family", "dims", "p", "mean", "stderr", "trials", "seed"], rows)
    return 0


def _cmd_growth(args) -> int:
    spec = GrowthEventSpec(args.event, args.size)
    p_list = _mc_p_list(args.p, args.trials)  # before the enumeration, which can take seconds
    poly = growth_polynomial(spec)
    rows = []
    for p in p_list:
        est = estimate_growth_mc(spec, p, args.trials, args.seed)
        rows.append(
            {
                "event": spec.direction,
                "param": spec.size,
                "p": p,
                "exact": poly.evaluate(p),
                "mc_mean": est.mean,
                "mc_stderr": est.stderr,
                "trials": est.trials,
            }
        )
    manifest = RunManifest(
        "growth",
        {"event": spec.direction, "size": spec.size, "p": args.p, "trials": args.trials},
        seed=args.seed,
        threads=args.threads,
    )
    _emit(
        args,
        manifest,
        ["event", "param", "p", "exact", "mc_mean", "mc_stderr", "trials"],
        rows,
    )
    return 0


def _cmd_nucleation(args) -> int:
    rows = []
    for p in _float_list(args.p):
        leading, second = nucleation_closed_terms(p)
        rows.append(
            {
                "p": p,
                "log_sum": nucleation_log_prob_sum(p),
                "leading": leading,
                "second": second,
                "closed_total": leading + second,
            }
        )
    manifest = RunManifest("nucleation", {"p": args.p}, seed=None, threads=args.threads)
    _emit(args, manifest, ["p", "log_sum", "leading", "second", "closed_total"], rows)
    return 0


def _cmd_scaling(args) -> int:
    family = RuleFamily.parse(args.family)
    rows = []
    for ln_v in _float_list(args.lnv):
        pc = leading_pc(family, ln_v, C=args.C)
        try:
            window = epsilon_window(family, ln_v, prefactor=args.prefactor)
        except ValueError:
            window = ""
        rows.append({"family": family.name, "lnv": ln_v, "pc_leading": pc, "window": window})
    manifest = RunManifest(
        "scaling",
        {"family": family.name, "lnv": args.lnv, "C": args.C, "prefactor": args.prefactor},
        seed=None,
        threads=args.threads,
    )
    _emit(args, manifest, ["family", "lnv", "pc_leading", "window"], rows)
    return 0


def _cmd_invert(args) -> int:
    model = _scaling_model(args)
    rows = []
    for ln_v in _float_list(args.lnv):
        p_numeric = invert_numeric(ln_v, model)
        terms = pc_expansion(ln_v, model)
        rows.append(
            {
                "lnv": ln_v,
                "p_numeric": p_numeric,
                "term1": terms.term1,
                "term2": terms.term2,
                "term3": terms.term3,
                "total": terms.total,
                "residual": expansion_residual(ln_v, model),
            }
        )
    manifest = RunManifest(
        "invert",
        {"lnv": args.lnv, "family": args.family, "C": args.C, "Cprime": args.Cprime},
        seed=None,
        threads=args.threads,
    )
    _emit(
        args,
        manifest,
        ["lnv", "p_numeric", "term1", "term2", "term3", "total", "residual"],
        rows,
    )
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _thread_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _add_common(sub, seed: bool = True, formats: tuple[str, ...] = ("csv", "json")) -> None:
    sub.add_argument("--format", choices=formats, default="csv")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument(
        "--threads",
        type=_thread_count,
        default=_default_threads(),
        help="worker threads (default $BOOTGRID_THREADS or 1); never changes results",
    )
    if seed:
        sub.add_argument("--seed", type=int, default=0)


def _add_grid_args(sub) -> None:
    sub.add_argument("--L", type=int, default=None, help="side length (square/cubic grid)")
    sub.add_argument("--dims", default=None, help="explicit side lengths, e.g. 32,16")
    sub.add_argument("--boundary", choices=("open", "periodic"), default="open")


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

    sp = subs.add_parser("fill", help="fill probability at given densities")
    sp.add_argument("--rule", required=True)
    _add_grid_args(sp)
    sp.add_argument("--p", required=True, help="comma-separated densities")
    sp.add_argument("--trials", type=int, default=1000)
    _add_common(sp)
    sp.set_defaults(func=_cmd_fill)

    sp = subs.add_parser("pc", help="critical density by coupled bisection")
    sp.add_argument("--rule", required=True)
    _add_grid_args(sp)
    sp.add_argument("--target", type=float, default=0.5)
    sp.add_argument("--tol", type=float, default=1e-3)
    sp.add_argument("--trials", type=int, default=1000, help="trials per probe")
    _add_common(sp)
    sp.set_defaults(func=_cmd_pc)

    sp = subs.add_parser("sweep", help="fill table over sizes and densities")
    sp.add_argument("--rule", "--family", dest="rule", required=True)
    sp.add_argument("--L", default=None, help="comma-separated side lengths")
    sp.add_argument("--dims", default=None, help="semicolon-separated dims groups, e.g. 16,16;32,32")
    sp.add_argument("--boundary", choices=("open", "periodic"), default="open")
    sp.add_argument("--p", required=True)
    sp.add_argument("--trials", type=int, default=1000)
    _add_common(sp)
    sp.set_defaults(func=_cmd_sweep)

    sp = subs.add_parser("growth", help="rectangle growth probabilities, exact and MC")
    sp.add_argument("--event", choices=("east_column", "north_rows"), required=True)
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
    sp.add_argument("--C", type=float, default=None, help="leading constant override")
    sp.add_argument("--prefactor", type=float, default=1.0)
    _add_common(sp, seed=False)
    sp.set_defaults(func=_cmd_scaling)

    sp = subs.add_parser("invert", help="invert ln V_c and expand p_c(V)")
    sp.add_argument("--lnv", required=True)
    sp.add_argument("--family", default=None)
    sp.add_argument("--C", type=float, default=None)
    sp.add_argument("--Cprime", type=float, default=0.0)
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
        return args.func(args)
    except Exception as exc:  # runtime failure: report, exit 1
        print(f"bootgrid: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
