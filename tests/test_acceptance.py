"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import time
import zlib
from fractions import Fraction
from math import comb, log

import numpy as np

from bootgrid import (
    GridSpec,
    GrowthEventSpec,
    Rect,
    RuleFamily,
    ScalingModel,
    Stream,
    anisotropic_constant,
    checkerboard_rect,
    closure_fast,
    closure_naive,
    column_growth_polynomial,
    critical_log_volume,
    empty_configuration,
    estimate_growth_mc,
    fill_probability,
    fill_probability_exact,
    fill_success_counts,
    invert_numeric,
    is_stable,
    make_rule,
    nucleation_log_prob_closed,
    nucleation_log_prob_sum,
    occupy_rect,
    pc_expansion,
    random_configuration,
    row_growth_polynomial,
    step,
)
from bootgrid.cli import main as cli_main
from bootgrid.inversion import bracketing_epsilon

FAMILIES = [
    RuleFamily.parse(name)
    for name in ("standard2", "standard3", "modified2", "12", "1b:3", "duarte", "abc:1,1,2")
]


def report(index: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {index:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_closure_oracle_equivalence():
    start = time.monotonic()
    checked = 0
    for family in FAMILIES:
        rule = make_rule(family)
        grid = GridSpec((32, 32) if rule.dimension == 2 else (8, 8, 8))
        for pi, p in enumerate((0.05, 0.3, 0.7)):
            root = Stream((2026, zlib.crc32(family.name.encode()) & 0xFFFF, pi))
            for i in range(500):
                cfg = random_configuration(grid, p, root.child(i))
                if closure_fast(cfg, rule) != closure_naive(cfg, rule):
                    report(1, False, f"mismatch: {family.name} p={p} trial={i}")
                checked += 1
    elapsed = time.monotonic() - start
    report(
        1,
        elapsed < 60.0,
        f"closure_fast == closure_naive bit-exact on {checked} configurations "
        f"(7 families x 3 densities x 500) in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_02_idempotence_and_monotonicity_suites():
    cases = 1000
    rng = Stream(777)
    fams = [make_rule(f) for f in FAMILIES]
    violations_idem = 0
    for i in range(cases):
        u = rng.child(i).uniforms(3)
        family = FAMILIES[int(u[0] * len(FAMILIES))]
        rule = make_rule(family)
        grid = GridSpec((10, 10) if rule.dimension == 2 else (4, 4, 4),
                        "periodic" if u[1] < 0.5 else "open")
        cfg = random_configuration(grid, 0.1 + 0.5 * u[2], rng.child(i).child(1))
        closed = closure_fast(cfg, rule)
        if (cfg.cells & ~closed.cells).any() or closure_fast(closed, rule) != closed:
            violations_idem += 1
    violations_mono = 0
    for i in range(cases):
        u = rng.child(10_000 + i).uniforms(3)
        family = FAMILIES[int(u[0] * len(FAMILIES))]
        rule = make_rule(family)
        grid = GridSpec((10, 10) if rule.dimension == 2 else (4, 4, 4))
        small = random_configuration(grid, 0.1 + 0.4 * u[1], rng.child(20_000 + i))
        extra = random_configuration(grid, 0.08, rng.child(30_000 + i))
        big = occupy_rect(small, Rect((0,) * grid.ndim, (1,) * grid.ndim))
        big.cells[...] = small.cells | extra.cells
        a = closure_fast(small, rule)
        b = closure_fast(big, rule)
        if (a.cells & ~b.cells).any():
            violations_mono += 1
    report(
        2,
        violations_idem == 0 and violations_mono == 0,
        f"idempotence violations: {violations_idem}/1000, "
        f"monotonicity violations: {violations_mono}/1000",
    )


def test_criterion_03_one_two_structural_lemmas():
    one_two = make_rule(RuleFamily.one_two())
    std2 = make_rule(RuleFamily.standard(2))
    # (a) every isolated rectangle up to 10x10 is a fixed point
    for rule in (one_two, std2):
        for w in range(1, 11):
            for h in range(1, 11):
                grid = GridSpec((w + 8, h + 8))
                cfg = occupy_rect(empty_configuration(grid), Rect((4, 4), (w, h)))
                if not is_stable(cfg, rule):
                    report(3, False, f"rectangle {w}x{h} not stable")
    # (b) 2-wide column rectangle absorbs its east column from any single seed
    for n in range(1, 9):
        for y0 in range(n):
            grid = GridSpec((3, n))
            cfg = occupy_rect(empty_configuration(grid), Rect((0, 0), (2, n)))
            cfg = occupy_rect(cfg, Rect((2, y0), (1, 1)))
            closed = closure_fast(cfg, one_two)
            if not all(closed.get((2, y)) for y in range(n)):
                report(3, False, f"east column not absorbed for n={n}, seed row {y0}")
    # (c) even checkerboard on a periodic 2-row strip fills in exactly one step
    for m in range(2, 101, 2):
        grid = GridSpec((m, 2), "periodic")
        seed = checkerboard_rect(empty_configuration(grid), Rect((0, 0), (m, 2)), "even")
        stepped, changed = step(seed, one_two)
        if not (stepped.is_full() and changed == m and is_stable(stepped, one_two)):
            report(3, False, f"checkerboard strip m={m} did not fill in one step")
    report(3, True, "rectangle stability, east-column absorption, checkerboard one-step fill")


def test_criterion_04_exact_fill_oracle():
    std2 = make_rule(RuleFamily.standard(2))
    counts = fill_success_counts(std2, GridSpec((2, 2)))
    poly_ok = counts.tolist() == [0, 0, 2, 4, 1]
    if not poly_ok:
        report(4, False, f"2x2 subset counts {counts.tolist()} != [0,0,2,4,1]")
    worst_z = 0.0
    for dims in ((2, 2), (3, 3)):
        grid = GridSpec(dims)
        for p in (0.2, 0.5, 0.8):
            exact = fill_probability_exact(std2, grid, p)
            (est,) = fill_probability(std2, grid, [p], 100_000, seed=404)
            sigma = max(est.stderr, (exact * (1 - exact) / est.trials) ** 0.5, 1e-12)
            worst_z = max(worst_z, abs(est.mean - exact) / sigma)
    report(
        4,
        worst_z <= 3.0,
        f"2x2 polynomial == p^4+4p^3(1-p)+2p^2(1-p)^2; MC vs exact worst |z| = {worst_z:.2f} <= 3",
    )


def test_criterion_05_column_growth_identity():
    for n in range(1, 21):
        got = [int(c) for c in column_growth_polynomial(n).coeffs]
        want = [0] + [(-1) ** (j + 1) * comb(n, j) for j in range(1, n + 1)]
        if got != want:
            report(5, False, f"column polynomial n={n} differs from 1-(1-p)^n")
    report(5, True, "column_growth_polynomial(n) == 1-(1-p)^n coefficients for n = 1..20")


def test_criterion_06_row_growth():
    polys = {x: row_growth_polynomial(x) for x in range(6, 13)}
    worst_z = 0.0
    poly8 = polys[8]
    for p in (0.05, 0.1):
        exact = poly8.evaluate(p)
        (est,) = estimate_growth_mc(GrowthEventSpec("north_rows", 8), [p], 100_000, seed=606)
        sigma = max(est.stderr, (exact * (1 - exact) / est.trials) ** 0.5, 1e-12)
        worst_z = max(worst_z, abs(est.mean - exact) / sigma)
    xs = np.arange(6, 13, dtype=float)
    c2 = np.array([float(polys[x].coefficient(2)) for x in range(6, 13)])
    slope = float(np.polyfit(xs, c2, 1)[0])
    report(
        6,
        worst_z <= 3.0 and 4.0 <= slope <= 10.0,
        f"MC worst |z| = {worst_z:.2f} <= 3 at x=8; p^2-coefficient slope over x=6..12 "
        f"is {slope:.3f} (measured; required bracket [4, 10], combinatorial estimate 8); "
        f"c2 values {c2.astype(int).tolist()}",
    )


def test_criterion_07_stage_product_leading_constant():
    p = 1e-12
    value = -p * nucleation_log_prob_sum(p) / log(1.0 / p) ** 2
    in_bracket = 0.165 <= value <= 0.168
    gaps = []
    for q in (1e-4, 1e-6, 1e-8, 1e-10):
        gap = abs(nucleation_log_prob_sum(q) - nucleation_log_prob_closed(q))
        gaps.append(gap / (log(1.0 / q) / q))
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    report(
        7,
        in_bracket and decreasing,
        f"-p ln P / ln^2(1/p) = {value:.6f} in [0.165, 0.168] at p=1e-12; "
        f"normalised sum-vs-closed gap strictly decreasing: {[f'{g:.2e}' for g in gaps]}",
    )


def test_criterion_08_inversion_round_trip():
    start = time.monotonic()
    worst = 0.0
    for model in (ScalingModel.of("12"), ScalingModel.custom(1.0, 0.0)):
        for p in np.logspace(-8, -2, 50):
            got = invert_numeric(critical_log_volume(model, p), model)
            worst = max(worst, abs(got - p) / p)
    elapsed = time.monotonic() - start
    report(
        8,
        worst <= 1e-10 and elapsed < 1.0,
        f"round-trip worst relative error {worst:.2e} <= 1e-10 over 2x50 points "
        f"in {elapsed * 1000:.0f}ms (< 1s)",
    )


def test_criterion_09_expansion_consistency():
    model = ScalingModel.of("12")
    grid_v = (1e4, 1e6, 1e8, 1e12)
    rel = []
    for ln_v in grid_v:
        exact = invert_numeric(ln_v, model)
        rel.append(abs(exact - pc_expansion(ln_v, model).total) / exact)
    decreasing = all(b < a for a, b in zip(rel, rel[1:]))
    a = pc_expansion(1e8, ScalingModel.custom(model.C, -0.25))
    b = pc_expansion(1e8, ScalingModel.custom(model.C, +0.40))
    independent = a.term1 == b.term1 and a.term2 == b.term2
    report(
        9,
        decreasing and independent,
        f"expansion relative error strictly decreasing {[f'{r:.3f}' for r in rel]}; "
        f"term1/term2 independent of C'",
    )


def test_criterion_10_bracketing_chains():
    model = ScalingModel.of("12")
    eps = [bracketing_epsilon(p, model) for p in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8)]
    finite = all(np.isfinite(eps))
    decreasing = all(b < a for a, b in zip(eps, eps[1:]))
    report(
        10,
        finite and decreasing,
        f"bracketing chains hold with eps(p) decreasing from {eps[0]:.4f} (p=1e-4) "
        f"to {eps[-1]:.4f} (p=1e-8)",
    )


def test_criterion_11_anisotropic_constant():
    ok = anisotropic_constant(2) == Fraction(1, 6) and anisotropic_constant(3) == Fraction(1, 2)
    report(11, ok, "anisotropic constant: b=2 -> 1/6 exactly, b=3 -> 1/2 exactly")


def test_criterion_12_determinism_and_performance():
    import contextlib
    import io

    args = ["pc", "--rule", "standard2", "--L", "16", "--trials", "2000", "--seed", "7",
            "--tol", "0.005"]
    outputs = []
    for extra in ([], [], ["--threads", "4"], ["--threads", "8"]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(args + extra)
        assert code == 0
        outputs.append([ln for ln in buf.getvalue().splitlines() if not ln.startswith("#")])
    assert len(outputs[0]) == 2  # header plus one data row
    identical = all(o == outputs[0] for o in outputs[1:])

    grid = GridSpec((4096, 4096))
    cfg = random_configuration(grid, 0.05, Stream(1212))
    rule = make_rule(RuleFamily.one_two())
    start = time.monotonic()
    closure_fast(cfg, rule)
    elapsed = time.monotonic() - start

    report(
        12,
        identical and elapsed < 5.0,
        f"CSV data rows byte-identical across repeat runs and --threads 1/4/8; "
        f"closure_fast on 4096x4096 at p=0.05 took {elapsed:.2f}s (< 5s)",
    )
