from fractions import Fraction
from math import comb, e

import numpy as np
import pytest

from bootgrid import (
    GridSpec,
    GrowthEventSpec,
    Rect,
    RuleFamily,
    Stream,
    closure_batch,
    closure_naive,
    column_growth_polynomial,
    empty_configuration,
    estimate_growth_mc,
    horizontal_step_probability,
    make_rule,
    occupy_rect,
    row_growth_polynomial,
    strategy_range,
)
from bootgrid.growth import COUNT_MAX_SIZE, growth_polynomial, growth_success_counts
from bootgrid.montecarlo import subset_success_counts

ONE_TWO = make_rule(RuleFamily.one_two())


def column_event_by_closure(n: int, helper_bits: int) -> bool:
    """Full-grid oracle: 2 x n rectangle plus helper column, real closure."""
    grid = GridSpec((3, n))
    cfg = occupy_rect(empty_configuration(grid), Rect((0, 0), (2, n)))
    for y in range(n):
        if (helper_bits >> y) & 1:
            cfg = occupy_rect(cfg, Rect((2, y), (1, 1)))
    closed = closure_naive(cfg, ONE_TWO)
    return all(closed.get((2, y)) for y in range(n))


def row_event_by_closure(x: int, helper_bits: int) -> bool:
    """Full-grid oracle: x-wide, 2-tall rectangle plus two helper rows."""
    grid = GridSpec((x, 4))
    cfg = occupy_rect(empty_configuration(grid), Rect((0, 0), (x, 2)))
    for h in range(2 * x):
        if (helper_bits >> h) & 1:
            cfg = occupy_rect(cfg, Rect((h % x, 2 + h // x), (1, 1)))
    closed = closure_naive(cfg, ONE_TWO)
    return all(closed.get((c, 2)) for c in range(x))


def row_events_by_batch_closure(x: int) -> np.ndarray:
    """Batch oracle on the geometry of :func:`row_event_by_closure`: entry
    ``bits`` is the event for every one of the 2^(2x) helper configurations."""
    bits = np.arange(1 << (2 * x))
    occ = np.zeros((bits.size, 4, x), dtype=bool)  # [config, y, x]
    occ[:, :2, :] = True
    for h in range(2 * x):
        occ[:, 2 + h // x, h % x] = (bits >> h) & 1
    return closure_batch(occ, ONE_TWO)[:, 2, :].all(axis=1)


def polynomial_from_oracle(event, cells: int):
    counts = [0] * (cells + 1)
    for bits in range(1 << cells):
        if event(bits):
            counts[bin(bits).count("1")] += 1
    return polynomial_from_counts(counts)


def polynomial_from_counts(counts):
    cells = len(counts) - 1
    coeffs = [0] * (cells + 1)
    for k, ck in enumerate(counts):
        for j in range(cells - k + 1):
            coeffs[k + j] += ck * comb(cells - k, j) * (-1) ** j
    return [Fraction(c) for c in coeffs]


class TestEventSpec:
    def test_helper_depth(self):
        assert GrowthEventSpec("east_column", 5).helper_cells == 5
        assert GrowthEventSpec("north_rows", 5).helper_cells == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            GrowthEventSpec("west_column", 3)
        with pytest.raises(ValueError):
            GrowthEventSpec("east_column", 0)


class TestColumnPolynomial:
    def test_n1_is_p(self):
        poly = column_growth_polynomial(1)
        assert list(poly.coeffs) == [0, 1]

    def test_n3_at_half(self):
        assert column_growth_polynomial(3).evaluate(0.5) == pytest.approx(0.875, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_matches_one_minus_qn(self, n):
        # coefficient-level identity with the binomial expansion of 1-(1-p)^n
        poly = column_growth_polynomial(n)
        expect = [Fraction(0)] + [Fraction((-1) ** (j + 1) * comb(n, j)) for j in range(1, n + 1)]
        assert list(poly.coeffs) == expect

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_matches_full_grid_closure_oracle(self, n):
        got = column_growth_polynomial(n)
        want = polynomial_from_oracle(lambda bits: column_event_by_closure(n, bits), n)
        assert list(got.coeffs) == want

    def test_cost_guard(self):
        with pytest.raises(ValueError):
            column_growth_polynomial(21)


class TestRowPolynomial:
    def test_x1_is_p(self):
        poly = row_growth_polynomial(1)
        assert list(poly.coeffs) == [0, 1, 0]

    @pytest.mark.parametrize("x", [1, 2, 3, 4])
    def test_matches_full_grid_closure_oracle(self, x):
        got = row_growth_polynomial(x)
        want = polynomial_from_oracle(lambda bits: row_event_by_closure(x, bits), 2 * x)
        assert list(got.coeffs) == want

    def test_x8_matches_batch_closure_oracle(self):
        # 2^16 helper configurations: several enumeration blocks.
        events = row_events_by_batch_closure(8)
        counts = np.bincount([bin(b).count("1") for b in np.flatnonzero(events)], minlength=17)
        assert list(row_growth_polynomial(8).coeffs) == polynomial_from_counts(counts.tolist())

    def test_batch_oracle_agrees_with_naive_oracle(self):
        events = row_events_by_batch_closure(3)
        assert events.tolist() == [row_event_by_closure(3, b) for b in range(1 << 6)]

    def test_empty_helpers_never_fill(self):
        for x in range(1, 5):
            assert not row_event_by_closure(x, 0)

    def test_p2_coefficient_nondecreasing_in_x(self):
        c2 = [row_growth_polynomial(x).coefficient(2) for x in range(2, 9)]
        assert all(b >= a for a, b in zip(c2, c2[1:]))

    @pytest.mark.parametrize(
        "x, counts",
        [
            (11, [0, 0, 72, 1002, 6285, 25146, 73744, 170072, 319571, 497361, 646635, 705431,
                  646646, 497420, 319770, 170544, 74613, 26334, 7315, 1540, 231, 22, 1]),
            (12, [0, 0, 80, 1262, 8926, 40162, 132516, 344782, 734800, 1307246, 1961186,
                  2496132, 2704155, 2496144, 1961256, 1307504, 735471, 346104, 134596, 42504,
                  10626, 2024, 276, 24, 1]),
        ],
    )
    def test_success_counts_at_the_width_cap(self, x, counts):
        # Counts of the enumeration that closed every one of the 2^(2x)
        # helper configurations.
        grid, helpers, targets = GrowthEventSpec("north_rows", x).layout()
        assert subset_success_counts(ONE_TWO, grid, helpers, targets).tolist() == counts
        assert list(row_growth_polynomial(x).coeffs) == polynomial_from_counts(counts)

    def test_cost_guard(self):
        with pytest.raises(ValueError):
            row_growth_polynomial(13)


class TestGrowthPolynomial:
    """The one exact path behind both wrappers."""

    @pytest.mark.parametrize(
        "direction, size, wrapper",
        [("east_column", n, column_growth_polynomial) for n in range(1, 21)]
        + [("north_rows", x, row_growth_polynomial) for x in range(1, 13)],
    )
    def test_equals_the_wrapper(self, direction, size, wrapper):
        assert growth_polynomial(GrowthEventSpec(direction, size)) == wrapper(size)

    @pytest.mark.parametrize("direction, size", [("east_column", 21), ("north_rows", 13)])
    def test_refuses_a_size_above_the_cap_before_enumerating(self, monkeypatch, direction, size):
        def count_anyway(*args, **kwargs):
            raise AssertionError("counted above the cap")

        monkeypatch.setattr("bootgrid.growth.growth_success_counts", count_anyway)
        with pytest.raises(
            ValueError, match=f"{direction} exact probabilities support size <= {size - 1}"
        ):
            growth_polynomial(GrowthEventSpec(direction, size))

    def test_coefficients_are_integers(self):
        for poly in (column_growth_polynomial(5), row_growth_polynomial(6)):
            assert all(type(c) is int for c in poly.coeffs)
            assert type(poly.coefficient(len(poly.coeffs))) is int

    @pytest.mark.parametrize(
        "p, value", [(0.05, "0.11820321686374342"), (0.1, "0.3459426013844376"),
                     (0.2, "0.7402500426451281")],
    )
    def test_north_rows_10_values_are_pinned(self, p, value):
        # The exact values of the benchmark's seed-0 growth_exact run
        # (north_rows 10), which its recorded output digests hold.  They
        # change only when those digests are re-recorded.
        assert repr(row_growth_polynomial(10).evaluate(p)) == value


def enumerated_counts(spec: GrowthEventSpec, rule=ONE_TWO) -> list[int]:
    """The counts of closing every helper configuration of the event."""
    grid, helpers, targets = spec.layout()
    return subset_success_counts(rule, grid, helpers, targets).tolist()


class TestColumnAutomatonCounts:
    """growth_success_counts against the enumeration of every helper
    configuration, including sizes above the caps of growth_polynomial."""

    @pytest.mark.parametrize("x", range(1, 15))
    def test_north_rows_equal_the_enumeration(self, x):
        spec = GrowthEventSpec("north_rows", x)
        assert growth_success_counts(spec) == enumerated_counts(spec)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_east_column_equals_the_enumeration(self, n):
        spec = GrowthEventSpec("east_column", n)
        assert growth_success_counts(spec) == enumerated_counts(spec)

    @pytest.mark.parametrize("family", ["1b:1", "1b:3", "duarte"])
    @pytest.mark.parametrize("x", range(1, 10))
    def test_other_threshold_rules_on_the_north_rows_layout(self, family, x):
        rule = make_rule(RuleFamily.parse(family))
        spec = GrowthEventSpec("north_rows", x)
        assert growth_success_counts(spec, rule) == enumerated_counts(spec, rule)

    def test_refuses_a_rule_reaching_too_far_along_the_strip(self):
        # 1b:5 reaches 5 cross-sections along x: 4^0 + ... + 4^5 = 1365
        # contents on north_rows, refused before the automaton is built.
        rule = make_rule(RuleFamily.parse("1b:5"))
        with pytest.raises(ValueError, match="north_rows .* reach 5 along the strip has 1365"):
            growth_success_counts(GrowthEventSpec("north_rows", 3), rule)
        # Along y it reaches 1 cross-section, 3 contents, so east_column counts.
        for n in range(1, 10):
            spec = GrowthEventSpec("east_column", n)
            assert growth_success_counts(spec, rule) == enumerated_counts(spec, rule)

    @pytest.mark.parametrize("family", ["modified2", "abc:1,1,1"])
    def test_refuses_a_rule_that_is_not_a_2d_threshold_rule(self, family):
        rule = make_rule(RuleFamily.parse(family))
        with pytest.raises(ValueError, match="growth events take a 2-dimensional threshold rule"):
            growth_success_counts(GrowthEventSpec("north_rows", 3), rule)

    def test_one_and_two_helpers_in_closed_form(self):
        """Rule 12, ``north_rows`` of width x: with one helper no
        configuration fills row 1 (x >= 2); with two, 8x - 16 do (x >= 4).

        Ignition: two occupied row-1 cells at most 4 apart fill row 1.  A
        row-1 cell has the occupied row 0 below it, so it fills once two
        occupied row-1 cells lie within distance 2 of it.  A pair 3 or 4
        apart so fills a cell between them, leaving gaps of at most 2; a
        pair 2 apart fills the cell between; an adjacent pair fills the
        cells next to it on both sides, and so on to both ends of the row.
        Before ignition no row-1 cell can fill without making such a pair:
        row 0 and the row-2 cell above give it at most two neighbours, so
        the third must be an occupied row-1 cell within distance 2.

        One helper never fills row 1: an empty row-1 cell sees row 0 and
        at most that helper, and a row-2 cell, on the grid's top row, sees
        only its row-1 cell below and row-2 cells.  Two helpers fill it exactly when
        they are a row-1 pair at distance 1 to 4, 4x - 10 pairs (x - d at
        distance d), or a row-1 helper and a row-2 helper at horizontal
        distance 1 or 2, 4x - 6 placements (2(x - 1) + 2(x - 2)), where the
        row-1 cell below the row-2 helper has three occupied neighbours.
        Any other pair leaves every empty cell at most two occupied
        neighbours.
        """
        for x in range(2, 65):
            counts = growth_success_counts(GrowthEventSpec("north_rows", x))
            assert counts[1] == 0
            if x >= 4:
                assert counts[2] == (4 * x - 10) + (4 * x - 6) == 8 * x - 16

    def test_counts_up_to_the_size_bound_and_refuses_past_it(self):
        counts = growth_success_counts(GrowthEventSpec("north_rows", COUNT_MAX_SIZE))
        assert counts[2] == 8 * COUNT_MAX_SIZE - 16
        assert counts[-2:] == [2 * COUNT_MAX_SIZE, 1]  # all helpers, or all but one
        with pytest.raises(ValueError, match=f"growth counts support size <= {COUNT_MAX_SIZE}"):
            growth_success_counts(GrowthEventSpec("north_rows", COUNT_MAX_SIZE + 1))


class TestPolynomialShape:
    @pytest.mark.parametrize(
        "poly",
        [column_growth_polynomial(6), row_growth_polynomial(5)],
        ids=["column6", "row5"],
    )
    def test_values_in_unit_interval_and_monotone(self, poly):
        grid = [i / 40 for i in range(41)]
        values = [poly.evaluate(p) for p in grid]
        assert all(-1e-12 <= v <= 1.0 + 1e-12 for v in values)
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_exact_evaluation(self):
        poly = column_growth_polynomial(4)
        assert poly.evaluate_exact(Fraction(1, 2)) == 1 - Fraction(1, 2) ** 4


class TestGrowthMonteCarlo:
    def test_east_column_against_closed_form(self):
        est = estimate_growth_mc(GrowthEventSpec("east_column", 4), 0.2, 100_000, seed=5)
        expect = 1.0 - 0.8**4
        assert abs(est.mean - expect) <= 3.0 * est.stderr

    def test_north_rows_against_enumeration(self):
        poly = row_growth_polynomial(6)
        est = estimate_growth_mc(GrowthEventSpec("north_rows", 6), 0.1, 50_000, seed=6)
        assert abs(est.mean - poly.evaluate(0.1)) <= 3.0 * est.stderr

    def test_p_zero(self):
        est = estimate_growth_mc(GrowthEventSpec("north_rows", 4), 0.0, 500, seed=1)
        assert est.mean == 0.0 and est.stderr == 0.0

    def test_p_one(self):
        est = estimate_growth_mc(GrowthEventSpec("east_column", 4), 1.0, 500, seed=1)
        assert est.mean == 1.0

    def test_deterministic(self):
        spec = GrowthEventSpec("north_rows", 5)
        a = estimate_growth_mc(spec, 0.15, 3000, seed=9)
        b = estimate_growth_mc(spec, 0.15, 3000, seed=9)
        assert a == b

    def test_bad_p(self):
        with pytest.raises(ValueError):
            estimate_growth_mc(GrowthEventSpec("east_column", 3), 1.2, 10, seed=0)

    def test_draw_in_several_parts_matches_one_draw(self):
        # 20 helpers: uniforms are drawn 3276 trials at a time, so 7000
        # trials take three draws.  The column fills exactly when some
        # helper is occupied.
        from bootgrid.growth import _STREAM_DOMAIN

        est = estimate_growth_mc(GrowthEventSpec("east_column", 20), 0.01, 7000, seed=3)
        occupied = Stream((3, _STREAM_DOMAIN)).uniform_block(0, 7000, 20) < 0.01
        assert 0 < est.mean < 1
        assert est.mean == occupied.any(axis=1).sum() / 7000


class TestHorizontalStepProbability:
    def test_near_einv_at_strategy_start(self):
        p = 1e-3
        n = -(-strategy_range(p).n0 // 1)  # ceil
        value = horizontal_step_probability(p, n)
        assert 0.2 <= value <= 0.5

    def test_limit_one_over_e(self):
        p = 1e-6
        n = int(strategy_range(p).n0) + 1
        value = horizontal_step_probability(p, n)
        assert abs(value - 1.0 / e) / (1.0 / e) < 0.01

    def test_tiny_n_tiny_p_near_zero(self):
        assert horizontal_step_probability(1e-8, 1) < 1e-6

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            horizontal_step_probability(0.5, 5000)

    def test_domain(self):
        with pytest.raises(ValueError):
            horizontal_step_probability(0.0, 5)
        with pytest.raises(ValueError):
            horizontal_step_probability(0.3, 0)
