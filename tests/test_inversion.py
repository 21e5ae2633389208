from math import e, exp, inf, log, nan

import numpy as np
import pytest

from bootgrid import (
    ScalingModel,
    bracketing_epsilon,
    critical_log_volume,
    expansion_residual,
    invert_numeric,
    pc_expansion,
)
from bootgrid.asymptotics import REMAINDER_ORDER

ONE_TWO = ScalingModel.of("12")
PLAIN = ScalingModel(1.0, 0.0)


class TestInvertNumeric:
    @pytest.mark.parametrize("model", [ONE_TWO, PLAIN], ids=["one_two", "C1"])
    def test_round_trip_50_points(self, model):
        for p in np.logspace(-8, -2, 50):
            ln_v = critical_log_volume(model, p)
            got = invert_numeric(ln_v, model)
            assert abs(got - p) / p <= 1e-10

    def test_forward_map_example(self):
        ln_v = 100.0 * exp(10.0)
        got = invert_numeric(ln_v, PLAIN)
        assert abs(got - exp(-10.0)) / exp(-10.0) <= 1e-10

    def test_round_trip_through_forward(self):
        p = 1e-4
        assert invert_numeric(critical_log_volume(ONE_TWO, p), ONE_TWO) == pytest.approx(
            p, rel=1e-10
        )

    def test_strictly_decreasing_in_lnv(self):
        values = [invert_numeric(lv, ONE_TWO) for lv in np.logspace(2, 14, 40)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_below_domain_rejected(self):
        floor_value = critical_log_volume(ONE_TWO, e**-2)
        with pytest.raises(ValueError):
            invert_numeric(floor_value * 0.5, ONE_TWO)

    @pytest.mark.parametrize("ln_v", [1e306, 1e308])
    def test_root_below_1e_300_round_trips(self, ln_v):
        # the roots, about 8.0e-302 and 8.1e-304, are normal floats
        got = invert_numeric(ln_v, ONE_TWO)
        assert got < 1e-300
        assert critical_log_volume(ONE_TWO, got) == pytest.approx(ln_v, rel=1e-9)

    def test_refuses_a_root_below_the_normal_floats(self):
        with pytest.raises(ValueError, match="root lies below the smallest normal float"):
            invert_numeric(1e25, ScalingModel(1e-300, 0.0))

    @pytest.mark.parametrize("ln_v", [nan, inf, -inf])
    def test_refuses_ln_v_not_finite(self, ln_v):
        with pytest.raises(ValueError, match=f"ln V must be finite, got {ln_v}"):
            invert_numeric(ln_v, ONE_TWO)

    def test_boundary_root(self):
        floor_value = critical_log_volume(ONE_TWO, e**-2)
        assert invert_numeric(floor_value, ONE_TWO) == pytest.approx(e**-2, rel=1e-12)


def test_refuses_ln_v_at_or_below_the_edge_where_ln_v_c_is_not_monotone():
    # With 8C + 3C' < 0, ln V_c falls below its value at exp(-2) before it
    # rises, so an ln V at or below that value has no root or two: -15 has
    # two under C = 1, C' = -3 (8C + 3C' = -1).
    dip = ScalingModel(1.0, -3.0)
    edge = critical_log_volume(dip, e**-2)
    assert critical_log_volume(dip, e**-2.2) < -15.0 < edge < critical_log_volume(dip, e**-4)
    for ln_v in (-15.0, edge):
        with pytest.raises(ValueError, match=r"not monotone in p \(8C \+ 3C' = -1 < 0\)"):
            invert_numeric(ln_v, dip)
    # Above the edge value the root is unique, and answered.
    for ln_v in (-14.0, 1e6):
        got = invert_numeric(ln_v, dip)
        assert critical_log_volume(dip, got) == pytest.approx(ln_v, rel=1e-9)
    # At 8C + 3C' = 0 the slope in ln(1/p) vanishes at exp(-2) alone: ln V_c
    # still decreases strictly, and the edge value's one root is exp(-2).
    flat = ScalingModel(3.0, -8.0)
    assert invert_numeric(critical_log_volume(flat, e**-2), flat) == e**-2


class TestPcExpansion:
    def test_arithmetic_at_e_to_e2(self):
        ln_v = exp(exp(2.0))
        terms = pc_expansion(ln_v, PLAIN)
        assert terms.term1 == pytest.approx(exp(4.0) / ln_v, rel=1e-12)
        assert terms.term2 == pytest.approx(-8.0 * exp(2.0) / ln_v, rel=1e-12)
        assert terms.term3 == 0.0

    def test_term1_recovers_leading_constant(self):
        for ln_v in (1e5, 1e9):
            terms = pc_expansion(ln_v, ONE_TWO)
            assert terms.term1 * ln_v / log(ln_v) ** 2 == pytest.approx(ONE_TWO.C, rel=1e-12)

    def test_cprime_independence_of_first_two_terms(self):
        a = pc_expansion(1e8, ScalingModel(1 / 6, -0.3))
        b = pc_expansion(1e8, ScalingModel(1 / 6, +0.7))
        assert a.term1 == b.term1 and a.term2 == b.term2
        assert a.term3 != b.term3

    def test_term_ratio_identity(self):
        for ln_v in (1e4, 1e7, 1e13):
            terms = pc_expansion(ln_v, ONE_TWO)
            ll = log(ln_v)
            assert terms.term2 / terms.term1 == pytest.approx(-4.0 * log(ll) / ll, rel=1e-12)

    def test_total_is_term_sum(self):
        terms = pc_expansion(1e6, ONE_TWO)
        assert terms.total == pytest.approx(terms.term1 + terms.term2 + terms.term3, rel=1e-14)

    def test_total_positive_for_large_volumes(self):
        for ln_v in np.logspace(4, 16, 20):
            assert pc_expansion(ln_v, ONE_TWO).total > 0.0

    def test_remainder_descriptor(self):
        assert "ln" in REMAINDER_ORDER

    def test_domain(self):
        with pytest.raises(ValueError):
            pc_expansion(10.0, ONE_TWO)  # e^e is about 15.15

    @pytest.mark.parametrize("ln_v", [inf, nan])
    def test_refuses_ln_v_not_finite(self, ln_v):
        with pytest.raises(ValueError, match="ln V"):
            pc_expansion(ln_v, ONE_TWO)


class TestExpansionResidual:
    GRID = (1e4, 1e6, 1e8, 1e12)

    def test_bounded_on_reference_grid(self):
        for ln_v in self.GRID:
            exact, terms = invert_numeric(ln_v, ONE_TWO), pc_expansion(ln_v, ONE_TWO)
            assert abs(expansion_residual(ln_v, exact, terms)) <= 50.0

    def test_relative_error_decreases(self):
        rel = []
        for ln_v in self.GRID:
            exact = invert_numeric(ln_v, ONE_TWO)
            rel.append(abs(exact - pc_expansion(ln_v, ONE_TWO).total) / exact)
        assert all(b < a for a, b in zip(rel, rel[1:]))

    def test_extreme_volume_relative_error(self):
        ln_v = 1e16
        exact = invert_numeric(ln_v, PLAIN)
        assert abs(exact - pc_expansion(ln_v, PLAIN).total) / exact < 0.10


class TestBracketing:
    def test_passes_at_generous_epsilon(self):
        assert bracketing_epsilon(1e-6, ONE_TWO) <= 0.5

    def test_epsilon_shrinks_with_p(self):
        eps = [bracketing_epsilon(p, ONE_TWO) for p in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8)]
        assert all(b < a for a, b in zip(eps, eps[1:]))
        assert all(np.isfinite(eps))

    def test_fails_below_required_epsilon(self):
        needed = bracketing_epsilon(1e-6, ONE_TWO)
        assert not bracketing_epsilon(1e-6, ONE_TWO) <= needed * 0.9
        assert bracketing_epsilon(1e-6, ONE_TWO) <= needed * 1.1

    def test_log_chain_lower_bound(self):
        # ln(1/p) <= ln ln V follows from ln V >= 1/p
        for p in (1e-4, 1e-6, 1e-8):
            ln_v = critical_log_volume(ONE_TWO, p)
            assert ln_v >= 1.0 / p
            assert log(ln_v) >= log(1.0 / p)

    def test_inf_when_ln_v_is_below_one_over_p(self):
        # ln V = 0.01 ln^2(10) / 0.1 = 0.53, below 1/p = 10
        assert bracketing_epsilon(0.1, ScalingModel(0.01, 0.0)) == float("inf")

    def test_domain(self):
        with pytest.raises(ValueError):
            bracketing_epsilon(0.5, ONE_TWO)

    def test_first_lower_bound_decides_every_inf(self):
        # The chains' three epsilon-free lower bounds: the second and third
        # are logarithms of the first, so on random (p, C, C') they never
        # fail while it holds, and the first alone decides every inf.
        rng = np.random.default_rng(24)
        infinite = 0
        for p, c, cprime in zip(
            np.exp(rng.uniform(log(1e-12), -2.0, 20000)),
            np.exp(rng.uniform(log(1e-4), log(10.0), 20000)),
            rng.uniform(-3.0, 3.0, 20000),
        ):
            model = ScalingModel(float(c), float(cprime))
            ln_v = critical_log_volume(model, float(p))
            first = ln_v >= 1.0 / p
            if first:
                assert log(ln_v) >= log(1.0 / p)
                assert log(log(ln_v)) >= log(log(1.0 / p))
            assert (bracketing_epsilon(float(p), model) == inf) == (not first)
            infinite += not first
        assert 0 < infinite < 20000


class TestResultsOutsideFloatRange:
    @pytest.mark.parametrize("p", [1e-308, 1e-310])
    def test_bracketing_refuses_a_p_whose_ln_v_overflows(self, p):
        # inf would read as "the lower bounds fail"
        with pytest.raises(ValueError, match=f"ln V_c at p = {p}, .* outside the float range"):
            bracketing_epsilon(p, ONE_TWO)

    def test_invert_refuses_an_admissible_minimum_past_float_range(self):
        with pytest.raises(ValueError, match="C = 1e\\+308, .* outside the float range"):
            invert_numeric(1e6, ScalingModel(1e308, 0.0))

    def test_expansion_refuses_terms_past_float_range(self):
        # C ln ln V overflows on the way to term1
        model = ScalingModel(1e306, 0.0)
        with pytest.raises(ValueError, match="ln V = 1e\\+308, C = 1e\\+306, .* outside"):
            pc_expansion(1e308, model)

    def test_bisection_may_probe_past_float_range(self):
        # Probes below this root overflow the forward map and read as above
        # ln V, so the root is still found.
        model = ScalingModel(1e4, 0.0)
        assert invert_numeric(1e308, model) == 4.718610488459186e-299
        with pytest.raises(ValueError, match="outside the float range"):
            critical_log_volume(model, 1e-299)
