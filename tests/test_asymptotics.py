from fractions import Fraction
from math import e, exp, floor, fsum, inf, log, nan

import numpy as np
import pytest

from bootgrid import (
    RuleFamily,
    ScalingModel,
    anisotropic_constant,
    critical_log_volume,
    epsilon_window,
    leading_pc,
    make_rule,
    nucleation_closed_terms,
    nucleation_log_prob_closed,
    nucleation_log_prob_sum,
    strategy_range,
)
from bootgrid.asymptotics import ONE_TWO_CPRIME


def loop_log_prob(p: float, n_hi: int) -> float:
    """Term-by-term oracle for the stage product log, exact summation."""
    per = log(8.0 * p / (3.0 * e))
    return fsum(per + 3.0 * p * n for n in range(1, n_hi + 1))


class TestStrategyRange:
    def test_p_tenth_is_empty(self):
        sr = strategy_range(0.1)
        assert sr.n0 == pytest.approx(16.68, abs=0.05)
        assert sr.nf == pytest.approx(7.68, abs=0.05)
        assert sr.is_empty

    def test_small_p_nonempty(self):
        sr = strategy_range(1e-10)
        assert not sr.is_empty
        assert sr.n_lo <= sr.n_hi

    def test_integer_bounds(self):
        sr = strategy_range(1e-10)
        assert sr.n_lo == -(-sr.n0 // 1) and sr.n_hi == sr.nf // 1

    def test_domain_edges_rejected(self):
        for bad in (0.0, 1.0 / e, 0.4, 1.0, -0.1):
            with pytest.raises(ValueError):
                strategy_range(bad)


class TestNucleationSum:
    def test_single_stage(self):
        p = 1e-3
        for n in (1, 5, 1000):
            got = nucleation_log_prob_sum(p, n_lo=n, n_hi=n)
            assert got == pytest.approx(log(8 * p / (3 * e)) + 3 * n * p, rel=1e-14)

    def test_matches_loop_oracle(self):
        p = 1e-6
        n_hi = strategy_range(p).n_hi
        assert n_hi <= 10**7
        got = nucleation_log_prob_sum(p)
        want = loop_log_prob(p, n_hi)
        assert abs(got - want) <= 1e-9 * abs(want)

    def test_explicit_range_matches_loop(self):
        p = 1e-4
        got = nucleation_log_prob_sum(p, n_lo=100, n_hi=5000)
        per = log(8 * p / (3 * e))
        want = fsum(per + 3 * p * n for n in range(100, 5001))
        assert got == pytest.approx(want, rel=1e-12)

    def test_leading_constant_at_1e12(self):
        p = 1e-12
        value = -p * nucleation_log_prob_sum(p) / log(1.0 / p) ** 2
        assert value == pytest.approx(1.0 / 6.0, rel=0.01)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            nucleation_log_prob_sum(1e-4, n_lo=10, n_hi=5)

    def test_domain(self):
        with pytest.raises(ValueError):
            nucleation_log_prob_sum(0.5)
        with pytest.raises(ValueError):
            nucleation_log_prob_sum(0.0)


class TestNucleationClosed:
    def test_terms_at_1e6(self):
        p = 1e-6
        l = 6 * log(10.0)
        leading, second = nucleation_closed_terms(p)
        assert leading == pytest.approx(-(1 / 6) * 1e6 * l**2, rel=1e-12)
        assert second == pytest.approx((1 / 3) * log(8 / (3 * e)) * 1e6 * l, rel=1e-12)

    def test_negative_for_small_p(self):
        for p in (1e-2, 1e-3, 1e-6, 1e-10):
            assert nucleation_log_prob_closed(p) < 0.0

    def test_gap_to_sum_shrinks_normalised(self):
        gaps = []
        for p in (1e-4, 1e-6, 1e-8, 1e-10):
            gap = abs(nucleation_log_prob_sum(p) - nucleation_log_prob_closed(p))
            gaps.append(gap / (log(1.0 / p) / p))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))


class TestCriticalLogVolume:
    def test_simple_arithmetic(self):
        model = ScalingModel.custom(1.0, 0.0)
        assert critical_log_volume(model, exp(-10.0)) == pytest.approx(100.0 * exp(10.0), rel=1e-12)

    def test_is_negated_closed_form_for_one_two(self):
        model = ScalingModel.of("12")
        for p in (1e-3, 1e-5, 1e-9):
            assert critical_log_volume(model, p) == pytest.approx(
                -nucleation_log_prob_closed(p), rel=1e-13
            )

    def test_strictly_decreasing_in_p(self):
        model = ScalingModel.of("12")
        ps = np.logspace(-10, np.log10(e**-2), 200)
        values = [critical_log_volume(model, p) for p in ps]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_domain(self):
        model = ScalingModel.of("12")
        with pytest.raises(ValueError):
            critical_log_volume(model, 0.2)
        with pytest.raises(ValueError):
            critical_log_volume(model, 0.0)


class TestScalingModel:
    def test_one_two_coefficients(self):
        m = ScalingModel.of("12")
        assert m.C == pytest.approx(1 / 6)
        assert m.Cprime == pytest.approx(log(3 * e / 8) / 3)

    def test_positive_c_required(self):
        with pytest.raises(ValueError):
            ScalingModel.custom(0.0, 0.1)
        with pytest.raises(ValueError):
            ScalingModel.of("1b:1")

    @pytest.mark.parametrize(
        "c, cprime", [(inf, 0.0), (1.0, nan), (1.0, inf), (1.0, -inf), (nan, 0.0)]
    )
    def test_non_finite_coefficients_refused(self, c, cprime):
        with pytest.raises(ValueError):
            ScalingModel.custom(c, cprime)

    def test_one_b3(self):
        assert ScalingModel.of("1b:3").C == pytest.approx(0.5)

    def test_one_two_leading_constant_is_one_sixth(self):
        # The double that the (1,2) rows have always been computed with.
        assert ScalingModel.of("12").C == 1.0 / 6.0

    @pytest.mark.parametrize("b", [2, 3, 5, 64, 10**6])
    def test_of_one_b(self, b):
        model = ScalingModel.of(f"1b:{b}")
        assert model.C == float(Fraction((b - 1) ** 2, 2 * (b + 1)))
        assert model.Cprime == (ONE_TWO_CPRIME if b == 2 else 0.0)

    @pytest.mark.parametrize("name", ["standard2", "standard3", "1b:1", "duarte", "abc:1,1,2"])
    def test_of_refuses_families_without_coefficients(self, name):
        with pytest.raises(ValueError, match=f"for family {name!r}"):
            ScalingModel.of(name)


class TestLeadingPc:
    def test_one_two_form(self):
        ln_v = exp(10.0)
        assert leading_pc(RuleFamily.one_two(), ln_v) == pytest.approx(
            (1 / 6) * 100.0 / exp(10.0), rel=1e-12
        )

    def test_standard2_with_unit_constant(self):
        assert leading_pc(RuleFamily.standard(2), 1e6, C=1.0) == pytest.approx(1e-6)

    def test_standard3_uses_double_log(self):
        assert leading_pc(RuleFamily.standard(3), 1e6, C=1.0) == pytest.approx(1 / log(1e6))

    def test_one_b3_to_one_two_ratio(self):
        ln_v = exp(10.0)
        ratio = leading_pc("1b:3", ln_v) / leading_pc("12", ln_v)
        assert ratio == pytest.approx(3.0, rel=1e-12)

    def test_standard_requires_constant(self):
        with pytest.raises(ValueError):
            leading_pc(RuleFamily.standard(2), 1e6)

    def test_unsupported_family(self):
        with pytest.raises(ValueError):
            leading_pc(RuleFamily.duarte(), 1e6)

    def test_domain(self):
        with pytest.raises(ValueError):
            leading_pc(RuleFamily.one_two(), 2.0)

    @pytest.mark.parametrize("name", ["12", "standard2"])
    @pytest.mark.parametrize("ln_v", [inf, nan])
    def test_refuses_ln_v_not_finite(self, name, ln_v):
        with pytest.raises(ValueError, match="ln V"):
            leading_pc(name, ln_v, C=1.0)

    @pytest.mark.parametrize("c", [inf, nan])
    def test_supplied_constant_must_be_finite(self, c):
        with pytest.raises(ValueError):
            leading_pc("12", 1e6, C=c)

    @pytest.mark.parametrize("name", ["12", "1b:3", "standard2", "standard3"])
    @pytest.mark.parametrize("c", [0.0, -1.0])
    def test_supplied_constant_must_be_positive(self, name, c):
        with pytest.raises(ValueError, match="must be positive"):
            leading_pc(name, 1e6, C=c)

    def test_error_names_the_family_as_spelled(self):
        with pytest.raises(ValueError, match="family '1b:1' needs an explicit leading constant"):
            leading_pc("1b:1", 1e6)


class TestAnisotropicConstant:
    def test_exact_values(self):
        assert anisotropic_constant(2) == Fraction(1, 6)
        assert anisotropic_constant(3) == Fraction(1, 2)
        assert anisotropic_constant(1) == 0

    def test_domain(self):
        with pytest.raises(ValueError):
            anisotropic_constant(0)


class TestEpsilonWindow:
    def test_standard_arithmetic(self):
        ln_v = exp(10.0)
        assert epsilon_window("standard2", ln_v) == pytest.approx(10.0 / exp(20.0), rel=1e-12)

    def test_anisotropic_ratio(self):
        ln_v = 1e8
        ratio = epsilon_window("12", ln_v) / epsilon_window("standard2", ln_v)
        assert ratio == pytest.approx(log(ln_v) ** 2, rel=1e-12)

    def test_window_below_leading_term(self):
        # statistical window shrinks relative to the leading threshold
        ratios = []
        for ln_v in (1e3, 1e5, 1e8, 1e12):
            ratios.append(epsilon_window("12", ln_v) / leading_pc("12", ln_v))
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1e-9

    def test_prefactor_scales(self):
        assert epsilon_window("standard2", 1e6, prefactor=3.0) == pytest.approx(
            3.0 * epsilon_window("standard2", 1e6), rel=1e-12
        )

    def test_refuses_ln_v_at_most_e(self):
        with pytest.raises(ValueError, match=r"need ln V > e, got 2\.0"):
            epsilon_window("12", 2.0)

    @pytest.mark.parametrize("ln_v", [inf, nan])
    def test_refuses_ln_v_not_finite(self, ln_v):
        with pytest.raises(ValueError, match="ln V"):
            epsilon_window("12", ln_v)

    @pytest.mark.parametrize("prefactor", [-1.0, 0.0, -0.0, inf, nan])
    def test_refuses_prefactor_not_positive_and_finite(self, prefactor):
        # -1.0 used to give a negative width, -0.0098 at ln V = 100
        with pytest.raises(ValueError, match="prefactor must be positive and finite"):
            epsilon_window("12", 100.0, prefactor=prefactor)

    def test_unsupported_family(self):
        with pytest.raises(ValueError):
            epsilon_window("standard3", 1e6)


def outcome(law, family):
    """``law(family)``, or ValueError when it refuses."""
    try:
        return law(family)
    except ValueError:
        return ValueError


# Both names of each pair build the same stencil.
SAME_RULE_PAIRS = [("12", "1b:2"), ("standard2", "1b:1")]
LAWS = {
    "model": ScalingModel.of,
    **{
        f"leading_pc_{ln_v:g}": (lambda f, ln_v=ln_v: leading_pc(f, ln_v))
        for ln_v in (50.0, 1e6, 1e12)
    },
    **{
        f"leading_pc_C{c}_{ln_v:g}": (lambda f, c=c, ln_v=ln_v: leading_pc(f, ln_v, C=c))
        for c in (0.3, 0.55)
        for ln_v in (50.0, 1e6, 1e12)
    },
    **{
        f"window_{ln_v:g}": (lambda f, ln_v=ln_v: epsilon_window(f, ln_v, prefactor=2.5))
        for ln_v in (50.0, 1e6, 1e12)
    },
}


class TestOneRuleOneSetOfLaws:
    @pytest.mark.parametrize("law", list(LAWS))
    @pytest.mark.parametrize("a, b", SAME_RULE_PAIRS)
    def test_pair_gets_one_answer(self, a, b, law):
        assert make_rule(RuleFamily.parse(a)) == make_rule(RuleFamily.parse(b))
        assert outcome(LAWS[law], a) == outcome(LAWS[law], b)

    @pytest.mark.parametrize("a, b", SAME_RULE_PAIRS)
    def test_pair_has_laws(self, a, b):
        # The comparison above is not vacuous: each pair has some law.
        answers = [outcome(law, a) for law in LAWS.values()]
        assert any(answer is not ValueError for answer in answers)


class TestFinalStage:
    @pytest.mark.parametrize("p", [1e-2, 1e-4, 1e-6, 1e-10, 0.3])
    def test_floor_of_nf(self, p):
        assert strategy_range(p).n_hi == floor(log(1.0 / p) / (3.0 * p))

    @pytest.mark.parametrize("p", [0.0, 1.0 / e, 0.5])
    def test_domain(self, p):
        with pytest.raises(ValueError):
            strategy_range(p).n_hi
