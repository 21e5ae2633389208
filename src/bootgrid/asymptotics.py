"""Closed-form scaling laws for nucleation and critical thresholds.

The anisotropic droplet strategy grows a rectangle through stages indexed
by height n; stage n succeeds with probability (8p/(3e)) * exp(3np).  The
log of the product of stage probabilities has the closed form

    -(1/(6p)) ln^2(1/p) + (1/3) ln(8/(3e)) (1/p) ln(1/p) + o((1/p) ln(1/p))

and the critical volume is its inverse: ln V_c = -(log nucleation
probability), i.e. ln V_c = (C/p) ln^2(1/p) + (C'/p) ln(1/p) with
C = 1/6 and C' = (1/3) ln(3e/8) for the (1,2) rule.  That C is the sharp
constant of Duminil-Copin & van Enter, Ann. Probab. 41 (2013): on the n x n
grid p_c ~ (ln ln n)^2 / (12 ln n), which is C ln^2 ln V / ln V at V = n^2.
Everything here is a pure function of its arguments.

The stage factor (8p/(3e)) exp(3np) equals 8 x p^2 / e exactly at the
width x = exp(3np)/(3p).  Under rule ``12``, 8 x p^2 leads the chance
that an x-wide rectangle absorbs its next row (the 8 of the
``north_rows`` event's two-helper count 8x - 16), and 1/e is about the
chance that its sideways growth survives one stage.  A rectangle's next
column is absorbed by a helper in any of the three columns past its
edge, so sideways growth stops only at three empty columns of height n
in a row, a run that starts at a given column with chance about
exp(-3np).  From width x_n to x_{n+1} the rectangle crosses about
exp(3np) columns, so the run turns up about once per stage.
``growth.horizontal_step_probability`` models a different stage:
columns absorbed only by their own helpers, at widths exp(np)/p.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import ceil, e, floor, inf, isfinite, log

from .rules import RuleFamily

# Second coefficient of ln V_c.  The stage product contributes
# +(1/3) ln(8/(3e)) to the log nucleation probability; inverting the
# volume (V_c = 1/P) negates it.
ONE_TWO_CPRIME = -log(8.0 / (3.0 * e)) / 3.0

# critical_log_volume is restricted to p <= exp(-2); with a negative C'
# the map can lose monotonicity nearer to p = 1, which would break inversion.
P_DOMAIN_MAX = e**-2


def _as_family(family: RuleFamily | str) -> RuleFamily:
    return family if isinstance(family, RuleFamily) else RuleFamily.parse(family)


# Family names that spell the rule of another family: equal stencils, so
# equal scaling laws.
_SAME_RULE = {
    RuleFamily.one_two(): RuleFamily.one_b(2),
    RuleFamily.one_b(1): RuleFamily.standard(2),
}


def _same_rule(family: RuleFamily) -> RuleFamily:
    """The family whose laws apply to ``family``'s rule."""
    return _SAME_RULE.get(family, family)


@dataclass(frozen=True)
class ScalingModel:
    """Coefficients (C, C') of ln V_c(p) for one rule family."""

    family: str
    C: float
    Cprime: float

    def __post_init__(self):
        if not self.C > 0.0:
            raise ValueError(f"leading coefficient C must be positive, got {self.C}")
        if not (isfinite(self.C) and isfinite(self.Cprime)):
            raise ValueError(f"C and C' must be finite, got {self.C} and {self.Cprime}")

    @staticmethod
    def of(family: RuleFamily | str) -> "ScalingModel":
        """The built-in coefficients of ``family``'s rule.  Only the (1,b)
        rules with b >= 2 have them: C = (b-1)^2 / (2(b+1)), and C' is known
        for (1,2) alone, 0.0 for every other b.  ``12`` is ``1b:2``; ``1b:1``
        is ``standard2``, which has none."""
        spelled = _as_family(family)
        fam = _same_rule(spelled)
        if fam.kind != "one_b":
            raise ValueError(f"no built-in scaling coefficients for family {spelled.name!r}")
        b = fam.params[0]
        return ScalingModel(
            fam.name, float(anisotropic_constant(b)), ONE_TWO_CPRIME if b == 2 else 0.0
        )

    @staticmethod
    def custom(c: float, cprime: float) -> "ScalingModel":
        return ScalingModel("custom", c, cprime)


@dataclass(frozen=True)
class StrategyRange:
    """Stage-height window of the droplet growth strategy."""

    n0: float
    nf: float

    @property
    def n_lo(self) -> int:
        return ceil(self.n0)

    @property
    def n_hi(self) -> int:
        return floor(self.nf)

    @property
    def is_empty(self) -> bool:
        return self.n_lo > self.n_hi


def strategy_range(p: float) -> StrategyRange:
    """Strategy stage bounds n0 = (2/p) ln ln (1/p), nf = (1/(3p)) ln(1/p).

    Requires 0 < p < 1/e so that ln ln (1/p) is defined and positive.  The
    window is empty unless p is quite small; the caller checks
    ``is_empty``.
    """
    ln_inv = _check_small_p(p)
    return StrategyRange(n0=2.0 / p * log(ln_inv), nf=ln_inv / (3.0 * p))


def _check_small_p(p: float) -> float:
    if not 0.0 < p < 1.0 / e:
        raise ValueError(f"p must lie in (0, 1/e), got {p}")
    return log(1.0 / p)


def nucleation_log_prob_sum(p: float, n_lo: int = 1, n_hi: int | None = None) -> float:
    """Log of prod_{n=n_lo}^{n_hi} (8p/(3e)) exp(3np), by the arithmetic-series
    identity: each stage contributes ln(8p/(3e)) + 3np.

    ``n_hi`` defaults to the strategy's final stage floor((1/(3p)) ln(1/p)).
    Summing from stage 1 reproduces the closed two-term form below up to
    O(ln(1/p)); starting at the strategy's n0 instead would leave an extra
    2 ln(1/p) ln ln(1/p) / p that the closed form books against the seed
    cost, so the default keeps sum and closed form directly comparable.
    """
    _check_small_p(p)
    if n_hi is None:
        n_hi = strategy_range(p).n_hi
    if n_lo > n_hi:
        raise ValueError(f"empty stage range [{n_lo}, {n_hi}] at p = {p}")
    count = n_hi - n_lo + 1
    per_stage = log(8.0 * p / (3.0 * e))
    return count * per_stage + 3.0 * p * (n_lo + n_hi) * count / 2.0


def nucleation_closed_terms(p: float) -> tuple[float, float]:
    """The two displayed terms of the closed form, (leading, second)."""
    ln_inv = _check_small_p(p)
    leading = -(ln_inv**2) / (6.0 * p)
    second = -ONE_TWO_CPRIME * ln_inv / p
    return leading, second


def nucleation_log_prob_closed(p: float) -> float:
    """-(1/(6p)) ln^2(1/p) + (1/3) ln(8/(3e)) (1/p) ln(1/p)."""
    leading, second = nucleation_closed_terms(p)
    return leading + second


def critical_log_volume(model: ScalingModel, p: float) -> float:
    """ln V_c(p) = (C/p) ln^2(1/p) + (C'/p) ln(1/p), for 0 < p <= exp(-2)."""
    if not 0.0 < p <= P_DOMAIN_MAX:
        raise ValueError(f"critical_log_volume needs 0 < p <= exp(-2), got {p}")
    ln_inv = log(1.0 / p)
    return (model.C * ln_inv**2 + model.Cprime * ln_inv) / p


def anisotropic_constant(b: int) -> Fraction:
    """Leading coefficient (b-1)^2 / (2(b+1)) of the (1,b) family, exact."""
    b = int(b)
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    return Fraction((b - 1) ** 2, 2 * (b + 1))


def _check_ln_v(ln_v: float, least: float = e, need: str = "need ln V > e") -> None:
    """Refuse an ln V at or below ``least`` (saying ``need``) or infinite."""
    if not ln_v > least:
        raise ValueError(f"{need}, got {ln_v}")
    if ln_v == inf:
        raise ValueError(f"ln V must be finite, got {ln_v}")


def _is_prefactor(prefactor: float) -> bool:
    """Whether ``prefactor`` may scale a window: positive and finite."""
    return 0.0 < prefactor < inf


# Leading-order p_c(V) of the standard families, from C and ln V.
_STANDARD_LAWS = {
    RuleFamily.standard(2): lambda c, ln_v: c / ln_v,
    RuleFamily.standard(3): lambda c, ln_v: c / log(ln_v),
}


def leading_pc(family: RuleFamily | str, ln_v: float, C: float | None = None) -> float:
    """Leading-order p_c(V) for a family, given ln V.

    standard d=2: C / ln V.  standard d=3: C / ln ln V.  The anisotropic
    (1,b) families: C ln^2 ln V / ln V with C from :meth:`ScalingModel.of`
    unless overridden.  For the standard families C must be supplied.  A
    supplied C must be positive, as a model's is.
    """
    spelled = _as_family(family)
    _check_ln_v(ln_v)
    standard_law = _STANDARD_LAWS.get(_same_rule(spelled))
    if standard_law is not None:
        if C is None:
            raise ValueError(f"family {spelled.name!r} needs an explicit leading constant C")
        return standard_law(ScalingModel.custom(C, 0.0).C, ln_v)
    model = ScalingModel.of(spelled)
    c = model.C if C is None else replace(model, C=C).C
    return c * log(ln_v) ** 2 / ln_v


# Threshold-window widths from the prefactor and ln V, keyed by the family
# whose rule the laws describe; a family absent here has no window law.
_WINDOW_LAWS = {
    RuleFamily.standard(2): lambda f, ln_v: f * log(ln_v) / ln_v**2,
    RuleFamily.one_b(2): lambda f, ln_v: f * log(ln_v) ** 3 / ln_v**2,
}


def epsilon_window(family: RuleFamily | str, ln_v: float, prefactor: float = 1.0) -> float:
    """Order-of-magnitude width of the statistical threshold window.

    standard d=2: ln ln V / ln^2 V.  (1,2): ln^3 ln V / ln^2 V.  The
    prefactor is an unpinned order constant, positive and finite, default 1.
    A family whose rule has no window law is refused.
    """
    spelled = _as_family(family)
    _check_ln_v(ln_v)
    if not _is_prefactor(prefactor):
        raise ValueError(f"prefactor must be positive and finite, got {prefactor}")
    law = _WINDOW_LAWS.get(_same_rule(spelled))
    if law is None:
        raise ValueError(f"no window law for family {spelled.name!r}")
    return law(prefactor, ln_v)
