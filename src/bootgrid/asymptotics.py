"""Closed-form scaling laws for nucleation and critical thresholds.

The anisotropic droplet strategy grows a rectangle through stages indexed
by height n; stage n succeeds with probability (8p/(3e)) * exp(3np).  The
log of the product of stage probabilities has the closed form

    -(1/(6p)) ln^2(1/p) + (1/3) ln(8/(3e)) (1/p) ln(1/p) + o((1/p) ln(1/p))

and the critical volume is its inverse: ln V_c = -(log nucleation
probability), i.e. ln V_c = (C/p) ln^2(1/p) + (C'/p) ln(1/p) with
C = 1/6 and C' = (1/3) ln(3e/8) for the (1,2) rule.  Everything here is
a pure function of its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, e, floor, log

from .rules import RuleFamily

ONE_TWO_C = 1.0 / 6.0
# Second coefficient of ln V_c.  The stage product contributes
# +(1/3) ln(8/(3e)) to the log nucleation probability; inverting the
# volume (V_c = 1/P) negates it.
ONE_TWO_CPRIME = -log(8.0 / (3.0 * e)) / 3.0

# critical_log_volume is restricted to p <= exp(-2); with a negative C'
# the map can lose monotonicity nearer to p = 1, which would break inversion.
P_DOMAIN_MAX = e**-2


@dataclass(frozen=True)
class ScalingModel:
    """Coefficients (C, C') of ln V_c(p) for one rule family."""

    family: str
    C: float
    Cprime: float

    def __post_init__(self):
        if not self.C > 0.0:
            raise ValueError(f"leading coefficient C must be positive, got {self.C}")

    @staticmethod
    def one_two() -> "ScalingModel":
        return ScalingModel("12", ONE_TWO_C, ONE_TWO_CPRIME)

    @staticmethod
    def one_b(b: int) -> "ScalingModel":
        c = float(anisotropic_constant(b))
        if c == 0.0:
            raise ValueError(f"1b:{b} has a vanishing leading constant; no scaling model")
        return ScalingModel(f"1b:{b}", c, 0.0)

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
    if not 0.0 < p < 1.0 / e:
        raise ValueError(f"strategy range needs 0 < p < 1/e, got {p}")
    ln_inv = log(1.0 / p)
    return StrategyRange(n0=2.0 / p * log(ln_inv), nf=ln_inv / (3.0 * p))


def _check_small_p(p: float) -> float:
    if not 0.0 < p < 1.0 / e:
        raise ValueError(f"p must lie in (0, 1/e), got {p}")
    return log(1.0 / p)


def final_stage(p: float) -> int:
    """Last stage height of the growth strategy, floor((1/(3p)) ln(1/p))."""
    ln_inv = _check_small_p(p)
    return floor(ln_inv / (3.0 * p))


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
        n_hi = final_stage(p)
    if n_lo > n_hi:
        raise ValueError(f"empty stage range [{n_lo}, {n_hi}] at p = {p}")
    count = n_hi - n_lo + 1
    per_stage = log(8.0 * p / (3.0 * e))
    return count * per_stage + 3.0 * p * (n_lo + n_hi) * count / 2.0


def nucleation_closed_terms(p: float) -> tuple[float, float]:
    """The two displayed terms of the closed form, (leading, second)."""
    ln_inv = _check_small_p(p)
    leading = -(ln_inv**2) / (6.0 * p)
    second = log(8.0 / (3.0 * e)) / 3.0 * ln_inv / p
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


def _as_family(family: RuleFamily | str) -> RuleFamily:
    return family if isinstance(family, RuleFamily) else RuleFamily.parse(family)


def anisotropic_constant(b: int) -> Fraction:
    """Leading coefficient (b-1)^2 / (2(b+1)) of the (1,b) family, exact."""
    b = int(b)
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    return Fraction((b - 1) ** 2, 2 * (b + 1))


def leading_pc(family: RuleFamily | str, ln_v: float, C: float | None = None) -> float:
    """Leading-order p_c(V) for a family, given ln V.

    standard d=2: C / ln V.  standard d=3: C / ln ln V.  The anisotropic
    (1,b) families: C ln^2 ln V / ln V with C = (b-1)^2/(2(b+1)) unless
    overridden.  For the standard families C must be supplied.
    """
    fam = _as_family(family)
    if not ln_v > e:
        raise ValueError(f"need ln V > e, got {ln_v}")
    if fam.kind == "standard":
        d = fam.params[0]
        if C is None:
            raise ValueError("standard families need an explicit leading constant C")
        if d == 2:
            return C / ln_v
        if d == 3:
            return C / log(ln_v)
        raise ValueError(f"no leading-order law wired up for standard d={d}")
    if fam.kind in ("one_two", "one_b"):
        b = 2 if fam.kind == "one_two" else fam.params[0]
        c = float(anisotropic_constant(b)) if C is None else C
        return c * log(ln_v) ** 2 / ln_v
    raise ValueError(f"no leading-order law for family {fam.name!r}")


def epsilon_window(family: RuleFamily | str, ln_v: float, prefactor: float = 1.0) -> float:
    """Order-of-magnitude width of the statistical threshold window.

    standard d=2: ln ln V / ln^2 V.  (1,2): ln^3 ln V / ln^2 V.  The
    prefactor is an unpinned order constant, default 1.
    """
    fam = _as_family(family)
    if not ln_v > e:
        raise ValueError(f"need ln V > e, got {ln_v}")
    if fam.kind == "standard" and fam.params[0] == 2:
        return prefactor * log(ln_v) / ln_v**2
    if fam.kind == "one_two":
        return prefactor * log(ln_v) ** 3 / ln_v**2
    raise ValueError(f"no window law for family {fam.name!r}")
