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

``invert_numeric`` solves p ln V = C ln^2(1/p) + C' ln(1/p) for p by
bisection (the forward map is strictly decreasing on the admissible
domain).  ``pc_expansion`` evaluates the three-term expansion

    p_c = [C ln^2 ln V - 4C ln ln ln V ln ln V + (-2C ln C + C') ln ln V] / ln V

whose remainder is O(ln^2 ln ln V / ln V), the order ``REMAINDER_ORDER``
names; the remainder itself is not computed.  Note the third coefficient
flips sign contributions when C < 1 because ln C < 0; it is evaluated
exactly as written.

A result that leaves the float range (an infinite or nan value, or an
OverflowError on the way) is refused with ``ValueError`` naming its
input, never returned: every law here passes its result through
:func:`_finite`, and so do the expansion and its residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, e, exp, floor, inf, isfinite, log
from sys import float_info

# rules first, so that its source is compiled before numpy is imported:
# without cached bytecode that keeps the import's peak memory 0.4 MB lower.
from .rules import RuleFamily
from .lattice import _check_int

# Second coefficient of ln V_c.  The stage product contributes
# +(1/3) ln(8/(3e)) to the log nucleation probability; inverting the
# volume (V_c = 1/P) negates it.
ONE_TWO_CPRIME = -log(8.0 / (3.0 * e)) / 3.0

# critical_log_volume is restricted to p <= exp(-2).  With y = ln(1/p),
# d ln V_c / dy = e^y (C y^2 + (2C + C') y + C').  The bracket is 8C + 3C'
# at y = 2 and, as C > 0, positive for every y > 2 exactly when
# 8C + 3C' >= 0: then ln V_c decreases strictly on (0, exp(-2)] and each
# value has one root.  With 8C + 3C' < 0 it first falls below its value at
# exp(-2) and then rises.
P_DOMAIN_MAX = e**-2


def _as_family(family: RuleFamily | str) -> RuleFamily:
    return family if isinstance(family, RuleFamily) else RuleFamily.parse(family)


# Family names that spell the rule of another family: equal stencils, so
# equal scaling laws.
_SAME_RULE = {
    RuleFamily.parse("12"): RuleFamily.parse("1b:2"),
    RuleFamily.parse("1b:1"): RuleFamily.parse("standard2"),
}


def _same_rule(family: RuleFamily) -> RuleFamily:
    """The family whose laws apply to ``family``'s rule."""
    return _SAME_RULE.get(family, family)


@dataclass(frozen=True)
class ScalingModel:
    """Coefficients (C, C') of ln V_c(p)."""

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
        return ScalingModel(float(anisotropic_constant(b)), ONE_TWO_CPRIME if b == 2 else 0.0)


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


def _finite(result, quantity: str, at: str):
    """``result``, a float or a tuple of floats, if every value is finite;
    otherwise ``ValueError`` saying that ``quantity`` at the input ``at``
    is outside the float range."""
    values = result if isinstance(result, tuple) else (result,)
    if not all(map(isfinite, values)):
        raise ValueError(f"{quantity} at {at} is outside the float range")
    return result


def strategy_range(p: float) -> StrategyRange:
    """Strategy stage bounds n0 = (2/p) ln ln (1/p), nf = (1/(3p)) ln(1/p).

    Requires 0 < p < 1/e so that ln ln (1/p) is defined and positive.  The
    window is empty unless p is quite small; the caller checks
    ``is_empty``.
    """
    ln_inv = _check_small_p(p)
    bounds = (2.0 / p * log(ln_inv), ln_inv / (3.0 * p))
    return StrategyRange(*_finite(bounds, "the strategy's stage window", f"p = {p}"))


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
    try:
        log_sum = count * per_stage + 3.0 * p * (n_lo + n_hi) * count / 2.0
    except OverflowError:  # a stage bound past the float range
        log_sum = inf
    return _finite(log_sum, "the stage-product log", f"p = {p}")


def nucleation_closed_terms(p: float) -> tuple[float, float]:
    """The two displayed terms of the closed form, (leading, second):
    -(1/(6p)) ln^2(1/p) and (1/3) ln(8/(3e)) (1/p) ln(1/p).  Their sum,
    the closed form itself, is checked to be finite too."""
    ln_inv = _check_small_p(p)
    leading = -(ln_inv**2) / (6.0 * p)
    second = -ONE_TWO_CPRIME * ln_inv / p
    _finite((leading, second, leading + second), "the closed form", f"p = {p}")
    return leading, second


def _log_volume(model: ScalingModel, p: float) -> float:
    """The formula of :func:`critical_log_volume`, unchecked: inf where it
    overflows, as the bisection of ``invert_numeric`` may probe."""
    ln_inv = log(1.0 / p)
    return (model.C * ln_inv**2 + model.Cprime * ln_inv) / p


def critical_log_volume(model: ScalingModel, p: float) -> float:
    """ln V_c(p) = (C/p) ln^2(1/p) + (C'/p) ln(1/p), for 0 < p <= exp(-2)."""
    if not 0.0 < p <= P_DOMAIN_MAX:
        raise ValueError(f"critical_log_volume needs 0 < p <= exp(-2), got {p}")
    at = f"p = {p}, C = {model.C}, C' = {model.Cprime}"
    return _finite(_log_volume(model, p), "ln V_c", at)


REMAINDER_ORDER = "ln^2 ln ln V / ln V"

_REL_WIDTH = 1e-12


@dataclass(frozen=True)
class ExpansionTerms:
    """Term-by-term breakdown of the p_c(V) expansion.

    ``total`` is the float sum of the three terms accumulated in ascending
    magnitude (fixed order, so equal inputs give bit-equal totals).
    """

    term1: float
    term2: float
    term3: float
    total: float


def invert_numeric(ln_v: float, model: ScalingModel) -> float:
    """The p in (0, exp(-2)] with critical_log_volume(model, p) = ln_v,
    for an ln_v that has exactly one: any ln_v at least the value at the
    domain edge p = exp(-2) when 8C + 3C' >= 0, and any ln_v above it
    otherwise (see ``P_DOMAIN_MAX``).

    Bisection on ln p down to a 1e-12 relative bracket.  Raises if ln_v is
    not finite, if it is below the value at the domain edge, where no root
    exists, or if that value overflows a float.  With 8C + 3C' < 0 the map
    is not monotone, so an ln_v at or below the edge value is refused: it
    has no root or more than one (a double root counted twice).  Below the
    edge the forward map is evaluated unchecked, so a probe that overflows
    reads as inf, above ``ln_v``.  Raises too if the root lies below the
    smallest normal float, where 1/p loses precision and then overflows.
    """
    _check_ln_v(ln_v, -inf, "ln V must be finite")
    p_hi = P_DOMAIN_MAX
    f_hi = critical_log_volume(model, p_hi)
    slope = 8.0 * model.C + 3.0 * model.Cprime
    if slope < 0.0 and ln_v <= f_hi:
        raise ValueError(
            f"ln V = {ln_v:g} is at or below ln V_c(exp(-2)) = {f_hi:g}, where ln V_c is "
            f"not monotone in p (8C + 3C' = {slope:g} < 0): such an ln V has no root in "
            f"(0, exp(-2)] or more than one"
        )
    if ln_v < f_hi:
        raise ValueError(
            f"ln V = {ln_v:g} is below the admissible minimum {f_hi:g}; no root in (0, exp(-2)]"
        )
    if ln_v == f_hi:
        return p_hi
    # Walk the lower edge down until the (decreasing) forward map exceeds
    # ln_v, at the latest at the smallest normal float.
    p_lo = p_hi
    while _log_volume(model, p_lo) < ln_v:
        if p_lo == float_info.min:
            raise ValueError(
                f"ln V = {ln_v:g} is too large to invert: its root lies below the "
                f"smallest normal float {float_info.min:g}"
            )
        p_lo = max(0.5 * p_lo, float_info.min)
    lo, hi = log(p_lo), log(p_hi)
    while hi - lo > _REL_WIDTH:
        mid = 0.5 * (lo + hi)
        if _log_volume(model, exp(mid)) >= ln_v:
            lo = mid
        else:
            hi = mid
    return exp(0.5 * (lo + hi))


def pc_expansion(ln_v: float, model: ScalingModel) -> ExpansionTerms:
    """Three displayed expansion terms of p_c(V).  Needs a finite ln V > e^e
    so the triple logarithm is defined and positive.

    ``total`` is the value of the three-term series, not a density: where
    ln ln V is small it can leave [0, 1] (-0.8538... for ``1b:40`` at
    ln V = 1e3).  The density is the root of :func:`invert_numeric`."""
    _check_ln_v(ln_v, exp(1.0) ** exp(1.0), "expansion needs ln V > e^e")
    ll = log(ln_v)
    lll = log(ll)
    c = model.C
    term1 = c * ll * ll / ln_v
    term2 = -4.0 * c * lll * ll / ln_v
    term3 = (-2.0 * c * log(c) + model.Cprime) * ll / ln_v
    total = 0.0
    for t in sorted((term1, term2, term3), key=abs):
        total += t
    at = f"ln V = {ln_v}, C = {c}, C' = {model.Cprime}"
    _finite((term1, term2, term3, total), "the p_c expansion", at)
    return ExpansionTerms(term1=term1, term2=term2, term3=term3, total=total)


def expansion_residual(ln_v: float, exact: float, terms: ExpansionTerms) -> float:
    """(exact - terms.total) * ln V / ln^2 ln ln V: the remainder of the
    expansion ``terms`` at ``ln_v`` normalised by its claimed order, with
    ``exact`` the root ``invert_numeric`` gives there."""
    lll = log(log(ln_v))
    residual = (exact - terms.total) * ln_v / (lll * lll)
    return _finite(residual, "the expansion residual", f"ln V = {ln_v}")


def bracketing_epsilon(p: float, model: ScalingModel) -> float:
    """Smallest epsilon making all three bracketing chains hold at
    ln V = critical_log_volume(model, p):

        1/p        <= ln V        <= p^-(1+eps)
        ln(1/p)    <= ln ln V     <= (1+eps) ln(1/p)
        ln ln(1/p) <= ln ln ln V  <= ln ln(1/p) + eps

    Returns inf if the epsilon-free lower bounds fail.  The first decides
    them all: the other two are its logarithm and its double logarithm,
    and log is increasing, so they hold whenever it holds.
    ``critical_log_volume`` refuses p above exp(-2), so ln(1/p) >= 2 and
    every logarithm here is defined, and it refuses a p at which ln V
    overflows a float.
    """
    ln_v = critical_log_volume(model, p)
    ln_inv = log(1.0 / p)
    if ln_v < 1.0 / p:
        return float("inf")
    ll = log(ln_v)
    lll = log(ll)
    eps_upper_v = ll / ln_inv - 1.0  # serves both the ln V and ln ln V chains
    eps_upper_lll = lll - log(ln_inv)
    return max(eps_upper_v, eps_upper_lll)


def anisotropic_constant(b: int) -> Fraction:
    """Leading coefficient (b-1)^2 / (2(b+1)) of the (1,b) family, exact."""
    b = _check_int(b, "b")
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    return Fraction((b - 1) ** 2, 2 * (b + 1))


def _check_ln_v(ln_v: float, least: float = e, need: str = "need ln V > e") -> None:
    """Refuse an ln V at or below ``least`` (saying ``need``) or infinite."""
    if not ln_v > least:
        raise ValueError(f"{need}, got {ln_v}")
    if ln_v == inf:
        raise ValueError(f"ln V must be finite, got {ln_v}")


# Leading-order p_c(V) of the standard families, from C and ln V.
_STANDARD_LAWS = {
    RuleFamily.parse("standard2"): lambda c, ln_v: c / ln_v,
    RuleFamily.parse("standard3"): lambda c, ln_v: c / log(ln_v),
}


def leading_pc(family: RuleFamily | str, ln_v: float, C: float | None = None) -> float:
    """Leading-order p_c(V) for a family, given ln V.

    standard d=2: C / ln V.  standard d=3: C / ln ln V.  The anisotropic
    (1,b) families: C ln^2 ln V / ln V with C from :meth:`ScalingModel.of`
    unless overridden.  For the standard families C must be supplied.  A
    supplied C must be positive, as a model's is.  A p_c above 1 is no
    density and is refused.
    """
    spelled = _as_family(family)
    _check_ln_v(ln_v)
    standard_law = _STANDARD_LAWS.get(_same_rule(spelled))
    if standard_law is not None:
        if C is None:
            raise ValueError(f"family {spelled.name!r} needs an explicit leading constant C")
        c = ScalingModel(C, 0.0).C
        pc = standard_law(c, ln_v)
    else:
        model = ScalingModel.of(spelled)
        c = model.C if C is None else ScalingModel(C, 0.0).C
        pc = c * log(ln_v) ** 2 / ln_v
    at = f"ln V = {ln_v}, C = {c}"
    if _finite(pc, "p_c", at) > 1.0:
        raise ValueError(f"the leading-order p_c at {at} is {pc}, above 1")
    return pc


# Threshold-window widths from ln V, keyed by the family whose rule the
# laws describe; a family absent here has no window law.
_WINDOW_LAWS = {
    RuleFamily.parse("standard2"): lambda ln_v: log(ln_v) / ln_v**2,
    RuleFamily.parse("1b:2"): lambda ln_v: log(ln_v) ** 3 / ln_v**2,
}


def epsilon_window(family: RuleFamily | str, ln_v: float) -> float:
    """Order-of-magnitude width of the statistical threshold window.

    standard d=2: ln ln V / ln^2 V.  (1,2): ln^3 ln V / ln^2 V.  The width
    is the law at order constant 1, since the order constant is not
    pinned.  A family whose rule has no window law is refused.
    """
    spelled = _as_family(family)
    _check_ln_v(ln_v)
    law = _WINDOW_LAWS.get(_same_rule(spelled))
    if law is None:
        raise ValueError(f"no window law for family {spelled.name!r}")
    try:
        width = law(ln_v)
    except OverflowError:  # ln_v**2 past the float range
        width = inf
    return _finite(width, "the window width", f"ln V = {ln_v}")
