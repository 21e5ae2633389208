"""Numeric inversion of ln V_c(p) and its asymptotic expansion in V.

``invert_numeric`` solves p ln V = C ln^2(1/p) + C' ln(1/p) for p by
bisection (the forward map is strictly decreasing on the admissible
domain).  ``pc_expansion`` evaluates the three-term expansion

    p_c = [C ln^2 ln V - 4C ln ln ln V ln ln V + (-2C ln C + C') ln ln V] / ln V

whose remainder is O(ln^2 ln ln V / ln V); the remainder is reported as an
order descriptor, not computed.  Note the third coefficient flips sign
contributions when C < 1 because ln C < 0; it is evaluated exactly as
written.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, log

from .asymptotics import P_DOMAIN_MAX, ScalingModel, _check_ln_v, critical_log_volume

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
    remainder_order: str = REMAINDER_ORDER


def invert_numeric(ln_v: float, model: ScalingModel) -> float:
    """The unique p in (0, exp(-2)] with critical_log_volume(model, p) = ln_v.

    Bisection on ln p down to a 1e-12 relative bracket.  Raises if ln_v is
    below the value at the domain edge p = exp(-2), where no root exists.
    """
    p_hi = P_DOMAIN_MAX
    f_hi = critical_log_volume(model, p_hi)
    if ln_v < f_hi:
        raise ValueError(
            f"ln V = {ln_v:g} is below the admissible minimum {f_hi:g}; no root in (0, exp(-2)]"
        )
    if ln_v == f_hi:
        return p_hi
    # Walk the lower edge down until the (decreasing) forward map exceeds ln_v.
    p_lo = p_hi
    while critical_log_volume(model, p_lo) < ln_v:
        p_lo *= 0.5
        if p_lo < 1e-300:
            raise ValueError(f"ln V = {ln_v:g} too large to invert in float range")
    lo, hi = log(p_lo), log(p_hi)
    while hi - lo > _REL_WIDTH:
        mid = 0.5 * (lo + hi)
        if critical_log_volume(model, exp(mid)) >= ln_v:
            lo = mid
        else:
            hi = mid
    return exp(0.5 * (lo + hi))


def pc_expansion(ln_v: float, model: ScalingModel) -> ExpansionTerms:
    """Three displayed expansion terms of p_c(V).  Needs a finite ln V > e^e
    so the triple logarithm is defined and positive."""
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
    return ExpansionTerms(term1=term1, term2=term2, term3=term3, total=total)


def expansion_residual(ln_v: float, exact: float, terms: ExpansionTerms) -> float:
    """(exact - terms.total) * ln V / ln^2 ln ln V: the remainder of the
    expansion ``terms`` at ``ln_v`` normalised by its claimed order, with
    ``exact`` the root ``invert_numeric`` gives there."""
    lll = log(log(ln_v))
    return (exact - terms.total) * ln_v / (lll * lll)


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
    every logarithm here is defined.
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


def bracketing_check(p: float, model: ScalingModel, epsilon: float) -> bool:
    """True iff all three chains hold at the caller-supplied epsilon."""
    return bracketing_epsilon(p, model) <= epsilon
