"""Rectangle-growth experiments for the anisotropic (1,2) rule.

Two concrete, enumerable growth events are measured exactly and by Monte
Carlo:

* ``east_column``: a fully occupied 2-wide, n-tall rectangle sits next to
  one column of n random helper cells.  The event is that the closure
  occupies the whole helper column.
* ``north_rows``: a fully occupied x-wide, 2-tall rectangle sits below two
  rows of x random helper cells each.  The event is that the closure
  occupies the whole first helper row.

Each event is laid out once, by :meth:`GrowthEventSpec.layout`, as a small
open grid for rule ``12`` with three sets of cells: the rectangle cells
that touch the helpers, held occupied; the random helper cells; and the
target cells the event asks to be occupied.  Rectangle cells that touch
no helper cannot change the closure, so the grid leaves them out.

Exact probabilities count every helper configuration with
:func:`bootgrid.montecarlo.subset_success_counts`, 64 configurations to a
word of the shared lane kernel ``rules.closure_lanes``.  It closes only
the words whose hits monotonicity leaves open, and the skip is exact:
closure is monotone, the event (every target occupied) is an up-set, and
the word of configurations ``g + n`` (``n`` a power of two above ``g``)
is word ``g``'s with one more helper occupied in every lane, so it hits
wherever word ``g`` hits.  A word that inherits hits in all 64 lanes is
counted without a closure.  Monte Carlo draws its trials with the
sampler that fill estimates use
(:func:`bootgrid.montecarlo.sample_estimate`) and closes each block of
trials of the same grid with ``rules.closure_batch``.
Tests check both against full-grid closures by ``closure_naive``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, exp, expm1, log1p

import numpy as np

from .lattice import GridSpec
from .montecarlo import Estimate, sample_estimate, subset_success_counts
from .rules import RuleFamily, closure_batch, make_rule

COLUMN_MAX_HEIGHT = 20
ROW_MAX_WIDTH = 12
# The largest size each event is enumerated at: 2^20 and 2^24 configurations.
_SIZE_CAPS = {"east_column": COLUMN_MAX_HEIGHT, "north_rows": ROW_MAX_WIDTH}

_ONE_TWO = make_rule(RuleFamily.one_two())
_STREAM_DOMAIN = 0x67726F77  # distinct from the fill-probability domain


@dataclass(frozen=True)
class GrowthEventSpec:
    """Which growth event to sample and its rectangle size."""

    direction: str  # "east_column" or "north_rows"
    size: int  # rectangle height n (east_column) or width x (north_rows)

    def __post_init__(self):
        if self.direction not in ("east_column", "north_rows"):
            raise ValueError(f"unknown growth direction {self.direction!r}")
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")

    @property
    def helper_depth(self) -> int:
        return 1 if self.direction == "east_column" else 2

    @property
    def helper_cells(self) -> int:
        return self.size * self.helper_depth

    def layout(self) -> tuple[GridSpec, np.ndarray, np.ndarray]:
        """The event as ``(grid, helpers, targets)`` for rule ``12``.

        ``helpers[h]`` is the flat index of helper cell ``h`` and
        ``targets`` the flat indices the event needs occupied; every other
        cell is a rectangle cell, held occupied.  ``north_rows``: an
        x-by-3 grid, row 0 the rectangle's top row, helper ``h`` at row
        ``1 + h // x``, column ``h % x``, the targets row 1.
        ``east_column``: a 3-by-n grid, columns 0 and 1 the rectangle,
        helper ``h`` at column 2, row ``h``, the targets all helpers.
        """
        if self.direction == "north_rows":
            x = self.size
            helpers = x + np.arange(2 * x)
            return GridSpec((x, 3)), helpers, helpers[:x]
        helpers = 3 * np.arange(self.size) + 2
        return GridSpec((3, self.size)), helpers, helpers


@dataclass(frozen=True)
class GrowthPolynomial:
    """Event probability as an exact polynomial in p.

    ``coeffs[k]`` multiplies p**k.  Counting arguments over helper subsets
    always produce integer coefficients; they are stored as Fractions so
    evaluation can stay exact when wanted.
    """

    coeffs: tuple[Fraction, ...]

    def evaluate(self, p: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * p + float(c)
        return acc

    def evaluate_exact(self, p: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * p + c
        return acc

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if k < len(self.coeffs) else Fraction(0)


def _counts_to_polynomial(success_by_k: np.ndarray, m: int) -> GrowthPolynomial:
    """Expand sum_k c_k p^k (1-p)^(m-k) into monomial coefficients."""
    coeffs = [0] * (m + 1)
    for k, ck in enumerate(success_by_k.tolist()):
        if ck == 0:
            continue
        for j in range(m - k + 1):
            coeffs[k + j] += ck * comb(m - k, j) * (-1) ** j
    return GrowthPolynomial(tuple(Fraction(c) for c in coeffs))


def growth_polynomial(spec: GrowthEventSpec) -> GrowthPolynomial:
    """Exact probability of the event as a polynomial in p, from the
    success counts of all 2^helper_cells helper configurations."""
    cap = _SIZE_CAPS[spec.direction]
    if spec.size > cap:
        raise ValueError(f"{spec.direction} enumeration supports size <= {cap}, got {spec.size}")
    grid, helpers, targets = spec.layout()
    counts = subset_success_counts(_ONE_TWO, grid, helpers, targets)
    return _counts_to_polynomial(counts, spec.helper_cells)


def column_growth_polynomial(n: int) -> GrowthPolynomial:
    """Exact probability that a 2 x n occupied rectangle absorbs its full
    east helper column, as a polynomial in p.  Equals 1 - (1-p)^n."""
    return growth_polynomial(GrowthEventSpec("east_column", n))


def row_growth_polynomial(x: int) -> GrowthPolynomial:
    """Exact probability that an x-wide, 2-tall occupied rectangle absorbs
    its full first north helper row, as a polynomial in p."""
    return growth_polynomial(GrowthEventSpec("north_rows", x))


def estimate_growth_mc(
    spec: GrowthEventSpec, p: float, trials: int, seed: int, threads: int = 1
) -> Estimate:
    """Monte Carlo estimate of the same event as the exact polynomial.

    Helper cell ``c`` of trial ``i`` uses uniform ``c`` of substream
    ``(seed, domain, i)``, so results do not depend on how trials are
    blocked or on ``threads``.  :func:`bootgrid.montecarlo.sample_estimate`
    draws the helpers of each block of trials; the rectangle cells are
    filled in around them and the stack is closed by ``closure_batch``.
    """
    grid, helpers, targets = spec.layout()

    def realised(helper_occ: np.ndarray) -> int:
        m = len(helper_occ)
        occ = np.ones((m, grid.cells), dtype=bool)
        occ[:, helpers] = helper_occ
        closed = closure_batch(occ.reshape((m,) + grid.shape), _ONE_TWO)
        return int(closed.reshape(m, -1)[:, targets].all(axis=1).sum())

    return sample_estimate(realised, len(helpers), p, trials, seed, _STREAM_DOMAIN, threads)


def horizontal_step_probability(p: float, n: float) -> float:
    """Probability that a height-n rectangle completes one full horizontal
    growth stage.

    A single column is absorbed with probability 1 - (1-p)^n; a stage
    spans the gap between consecutive stage widths x_n = exp(n*p)/p, so
    the stage succeeds with probability (1 - (1-p)^n)^(x_{n+1} - x_n).
    With this stage geometry the value tends to 1/e as p -> 0 at a fixed
    relative stage position.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly between 0 and 1, got {p}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n * p > 700.0:
        raise OverflowError(
            f"exp(n*p) with n*p = {n * p:.3g} overflows a float; stage width is not representable"
        )
    # width gap x_{n+1} - x_n = expm1(p) * exp(n*p) / p
    gap = expm1(p) * exp(n * p) / p
    # miss probability of one column, q = (1-p)^n, computed in log space
    log_q = n * log1p(-p)
    if log_q > -1e-15:
        return 0.0  # (1-p)^n is 1 to machine precision: no seeds to grow on
    log_hit = log1p(-exp(log_q))
    return exp(gap * log_hit)
