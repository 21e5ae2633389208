"""Rectangle-growth experiments for the anisotropic (1,2) rule.

Two concrete growth events are measured exactly and by Monte Carlo:

* ``east_column``: a fully occupied 2-wide, n-tall rectangle sits next to
  one column of n random helper cells.  The event is that the closure
  occupies the whole helper column.
* ``north_rows``: a fully occupied x-wide, 2-tall rectangle sits below two
  rows of x random helper cells each.  The event is that the closure
  occupies the whole first helper row.

Each event is a strip of identical cross-sections along its long axis (x
for ``north_rows``, y for ``east_column``), described once in
``_SECTIONS``: which cells of a cross-section are rectangle cells that
touch the helpers, held occupied; which are random helper cells; and
which are target cells the event asks to be occupied.  Rectangle cells
that touch no helper cannot change the closure, so the strip leaves them
out.  :meth:`GrowthEventSpec.layout` lays the strip out as a small open
grid for rule ``12``.

Exact probabilities come from :func:`growth_success_counts`, which counts
the helper configurations whose closure occupies every target, by helper
count, with a finite automaton that reads the strip one cross-section at
a time, each symbol being that cross-section's helpers.  The automaton is
built from the rule (any 2-dimensional threshold rule) and the
cross-section, never from enumerated configurations:

* Let r be the rule's reach along the long axis.  A prefix of
  cross-sections is summarised by recording, for every content of the
  next r cross-sections held fixed, the last r cross-sections of the
  prefix's closure and whether that closure occupies every target of the
  prefix.  A content is a run of "inside" cross-sections (held cells set,
  any others) followed by "outside" ones (all empty: past the strip's end).
* To append a cross-section, for each content of the r cross-sections
  after it, two steps alternate until the cross-section stops changing:
  read the prefix's summary at the current content, then take the
  cross-section's own fixed point with its neighbours on both sides held.
* A breadth-first search over the distinct summaries reached from the
  empty prefix gives the states.  A word is accepted when its summary at
  the all-outside content says every target is occupied.

This is exact.  The closure is the least fixed point of a monotone
operator, so every iterate lies inside the closure of the whole strip (by
induction: each is the least fixed point of a part of the strip whose
neighbours are held at cells inside that closure), and the last iterate
is a fixed point of the whole strip that contains the initial cells, so
it is the closure.  A summary is a function from finitely many contents
to finitely many values, so the search ends: for rule ``12``
``north_rows`` has 49 states and ``east_column`` 3.  Counting the
accepted words by helper count is a dynamic program in exact integers.
Tests check the counts against
:func:`bootgrid.montecarlo.subset_success_counts`, which closes the helper
configurations themselves, and against full-grid closures by
``closure_naive``.

Monte Carlo draws its trials with the sampler that fill estimates use
(:func:`bootgrid.montecarlo.sample_estimate`), once for every p of a run.
At each p a block's helpers are packed into lane words
(``rules.pack_lanes``) and closed by
:func:`bootgrid.montecarlo.held_hits`, the rectangle cells held as
all-ones words, as the enumeration closes its subsets; a trial's hit is
the AND of its lane over the targets, counted in the words.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from math import comb
from typing import NamedTuple, Sequence

import numpy as np

from .lattice import GridSpec, _check_int
from .montecarlo import Estimate, held_hits, sample_estimate
from .rules import Rule, RuleFamily, make_rule, pack_lanes, unpack_lanes

# The largest size growth_success_counts counts at.  Its integers grow with
# the square of the size, so the count's cost grows with the cube: 0.25-0.45 s
# at this size and 2.7 s at twice it on a shared 2-core Xeon VM.
COUNT_MAX_SIZE = 256
# The most contents of the next r cross-sections an automaton is built for:
# a summary holds one entry per content, and the states grow faster still
# (growth_success_counts has the build times).  On north_rows 1b:4 has 341
# contents and 1b:5 has 1365.
_MAX_CONTENTS = 512

_ONE_TWO = make_rule(RuleFamily.parse("12"))
_STREAM_DOMAIN = 0x67726F77  # distinct from the fill-probability domain


class _Section(NamedTuple):
    """One cross-section of an event's strip.  The strip runs along grid
    axis ``axis`` (0 is x); across it are ``depth`` cells, and ``held``,
    ``helpers`` and ``targets`` list cells by their coordinate across.
    ``max_size`` is the largest size :func:`growth_polynomial` accepts."""

    axis: int
    depth: int
    held: tuple[int, ...]
    helpers: tuple[int, ...]
    targets: tuple[int, ...]
    max_size: int


# Counting costs little at any size (growth_success_counts).  max_size only
# bounds the error of GrowthPolynomial.evaluate, whose monomial expansion
# cancels in floating point at every size: at most 6.1e-11 below the caps for
# p = 0.001 ... 0.999, but 1.8e-10 at north_rows 13, and near p = 1 a value
# can read above 1.  Lifting them waits for a stable evaluation, whose new
# last digits need the benchmark's digests renewed.
_SECTIONS = {
    "north_rows": _Section(
        axis=0, depth=3, held=(0,), helpers=(1, 2), targets=(1,), max_size=12
    ),
    "east_column": _Section(
        axis=1, depth=3, held=(0, 1), helpers=(2,), targets=(2,), max_size=20
    ),
}


@dataclass(frozen=True)
class GrowthEventSpec:
    """Which growth event to sample and its rectangle size."""

    direction: str  # "east_column" or "north_rows"
    size: int  # rectangle height n (east_column) or width x (north_rows)

    def __post_init__(self):
        if self.direction not in _SECTIONS:
            raise ValueError(f"unknown growth direction {self.direction!r}")
        object.__setattr__(self, "size", _check_int(self.size, "size"))
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")

    @property
    def helper_cells(self) -> int:
        return self.size * len(_SECTIONS[self.direction].helpers)

    def layout(self) -> tuple[GridSpec, np.ndarray, np.ndarray]:
        """The event as ``(grid, helpers, targets)`` for rule ``12``.

        ``helpers[h]`` is the flat index of helper cell ``h`` and
        ``targets`` the flat indices the event needs occupied; every other
        cell is a rectangle cell, held occupied.  Helpers are listed by
        their coordinate across the strip, then along it.  ``north_rows``:
        an x-by-3 grid, row 0 the rectangle's top row, helper ``h`` at row
        ``1 + h // x``, column ``h % x``, the targets row 1.
        ``east_column``: a 3-by-n grid, columns 0 and 1 the rectangle,
        helper ``h`` at column 2, row ``h``, the targets all helpers.
        """
        section, n = _SECTIONS[self.direction], self.size
        grid = GridSpec((n, section.depth) if section.axis == 0 else (section.depth, n))
        flat = np.arange(grid.cells).reshape(grid.shape)  # [y, x]
        across_along = flat if section.axis == 0 else flat.T

        def cells(coords):
            return across_along[list(coords)].ravel()

        return grid, cells(section.helpers), cells(section.targets)


@dataclass(frozen=True)
class GrowthPolynomial:
    """Event probability as a polynomial in p with integer coefficients.

    ``coeffs[k]`` multiplies p**k.  :meth:`evaluate` is Horner's rule in
    the arithmetic of ``p``: a float at a float p, exact at an int or a
    ``fractions.Fraction`` p.
    """

    coeffs: tuple[int, ...]

    def evaluate(self, p):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * p + c
        return acc


def _counts_to_polynomial(success_by_k: Sequence[int], m: int) -> GrowthPolynomial:
    """Expand sum_k c_k p^k (1-p)^(m-k) into monomial coefficients."""
    coeffs = [0] * (m + 1)
    for k, ck in enumerate(success_by_k):
        if ck == 0:
            continue
        for j in range(m - k + 1):
            coeffs[k + j] += ck * comb(m - k, j) * (-1) ** j
    return GrowthPolynomial(tuple(coeffs))


def _mask(cells: Sequence[int]) -> int:
    return sum(1 << k for k in cells)


@cache
def _column_automaton(rule: Rule, direction: str) -> tuple[list[list[int]], list[int]]:
    """The automaton of the module docstring for ``direction`` under
    ``rule``, as ``(next_state, accepting)``: ``next_state[s][w]`` is the
    state after reading symbol ``w`` in state ``s`` (state 0 is the empty
    prefix; bit ``j`` of ``w`` occupies helper ``j`` of the cross-section),
    and ``accepting`` lists the accepting states.

    A cross-section's content is a bit mask, bit ``k`` the cell ``k``
    across.  Built on first use for each rule and event, then kept."""
    if rule.kind != "threshold" or rule.dimension != 2:
        raise ValueError(
            f"growth events take a 2-dimensional threshold rule, got a {rule.dimension}-d "
            f"{rule.kind} rule"
        )
    section = _SECTIONS[direction]
    depth = section.depth
    offsets = [(off[section.axis], off[1 - section.axis]) for off in rule.offsets]  # (along, across)
    reach = max((abs(a) for a, c in offsets if abs(c) < depth), default=0)
    # Cell k of a cross-section counts these (window index, bit) pairs, the
    # window being the cross-sections from r before it to r after it.
    reads = [[(reach + a, k + c) for a, c in offsets if 0 <= k + c < depth] for k in range(depth)]
    settled: dict[tuple[int, ...], int] = {}

    def settle(window: tuple[int, ...]) -> int:
        """The middle cross-section's fixed point, its neighbours held."""
        if window not in settled:
            cells = list(window)
            grew = True
            while grew:
                grew = False
                for k in range(depth):
                    if (not cells[reach] >> k & 1
                            and sum(cells[i] >> b & 1 for i, b in reads[k]) >= rule.theta):
                        cells[reach] |= 1 << k
                        grew = True
            settled[window] = cells[reach]
        return settled[window]

    held, targets = _mask(section.held), _mask(section.targets)
    inside = [held | free for free in range(1 << depth) if not free & held]
    # Contents are runs of 0 to r inside cross-sections: sum_{k<=r} |inside|^k.
    count = (len(inside) ** (reach + 1) - 1) // (len(inside) - 1)
    if count > _MAX_CONTENTS:
        shown = count if count < 1 << 64 else "more than 2^64"
        raise ValueError(
            f"growth counts on {direction} take at most {_MAX_CONTENTS} contents of the "
            f"next cross-sections; a rule of reach {reach} along the strip has {shown}"
        )
    contents = [
        (*run, *(0,) * (reach - k)) for k in range(reach + 1) for run in product(inside, repeat=k)
    ]
    where = {content: i for i, content in enumerate(contents)}

    def append(summary, own):
        """The summary of a prefix with one more cross-section, ``own``."""
        out = []
        for after in contents:
            grown = own
            while True:
                before, done = summary[where[(grown, *after)[:reach]]]
                grown, last = settle((*before, grown, *after)), grown
                if grown == last:
                    break
            out.append(((*before, grown)[1:] if reach else (), done and grown & targets == targets))
        return tuple(out)

    symbols = [
        held | _mask([k for j, k in enumerate(section.helpers) if w >> j & 1])
        for w in range(1 << len(section.helpers))
    ]
    empty = tuple(((0,) * reach, True) for _ in contents)
    found = {empty: 0}
    summaries = [empty]
    next_state = []
    for summary in summaries:  # grows as the search finds new summaries
        row = []
        for own in symbols:
            reached = append(summary, own)
            if reached not in found:
                found[reached] = len(summaries)
                summaries.append(reached)
            row.append(found[reached])
        next_state.append(row)
    end = where[(0,) * reach]
    return next_state, [s for s, summary in enumerate(summaries) if summary[end][1]]


def growth_success_counts(spec: GrowthEventSpec, rule: Rule = _ONE_TWO) -> list[int]:
    """counts[k] = number of k-helper configurations of the event whose
    closure under ``rule``, with the rectangle cells held occupied, occupies
    every target: the counts :func:`bootgrid.montecarlo.subset_success_counts`
    gives on :meth:`GrowthEventSpec.layout`, from the column automaton.

    The counts are exact at any size up to ``COUNT_MAX_SIZE``; a larger
    size is refused with ``ValueError``.  The automaton is built once per
    rule and event, at a cost that grows fast with the rule's reach along
    the strip: on the ``north_rows`` layout rule ``12`` has 49 states and
    builds in about 10 ms, ``1b:3`` 716 states in 0.5-0.7 s, and ``1b:4``
    10460 states in 41 s.  A rule whose reach gives more than
    ``_MAX_CONTENTS`` contents, such as ``1b:5`` on ``north_rows``, is
    refused with ``ValueError`` before the build."""
    if spec.size > COUNT_MAX_SIZE:
        raise ValueError(f"growth counts support size <= {COUNT_MAX_SIZE}, got {spec.size}")
    next_state, accepting = _column_automaton(rule, spec.direction)
    m = spec.helper_cells
    # Each state's counts as one integer, count k in bits [k b, (k + 1) b):
    # no count reaches 2^b, as there are only 2^m configurations, so adding
    # and shifting these integers adds and shifts the counts.
    b = m + 1
    shifts = [bin(w).count("1") * b for w in range(len(next_state[0]))]
    counts = [1] + [0] * (len(next_state) - 1)
    for _ in range(spec.size):
        following = [0] * len(next_state)
        for s, c in enumerate(counts):
            if c:
                for t, shift in zip(next_state[s], shifts):
                    following[t] += c << shift
        counts = following
    total = sum(counts[s] for s in accepting)
    return [total >> (k * b) & ((1 << b) - 1) for k in range(m + 1)]


def growth_polynomial(spec: GrowthEventSpec) -> GrowthPolynomial:
    """Exact probability of the event as a polynomial in p, from the
    success counts of :func:`growth_success_counts`."""
    cap = _SECTIONS[spec.direction].max_size
    if spec.size > cap:
        raise ValueError(
            f"{spec.direction} exact probabilities support size <= {cap}, got {spec.size}"
        )
    return _counts_to_polynomial(growth_success_counts(spec), spec.helper_cells)


def estimate_growth_mc(
    spec: GrowthEventSpec, ps: Sequence[float], trials: int, seed: int, threads: int = 1
) -> list[Estimate]:
    """Monte Carlo estimates of the same event as the exact polynomial, one
    for each p of ``ps`` in its order, every p from the same draws.

    Helper cell ``c`` of trial ``i`` uses uniform ``c`` of substream
    ``(seed, domain, i)``, so results do not depend on how trials are
    blocked, on ``threads`` or on the other p values.
    :func:`bootgrid.montecarlo.sample_estimate` draws the helpers of each
    block of trials once.  At each p the block's helpers are packed by
    ``pack_lanes``, one trial a lane, and closed by
    :func:`bootgrid.montecarlo.held_hits` with the rectangle cells held
    occupied; the hits are the set bits of the block's own lanes.
    """
    grid, helpers, targets = spec.layout()

    def realised(occ: np.ndarray) -> int:
        hits = held_hits(_ONE_TWO, grid, helpers, targets, pack_lanes(occ))
        # only the block's own lanes: those past it hold the rectangle alone
        return int(np.count_nonzero(unpack_lanes(hits[:, None], len(occ))))

    return sample_estimate(realised, len(helpers), ps, trials, seed, _STREAM_DOMAIN, threads)
