"""Fill-probability estimation and critical-threshold search.

A trial fills when the closure of a p-random configuration occupies the
whole grid.  Trial ``i`` of a run draws one uniform per cell from
substream ``(seed, domain, i)`` and thresholds it at p, which has two
consequences used throughout the tests:

* determinism: results depend only on (inputs, seed), never on chunking
  or the number of worker threads;
* coupling: for p1 < p2 on the same seed, every trial's p1 configuration
  is a subset of its p2 configuration, so the fill indicator is monotone
  trial by trial, not just on average.

One sampling loop, :func:`sample_estimate`, draws and counts the trials
of fill estimates and of the growth events' Monte Carlo; each caller
gives it only the test of whether a block of drawn trials succeeds.

The threshold p_c(L) is located by bisection on p of the coupled fill
curve, which is a nondecreasing step function once the seed is fixed.
"""

from __future__ import annotations

from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .lattice import Configuration, GridSpec
from .rng import Stream
from .rules import (
    Rule,
    _check_dimensions,
    closure_batch,
    closure_fast,
    closure_lanes,
)

_STREAM_DOMAIN = 0x66696C6C

EXACT_MAX_CELLS = 20

# Grids up to this many cells are closed in stacked batches, 64 trials to a
# word of the lane kernel; larger ones go through the row-packed closure
# (closure_fast) one trial at a time.
_BATCH_CELL_LIMIT = 4096

# Uniforms a draw makes, at most or about (see draw_occupancy).
_DRAW_SIZE = 1 << 16


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo mean with its standard error and provenance."""

    mean: float
    stderr: float
    trials: int
    seed: int

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"an estimate needs at least one trial, got {self.trials}")
        if self.stderr < 0.0:
            raise ValueError(f"stderr must be nonnegative, got {self.stderr}")


def _chunk_size(cells: int, trials: int, threads: int) -> int:
    """Trials a block.

    On the batch path a block is whole 64-trial words of the lane kernel,
    about 2^16 words, but no more words than ``trials / threads`` needs,
    so a threaded run has a block for every thread.  On the per-trial
    path a block holds about 2^16 cells.
    """
    units = max(1, min(4096, (1 << 16) // max(cells, 1)))
    if cells > _BATCH_CELL_LIMIT:
        return units
    return 64 * min(units, -(-trials // (64 * max(threads, 1))))


def draw_occupancy(root: Stream, start: int, m: int, cells: int, p: float) -> np.ndarray:
    """Occupancy of trials [start, start+m): ``occ[i, c]`` is uniform ``c``
    of substream ``start + i`` of ``root`` below p.

    Uniforms are drawn about 2^16 at a time, whole trials of a small grid
    or pieces of one trial of a larger one, and thresholded into one
    boolean stack, so no draw holds a large float array."""
    occ = np.empty((m, cells), dtype=bool)
    per_draw, piece = max(1, _DRAW_SIZE // cells), min(cells, _DRAW_SIZE)
    for s in range(0, m, per_draw):
        k = min(per_draw, m - s)
        for c in range(0, cells, piece):
            n = min(piece, cells - c)
            np.less(root.uniform_block(start + s, k, n, c), p, out=occ[s : s + k, c : c + n])
    return occ


def sample_estimate(
    count_successes: Callable[[np.ndarray], int],
    cells: int,
    p: float,
    trials: int,
    seed: int,
    domain: int,
    threads: int = 1,
) -> Estimate:
    """Fraction of ``trials`` p-random trials of ``cells`` cells that succeed.

    Trial ``i`` is cell ``c`` occupied when uniform ``c`` of substream
    ``(seed, domain, i)`` is below p.  Trials are drawn in blocks by
    :func:`draw_occupancy`, and ``count_successes`` gets each block's
    ``(m, cells)`` boolean stack and returns how many of its m trials
    succeed.  Blocks are sized by :func:`_chunk_size` and, with
    ``threads > 1``, counted on a thread pool; neither changes a number.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    root = Stream((seed, domain))
    chunk = _chunk_size(cells, trials, threads)

    def block(start: int) -> int:
        return count_successes(draw_occupancy(root, start, min(chunk, trials - start), cells, p))

    starts = range(0, trials, chunk)
    if threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            successes = sum(pool.map(block, starts))
    else:
        successes = sum(map(block, starts))
    mean = successes / trials
    stderr = (mean * (1.0 - mean) / trials) ** 0.5
    return Estimate(mean=mean, stderr=stderr, trials=trials, seed=seed)


def fill_probability(
    rule: Rule,
    grid: GridSpec,
    p: float,
    trials: int,
    seed: int,
    threads: int = 1,
) -> Estimate:
    """Fraction of trials whose closure is the full grid.

    Only the lane-kernel path uses ``threads``: the per-trial path's
    ``closure_fast`` holds the GIL through many small steps, so a second
    thread would only wait."""
    _check_dimensions(grid, rule)
    batch = grid.cells <= _BATCH_CELL_LIMIT

    def filled(occ: np.ndarray) -> int:
        m = len(occ)
        occ = occ.reshape((m,) + grid.shape)
        if batch:
            closed = closure_batch(occ, rule, periodic=grid.periodic)
            return int(closed.reshape(m, -1).all(axis=1).sum())
        return sum(closure_fast(Configuration(grid, trial), rule).is_full() for trial in occ)

    return sample_estimate(
        filled, grid.cells, p, trials, seed, _STREAM_DOMAIN, threads if batch else 1
    )


def fill_success_counts(rule: Rule, grid: GridSpec) -> np.ndarray:
    """counts[k] = number of k-cell subsets whose closure is the full grid.

    Exhaustive over all 2^cells subsets; refused above EXACT_MAX_CELLS.
    Cell ``i`` of the grid (flat order) corresponds to bit ``i`` of the
    subset index.
    """
    cells = grid.cells
    if cells > EXACT_MAX_CELLS:
        raise ValueError(f"exact enumeration supports at most {EXACT_MAX_CELLS} cells, got {cells}")
    every = np.arange(cells)
    return subset_success_counts(rule, grid, every, every)


# bit j of _LANE_BITS[h] is bit h of j, and bit j of _LANE_CLASSES[c] is set
# when j has c bits set
_LANE_BITS = np.array([sum(1 << j for j in range(64) if j >> h & 1) for h in range(6)], np.uint64)
_LANE_CLASSES = np.array(
    [sum(1 << j for j in range(64) if bin(j).count("1") == c) for c in range(7)], np.uint64
)
_POPCOUNT8 = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def subset_success_counts(
    rule: Rule, grid: GridSpec, free: np.ndarray, target: np.ndarray
) -> np.ndarray:
    """counts[k] = number of k-cell subsets of the ``free`` cells whose
    closure, with every other cell held occupied, occupies every ``target``
    cell.

    ``free`` and ``target`` are flat cell indices; free cell ``free[h]``
    corresponds to bit ``h`` of the subset index.  Exact over all
    2^len(free) subsets, 64 to a word of :func:`closure_lanes`.  Subset
    ``64 g + j`` has ``popcount(g) + popcount(j)`` cells, so the hits of
    word ``g`` are counted by popcount once per lane class (the lanes
    ``j`` of one popcount).

    Only the words that monotonicity leaves open are closed.  Closure is
    monotone (occupying more cells never empties one) and the event, every
    target occupied, is an up-set, so a subset that hits makes each of its
    supersets hit.  For ``n`` a power of two above ``g``, lane ``j`` of
    word ``g + n`` is lane ``j`` of word ``g`` with free cell
    ``6 + log2(n)`` also occupied, so word ``g + n``'s hits contain word
    ``g``'s.  After the first block the words are walked in doubling
    ranges ``[n, 2n)``, each starting from the hits of ``[0, n)``: a word
    that already hits in all 64 lanes is counted without a closure, and
    the others are gathered into full blocks and closed.  The counts are
    those of closing every word.
    """
    _check_dimensions(grid, rule)
    m = len(free)
    words = max(1, (1 << m) // 64)
    # A block is a power of two of words, about 2^14 words over all its
    # cells.  The word count is a power of two too, so the first block and
    # the doubling ranges after it tile the 2^m subsets exactly.
    block = min(words, 1 << max(0, ((1 << 14) // grid.cells).bit_length() - 1))
    # With m < 6 free cells word 0 is the only word and only its lanes below
    # 2^m are subsets; the others repeat them and must not be counted.
    lanes = min(1 << m, 64)
    classes = _LANE_CLASSES[: min(m, 6) + 1] & np.uint64((1 << lanes) - 1)
    counts = np.zeros(m + 1, dtype=np.int64)
    hits = np.empty(words, dtype=np.uint64)  # bit j of word g: subset 64 g + j hits

    def close(g: np.ndarray) -> None:
        planes = _subset_planes(g, grid.cells, free)
        closed = closure_lanes(planes.reshape((len(g),) + grid.shape), rule, grid.periodic)
        hit = hits[g] = np.bitwise_and.reduce(closed.reshape(len(g), -1)[:, target], axis=1)
        high = _popcount(g)[:, None]
        np.add.at(counts, high + np.arange(len(classes)), _popcount(hit[:, None] & classes))

    close(np.arange(block, dtype=np.int64))
    # Past the first block there are at least 2 words, so m > 6 and every
    # lane is a subset: a word hitting in all of them adds C(6, c) subsets
    # of popcount(g) + c cells, the popcount of lane class c.
    per_class = _popcount(classes)
    n = block
    while n < words:  # the words [n, 2n)
        pending = np.empty(0, dtype=np.int64)  # open words not yet closed
        for first in range(n, 2 * n, block):
            g = np.arange(first, first + block, dtype=np.int64)
            hits[first : first + block] = hits[first - n : first - n + block]
            full = hits[first : first + block] == ~np.uint64(0)
            counts += np.convolve(np.bincount(_popcount(g[full]), minlength=m - 5), per_class)
            pending = np.concatenate((pending, g[~full]))
            if len(pending) >= block:
                close(pending[:block])
                pending = pending[block:]
        if len(pending):
            close(pending)
        n *= 2
    return counts


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits of each 64-bit word: a byte table gives each byte's count,
    and one multiply sums a word's eight byte counts into its top byte."""
    octets = np.take(_POPCOUNT8, np.ascontiguousarray(words).view(np.uint8))
    total = octets.view(np.uint64) * np.uint64(0x0101010101010101)
    return (total >> np.uint64(56)).astype(np.int64)


def _subset_planes(words: np.ndarray, cells: int, free: np.ndarray) -> np.ndarray:
    """Subset ``64 g + j`` of the free cells as lane ``j`` of word ``g``,
    for each word index ``g`` in ``words``, every other cell occupied in
    every lane: free cell ``h`` holds bit ``h`` of the subset index.  Below
    bit 6 that bit depends on the lane only, a constant word; from bit 6 on
    it depends on the word only, so the word is all ones or all zeros."""
    g = np.asarray(words).astype(np.uint64)
    planes = np.full((len(g), cells), ~np.uint64(0))
    for h, cell in enumerate(free):
        if h < 6:
            planes[:, cell] = _LANE_BITS[h]
        else:
            planes[:, cell] = np.uint64(0) - ((g >> np.uint64(h - 6)) & np.uint64(1))
    return planes


def fill_probability_exact(rule: Rule, grid: GridSpec, p: float) -> float:
    """Exact fill probability: sum over filling subsets of p^k (1-p)^(n-k)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    counts = fill_success_counts(rule, grid)
    n = grid.cells
    total = 0.0
    for k, ck in enumerate(counts.tolist()):
        if ck:
            total += ck * p**k * (1.0 - p) ** (n - k)
    return total


def estimate_pc(
    rule: Rule,
    grid: GridSpec,
    target: float = 0.5,
    p_tolerance: float = 1e-3,
    trials_per_probe: int = 2000,
    seed: int = 0,
    threads: int = 1,
) -> Estimate:
    """Bisection for the density where the fill probability crosses ``target``.

    Every probe reuses the same seed, so all probes share one coupled set
    of per-trial uniforms and the measured fill curve is exactly
    nondecreasing in p.  The returned mean is the bracket midpoint and the
    stderr is the bracket half-width (Monte Carlo noise moves the crossing
    itself by about sqrt(target(1-target)/trials) in fill units).
    """
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must lie strictly between 0 and 1, got {target}")
    if not 0.0 < p_tolerance < 1.0:
        # At 1 or more no probe would run and there would be no trials to report.
        raise ValueError(f"p_tolerance must lie strictly between 0 and 1, got {p_tolerance}")
    if p_tolerance < 2**-53:
        # Below the spacing of doubles under 1, a bracket of two adjacent
        # doubles would be wider than the tolerance and its midpoint one
        # of its ends, so the bisection would never end.
        raise ValueError(f"p_tolerance must be at least 2**-53, got {p_tolerance}")
    lo, hi = 0.0, 1.0
    total_trials = 0
    while hi - lo > p_tolerance:
        mid = 0.5 * (lo + hi)
        est = fill_probability(rule, grid, mid, trials_per_probe, seed, threads)
        total_trials += est.trials
        if est.mean >= target:
            hi = mid
        else:
            lo = mid
    return Estimate(
        mean=0.5 * (lo + hi),
        stderr=0.5 * (hi - lo),
        trials=total_trials,
        seed=seed,
    )

