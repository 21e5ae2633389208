"""Fill-probability estimation and critical-threshold search.

A trial fills when the closure of a p-random configuration occupies the
whole grid.  Trial ``i`` of a run draws one uniform per cell from
substream ``(seed, domain, i)`` and thresholds it at p, which has two
consequences used throughout the tests:

* determinism: results depend only on (inputs, seed), never on chunking;
  a run's blocks (``_BLOCK``) depend on the grid and trial count alone,
  and worker threads only decide how many of them run at once;
* coupling: for p1 < p2 on the same seed, every trial's p1 configuration
  is a subset of its p2 configuration, so the fill indicator is monotone
  trial by trial, not just on average.

One sampling loop, :func:`sample_estimate`, draws and counts the trials
of fill estimates and of the growth events' Monte Carlo; each caller
gives it only the test of whether a block of drawn trials succeeds.  It
takes a list of p values and draws each block of trials once for all of
them (the per-trial uniforms do not depend on p; Newman & Ziff, PRL 85,
4104 (2000) use the same idea).  A block keeps one small integer per
cell, the number of distinct p values at or below its uniform, so its
memory does not grow with the number of p values, and the block's
occupancy at each p is read off that count.  Each estimate is the one a
run with that p alone gives, bit for bit.

A grid of at most ``_BLOCK`` (2^15) cells is closed on the lane kernel
in blocks of whole 64-trial words, split evenly over the fewest blocks
that hold the run; a fill estimate on a larger grid closes one trial a
block with ``closure_fast``, on one thread, since that kernel holds the
GIL.  Exact fill probabilities of tiny grids come from subset enumeration
on the lane kernel (:func:`subset_success_counts`), counted by popcount,
which skips each 64-subset word whose hits its sub-words already decide.

The threshold p_c(L) is located by bisection on p of the coupled fill
curve, which is a nondecreasing step function once the seed is fixed.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .lattice import Configuration, GridSpec, _check_int, _check_p
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

# The one budget of a Monte Carlo block, in cell-words: a grid of at most
# _BLOCK cells takes the lane kernel, at most _BLOCK // cells 64-trial words
# a block, and a larger one closure_fast, one trial a block.  A draw takes
# at most _BLOCK uniforms, whose temporaries take 16 bytes each.
_BLOCK = 1 << 15


def _check_trials(trials: int) -> None:
    """Refuse a trial count that is not an integer or is below one: the
    one check of a trial count."""
    if _check_int(trials, "trials") < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo mean with its standard error and provenance."""

    mean: float
    stderr: float
    trials: int
    seed: int

    def __post_init__(self):
        _check_trials(self.trials)
        if self.stderr < 0.0:
            raise ValueError(f"stderr must be nonnegative, got {self.stderr}")


def _chunk_size(cells: int, trials: int) -> int:
    """Trials a block, from the grid and the trial count alone: whole
    64-trial words, at most ``_BLOCK // cells`` of them, split evenly over
    the fewest blocks that hold the run; one trial above ``_BLOCK`` cells."""
    most = _BLOCK // cells
    if not most:
        return 1
    words = -(-trials // 64)
    blocks = -(-words // most)
    return 64 * -(-words // blocks)


def draw_occupancy(
    root: Stream, start: int, m: int, cells: int, ps: Sequence[float]
) -> np.ndarray:
    """Occupancy of trials [start, start+m) at each of the sorted distinct
    p values ``ps``, as one count per cell: ``count[i, c]`` is how many of
    ``ps`` lie at or below uniform ``c`` of substream ``start + i`` of
    ``root``, so the cell is occupied at ``ps[r]`` (its uniform is below
    ``ps[r]``) exactly when ``count[i, c] <= r``.  The counts are of the
    narrowest unsigned type that holds ``len(ps)``.

    Uniforms are drawn at most ``_BLOCK`` (2^15) at a time, whole trials
    of a small grid or pieces of one trial of a larger one, and each piece
    is compared with every p and freed before the next draw, so no draw
    holds a large float array."""
    count = np.zeros((m, cells), dtype=np.min_scalar_type(len(ps)))
    per_draw, piece = max(1, _BLOCK // cells), min(cells, _BLOCK)
    for s in range(0, m, per_draw):
        k = min(per_draw, m - s)
        for c in range(0, cells, piece):
            n = min(piece, cells - c)
            u = root.uniform_block(start + s, k, n, c)
            out = count[s : s + k, c : c + n]
            for p in ps:
                out += u >= p
            del u
    return count


def sample_estimate(
    count_successes: Callable[[np.ndarray], int],
    cells: int,
    ps: Sequence[float],
    trials: int,
    seed: int,
    domain: int,
    threads: int = 1,
) -> list[Estimate]:
    """Fraction of ``trials`` p-random trials of ``cells`` cells that
    succeed, for each p of ``ps``, in the order of ``ps``.

    Trial ``i`` is cell ``c`` occupied when uniform ``c`` of substream
    ``(seed, domain, i)`` is below p, so one draw serves every p.  Trials
    are drawn in blocks by :func:`draw_occupancy`, once a block whatever
    the number of p values, and ``count_successes`` gets each block's
    ``(m, cells)`` boolean stack at each distinct p and returns how many of
    its m trials succeed.  Blocks are sized by :func:`_chunk_size` from
    ``cells`` and ``trials`` alone, so a run has the same blocks at any
    ``threads``; with ``threads > 1`` they are counted on a thread pool.
    """
    ps = [_check_p(p) for p in ps]
    if not ps:
        raise ValueError("ps must hold at least one p")
    _check_trials(trials)
    distinct = sorted(set(ps))
    root = Stream((seed, domain))
    chunk = _chunk_size(cells, trials)

    def block(start: int) -> list[int]:
        count = draw_occupancy(root, start, min(chunk, trials - start), cells, distinct)
        return [count_successes(count <= r) for r in range(len(distinct))]

    starts = range(0, trials, chunk)
    if threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_block = list(pool.map(block, starts))
    else:
        per_block = list(map(block, starts))
    successes = dict(zip(distinct, map(sum, zip(*per_block))))
    estimates = []
    for p in ps:
        mean = successes[p] / trials
        stderr = (mean * (1.0 - mean) / trials) ** 0.5
        estimates.append(Estimate(mean=mean, stderr=stderr, trials=trials, seed=seed))
    return estimates


def fill_probability(
    rule: Rule,
    grid: GridSpec,
    ps: Sequence[float],
    trials: int,
    seed: int,
    threads: int = 1,
) -> list[Estimate]:
    """Fraction of trials whose closure is the full grid, for each p of
    ``ps`` in its order, every p from the same draws.

    A grid of at most ``_BLOCK`` cells is closed on the lane kernel by
    ``threads`` workers; a larger one a trial at a time by ``closure_fast``
    on one thread, since it holds the GIL and a second would only wait."""
    _check_dimensions(grid, rule)
    batch = grid.cells <= _BLOCK

    def filled(occ: np.ndarray) -> int:
        m = len(occ)
        occ = occ.reshape((m,) + grid.shape)
        if batch:
            closed = closure_batch(occ, rule, periodic=grid.periodic)
            return int(closed.reshape(m, -1).all(axis=1).sum())
        return sum(closure_fast(Configuration(grid, trial), rule).is_full() for trial in occ)

    return sample_estimate(
        filled, grid.cells, ps, trials, seed, _STREAM_DOMAIN, threads if batch else 1
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


def held_hits(
    rule: Rule, grid: GridSpec, free: np.ndarray, target: np.ndarray, words: np.ndarray
) -> np.ndarray:
    """Close held-cell configurations on lane words and test their targets.

    Row ``i`` of ``words`` (shape ``(n, len(free))``, any unsigned word
    type) is one grid of lane words: ``words[i, h]`` goes into cell
    ``free[h]`` (a flat index) and every other cell is held occupied, an
    all-ones word.  The grids are closed under ``rule`` by
    :func:`closure_lanes`, and the result's word ``i`` is the AND of grid
    ``i``'s closed words over the ``target`` cells: bit ``j`` is set when
    lane ``j``'s closure occupies every target.  Exact enumeration
    (:func:`subset_success_counts`) and the growth events' Monte Carlo
    both close their configurations here."""
    occ = np.full((len(words), grid.cells), np.iinfo(words.dtype).max, dtype=words.dtype)
    occ[:, free] = words
    closed = closure_lanes(occ.reshape((len(words),) + grid.shape), rule, grid.periodic)
    return np.bitwise_and.reduce(closed.reshape(len(words), -1)[:, target], axis=1)


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
    2^len(free) subsets, 64 to a word, closed by :func:`held_hits`.  Subset
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
    # cells, half of _BLOCK: the first block is closed whole before the skip
    # starts, so a larger one closes words the skip would settle (at 2^15,
    # 512 of east_column 20's 16384 words, more than it closes in all).  The
    # word count is a power of two too, so the first block and the doubling
    # ranges after it tile the 2^m subsets exactly.
    block = min(words, 1 << max(0, (_BLOCK // 2 // grid.cells).bit_length() - 1))
    # With m < 6 free cells word 0 is the only word and only its lanes below
    # 2^m are subsets; the others repeat them and must not be counted.
    lanes = min(1 << m, 64)
    classes = _LANE_CLASSES[: min(m, 6) + 1] & np.uint64((1 << lanes) - 1)
    counts = np.zeros(m + 1, dtype=np.int64)
    hits = np.empty(words, dtype=np.uint64)  # bit j of word g: subset 64 g + j hits

    def close(g: np.ndarray) -> None:
        hit = hits[g] = held_hits(rule, grid, free, target, _subset_words(g, m))
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


def _subset_words(words: np.ndarray, m: int) -> np.ndarray:
    """Subset ``64 g + j`` of ``m`` free cells as lane ``j`` of word ``g``,
    for each word index ``g`` in ``words``, shape ``(len(words), m)``:
    free cell ``h`` holds bit ``h`` of the subset index.  Below bit 6 that
    bit depends on the lane only, a constant word; from bit 6 on it depends
    on the word only, so the word is all ones or all zeros."""
    g = np.asarray(words).astype(np.uint64)
    out = np.empty((len(g), m), dtype=np.uint64)
    for h in range(m):
        out[:, h] = (
            _LANE_BITS[h] if h < 6 else np.uint64(0) - ((g >> np.uint64(h - 6)) & np.uint64(1))
        )
    return out


def fill_probability_exact(rule: Rule, grid: GridSpec, p: float) -> float:
    """Exact fill probability: sum over filling subsets of p^k (1-p)^(n-k)."""
    _check_p(p)
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
        (est,) = fill_probability(rule, grid, [mid], trials_per_probe, seed, threads)
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

