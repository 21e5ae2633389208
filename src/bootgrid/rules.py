"""Monotone growth rules, synchronous stepping and closure computation.

Two rule kinds cover every supported family:

* ``threshold`` - an empty cell becomes occupied when at least ``theta``
  of its stencil offsets point at occupied cells.  Offsets are counted
  with multiplicity, which only matters on periodic grids small enough
  for two offsets to wrap onto the same cell.
* ``modified`` - an empty cell becomes occupied when every lattice axis
  has at least one occupied neighbour at distance one.  This is a
  conjunction per axis and is deliberately not encoded as a threshold.

The closure (the fixed point of repeated stepping) is provided three ways:

* ``closure_naive`` iterates the synchronous step until nothing changes;
  it is the oracle the other two are tested against.
* ``closure_fast`` runs a work-queue algorithm that touches each cell a
  bounded number of times, for one large, sparse configuration.
* ``closure_lanes`` closes up to 64 configurations per uint64 word, one
  configuration per bit lane (multispin coding).  A synchronous step is
  a bit-sliced neighbour counter compared with ``theta`` in bit logic, or
  the per-axis OR/AND of the modified rule.  Each grid of words in a
  batch settles on its own: once half of those still being stepped have
  stopped changing, they are set aside and the rest are gathered into a
  smaller array, so a batch is not stepped whole until its slowest grid
  settles.  ``closure_batch`` packs a stack of boolean grids into lanes
  and unpacks the result, for the Monte Carlo trial blocks of fill
  estimates and of the growth events; exact subset enumeration
  (``fill_success_counts`` and the exact growth polynomials) builds its
  lanes directly from the subset indices.

All three agree bit for bit.  Neighbour counts use the narrowest unsigned
type that holds the stencil size, so stencils of more than 255 offsets
(``1b:b`` with b >= 127, ``abc`` with a+b+c >= 128) do not wrap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Configuration, GridSpec

FAMILY_KINDS = ("standard", "modified", "one_two", "one_b", "duarte", "abc")

# Queue waves bigger than cells/_DENSE_WAVE_DIVISOR use dense shifted adds
# instead of scatter updates; both apply identical increments.
_DENSE_WAVE_DIVISOR = 24


@dataclass(frozen=True)
class RuleFamily:
    """A named rule family with its integer parameters."""

    kind: str
    params: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind in ("standard", "modified"):
            (d,) = self.params
            if d not in (1, 2, 3):
                raise ValueError(f"{self.kind} dimension must be 1..3, got {d}")
        elif self.kind == "one_b":
            (b,) = self.params
            if b < 1:
                raise ValueError(f"one_b requires b >= 1, got {b}")
        elif self.kind == "abc":
            a, b, c = self.params
            if not (1 <= a <= b <= c):
                raise ValueError(f"abc requires 1 <= a <= b <= c, got {self.params}")
        elif self.params:
            raise ValueError(f"{self.kind} takes no parameters")

    @staticmethod
    def standard(d: int) -> "RuleFamily":
        return RuleFamily("standard", (d,))

    @staticmethod
    def modified(d: int) -> "RuleFamily":
        return RuleFamily("modified", (d,))

    @staticmethod
    def one_two() -> "RuleFamily":
        return RuleFamily("one_two")

    @staticmethod
    def one_b(b: int) -> "RuleFamily":
        return RuleFamily("one_b", (b,))

    @staticmethod
    def duarte() -> "RuleFamily":
        return RuleFamily("duarte")

    @staticmethod
    def abc(a: int, b: int, c: int) -> "RuleFamily":
        return RuleFamily("abc", (a, b, c))

    @staticmethod
    def parse(name: str) -> "RuleFamily":
        """Parse a CLI family name: standard2, standard3, modified2,
        modified3, 12, 1b:<b>, duarte, abc:<a>,<b>,<c>."""
        name = name.strip()
        if name in ("standard1", "standard2", "standard3"):
            return RuleFamily.standard(int(name[-1]))
        if name in ("modified1", "modified2", "modified3"):
            return RuleFamily.modified(int(name[-1]))
        if name == "12":
            return RuleFamily.one_two()
        if name.startswith("1b:"):
            return RuleFamily.one_b(int(name[3:]))
        if name == "duarte":
            return RuleFamily.duarte()
        if name.startswith("abc:"):
            parts = name[4:].split(",")
            if len(parts) != 3:
                raise ValueError(f"abc family needs three parameters, got {name!r}")
            return RuleFamily.abc(*(int(tok) for tok in parts))
        raise ValueError(f"unknown rule family {name!r}")

    @property
    def name(self) -> str:
        if self.kind == "standard":
            return f"standard{self.params[0]}"
        if self.kind == "modified":
            return f"modified{self.params[0]}"
        if self.kind == "one_two":
            return "12"
        if self.kind == "one_b":
            return f"1b:{self.params[0]}"
        if self.kind == "duarte":
            return "duarte"
        return "abc:" + ",".join(str(v) for v in self.params)

    @property
    def dimension(self) -> int:
        if self.kind in ("standard", "modified"):
            return self.params[0]
        if self.kind == "abc":
            return 3
        return 2


@dataclass(frozen=True)
class Rule:
    """A concrete local growth predicate.

    ``offsets`` are neighbour positions relative to the cell, as (x, y[, z])
    tuples.  For ``threshold`` rules the predicate is
    ``occupied offsets >= theta``; for ``modified`` the offsets are the unit
    vectors and the predicate is per-axis.
    """

    kind: str
    dimension: int
    offsets: tuple[tuple[int, ...], ...]
    theta: int

    def __post_init__(self):
        if self.kind not in ("threshold", "modified"):
            raise ValueError(f"rule kind must be threshold or modified, got {self.kind!r}")
        seen = set()
        for off in self.offsets:
            if len(off) != self.dimension:
                raise ValueError(f"offset {off} does not match dimension {self.dimension}")
            if all(v == 0 for v in off):
                raise ValueError("stencil offsets must be nonzero")
            if off in seen:
                raise ValueError(f"duplicate stencil offset {off}")
            seen.add(off)
        if self.kind == "threshold" and not 1 <= self.theta <= len(self.offsets):
            raise ValueError(f"theta {self.theta} outside 1..{len(self.offsets)}")


def _axis_units(d: int) -> list[tuple[int, ...]]:
    units = []
    for axis in range(d):
        for sign in (1, -1):
            off = [0] * d
            off[axis] = sign
            units.append(tuple(off))
    return units


def make_rule(family: RuleFamily) -> Rule:
    """Build the concrete rule for a family."""
    if family.kind == "standard":
        d = family.params[0]
        return Rule("threshold", d, tuple(_axis_units(d)), d)
    if family.kind == "modified":
        d = family.params[0]
        return Rule("modified", d, tuple(_axis_units(d)), d)
    if family.kind == "one_two":
        return make_rule(RuleFamily.one_b(2))
    if family.kind == "one_b":
        b = family.params[0]
        offsets = [(i, 0) for i in range(1, b + 1)] + [(-i, 0) for i in range(1, b + 1)]
        offsets += [(0, 1), (0, -1)]
        return Rule("threshold", 2, tuple(offsets), b + 1)
    if family.kind == "duarte":
        return Rule("threshold", 2, ((0, 1), (1, 0), (0, -1)), 2)
    if family.kind == "abc":
        a, b, c = family.params
        offsets = [(s * i, 0, 0) for i in range(1, a + 1) for s in (1, -1)]
        offsets += [(0, s * j, 0) for j in range(1, b + 1) for s in (1, -1)]
        offsets += [(0, 0, s * k) for k in range(1, c + 1) for s in (1, -1)]
        return Rule("threshold", 3, tuple(offsets), a + b + c)
    raise ValueError(f"unknown family kind {family.kind!r}")


def _check_dimensions(config: Configuration, rule: Rule) -> None:
    if config.grid.ndim != rule.dimension:
        raise ValueError(
            f"rule dimension {rule.dimension} does not match grid dimension {config.grid.ndim}"
        )


def _shifted_into(out: np.ndarray, src: np.ndarray, offset: tuple[int, ...], periodic: bool):
    """Add src values at cell+offset into out (out[c] += src[c + offset]).

    Works on arrays whose trailing axes are [z, y, x]; leading axes (such
    as a batch axis) are untouched.  Offset component i applies to the
    i-th axis counted from the end.
    """
    nd = out.ndim
    if periodic:
        view = src
        for i, v in enumerate(offset):
            if v:
                view = np.roll(view, -v, axis=nd - 1 - i)
        out += view
        return
    src_idx = [slice(None)] * nd
    dst_idx = [slice(None)] * nd
    for i, v in enumerate(offset):
        axis = nd - 1 - i
        n = out.shape[axis]
        if v == 0:
            continue
        if abs(v) >= n:
            return
        if v > 0:
            src_idx[axis] = slice(v, None)
            dst_idx[axis] = slice(None, n - v)
        else:
            src_idx[axis] = slice(None, v)
            dst_idx[axis] = slice(-v, None)
    out[tuple(dst_idx)] += src[tuple(src_idx)]


def _count_dtype(rule: Rule) -> np.dtype:
    """The narrowest unsigned dtype that holds every neighbour count, so
    that counts never wrap: uint8 up to 255 offsets, wider above."""
    return np.min_scalar_type(len(rule.offsets))


def _neighbour_counts(occ: np.ndarray, rule: Rule, periodic: bool) -> np.ndarray:
    counts = np.zeros(occ.shape, dtype=_count_dtype(rule))
    occ8 = occ.view(np.uint8) if occ.dtype == bool else occ
    for off in rule.offsets:
        _shifted_into(counts, occ8, off, periodic)
    return counts


def _modified_predicate(occ: np.ndarray, rule: Rule, periodic: bool) -> np.ndarray:
    d = rule.dimension
    pred = None
    occ8 = occ.view(np.uint8) if occ.dtype == bool else occ
    for axis in range(d):
        plus = [0] * d
        plus[axis] = 1
        sat = np.zeros(occ.shape, dtype=np.uint8)
        _shifted_into(sat, occ8, tuple(plus), periodic)
        plus[axis] = -1
        _shifted_into(sat, occ8, tuple(plus), periodic)
        axis_ok = sat > 0
        pred = axis_ok if pred is None else (pred & axis_ok)
    return pred


def step(config: Configuration, rule: Rule) -> tuple[Configuration, int]:
    """One synchronous update.  Returns the new configuration and the
    number of newly occupied cells."""
    _check_dimensions(config, rule)
    occ = config.cells
    periodic = config.grid.periodic
    if rule.kind == "threshold":
        pred = _neighbour_counts(occ, rule, periodic) >= rule.theta
    else:
        pred = _modified_predicate(occ, rule, periodic)
    new = pred & ~occ
    changed = int(np.count_nonzero(new))
    return Configuration(config.grid, occ | new), changed


def is_stable(config: Configuration, rule: Rule) -> bool:
    """True iff one step changes nothing."""
    _, changed = step(config, rule)
    return changed == 0


def closure_naive(config: Configuration, rule: Rule) -> Configuration:
    """Iterate the synchronous step until it stops changing."""
    current = config
    while True:
        current, changed = step(current, rule)
        if changed == 0:
            return current


class _FlatGeometry:
    """Flat-index coordinate arithmetic for the queue closure."""

    def __init__(self, grid: GridSpec):
        self.dims = grid.dims
        self.periodic = grid.periodic
        self.strides = [1]
        for d in grid.dims[:-1]:
            self.strides.append(self.strides[-1] * d)

    def coords(self, flat: np.ndarray) -> list[np.ndarray]:
        out = []
        rest = flat
        for d in self.dims[:-1]:
            out.append(rest % d)
            rest = rest // d
        out.append(rest)
        return out

    def targets(self, coords: list[np.ndarray], offset: tuple[int, ...]) -> np.ndarray:
        """Flat indices of cell+offset, dropping out-of-range cells on open
        grids and wrapping on periodic ones."""
        if self.periodic:
            flat = None
            for c, v, d, s in zip(coords, offset, self.dims, self.strides):
                t = (c + v) % d if v else c
                flat = t * s if flat is None else flat + t * s
            return flat
        mask = None
        for c, v, d in zip(coords, offset, self.dims):
            if v:
                m = (c + v >= 0) & (c + v < d)
                mask = m if mask is None else (mask & m)
        flat = None
        for c, v, s in zip(coords, offset, self.strides):
            t = c + v if v else c
            flat = t * s if flat is None else flat + t * s
        return flat if mask is None else flat[mask]


def _wave_counts_threshold(
    occ_flat, counts, wave_flat, wave_dense, geom, rule, shape, periodic
) -> np.ndarray:
    """Apply one wave's reverse-stencil increments; return candidate cells
    that reached the threshold."""
    cells = occ_flat.size
    if wave_dense is not None:
        # Dense wave: identical increments computed with shifted adds.
        contrib = np.zeros(shape, dtype=counts.dtype)
        wave8 = wave_dense.view(np.uint8)
        for off in rule.offsets:
            _shifted_into(contrib, wave8, off, periodic)
        counts += contrib.reshape(-1)
        cand = np.flatnonzero((counts >= rule.theta) & ~occ_flat)
        return cand
    coords = geom.coords(wave_flat)
    all_targets = []
    for off in rule.offsets:
        # A cell at c sees the wave cell f when f = c + off, so c = f - off.
        t = geom.targets(coords, tuple(-v for v in off))
        if t.size:
            t = t[~occ_flat[t]]
        if t.size:
            np.add.at(counts, t, 1)
            all_targets.append(t)
    if not all_targets:
        return np.empty(0, dtype=np.int64)
    t = np.concatenate(all_targets)
    sat = counts[t] >= rule.theta
    return np.unique(t[sat])


def _wave_flags_modified(
    occ_flat, axis_flags, axis_count, wave_flat, geom, rule
) -> np.ndarray:
    d = rule.dimension
    coords = geom.coords(wave_flat)
    completed = []
    for axis in range(d):
        off = [0] * d
        targets = []
        for sign in (1, -1):
            off[axis] = sign
            t = geom.targets(coords, tuple(off))
            if t.size:
                targets.append(t)
        off[axis] = 0
        if not targets:
            continue
        t = np.concatenate(targets)
        t = t[~occ_flat[t] & ~axis_flags[axis][t]]
        if not t.size:
            continue
        u = np.unique(t)
        axis_flags[axis][u] = True
        axis_count[u] += 1
        completed.append(u[axis_count[u] == d])
    if not completed:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(completed))


def closure_fast(config: Configuration, rule: Rule) -> Configuration:
    """Work-queue closure, identical output to :func:`closure_naive`.

    Per-empty-cell state is kept (an occupied-neighbour counter for
    threshold rules, per-axis flags plus a satisfied-axis counter for the
    modified rule).  The queue starts with the initially occupied cells;
    when a cell becomes occupied the state of every cell whose
    neighbourhood contains it is updated and cells reaching the predicate
    join the next wave.  Each cell is enqueued at most once, so total work
    is O(cells x stencil size).  Large waves apply their increments with
    dense shifted adds rather than scatters; the increments are the same.
    """
    _check_dimensions(config, rule)
    grid = config.grid
    cells = grid.cells
    shape = grid.shape
    periodic = grid.periodic
    geom = _FlatGeometry(grid)

    occ_nd = config.cells.copy()
    occ_flat = occ_nd.reshape(-1)

    if rule.kind == "threshold":
        counts = np.zeros(cells, dtype=_count_dtype(rule))
    else:
        axis_flags = [np.zeros(cells, dtype=bool) for _ in range(rule.dimension)]
        axis_count = np.zeros(cells, dtype=np.uint8)

    wave_flat = np.flatnonzero(occ_flat)
    wave_is_whole_initial = True
    while wave_flat.size:
        if rule.kind == "threshold":
            dense = None
            if wave_flat.size > cells // _DENSE_WAVE_DIVISOR:
                if wave_is_whole_initial:
                    dense = occ_nd.copy()
                else:
                    dense = np.zeros(shape, dtype=bool)
                    dense.reshape(-1)[wave_flat] = True
            cand = _wave_counts_threshold(
                occ_flat, counts, wave_flat, dense, geom, rule, shape, periodic
            )
        else:
            cand = _wave_flags_modified(occ_flat, axis_flags, axis_count, wave_flat, geom, rule)
        occ_flat[cand] = True
        wave_flat = cand
        wave_is_whole_initial = False
    return Configuration(grid, occ_nd)


def closure(config: Configuration, rule: Rule) -> Configuration:
    """Alias for the production closure."""
    return closure_fast(config, rule)


def pack_lanes(bits: np.ndarray) -> np.ndarray:
    """Pack a stack of boolean grids, shape (n, *grid shape), into uint64
    words of shape (ceil(n / 64), *grid shape): bit ``j`` of word ``w`` is
    grid ``64 w + j``.  Lanes past ``n`` are zero."""
    n, shape = bits.shape[0], bits.shape[1:]
    words, cells = -(-n // 64), int(np.prod(shape))
    packed = np.zeros((words * 8, cells), dtype=np.uint8)
    packed[: -(-n // 8)] = np.packbits(bits.reshape(n, cells), axis=0, bitorder="little")
    lanes = packed.reshape(words, 8, cells).transpose(0, 2, 1).copy().view(np.uint64)
    return lanes.reshape((words,) + shape)


def unpack_lanes(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_lanes`: the first ``n`` grids as booleans."""
    count, shape = words.shape[0], words.shape[1:]
    cells = int(np.prod(shape))
    octets = np.ascontiguousarray(words).reshape(count, cells, 1).view(np.uint8)
    octets = octets.transpose(0, 2, 1).reshape(count * 8, cells)
    bits = np.unpackbits(octets, axis=0, count=n, bitorder="little")
    return bits.view(bool).reshape((n,) + shape)


def _count_reaches_theta(planes, theta, out, spare, digits) -> None:
    """out = cells where at least ``theta`` of ``planes`` are set.

    A vertical counter: ``digits[j]`` holds bit ``j`` of every cell's
    count in every lane.  Adding plane ``i`` ripples a carry through the
    digits that a count of at most ``i + 1`` can reach.  The comparison
    with ``theta`` runs from its lowest set bit upward: ``count >= theta``
    on bits ``0..j`` is ``d_j & ge`` where bit ``j`` of theta is 1 and
    ``d_j | ge`` where it is 0.
    """
    if len(planes) == 1:
        np.copyto(digits[0], planes[0])
    else:
        np.bitwise_and(planes[0], planes[1], out=digits[1])
        np.bitwise_xor(planes[0], planes[1], out=digits[0])
    for i in range(2, len(planes)):
        top = (i + 1).bit_length() - 1
        fresh = i + 1 == 1 << top  # digit `top` is first reached by this plane
        carry = planes[i]
        for j in range(top):
            into = digits[top] if fresh and j == top - 1 else (spare if carry is out else out)
            np.bitwise_and(digits[j], carry, out=into)
            digits[j] ^= carry
            carry = into
        if not fresh:
            digits[top] ^= carry
    low = (theta & -theta).bit_length() - 1
    ge = digits[low]
    for j in range(low + 1, len(digits)):
        (np.bitwise_and if theta >> j & 1 else np.bitwise_or)(ge, digits[j], out=out)
        ge = out
    if ge is not out:
        np.copyto(out, ge)


def _neighbour_on_every_axis(planes, out, spare) -> None:
    """out = cells with an occupied unit neighbour on every axis; ``planes``
    are the (+1, -1) neighbour planes of each axis in turn."""
    np.bitwise_or(planes[0], planes[1], out=out)
    for i in range(2, len(planes), 2):
        np.bitwise_or(planes[i], planes[i + 1], out=spare)
        out &= spare


def closure_lanes(words: np.ndarray, rule: Rule, periodic: bool = False) -> np.ndarray:
    """Closure of up to 64 configurations per machine word.

    ``words`` is a uint64 array of the grid's shape, optionally with
    leading batch axes.  Bit ``j`` of every word belongs to configuration
    ``j``: for each lane ``j`` and batch position, the bit-plane of the
    result equals ``closure_naive`` of the same bit-plane of ``words``.
    The input is not modified.

    Each batch position is an entry, one word per cell, closed as a grid
    of its own.  The entries lie one after another in a flat array, each
    inside a halo as deep as the stencil's reach on every grid axis, so
    each offset's shifted plane is one contiguous slice of the flat array.
    On an open grid the halo is zero and follows each row (plane, block,
    entry), where it also serves as the halo before the next one; flat
    margins catch offsets past either end.  On a periodic grid the halo is
    the wrapped grid on both sides, copied from the interior before each
    step, so offsets that wrap onto one cell are each counted.  A step is
    a fixed number of whole-array bit operations per offset (multispin
    coding).

    An entry whose step occupies nothing new has settled: it is its own
    closure.  Once at least half of the entries still being stepped have
    settled, they are written to the result and the others are gathered
    to the front of the flat array, so later steps skip the settled ones.
    A gather moves at most half of the entries before it, so all gathers
    together copy no more words than the input has.  The loop ends when
    every entry has settled; a single entry ends at its first step that
    occupies nothing new.
    """
    d = rule.dimension
    if words.dtype != np.uint64 or words.ndim < d:
        raise ValueError(
            f"closure_lanes needs a uint64 array with at least {d} axes, "
            f"got {words.dtype} with shape {words.shape}"
        )
    if words.size == 0:
        return words.copy()
    shape = words.shape[words.ndim - d :]
    entries = words.reshape((-1,) + shape)
    offsets = rule.offsets if rule.kind == "threshold" else _axis_units(d)
    # grid axis k is offset component d - 1 - k
    reach = [max(abs(off[d - 1 - k]) for off in offsets) for k in range(d)]
    before = reach if periodic else [0] * d
    padded_shape = tuple(n + b + a for n, b, a in zip(shape, before, reach))
    size = int(np.prod(padded_shape))  # words of one entry in the flat array
    strides = [int(np.prod(padded_shape[k + 1 :])) for k in range(d)]
    shifts = [sum(off[d - 1 - k] * strides[k] for k in range(d)) for off in offsets]
    margin = max(abs(sh) for sh in shifts)
    inner = tuple(slice(b, b + n) for b, n in zip(before, shape))

    live = np.arange(len(entries))  # result index of each entry still stepped
    digits = len(offsets).bit_length() if rule.kind == "threshold" else 0
    scratch = np.empty((2 + digits, live.size * size), dtype=np.uint64)
    flat = np.zeros(live.size * size + 2 * margin, dtype=np.uint64)
    padded = flat[margin : margin + live.size * size].reshape((-1,) + padded_shape)
    padded[(...,) + inner] = entries
    free = np.zeros_like(padded)  # empty interior cells
    free[(...,) + inner] = ~entries
    free = free.reshape(live.size, size)
    if periodic:
        # halo cell of an entry -> the interior cell it wraps to
        own = np.arange(size).reshape(padded_shape)
        source = np.pad(own[inner], list(zip(before, reach)), mode="wrap").reshape(-1)
        halo = np.flatnonzero(source != own.reshape(-1))
        source = source[halo]
    result = np.empty(entries.shape, dtype=np.uint64)
    grown = np.empty(live.size, dtype=np.uint64)  # OR of each entry's step
    while True:
        count = live.size
        core = flat[margin : margin + count * size]
        grids = core.reshape(count, size)
        planes = [flat[margin + sh : margin + count * size + sh] for sh in shifts]
        pred, spare, *counter = scratch[:, : count * size]
        open_cells = free[:count].reshape(-1)
        rows, grew = pred.reshape(count, size), grown[:count]
        while True:
            if periodic:
                grids[:, halo] = grids[:, source]
            if rule.kind == "threshold":
                _count_reaches_theta(planes, rule.theta, pred, spare, counter)
            else:
                _neighbour_on_every_axis(planes, pred, spare)
            pred &= open_cells
            np.bitwise_or.reduce(rows, axis=1, out=grew)
            core |= pred
            open_cells ^= pred
            kept = np.count_nonzero(grew)
            if 2 * kept <= count:
                break
        moved = grew != 0
        settled = ~moved
        result[live[settled]] = grids.reshape((count,) + padded_shape)[(settled,) + inner]
        if not kept:
            return result.reshape(words.shape)
        grids[:kept] = grids[moved]
        free[:kept] = free[:count][moved]
        live = live[moved]
        flat[margin + kept * size : 2 * margin + kept * size] = 0  # fresh margin


def closure_batch(occ: np.ndarray, rule: Rule, periodic: bool = False) -> np.ndarray:
    """Closure of many stacked configurations at once.

    ``occ`` has shape (m, *grid shape) and is not modified.  Slice ``i`` of
    the result equals ``closure_naive`` of slice ``i``.  The slices are
    packed 64 to a word and closed together by :func:`closure_lanes`.
    """
    occ = np.asarray(occ, dtype=bool)
    return unpack_lanes(closure_lanes(pack_lanes(occ), rule, periodic), len(occ))
