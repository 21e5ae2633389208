"""Monotone growth rules, synchronous stepping and closure computation.

The supported rule families are the rows of one table (``_FAMILIES``),
keyed by kind: standard<d> and modified<d> (d in 1..3), 12, 1b:<b>,
duarte and abc:<a>,<b>,<c>.  A row gives the start of the family's CLI
name, its parameter count and range, and the builder of its stencil.
:class:`RuleFamily` reads it to check parameters and to spell the name,
:meth:`RuleFamily.parse` accepts exactly the names it spells, and
:func:`make_rule` calls the builder.

Two rule kinds cover every supported family:

* ``threshold`` - an empty cell becomes occupied when at least ``theta``
  of its stencil offsets point at occupied cells.  Offsets are counted
  with multiplicity, which only matters on periodic grids small enough
  for two offsets to wrap onto the same cell.
* ``modified`` - an empty cell becomes occupied when every lattice axis
  has at least one occupied neighbour at distance one.  This is a
  conjunction per axis and is deliberately not encoded as a threshold.

The closure (the fixed point of repeated stepping) is computed by one
bit-parallel kernel in two packings, and by a naive oracle:

* ``closure_naive`` iterates the synchronous step until nothing changes;
  it is the oracle the kernel is tested against.
* The kernel's synchronous step is a bit-sliced neighbour counter
  compared with ``theta`` in bit logic, or the per-axis OR/AND of the
  modified rule, over uint64 words whose bits are cells or configurations:

  - ``closure_fast`` packs the cells of a row, 64 to a word (bitboards),
    for one large configuration.  x offsets are word shifts, y and z
    offsets are row lookups, and only rows within reach of a row that
    changed in the last step are stepped.
  - ``closure_lanes`` packs configurations, one per bit lane (multispin
    coding), closing up to 64 configurations per word.  Each grid of
    words in a batch settles on its own: once half of those still being
    stepped have stopped changing, they are set aside and the rest are
    gathered into a smaller array, so a batch is not stepped whole until
    its slowest grid settles.  ``closure_batch`` packs a stack of boolean
    grids into lanes and unpacks the result, for the Monte Carlo trial
    blocks of fill estimates and of the growth events; exact subset
    enumeration (``fill_success_counts``) builds its lanes directly from
    the subset indices.

All of them agree bit for bit.  The naive step counts neighbours in the
narrowest unsigned type that holds the stencil size, and the kernel's
counter has as many digit planes as that size has bits, so stencils of
more than 255 offsets (``1b:b`` with b >= 127, ``abc`` with a+b+c >= 128)
do not wrap.  On an open grid both packings step a threshold rule with
only the offsets that land inside the grid, as the naive step skips the
others, so a stencil far longer than the grid costs what its landing
offsets cost.  On a periodic grid they step each offset wrapped to
within half the grid, so a long stencil costs one plane per offset but
no halo deeper than half the grid.  :func:`make_rule` refuses a stencil
of more than 2^17 offsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .lattice import Configuration, GridSpec


@dataclass(frozen=True)
class Rule:
    """A concrete local growth predicate.

    ``offsets`` are neighbour positions relative to the cell, as (x, y[, z])
    tuples.  For ``threshold`` rules the predicate is
    ``occupied offsets >= theta``; for ``modified`` the offsets must be the
    unit vectors, +1 then -1 on each axis in turn, and the predicate is
    per-axis.
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
        if self.kind == "modified" and self.offsets != _axis_units(self.dimension):
            raise ValueError(
                f"modified offsets must be the unit vectors {_axis_units(self.dimension)}, "
                f"got {self.offsets}"
            )


def _axis_units(d: int) -> tuple[tuple[int, ...], ...]:
    """The unit vectors of ``d`` axes, +1 then -1 on each axis in turn."""
    units = []
    for axis in range(d):
        for sign in (1, -1):
            off = [0] * d
            off[axis] = sign
            units.append(tuple(off))
    return tuple(units)


def _one_b_rule(b: int) -> Rule:
    offsets = [(i, 0) for i in range(1, b + 1)] + [(-i, 0) for i in range(1, b + 1)]
    return Rule("threshold", 2, (*offsets, (0, 1), (0, -1)), b + 1)


def _abc_rule(a: int, b: int, c: int) -> Rule:
    offsets = [(s * i, 0, 0) for i in range(1, a + 1) for s in (1, -1)]
    offsets += [(0, s * j, 0) for j in range(1, b + 1) for s in (1, -1)]
    offsets += [(0, 0, s * k) for k in range(1, c + 1) for s in (1, -1)]
    return Rule("threshold", 3, tuple(offsets), a + b + c)


class _Family(NamedTuple):
    """An entry of the family table.  The family's CLI name is ``prefix``
    followed by its ``arity`` integer parameters joined by commas.
    ``admits`` says whether parameters lie in the family, as ``spelling``
    says in words, ``size`` counts the offsets of the family's stencil,
    and ``rule`` builds the family's rule from admitted ones; all three
    take the parameters as arguments.  The check and the count are apart
    from the builder because the scaling laws take a ``1b:<b>`` of any
    size, whose stencil of 2b + 2 offsets is never built for them, and
    :func:`make_rule` refuses a stencil too large to build."""

    prefix: str
    arity: int
    spelling: str
    admits: Callable[..., bool]
    size: Callable[..., int]
    rule: Callable[..., Rule]


# Every supported family, keyed by its kind.  The builders list offsets in a
# fixed order, which Rule equality and the modified unit-vector check read.
_FAMILIES = {
    "standard": _Family(
        "standard", 1, "standard<d> with d in 1..3", lambda d: d in (1, 2, 3), lambda d: 2 * d,
        lambda d: Rule("threshold", d, _axis_units(d), d),
    ),
    "modified": _Family(
        "modified", 1, "modified<d> with d in 1..3", lambda d: d in (1, 2, 3), lambda d: 2 * d,
        lambda d: Rule("modified", d, _axis_units(d), d),
    ),
    "one_two": _Family("12", 0, "12", lambda: True, lambda: 6, lambda: _one_b_rule(2)),
    "one_b": _Family(
        "1b:", 1, "1b:<b> with b >= 1", lambda b: b >= 1, lambda b: 2 * b + 2, _one_b_rule
    ),
    "duarte": _Family(
        "duarte", 0, "duarte", lambda: True, lambda: 3,
        lambda: Rule("threshold", 2, ((0, 1), (1, 0), (0, -1)), 2),
    ),
    "abc": _Family(
        "abc:", 3, "abc:<a>,<b>,<c> with 1 <= a <= b <= c",
        lambda a, b, c: 1 <= a <= b <= c, lambda a, b, c: 2 * (a + b + c), _abc_rule,
    ),
}

# The most stencil offsets make_rule builds: 1b:65535 has exactly this many
# and builds in a fraction of a second, while an unbounded b would end in an
# out-of-memory kill rather than a refusal.
_MAX_OFFSETS = 1 << 17


@dataclass(frozen=True)
class RuleFamily:
    """A rule family of the table with parameters that it admits."""

    kind: str
    params: tuple[int, ...] = ()

    def __post_init__(self):
        family = _FAMILIES.get(self.kind)
        if family is None:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if len(self.params) != family.arity or not family.admits(*self.params):
            raise ValueError(f"{self.kind} needs {family.spelling}, got parameters {self.params}")

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
        """The family whose :attr:`name` is ``name`` once surrounding
        whitespace is stripped, such as ``12``, ``1b:3`` or ``abc:1,2,3``.
        Any other spelling is refused."""
        name = name.strip()
        for kind, family in _FAMILIES.items():
            if not name.startswith(family.prefix):
                continue
            rest = name[len(family.prefix) :]
            try:
                params = tuple(int(tok) for tok in rest.split(",")) if rest else ()
                found = RuleFamily(kind, params)
            except ValueError:
                continue
            if found.name == name:
                return found
        spellings = ", ".join(family.spelling for family in _FAMILIES.values())
        raise ValueError(f"unknown rule family {name!r}; the families are {spellings}")

    @property
    def name(self) -> str:
        return _FAMILIES[self.kind].prefix + ",".join(str(v) for v in self.params)


def make_rule(family: RuleFamily) -> Rule:
    """Build the concrete rule for a family.  A stencil of more than
    ``_MAX_OFFSETS`` offsets is refused before it is built."""
    entry = _FAMILIES[family.kind]
    size = entry.size(*family.params)
    if size > _MAX_OFFSETS:
        raise ValueError(
            f"rule {family.name} has {size} stencil offsets, "
            f"more than the {_MAX_OFFSETS} a rule may have"
        )
    return entry.rule(*family.params)


def _check_dimensions(grid: GridSpec, rule: Rule) -> None:
    if grid.ndim != rule.dimension:
        raise ValueError(
            f"rule dimension {rule.dimension} does not match grid dimension {grid.ndim}"
        )


def _landing_offsets(rule: Rule, dims: tuple[int, ...], periodic: bool):
    """The offsets the kernels step ``rule`` with on a grid of side lengths
    ``dims`` (x first); modified rules keep their unit vectors.

    On an open grid a threshold rule's offset with a component at least as
    long as its axis never lands inside the grid and counts nothing, so it
    is left out; with fewer offsets left than ``theta``, nothing can grow.
    On a periodic grid each component is wrapped into (-n/2, n/2] of its
    axis, which reads the same cell, so no offset reaches past half the
    grid.  Each stencil offset keeps one stepped offset, so offsets that
    wrap onto one cell still count with multiplicity; one that wraps onto
    the cell itself is left out, since the rule is evaluated only on empty
    cells, where it counts nothing."""
    if rule.kind != "threshold":
        return rule.offsets
    if not periodic:
        return tuple(off for off in rule.offsets if all(abs(v) < n for v, n in zip(off, dims)))
    wrapped = (tuple((v + (n - 1) // 2) % n - (n - 1) // 2 for v, n in zip(off, dims))
               for off in rule.offsets)
    return tuple(off for off in wrapped if any(off))


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
    _check_dimensions(config.grid, rule)
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


def _shifted(rows: np.ndarray, k: int, start: int, width: int) -> np.ndarray:
    """Bit rows moved along x: bit ``x`` of the result is bit ``x + k`` of
    the rows whose ``width`` data words begin at column ``start`` of
    ``rows`` (cell x at bit x % 64 of word x // 64).  Carries cross words,
    so ``|k|`` may exceed 64; the zero words padding each side of the data
    must cover the words that ``k`` reaches."""
    q, s = divmod(k, 64)
    plane = rows[:, start + q : start + q + width]
    if s:
        plane = plane >> np.uint64(s)
        plane |= rows[:, start + q + 1 : start + q + 1 + width] << np.uint64(64 - s)
    return plane


def _row_planes(board, sources, groups, lx, periodic, start, width):
    """The shifted planes of one step, one at a time: for each row group's
    source rows (gathered once) and each of its x components ``dx``, bit x
    of the plane is the cell at ``x + dx`` of the source row.  On periodic
    grids ``dx`` rotates within ``lx`` bits, so offsets that wrap onto one
    cell each give a plane."""
    for src, dxs in zip(sources, groups):
        rows = board[src]
        for dx in dxs:
            k = dx % lx if periodic else dx
            if periodic and k:
                yield _shifted(rows, k, start, width) | _shifted(rows, k - lx, start, width)
            else:
                yield _shifted(rows, k, start, width)


def closure_fast(config: Configuration, rule: Rule) -> Configuration:
    """Closure of one configuration, identical output to :func:`closure_naive`.

    One counter, two packings: :func:`closure_lanes` packs configurations
    into the bits of a word, this packs the cells of a row.  Row ``(z, y)``
    is ``ceil(Lx / 64)`` uint64 words, cell x at bit ``x % 64`` of word
    ``x // 64``, with zero words on either side as far as the x offsets
    reach; bits past ``Lx`` stay zero.  Offsets are grouped by their (y, z)
    part, which a neighbour-row table resolves (out-of-range rows point at
    a zero row on open grids, and wrap on periodic ones); the x part is a
    shift with carries across words, or on periodic grids a rotation
    within ``Lx`` bits made of two shifts.  A synchronous step feeds these
    planes, made one at a time, to the same bit-sliced counter (or
    per-axis OR/AND for the modified rule) as the lane kernel.

    A row's step depends only on its source rows, so only rows with a
    source row that changed in the last step are gathered and stepped;
    the loop ends when no row changes.
    """
    _check_dimensions(config.grid, rule)
    grid = config.grid
    periodic = grid.periodic
    offsets = _landing_offsets(rule, grid.dims, periodic)
    if len(offsets) < rule.theta:
        return Configuration(grid, config.cells.copy())
    lz, ly, lx = (1, 1, *grid.shape)[-3:]
    n_rows, width = lz * ly, -(-lx // 64)

    groups: dict[tuple[int, int], list[int]] = {}  # (dy, dz) -> dx, in stencil order
    for off in offsets:
        dx, dy, dz = (*off, 0, 0)[:3]
        groups.setdefault((dy, dz), []).append(dx)
    z, y = np.divmod(np.arange(n_rows), ly)
    sources = []  # per group, the board row each row reads
    for dy, dz in groups:
        ny, nz = y + dy, z + dz
        if periodic:
            sources.append(nz % lz * ly + ny % ly)
        else:
            inside = (ny >= 0) & (ny < ly) & (nz >= 0) & (nz < lz)
            sources.append(np.where(inside, nz * ly + ny, n_rows))
    sources = np.stack(sources)
    shifts = [off[0] for off in offsets]
    if periodic:
        shifts = [k for dx in shifts for k in (dx % lx, dx % lx - lx)]
    start = max(0, *(-(k // 64) for k in shifts))  # zero words before the data
    after = max(1, *(k // 64 + 1 for k in shifts))  # and after it

    # Row n_rows is the zero row that open grids point out-of-range rows at.
    octets = np.zeros((n_rows + 1, 8 * (start + width + after)), dtype=np.uint8)
    octets[:n_rows, 8 * start : 8 * start + -(-lx // 8)] = np.packbits(
        config.cells.reshape(n_rows, lx), axis=1, bitorder="little"
    )
    board = octets.view(np.uint64)
    tail = np.uint64((1 << (lx - 64 * (width - 1))) - 1)  # live bits of the last word

    digits = len(offsets).bit_length() if rule.kind == "threshold" else 0
    scratch = np.empty((2 + digits, n_rows, width), dtype=np.uint64)
    changed = np.ones(n_rows + 1, dtype=bool)
    changed[n_rows] = False
    while True:
        active = np.flatnonzero(changed[sources].any(axis=0))
        if not active.size:
            break
        pred, spare, *counter = scratch[:, : active.size]
        planes = _row_planes(
            board, sources[:, active], groups.values(), lx, periodic, start, width
        )
        if rule.kind == "threshold":
            _count_reaches_theta(planes, rule.theta, pred, spare, counter)
        else:
            _neighbour_on_every_axis(planes, pred, spare)
        rows = board[active]
        occupied = rows[:, start : start + width]
        np.bitwise_not(occupied, out=spare)
        pred &= spare
        pred[:, -1] &= tail
        occupied |= pred
        board[active] = rows
        changed[:] = False
        changed[active[pred.any(axis=1)]] = True
    cells = np.unpackbits(octets[:n_rows, 8 * start :], axis=1, count=lx, bitorder="little")
    return Configuration(grid, cells.view(bool).reshape(grid.shape))


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

    ``planes`` is an iterable read once, in order, so a caller may make
    each plane only when it is needed.  A vertical counter: ``digits[j]``
    holds bit ``j`` of the count at every bit position.  Adding plane
    ``i`` ripples a carry through the digits that a count of at most
    ``i + 1`` can reach.  The comparison with ``theta`` runs from its
    lowest set bit upward: ``count >= theta`` on bits ``0..j`` is
    ``d_j & ge`` where bit ``j`` of theta is 1 and ``d_j | ge`` where it
    is 0.
    """
    planes = iter(planes)
    first, second = next(planes), next(planes, None)
    if second is None:
        np.copyto(digits[0], first)
    else:
        np.bitwise_and(first, second, out=digits[1])
        np.bitwise_xor(first, second, out=digits[0])
    for i, carry in enumerate(planes, 2):
        top = (i + 1).bit_length() - 1
        fresh = i + 1 == 1 << top  # digit `top` is first reached by this plane
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
    iterates over the (+1, -1) neighbour planes of each axis in turn."""
    planes = iter(planes)
    np.bitwise_or(next(planes), next(planes), out=out)
    for plus in planes:
        np.bitwise_or(plus, next(planes), out=spare)
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
    inside a halo as deep as its stepped offsets reach on every grid axis, so
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
    offsets = _landing_offsets(rule, shape[::-1], periodic)
    if len(offsets) < rule.theta:
        return words.copy()
    entries = words.reshape((-1,) + shape)
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
