"""Monotone growth rules, synchronous stepping and closure computation.

The supported rule families are the rows of one table (``_FAMILIES``),
keyed by kind: standard<d> and modified<d> (d in 1..3), 12, 1b:<b>,
duarte and abc:<a>,<b>,<c>.  A row gives the start of the family's CLI
name, its parameter count and range, and the builder of its stencil.
:class:`RuleFamily` reads it to check parameters and to spell the name,
:meth:`RuleFamily.parse` accepts exactly the names it spells (surrounding
whitespace aside), and :func:`make_rule` calls the builder.

Two rule kinds cover every supported family:

* ``threshold`` - an empty cell becomes occupied when at least ``theta``
  of its stencil offsets point at occupied cells.  Offsets are counted
  with multiplicity, which only matters on periodic grids small enough
  for two offsets to wrap onto the same cell.
* ``modified`` - an empty cell becomes occupied when every lattice axis
  has at least one occupied neighbour at distance one.  This is a
  conjunction per axis and is deliberately not encoded as a threshold;
  its offsets must be the unit vectors, +1 then -1 on each axis.

The closure (the fixed point of repeated stepping) is computed by one
bit-parallel kernel in two packings, and by a naive oracle:

* ``closure_naive`` iterates the synchronous step until nothing changes;
  it is the oracle the kernel is tested against.
* The kernel's synchronous step is a short list of whole-array bit
  operations, calls ``(ufunc, a, b, out)`` that one generator
  (``_step_ops``) gives for the step's shifted neighbour planes.  A
  threshold rule takes whichever of two forms makes fewer calls for its
  plane weights and ``theta``: a bit-sliced counter compared with
  ``theta`` in bit logic, or "at least k" accumulators; the modified rule
  takes the per-axis OR/AND.  The choice (``_step_form``) is made once
  for a rule's plane weights and kept, so repeated closures of one rule
  and grid do not make it again.  The words are unsigned integers whose
  bits are cells or configurations:

  - ``closure_fast`` packs the cells of a row, 64 to a uint64 word
    (bitboards), for one large configuration.  x offsets are word shifts,
    y and z offsets are row lookups, and only rows within reach of a row
    that changed in the last step are stepped.  Its planes are made one
    at a time and each call runs as it comes.
  - ``closure_lanes`` packs configurations, one per bit lane (multispin
    coding), closing as many configurations per word as the word has
    bits.  Its planes are fixed slices of one flat array, so the calls are
    built once and each step only runs them; a step then masks the rule's
    words with one constant mask of the interior cells and ORs them in.
    Each grid of words in a batch settles on its own: once half of those
    still being stepped have stopped changing, they are set aside and the
    rest are gathered into a smaller array (and the calls built again for
    it), so a batch is not stepped whole until its slowest grid settles.
    Whether a grid has stopped changing is checked on each of a closure's
    first 16 steps, where most small grids settle, and then on every 4th
    step, since a check costs more calls than the mask and the OR.
    ``closure_batch`` packs
    a stack of boolean grids into lanes with ``pack_lanes`` (one transposed
    copy that puts the lanes of a cell side by side, then one ``packbits``
    along them) and unpacks the result, for the Monte Carlo trial blocks of
    fill estimates; the growth events pack only their helper cells, and
    ``montecarlo.held_hits`` closes those words with every other cell held
    occupied, as it closes the subsets of exact enumeration.  Lanes go 64
    to a uint64 word, or a block of fewer than 64 into one word of the
    narrowest unsigned type that holds it (uint8, uint16 or uint32), since
    a step costs the same number of calls at any width and a narrow word
    moves fewer bytes.  Exact subset enumeration (``fill_success_counts``)
    builds uint64 lanes directly from the subset indices.

All of them agree bit for bit.  The naive step counts neighbours in the
narrowest unsigned type that holds the stencil size, and the kernel's
counter has as many digit planes as its planes' total weight has bits,
so stencils of more than 255 offsets (``1b:b`` with b >= 127, ``abc``
with a+b+c >= 128) do not wrap.  On an open grid both packings step a
threshold rule with only the offsets that land inside the grid, as the
naive step skips the others, so a stencil far longer than the grid costs
what its landing offsets cost.  On a periodic grid they wrap each offset
to within half the grid and step the offsets that wrap onto one cell as
one plane, weighted by their number, so a long stencil costs one plane
per cell it reaches and no halo deeper than half the grid.
:func:`make_rule` refuses a stencil of more than 2^17 offsets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby, islice, repeat
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


def _landing_offsets(rule: Rule, dims: tuple[int, ...], periodic: bool) -> dict:
    """The offsets the kernels step ``rule`` with on a grid of side lengths
    ``dims`` (x first), each mapped to its weight, the number of stencil
    offsets it stands for; modified rules keep their unit vectors.

    On an open grid a threshold rule's offset with a component at least as
    long as its axis never lands inside the grid and counts nothing, so it
    is left out; with a total weight below ``theta``, nothing can grow.
    On a periodic grid each component is wrapped into (-n/2, n/2] of its
    axis, which reads the same cell, so no offset reaches past half the
    grid.  Stencil offsets that wrap onto one cell become one offset whose
    weight is their number, so a neighbour still counts with multiplicity
    but costs one plane; one that wraps onto the cell itself is left out,
    since the rule is evaluated only on empty cells, where it counts
    nothing."""
    if rule.kind != "threshold":
        return dict.fromkeys(rule.offsets, 1)
    if not periodic:
        return dict.fromkeys(
            (off for off in rule.offsets if all(abs(v) < n for v, n in zip(off, dims))), 1
        )
    wrapped = (tuple((v + (n - 1) // 2) % n - (n - 1) // 2 for v, n in zip(off, dims))
               for off in rule.offsets)
    return Counter(off for off in wrapped if any(off))


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


def _step_ops(form, planes, weights, theta, out, scratch):
    """The calls of one synchronous step's predicate, as tuples
    ``(ufunc, a, b, into)`` to be run as ``ufunc(a, b, out=into)`` in
    order.  They leave ``out`` set where the rule holds: for a threshold
    rule, where plane ``i`` counted ``weights[i]`` times gives at least
    ``theta``; for the modified rule (form ``"axes"``, ``planes`` the +1
    and -1 neighbour planes of each axis in turn), where every axis has
    one of its two.

    ``planes`` is read once, in order, so a caller may make each plane
    when it is drawn and run each call as it comes; a caller whose planes
    stay put may keep the calls and run them on every step.  A call may
    read a plane after later ones are drawn, so no plane may change before
    the last call has run.  The calls write ``out`` and the ``scratch``
    buffers, as many as :func:`_step_form` gives for the form; a buffer
    is only written once the form needs it.  A threshold rule has two
    forms:

    * ``"counter"``, a vertical counter: ``scratch[1 + j]`` holds bit
      ``j`` of the count at every bit position, and a plane is added at
      each set bit of its weight, with a carry that ripples only through
      the digits a count that large can reach.  The comparison with
      ``theta`` runs from its lowest set bit upward: ``count >= theta`` on
      bits ``0..j`` is ``d_j & ge`` where bit ``j`` of theta is 1 and
      ``d_j | ge`` where it is 0.
    * ``"levels"``, at-least accumulators: level ``k`` (``scratch[k]``,
      and ``out`` for ``theta``) holds the cells where the planes so far
      reach ``k``, and a plane ``x`` of weight ``w`` makes it
      ``a_k | (a_{k-w} & x)`` (``a_k | x`` for ``k <= w``).  A level is
      dropped once the weight still to come cannot lift it to ``theta``.

    A digit or level that is still zero costs no call, and one that equals
    a plane is that plane until it changes.  ``scratch[0]`` is the
    temporary of both forms.
    """
    spare = scratch[0]
    if form == "axes":
        planes = iter(planes)
        for axis, (plus, minus) in enumerate(zip(planes, planes)):
            into = spare if axis else out
            yield np.bitwise_or, plus, minus, into
            if axis:
                yield np.bitwise_and, out, spare, out
        return
    if form == "levels":
        level, total, left = {}, 0, sum(weights)  # an absent level is zero
        for x, w in zip(planes, weights):
            total, left = total + w, left - w
            # From the top down, so that level k - w is read before it changes.
            for k in range(min(theta, total), max(0, theta - left - 1), -1):
                into, old = out if k == theta else scratch[k], level.get(k)
                if k > w:
                    # level k - w is set: it was in range at the plane
                    # before, and plane 1 sets every level it reaches
                    below = level[k - w]
                    if old is None:
                        yield np.bitwise_and, below, x, into
                    else:
                        yield np.bitwise_and, below, x, spare
                        yield np.bitwise_or, old, spare, into
                elif old is None:
                    into = x
                else:
                    yield np.bitwise_or, old, x, into
                level[k] = into
        result = level[theta]
    else:
        digit, total = {}, 0  # an absent digit is zero
        for x, w in zip(planes, weights):
            for b in range(w.bit_length()):
                if not w >> b & 1:
                    continue
                total += 1 << b
                carry, j = x, b
                while j in digit:
                    last = total < 2 << j  # the count fits in digits 0..j
                    if not last:
                        if j + 1 in digit:
                            carried = spare if carry is out else out
                        else:
                            carried = scratch[2 + j]
                        yield np.bitwise_and, digit[j], carry, carried
                    yield np.bitwise_xor, digit[j], carry, scratch[1 + j]
                    digit[j] = scratch[1 + j]
                    if last:
                        break
                    carry, j = carried, j + 1
                else:
                    digit[j] = carry
        low = (theta & -theta).bit_length() - 1
        result = digit.get(low)
        for j in range(low + 1, total.bit_length()):
            d, need = digit.get(j), theta >> j & 1
            if result is None or d is None:  # a zero operand
                result = None if need else (d if result is None else result)
                continue
            yield (np.bitwise_and if need else np.bitwise_or), result, d, out
            result = out
    if result is not out:
        yield np.bitwise_or, result, result, out


def _step_form(kind: str, weights: tuple[int, ...], theta: int) -> tuple[str, int]:
    """The form of :func:`_step_ops` for a rule of ``kind`` stepped with
    planes of these ``weights``, and how many scratch buffers it takes.  A
    threshold rule takes whichever of the counter and the levels makes
    fewer calls, the counter on a tie; the levels win on short stencils
    with a small ``theta``, the counter on long ones.

    The choice dry-runs both forms, which costs as much as building the
    calls of a step (over a second for a stencil of 2^17 offsets), so it is
    kept for the most recent arguments: every later closure of the same
    rule and grid, in each Monte Carlo block, reuses it.  It is kept by the
    runs of equal weights, so a long stencil of equal weights keeps a short
    key, not a second copy of its weights."""
    runs = tuple((w, sum(1 for _ in run)) for w, run in groupby(weights))
    return _chosen_form(kind, runs, theta)


@lru_cache(maxsize=64)
def _chosen_form(kind: str, runs: tuple[tuple[int, int], ...], theta: int) -> tuple[str, int]:
    """:func:`_step_form` for the weights that ``runs`` lists as (weight,
    number of planes in a row) pairs."""
    if kind == "modified":
        return "axes", 1
    weights = [w for w, n in runs for _ in range(n)]
    digits = sum(weights).bit_length()
    stand_ins = [object() for _ in range(3 + max(digits, theta))]
    plane, out, scratch = stand_ins[0], stand_ins[1], stand_ins[2:]
    counter = sum(1 for _ in _step_ops("counter", repeat(plane), weights, theta, out, scratch))
    levels = _step_ops("levels", repeat(plane), weights, theta, out, scratch)
    if sum(1 for _ in islice(levels, counter)) < counter:
        return "levels", theta
    return "counter", 1 + digits


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
    source rows (gathered once) and the x component ``dx`` of each of its
    offsets, bit x of the plane is the cell at ``x + dx`` of the source
    row.  On periodic grids ``dx`` rotates within ``lx`` bits."""
    for src, group in zip(sources, groups):
        rows = board[src]
        for dx, *_ in group:
            k = dx % lx if periodic else dx
            if periodic and k:
                yield _shifted(rows, k, start, width) | _shifted(rows, k - lx, start, width)
            else:
                yield _shifted(rows, k, start, width)


def closure_fast(config: Configuration, rule: Rule) -> Configuration:
    """Closure of one configuration, identical output to :func:`closure_naive`.

    One step, two packings: :func:`closure_lanes` packs configurations
    into the bits of a word, this packs the cells of a row.  Row ``(z, y)``
    is ``ceil(Lx / 64)`` uint64 words, cell x at bit ``x % 64`` of word
    ``x // 64``, with zero words on either side as far as the x offsets
    reach; bits past ``Lx`` stay zero.  Offsets are grouped by their (y, z)
    part, which a neighbour-row table resolves (out-of-range rows point at
    a zero row on open grids, and wrap on periodic ones); the x part is a
    shift with carries across words, or on periodic grids a rotation
    within ``Lx`` bits made of two shifts.  A synchronous step makes these
    planes one at a time and runs the calls :func:`_step_ops` gives for
    them as they come, the same calls as the lane kernel's.

    A row's step depends only on its source rows, so only rows with a
    source row that changed in the last step are gathered and stepped;
    the loop ends when no row changes.
    """
    _check_dimensions(config.grid, rule)
    grid = config.grid
    periodic = grid.periodic
    landing = _landing_offsets(rule, grid.dims, periodic)
    if sum(landing.values()) < rule.theta:
        return Configuration(grid, config.cells.copy())
    lz, ly, lx = (1, 1, *grid.shape)[-3:]
    n_rows, width = lz * ly, -(-lx // 64)

    groups: dict[tuple[int, int], list] = {}  # (dy, dz) -> offsets, in stencil order
    for off in landing:
        dx, dy, dz = (*off, 0, 0)[:3]
        groups.setdefault((dy, dz), []).append(off)
    offsets = [off for group in groups.values() for off in group]  # in the planes' order
    weights = tuple(landing[off] for off in offsets)
    form, spares = _step_form(rule.kind, weights, rule.theta)
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

    scratch = np.empty((1 + spares, n_rows, width), dtype=np.uint64)
    changed = np.ones(n_rows + 1, dtype=bool)
    changed[n_rows] = False
    while True:
        active = np.flatnonzero(changed[sources].any(axis=0))
        if not active.size:
            break
        pred, *spare = scratch[:, : active.size]
        planes = _row_planes(
            board, sources[:, active], groups.values(), lx, periodic, start, width
        )
        for ufunc, a, b, into in _step_ops(form, planes, weights, rule.theta, pred, spare):
            ufunc(a, b, out=into)
        rows = board[active]
        occupied = rows[:, start : start + width]
        np.bitwise_not(occupied, out=spare[0])
        pred &= spare[0]
        pred[:, -1] &= tail
        occupied |= pred
        board[active] = rows
        changed[:] = False
        changed[active[pred.any(axis=1)]] = True
    cells = np.unpackbits(octets[:n_rows, 8 * start :], axis=1, count=lx, bitorder="little")
    return Configuration(grid, cells.view(bool).reshape(grid.shape))


def pack_lanes(bits: np.ndarray) -> np.ndarray:
    """Pack a stack of boolean grids, shape (n, *grid shape), into words of
    shape (ceil(n / lanes), *grid shape): bit ``j`` of word ``w`` is grid
    ``lanes * w + j``.  The words are the narrowest unsigned type with ``n``
    lanes (uint8, uint16 or uint32) below 64 grids, and uint64, 64 lanes,
    from 64 up.  Lanes past ``n`` are zero.

    The stack is copied once into a (words, cells, lanes) array, so the
    lanes of a cell lie side by side, and packed along that axis, each
    word's bytes in order (bytes are little-endian within a word)."""
    n, shape = bits.shape[0], bits.shape[1:]
    word = np.min_scalar_type((1 << min(n, 64)) - 1)
    lanes, cells = 8 * word.itemsize, int(np.prod(shape))
    full, rest = divmod(n, lanes)
    flat = bits.reshape(n, cells)
    stack = np.zeros((full + (rest > 0), cells, lanes), dtype=bool)
    by_lane = stack.transpose(0, 2, 1)
    by_lane[:full] = flat[: full * lanes].reshape(full, lanes, cells)
    if rest:
        by_lane[full, :rest] = flat[full * lanes :]
    packed = np.packbits(stack, axis=-1, bitorder="little").view(word)
    return packed.reshape((len(stack),) + shape)


def unpack_lanes(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_lanes`: the first ``n`` grids as booleans."""
    count, shape = words.shape[0], words.shape[1:]
    cells, width = int(np.prod(shape)), words.dtype.itemsize
    octets = np.ascontiguousarray(words).reshape(count, cells, 1).view(np.uint8)
    octets = octets.transpose(0, 2, 1).reshape(count * width, cells)
    bits = np.unpackbits(octets, axis=0, count=n, bitorder="little")
    return bits.view(bool).reshape((n,) + shape)


# closure_lanes looks for settled entries on each of a closure's first
# _CHECKED_STEPS steps, where most entries of a small grid settle, and then
# on every _CHECK_EVERY-th step.  Besides the rule's calls, a step between
# checks makes 2 calls, and a check 5 (6 on a periodic grid).
_CHECKED_STEPS = 16
_CHECK_EVERY = 4


def closure_lanes(words: np.ndarray, rule: Rule, periodic: bool = False) -> np.ndarray:
    """Closure of as many configurations as a machine word has bits.

    ``words`` is an array of unsigned integers (uint8 to uint64) of the
    grid's shape, optionally with leading batch axes.  Bit ``j`` of every
    word belongs to configuration ``j``: for each lane ``j`` and batch
    position, the bit-plane of the result equals ``closure_naive`` of the
    same bit-plane of ``words``.  The result has the dtype of ``words``,
    which is not modified.  A step costs a call per word array whatever
    its width, and a narrower word moves fewer bytes, so a block of fewer
    than 64 configurations closes fastest in the narrowest word that holds
    it (see :func:`pack_lanes`).

    Each batch position is an entry, one word per cell, closed as a grid
    of its own.  The entries lie one after another in a flat array, each
    inside a halo as deep as its stepped offsets reach on every grid axis, so
    each offset's shifted plane is one contiguous slice of the flat array.
    On an open grid the halo is zero and follows each row (plane, block,
    entry), where it also serves as the halo before the next one; flat
    margins catch offsets past either end.  On a periodic grid the halo is
    the wrapped grid on both sides, copied from the interior before each
    step.  Between gathers (below) every shifted plane is a fixed slice of
    the flat array, so the step's whole-array bit operations (multispin
    coding), the calls :func:`_step_ops` gives for those planes, are built
    once per gather and a step only runs them.

    A step ANDs the rule's words with one constant mask, built once and
    tiled per entry: all ones on interior cells, zero on halo and padding.
    Every entry has the same pattern, so a prefix of the mask serves the
    entries left after a gather.  The masked words are ORed into the
    entries; they may repeat occupied cells, which the OR leaves as they
    are.

    An entry whose step occupies nothing new has settled: it is its own
    closure, and every later step leaves it as it is.  A check step
    finds the settled entries: before the OR it also ANDs the rule's words
    with the entries' empty interior cells, ``~entries & mask`` (on an
    open grid, whose halo stays zero, ``entries ^ mask``; a periodic
    grid's halo holds copies of occupied cells), and ORs each entry's new
    cells together.  A closure checks on each of its first 16 steps, where
    most entries of a small grid settle, and then on every 4th step, so
    an entry may be stepped up to 3 times after it settles.  Once at
    least half of the entries still being stepped have settled, they are
    written to the result and the others are gathered to the front of
    the flat array, so later steps skip the settled ones.  A gather moves
    at most half of the entries before it, so all gathers together copy
    no more words than the input has.  The loop ends when every entry has
    settled; a single entry ends at the first check that finds it
    settled.
    """
    d = rule.dimension
    if words.dtype.kind != "u" or words.ndim < d:
        raise ValueError(
            f"closure_lanes needs an unsigned integer array with at least {d} axes, "
            f"got {words.dtype} with shape {words.shape}"
        )
    if words.size == 0:
        return words.copy()
    shape = words.shape[words.ndim - d :]
    landing = _landing_offsets(rule, shape[::-1], periodic)
    if sum(landing.values()) < rule.theta:
        return words.copy()
    offsets, weights = list(landing), tuple(landing.values())
    form, spares = _step_form(rule.kind, weights, rule.theta)
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
    scratch = np.empty((1 + spares, live.size * size), dtype=words.dtype)
    flat = np.zeros(live.size * size + 2 * margin, dtype=words.dtype)
    padded = flat[margin : margin + live.size * size].reshape((-1,) + padded_shape)
    padded[(...,) + inner] = entries
    # the step's mask (see above), one pattern tiled per entry
    interior = np.zeros(padded_shape, dtype=words.dtype)
    interior[inner] = np.iinfo(words.dtype).max
    interior = np.tile(interior.reshape(-1), live.size)
    if periodic:
        # halo cell of an entry -> the interior cell it wraps to
        own = np.arange(size).reshape(padded_shape)
        source = np.pad(own[inner], list(zip(before, reach)), mode="wrap").reshape(-1)
        halo = np.flatnonzero(source != own.reshape(-1))
        source = source[halo]
    result = np.empty(entries.shape, dtype=words.dtype)
    grown = np.empty(live.size, dtype=words.dtype)  # OR of each entry's step
    steps = 0
    while True:
        count = live.size
        core = flat[margin : margin + count * size]
        grids = core.reshape(count, size)
        planes = [flat[margin + sh : margin + count * size + sh] for sh in shifts]
        pred, *spare = scratch[:, : count * size]
        ops = list(_step_ops(form, planes, weights, rule.theta, pred, spare))
        # spare[0], the calls' temporary, is free once they have run
        inside, empty = interior[: count * size], spare[0]
        rows, grew = pred.reshape(count, size), grown[:count]
        while True:
            if periodic:
                grids[:, halo] = grids[:, source]
            for ufunc, a, b, into in ops:
                ufunc(a, b, out=into)
            steps += 1
            if steps > _CHECKED_STEPS and steps % _CHECK_EVERY:
                pred &= inside
                core |= pred
                continue
            # empty = the empty interior cells.  An open grid's halo stays
            # zero, so there that is inside ^ core; a periodic grid's halo
            # holds copies of occupied cells, which inside ^ core would count
            # as newly occupied on every step, and no entry would settle.
            if periodic:
                np.bitwise_not(core, out=empty)
                empty &= inside
            else:
                np.bitwise_xor(core, inside, out=empty)
            pred &= empty
            np.bitwise_or.reduce(rows, axis=1, out=grew)
            core |= pred
            kept = np.count_nonzero(grew)
            if 2 * kept <= count:
                break
        moved = grew != 0
        settled = ~moved
        result[live[settled]] = grids.reshape((count,) + padded_shape)[(settled,) + inner]
        if not kept:
            return result.reshape(words.shape)
        grids[:kept] = grids[moved]
        live = live[moved]
        flat[margin + kept * size : 2 * margin + kept * size] = 0  # fresh margin


def closure_batch(occ: np.ndarray, rule: Rule, periodic: bool = False) -> np.ndarray:
    """Closure of many stacked configurations at once.

    ``occ`` has shape (m, *grid shape) and is not modified.  Slice ``i`` of
    the result equals ``closure_naive`` of slice ``i``.  The slices are
    packed by :func:`pack_lanes`, 64 to a uint64 word, or fewer than 64
    into one word of the narrowest unsigned type that holds them, and
    closed together by :func:`closure_lanes`.
    """
    occ = np.asarray(occ, dtype=bool)
    return unpack_lanes(closure_lanes(pack_lanes(occ), rule, periodic), len(occ))
